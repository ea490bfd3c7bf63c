"""Enumeration of small shelves up to isomorphism.

Canonical form is the lexicographic minimum of the row-major flattened table
over all carrier permutations, so two tables have the same canonical table
exactly when some relabelling transports one onto the other.  Enumeration
backtracks over table entries in row-major order, checking every instance
of the distributivity law as soon as its five lookups are determined.  The
census runs the same recursion as orderly generation (Read 1978; McKay
1998), so each class's canonical table is the only one of its class to come
out, and it stands for the class as a certified Shelf.  Canonical form and
the census's prune share one comparator, which compares relabelled rows in
order and stops at the first row that differs.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import OutOfRange, PracticalSizeLimit
from .tables import BinaryOpTable, Shelf

CANONICAL_SIZE_LIMIT = 8
ENUMERATION_SIZE_LIMIT = 5


def _relabellings(n: int):
    """(perm, pinv) for each relabelling x -> perm[x], the identity first."""
    for perm in permutations(range(n)):
        yield perm, [perm.index(x) for x in range(n)]


def _smaller(t, perm, pinv, target, r: int) -> bool:
    """Does relabelling t by perm give rows 0..r-1 smaller than target's?
    Row x of the image is determined while pinv[x] < r."""
    for x, px in enumerate(pinv):
        if px >= r:
            return False
        src = t[px]
        image = [perm[src[q]] for q in pinv]
        if image != target[x]:
            return image < target[x]
    return False


def canonical_form(table: BinaryOpTable) -> BinaryOpTable:
    """Lexicographic minimum over all n! relabellings (guarded at n = 8)."""
    n = table.size
    if n > CANONICAL_SIZE_LIMIT:
        raise PracticalSizeLimit(
            f"canonical form is factorial in n; refusing n = {n} > {CANONICAL_SIZE_LIMIT}"
        )
    t = [list(row) for row in table.entries]
    best = t
    for perm, pinv in _relabellings(n):
        if _smaller(t, perm, pinv, best, n):
            best = [[perm[t[px][py]] for py in pinv] for px in pinv]
    return BinaryOpTable(tuple(tuple(row) for row in best))


def enumerate_shelf_tables(n: int, canonical: bool = False):
    """All labelled self-distributive tables on {0..n-1}, in lex order.

    Backtracking fills entries row-major; after each placement, every
    instance of the law whose lookups are all determined is checked, and
    instances blocked on a not-yet-filled row are carried forward and
    re-checked as the table grows.

    With ``canonical``, only the lex-min table of each class is returned:
    once r rows are filled, a relabelling's image is determined on its rows
    x = 0, 1, ... while ``pinv[x] < r``, and a node whose image prefix is
    smaller has no lex-min completion.  A lex-min table's prefixes are never
    beaten, and at r = n the test is the full lex-min test.
    """
    if n < 0:
        raise OutOfRange(f"carrier size {n} < 0")
    if n > ENUMERATION_SIZE_LIMIT:
        raise PracticalSizeLimit(
            f"enumeration of size {n} exceeds the guard {ENUMERATION_SIZE_LIMIT}"
        )
    if n == 0:
        return []
    n2 = n * n
    t = [[-1] * n for _ in range(n)]

    # Instances of the law grouped by the last-filled static cell among
    # (a,b), (a,c), (b,c); the two value-dependent lookups are re-tried.
    static_group: list[list[tuple[int, int, int]]] = [[] for _ in range(n2)]
    for a, b, c in product(range(n), repeat=3):
        k = max(a * n + b, a * n + c, b * n + c)
        static_group[k].append((a, b, c))

    # every relabelling but the identity, which never beats t
    relabellings = list(_relabellings(n))[1:] if canonical else []

    results = []

    def check(triples):
        # Returns the still-undetermined subset, or None on a violation.
        carry = []
        for tri in triples:
            a, b, c = tri
            ta = t[a]
            lhs = t[ta[b]][c]
            rhs_row = ta[c]
            bc = t[b][c]
            if lhs < 0:
                carry.append(tri)
                continue
            rhs = t[rhs_row][bc]
            if rhs < 0:
                carry.append(tri)
                continue
            if lhs != rhs:
                return None
        return carry

    def rec(k, pending):
        x, y = divmod(k, n)
        if y == 0 and x and any(_smaller(t, perm, pinv, t, x)
                                for perm, pinv in relabellings):
            return
        if k == n2:
            results.append(
                BinaryOpTable(tuple(tuple(row) for row in t))
            )
            return
        row = t[x]
        group = static_group[k]
        for v in range(n):
            row[y] = v
            carry = check(pending)
            if carry is not None:
                carry2 = check(group)
                if carry2 is not None:
                    rec(k + 1, carry + carry2)
        row[y] = -1

    rec(0, [])
    return results


def enumerate_shelves(n: int) -> list[Shelf]:
    """Isomorphism classes of shelves on n elements, one canonical shelf each.

    Orderly generation emits each class's canonical table once, after
    checking every instance of the law, and the backtracker's lex order
    makes their flattenings ascending.
    """
    return [Shelf(table) for table in enumerate_shelf_tables(n, canonical=True)]
