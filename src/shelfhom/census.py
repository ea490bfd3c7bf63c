"""Enumeration of small shelves up to isomorphism.

Canonical form is the lexicographic minimum of the row-major flattened table
over all carrier permutations, so two tables have equal keys exactly when
some relabelling transports one onto the other.  Enumeration backtracks over
table entries in row-major order, checking every instance of the
distributivity law as soon as its five lookups are determined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import isqrt

from .errors import OutOfRange, PracticalSizeLimit
from .tables import BinaryOpTable

CANONICAL_SIZE_LIMIT = 8
ENUMERATION_SIZE_LIMIT = 5


@dataclass(frozen=True, order=True)
class IsoClassKey:
    """Row-major flattening of the canonical (lex-min) table of a class."""

    flat: tuple[int, ...]

    @property
    def size(self) -> int:
        return isqrt(len(self.flat))

    def table(self) -> BinaryOpTable:
        n = self.size
        return BinaryOpTable(
            tuple(self.flat[i * n:(i + 1) * n] for i in range(n))
        )


def relabel(table: BinaryOpTable, perm) -> BinaryOpTable:
    """Transport the table along x -> perm[x]."""
    n = table.size
    t = table.entries
    pinv = [0] * n
    for i, p in enumerate(perm):
        pinv[p] = i
    return BinaryOpTable(
        tuple(
            tuple(perm[t[pinv[x]][pinv[y]]] for y in range(n))
            for x in range(n)
        )
    )


def canonical_form(table: BinaryOpTable) -> IsoClassKey:
    """Lexicographic minimum over all n! relabellings (guarded at n = 8)."""
    n = table.size
    if n > CANONICAL_SIZE_LIMIT:
        raise PracticalSizeLimit(
            f"canonical form is factorial in n; refusing n = {n} > {CANONICAL_SIZE_LIMIT}"
        )
    t = table.entries
    best = None
    pinv = [0] * n
    for perm in permutations(range(n)):
        for i, p in enumerate(perm):
            pinv[p] = i
        flat = tuple(
            perm[t[px][py]] for px in pinv for py in pinv
        )
        if best is None or flat < best:
            best = flat
    return IsoClassKey(best)


def enumerate_shelf_tables(n: int, limit: int = ENUMERATION_SIZE_LIMIT):
    """All labelled self-distributive tables on {0..n-1}, in lex order.

    Backtracking fills entries row-major; after each placement, every
    instance of the law whose lookups are all determined is checked, and
    instances blocked on a not-yet-filled row are carried forward and
    re-checked as the table grows.
    """
    if n < 0:
        raise OutOfRange(f"carrier size {n} < 0")
    if n > limit:
        raise PracticalSizeLimit(
            f"enumeration of size {n} exceeds the guard {limit}"
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
        if k == n2:
            results.append(
                BinaryOpTable(tuple(tuple(row) for row in t))
            )
            return
        x, y = divmod(k, n)
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


def enumerate_shelves(n: int) -> list[IsoClassKey]:
    """Isomorphism classes of shelves on n elements, sorted by key.

    Tables come out of the backtracker in ascending lex order, so the first
    member met in each class is its canonical table; the remaining members
    are skipped through a set of all relabelled images.
    """
    if n > ENUMERATION_SIZE_LIMIT:
        raise PracticalSizeLimit(
            f"enumeration of size {n} exceeds the guard {ENUMERATION_SIZE_LIMIT}"
        )
    keys = []
    seen: set[tuple[int, ...]] = set()
    perms = list(permutations(range(n)))
    for table in enumerate_shelf_tables(n):
        flat = table.flat()
        if flat in seen:
            continue
        key = canonical_form(table)
        assert key.flat == flat, "lex-first class member should be canonical"
        keys.append(key)
        for perm in perms:
            seen.add(relabel(table, perm).flat())
    keys.sort()
    return keys
