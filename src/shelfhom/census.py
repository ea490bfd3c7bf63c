"""Enumeration of small shelves up to isomorphism.

Canonical form is the lexicographic minimum of the row-major flattened table
over all carrier permutations, so two tables have the same canonical table
exactly when some relabelling transports one onto the other.  Enumeration
backtracks over table entries in row-major order, checking every instance
of the distributivity law as soon as its five lookups are determined.  The
census runs the same recursion as orderly generation (Read 1978; McKay
1998), so each class's canonical table is the only one of its class to come
out, and it stands for the class as a certified Shelf.  Canonical form is a
search pruned by the lex order and the automorphisms it finds (McKay and
Piperno 2014); the census's prune compares relabelled rows of a partial
table in order and stops at the first row that differs.
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
    """Lexicographic minimum over all relabellings (guarded at n = 8).

    Depth-first, writing the image row-major: a label with no source yet
    branches over the unlabelled sources that give the least entry, a value
    with no label takes the least free one, and a branch ends at its first
    entry above the best table.  A row tail that maps the unlabelled sources
    to themselves, or all to one labelled source, needs no branch.  A leaf
    that ties the best gives an automorphism, and a branch tries one source
    per orbit of the automorphisms found that fix every labelled source.
    """
    n = table.size
    if n > CANONICAL_SIZE_LIMIT:
        raise PracticalSizeLimit(
            f"canonical form refuses n = {n} > {CANONICAL_SIZE_LIMIT}: its search branches over "
            "points that no row tells apart, already 30 ms per relabelled pointed map at n = 8"
        )
    t = table.entries
    perm = [-1] * n  # the label of each source, -1 while it has none
    pinv = []  # the source of each label given so far
    best = best_pinv = None
    autos = []

    def extend(i, j, tied):
        # the entries before (i, j) are written and, when tied, are the best's
        nonlocal best, best_pinv
        while True:
            if j == n:
                i, j = i + 1, 0
            m = len(pinv)
            if i == n or m == n and not tied:
                if tied:
                    autos.append([best_pinv[p] for p in perm])
                else:
                    best, best_pinv = [[perm[t[px][q]] for q in pinv] for px in pinv], pinv[:]
                return
            if i < m and j < m:
                v = t[pinv[i]][pinv[j]]
                if perm[v] < 0:  # the least free label
                    perm[v] = m
                    pinv.append(v)
                if tied and perm[v] != best[i][j]:
                    if perm[v] > best[i][j]:
                        return
                    tied = False
                j += 1
                continue
            free = [u for u in range(n) if perm[u] < 0]
            image = [t[pinv[i]][u] for u in free] if i < m else None
            if image == free:
                tail = list(range(j, n))
            elif image and perm[image[0]] >= 0 and image.count(image[0]) == len(image):
                tail = [perm[image[0]]] * len(image)
            else:
                break
            if tied:
                if tail > best[i][j:]:
                    return
                tied = tail == best[i][j:]
            i, j = i + 1, 0
        # branch over the unlabelled sources u for label m
        entries = []
        for u in free:
            v = t[pinv[i] if i < m else u][pinv[j] if j < m else u]
            entries.append((perm[v] if perm[v] >= 0 else m + (v != u), u))
        e = min(entries)[0]
        if tied and e > best[i][j]:
            return
        done = []
        for f, u in entries:
            if f != e:
                continue
            if done and autos:
                fixing = [a for a in autos if all(a[x] == x for x in pinv)]
                orbit = done[:]
                for x in orbit:
                    orbit += [a[x] for a in fixing if a[x] not in orbit]
                if u in orbit:
                    continue
            perm[u] = m
            pinv.append(u)
            extend(i, j, tied)
            for x in pinv[m:]:
                perm[x] = -1
            del pinv[m:]
            done.append(u)
            tied = True  # the first child left a best that shares this prefix

    extend(0, 0, False)
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

    # at the end of row x, the relabellings that can beat t: every one but
    # the identity with pinv[0] < x, as _smaller is False at once for the rest
    relabellings = list(_relabellings(n))[1:] if canonical else []
    beaters = [[rl for rl in relabellings if rl[1][0] < x] for x in range(n + 1)]

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
                                for perm, pinv in beaters[x]):
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
