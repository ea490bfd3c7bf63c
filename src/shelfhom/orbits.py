"""Left orbits of a shelf, the orbit quotient, and classification flags.

The left orbits are the classes of the smallest equivalence relation with
x ~ y*x for all x, y; they are computed by union-find closure over those
pairs.  ``left_orbits`` returns the orbits themselves: a tuple of sorted
blocks ordered by least member, so their count is its length.  Racks are
left connected, and for x*y = g(y) the orbits biject with the image of g.
"""

from __future__ import annotations

from .tables import BinaryOpTable, Shelf, is_spindle, right_trivial_op, validate_shelf


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            x, parent[x] = parent[x], parent[parent[x]]
        return x

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]

    def blocks(self):
        groups = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return sorted(tuple(sorted(g)) for g in groups.values())


def left_orbits(shelf: Shelf) -> tuple[tuple[int, ...], ...]:
    """The orbits as sorted blocks ordered by least member: union-find
    closure over the pairs (x, y*x)."""
    n = shelf.size
    t = shelf.table.entries
    uf = UnionFind(n)
    for x in range(n):
        for y in range(n):
            uf.union(x, t[y][x])
    return tuple(uf.blocks())


def orbit_quotient(shelf: Shelf):
    """The induced shelf on the orbit set with the quotient map.

    Returns ``(quotient, pi)`` where pi maps each element to its block
    index.  The induced product is always [x]*[y] = [y]; both the
    homomorphism property and that shape are re-checked here.
    """
    blocks = left_orbits(shelf)
    n = shelf.size
    t = shelf.table.entries
    label = {x: b for b, members in enumerate(blocks) for x in members}
    pi = tuple(label[x] for x in range(n))
    r = len(blocks)
    reps = [b[0] for b in blocks]
    q_rows = [[pi[t[reps[a]][reps[b]]] for b in range(r)] for a in range(r)]
    quotient_table = BinaryOpTable.from_rows(q_rows)
    # internal consistency: pi must be a homomorphism onto the quotient
    for x in range(n):
        for y in range(n):
            assert pi[t[x][y]] == q_rows[pi[x]][pi[y]], (
                "orbit quotient is not a homomorphism"
            )
    assert quotient_table == right_trivial_op(r), (
        "induced orbit product is not [x]*[y] = [y]"
    )
    return validate_shelf(quotient_table), pi


def is_invertible(table: BinaryOpTable) -> bool:
    """Every right translation x -> x*y is a bijection."""
    n = table.size
    t = table.entries
    for y in range(n):
        if len({t[x][y] for x in range(n)}) != n:
            return False
    return True


def classify(shelf: Shelf) -> dict:
    """The report's flags; "rack" and "invertible" both say that every right
    translation is a bijection."""
    rack = is_invertible(shelf.table)
    return {"spindle": is_spindle(shelf.table), "rack": rack,
            "left_connected": len(left_orbits(shelf)) == 1, "invertible": rack}


def has_left_absorbing_element(table: BinaryOpTable) -> bool:
    """True when some y satisfies y*x = y for all x (a vanishing hypothesis)."""
    n = table.size
    return any(all(v == y for v in table.entries[y]) for y in range(n))


__all__ = [
    "UnionFind",
    "classify",
    "has_left_absorbing_element",
    "is_invertible",
    "left_orbits",
    "orbit_quotient",
]
