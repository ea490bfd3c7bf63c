"""Constructors for the standard shelf and multi-shelf families.

Each constructor checks its family's preconditions eagerly, builds the
table(s), and runs the result back through the validators, so a returned
structure is always certified.  A failed precondition raises
SpecPreconditionFailed.

Subsets of a finite ground set Omega are encoded as bitmasks, with subset i
of the carrier being ``family[i]``.
"""

from __future__ import annotations

from itertools import product

from .errors import EmptyList, RetractionNotIdentityOnA, SpecPreconditionFailed
from .tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    identity_op,
    right_trivial_op,
    validate_multishelf,
    validate_shelf,
)


def _check_map(name, f, n):
    if len(f) != n:
        raise SpecPreconditionFailed(f"{name} must have length {n}, got {len(f)}")
    for v in f:
        if not 0 <= v < n:
            raise SpecPreconditionFailed(f"{name} value {v} outside 0..{n - 1}")


def const_left(f) -> Shelf:
    """x*y = f(x) for an arbitrary map f."""
    n = len(f)
    _check_map("f", f, n)
    return validate_shelf(BinaryOpTable(tuple((f[x],) * n for x in range(n))))


def idempotent_right(g) -> Shelf:
    """x*y = g(y) for g with g(g(x)) = g(x)."""
    n = len(g)
    _check_map("g", g, n)
    for x in range(n):
        if g[g[x]] != g[x]:
            raise SpecPreconditionFailed(
                f"g is not idempotent: g(g({x})) = {g[g[x]]} != g({x}) = {g[x]}"
            )
    return validate_shelf(BinaryOpTable((tuple(g),) * n))


def subset_switch(size: int, members) -> Shelf:
    """x*y = x if y is in A = members, else y."""
    members = set(members)
    if not members <= set(range(size)):
        raise SpecPreconditionFailed("A is not a subset of the carrier")
    return validate_shelf(
        BinaryOpTable.from_function(size, lambda x, y: x if y in members else y)
    )


def pointed_map(b: int, g) -> Shelf:
    """x*y = g(y) if x = b, else y; requires g^{-1}(b) = {b}."""
    n = len(g)
    _check_map("g", g, n)
    if not 0 <= b < n:
        raise SpecPreconditionFailed(f"base point {b} outside carrier")
    preimage = {x for x in range(n) if g[x] == b}
    if preimage != {b}:
        raise SpecPreconditionFailed(
            f"g^-1({b}) = {sorted(preimage)}, must be exactly {{{b}}}"
        )
    return validate_shelf(
        BinaryOpTable.from_function(n, lambda x, y: g[y] if x == b else y)
    )


def partition_family(blocks, maps) -> Shelf:
    """x*y = g_i(y) for x in block A_i, with g_i = maps[i].

    Requires g_i(A_j) within A_j and g_i = g_j o g_i on A_j for all i, j.
    """
    elements = [x for block in blocks for x in block]
    n = len(elements)
    if sorted(elements) != list(range(n)):
        raise SpecPreconditionFailed("blocks do not partition the carrier")
    if len(maps) != len(blocks):
        raise SpecPreconditionFailed("one map per block is required")
    for g in maps:
        _check_map("g_i", g, n)
    block_of = {}
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    for i, gi in enumerate(maps):
        for j, block in enumerate(blocks):
            gj = maps[j]
            for x in block:
                if block_of[gi[x]] != j:
                    raise SpecPreconditionFailed(
                        f"g_{i} does not preserve block {j}: g_{i}({x}) = {gi[x]}"
                    )
                if gi[x] != gj[gi[x]]:
                    raise SpecPreconditionFailed(
                        f"g_{i} != g_{j} o g_{i} at {x} in block {j}"
                    )
    return validate_shelf(
        BinaryOpTable.from_function(n, lambda x, y: maps[block_of[x]][y])
    )


def intersection_shelf(omega_size: int, family) -> Shelf:
    """Carrier = a family of subsets closed under intersection, op = meet."""
    return _subset_shelf(omega_size, family, lambda a, b: a & b, "intersection")


def subtraction_shelf(omega_size: int, family) -> Shelf:
    """Carrier = a family of subsets closed under set subtraction."""
    return _subset_shelf(omega_size, family, lambda a, b: a & ~b, "subtraction")


def _subset_shelf(omega_size, family, op, name):
    if omega_size < 0:
        raise SpecPreconditionFailed("omega_size must be nonnegative")
    full = (1 << omega_size) - 1
    if len(set(family)) != len(family):
        raise SpecPreconditionFailed("family members must be distinct")
    if not family:
        raise SpecPreconditionFailed("family must be nonempty")
    for mask in family:
        if not 0 <= mask <= full:
            raise SpecPreconditionFailed(
                f"mask {mask} is not a subset of a {omega_size}-element ground set"
            )
    idx = {mask: i for i, mask in enumerate(family)}
    for a in family:
        for b in family:
            if op(a, b) not in idx:
                raise SpecPreconditionFailed(
                    f"family not closed under {name}: "
                    f"{a:#b} {name} {b:#b} = {op(a, b):#b} missing"
                )
    return validate_shelf(
        BinaryOpTable.from_function(
            len(family), lambda i, j: idx[op(family[i], family[j])]
        )
    )


def boolean_multishelf(omega_size: int) -> MultiShelf:
    """All subsets of Omega with the four operations (x*0 y, meet, join, y)."""
    if omega_size < 0:
        raise SpecPreconditionFailed("omega_size must be nonnegative")
    n = 1 << omega_size
    meet = BinaryOpTable.from_function(n, lambda a, b: a & b)
    join = BinaryOpTable.from_function(n, lambda a, b: a | b)
    return validate_multishelf((identity_op(n), meet, join, right_trivial_op(n)))


def disjoint_union(shelves) -> Shelf:
    """Shelves side by side; x*y = x when x and y lie in different summands."""
    shelves = list(shelves)
    if not shelves:
        raise EmptyList("disjoint_union of an empty list of shelves")
    total = sum(s.size for s in shelves)
    rows = [[x] * total for x in range(total)]
    off = 0
    for s in shelves:
        for a in range(s.size):
            for b in range(s.size):
                rows[off + a][off + b] = off + s.apply(a, b)
        off += s.size
    return validate_shelf(BinaryOpTable.from_rows(rows))


def direct_product(shelves) -> Shelf:
    """Componentwise product; points in lexicographic order of coordinates."""
    shelves = list(shelves)
    if not shelves:
        raise EmptyList("direct_product of an empty list of shelves")
    points = list(product(*[range(s.size) for s in shelves]))
    idx = {p: i for i, p in enumerate(points)}
    rows = [
        [
            idx[tuple(s.apply(p[i], q[i]) for i, s in enumerate(shelves))]
            for q in points
        ]
        for p in points
    ]
    return validate_shelf(BinaryOpTable.from_rows(rows))


def strong_retract_extend(base: Shelf, carrier_size: int, retraction) -> Shelf:
    """Extend a shelf on A = {0..|A|-1} to {0..n-1} along x*y = r(x)*r(y).

    The retraction must restrict to the identity on A; the result retracts
    onto the base through a shelf homomorphism (re-checked here).
    """
    a_size = base.size
    r = tuple(retraction)
    if carrier_size < a_size:
        raise SpecPreconditionFailed(
            f"carrier size {carrier_size} smaller than base size {a_size}"
        )
    if len(r) != carrier_size:
        raise SpecPreconditionFailed(
            f"retraction must have length {carrier_size}, got {len(r)}"
        )
    for x, v in enumerate(r):
        if not 0 <= v < a_size:
            raise SpecPreconditionFailed(
                f"retraction value r({x}) = {v} lands outside the base"
            )
    for a in range(a_size):
        if r[a] != a:
            raise RetractionNotIdentityOnA(f"r({a}) = {r[a]} != {a}")
    bt = base.table.entries
    table = BinaryOpTable.from_function(
        carrier_size, lambda x, y: bt[r[x]][r[y]]
    )
    result = validate_shelf(table)
    t = table.entries
    for x in range(carrier_size):
        for y in range(carrier_size):
            assert r[t[x][y]] == bt[r[x]][r[y]], "retraction is not a homomorphism"
    return result
