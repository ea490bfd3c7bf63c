"""Finite binary operations, distributivity laws, and the composition monoid.

A table is a dense n-by-n grid over the carrier {0..n-1} with
``entries[x][y] = x*y`` (row = left argument).  Nothing algebraic is assumed
at the table level; the ``Shelf`` and ``MultiShelf`` wrappers certify the
distributivity laws and should be obtained through the validators.

Operations compose by ``x *12 y = (x *1 y) *2 y``; this composition is
associative with identity ``x *0 y = x``, so the tables on a fixed carrier
form a monoid.
"""

from __future__ import annotations

from .errors import (
    BoundExceeded,
    DistributivityViolation,
    EmptyList,
    MutualDistributivityViolation,
    NotInvertible,
    OutOfRange,
    PracticalSizeLimit,
    SizeMismatch,
)
from .value import Value

# law instances k^2 * n^3 one validation may check; n = 406 is the largest
# carrier under it with one operation
_LAW_INSTANCE_LIMIT = 1 << 26


class BinaryOpTable(Value):
    """Multiplication table of one binary operation on {0..n-1}."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self._set(entries)
        n = len(entries)
        if n == 0:
            raise OutOfRange("a table needs a nonempty carrier")
        for row in entries:
            if len(row) != n:
                raise SizeMismatch(
                    f"ragged table: row of length {len(row)} in a size-{n} table"
                )
            for v in row:
                if type(v) is not int or not 0 <= v < n:
                    raise OutOfRange(f"table entry {v!r} outside 0..{n - 1}")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> "BinaryOpTable":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def from_function(cls, n, fn) -> "BinaryOpTable":
        return cls(tuple(tuple(fn(x, y) for y in range(n)) for x in range(n)))

    def flat(self) -> tuple[int, ...]:
        """Row-major flattening; the file and canonical-key format."""
        return tuple(v for row in self.entries for v in row)


class Shelf(Value):
    """A table certified self-distributive; build via :func:`validate_shelf`."""

    __slots__ = ("table",)

    def __init__(self, table: BinaryOpTable):
        self._set(table)

    @property
    def size(self) -> int:
        return self.table.size

    @property
    def ops(self) -> tuple[BinaryOpTable]:
        """The one-operation family, read as a MultiShelf's ``ops``."""
        return (self.table,)

    def apply(self, x: int, y: int) -> int:
        return self.table.entries[x][y]


class MultiShelf(Value):
    """An ordered family of mutually distributive tables on one carrier.

    Build via :func:`validate_multishelf`; mutual distributivity is required
    for every ordered pair of operations including a pair with itself, so
    each member is in particular a shelf operation.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: tuple[BinaryOpTable, ...]):
        self._set(ops)

    @property
    def size(self) -> int:
        return self.ops[0].size


def _first_violation(ops):
    """The lexicographically first (k, l, x, y, z, lhs, rhs) with
    lhs = (x *_k y) *_l z != (x *_l z) *_k (y *_l z) = rhs, or None.
    Refuses more than _LAW_INSTANCE_LIMIT instances before checking any."""
    n = ops[0].size
    count = len(ops) ** 2 * n ** 3
    if count > _LAW_INSTANCE_LIMIT:
        raise PracticalSizeLimit(
            f"the distributivity check has {len(ops)}^2 * {n}^3 = {count} "
            f"law instances, over the guard {_LAW_INSTANCE_LIMIT}"
        )
    for k, tk in enumerate(ops):
        ek = tk.entries
        for l, tl in enumerate(ops):
            el = tl.entries
            for x in range(n):
                ekx = ek[x]
                elx = el[x]
                for y in range(n):
                    exy = ekx[y]
                    ely = el[y]
                    for z in range(n):
                        lhs = el[exy][z]
                        rhs = ek[elx[z]][ely[z]]
                        if lhs != rhs:
                            return k, l, x, y, z, lhs, rhs
    return None


def validate_shelf(table: BinaryOpTable) -> Shelf:
    """Certify (x*y)*z == (x*z)*(y*z) on all triples.

    Raises DistributivityViolation carrying the lexicographically first
    violating triple.
    """
    bad = _first_violation((table,))
    if bad:
        raise DistributivityViolation(*bad[2:])
    return Shelf(table)


def validate_multishelf(tables) -> MultiShelf:
    """Certify mutual distributivity for every ordered pair of operations.

    The pair (k, k) is included, so every member table is itself a shelf
    operation.  The lexicographically first violation (k, l, x, y, z) is
    reported.
    """
    ops = tuple(
        t if isinstance(t, BinaryOpTable) else BinaryOpTable.from_rows(t)
        for t in tables
    )
    if not ops:
        raise EmptyList("a multi-shelf needs at least one operation")
    n = ops[0].size
    for op in ops:
        if op.size != n:
            raise SizeMismatch(
                f"tables of sizes {n} and {op.size} in one multi-shelf"
            )
    bad = _first_violation(ops)
    if bad:
        raise MutualDistributivityViolation(*bad)
    return MultiShelf(ops)


def identity_op(n: int) -> BinaryOpTable:
    """The identity of the composition monoid: x*y = x."""
    return BinaryOpTable(tuple((x,) * n for x in range(n)))


def right_trivial_op(n: int) -> BinaryOpTable:
    """x*y = y (mutually distributive with every spindle)."""
    row = tuple(range(n))
    return BinaryOpTable((row,) * n)


def compose_ops(op1: BinaryOpTable, op2: BinaryOpTable) -> BinaryOpTable:
    """Composition x*y = (x *1 y) *2 y; associative with identity_op."""
    if op1.size != op2.size:
        raise SizeMismatch(
            f"cannot compose tables of sizes {op1.size} and {op2.size}"
        )
    n = op1.size
    t1, t2 = op1.entries, op2.entries
    return BinaryOpTable(
        tuple(tuple(t2[t1[x][y]][y] for y in range(n)) for x in range(n))
    )


def inverse_op(table: BinaryOpTable) -> BinaryOpTable:
    """The operation with inverted right translations.

    Requires every x -> x*y to be a bijection; the result satisfies
    (x inv* y) * y = x.
    """
    n = table.size
    t = table.entries
    inv_rows = [[-1] * n for _ in range(n)]
    for y in range(n):
        seen = [False] * n
        for x in range(n):
            img = t[x][y]
            if seen[img]:
                raise NotInvertible(
                    f"right translation by {y} repeats the value {img}"
                )
            seen[img] = True
            inv_rows[img][y] = x
    return BinaryOpTable.from_rows(inv_rows)


def left_normed_product(op, elements) -> int:
    """Fold left: ((x0 * x1) * x2) * ... * xk."""
    if isinstance(op, Shelf):
        op = op.table
    items = list(elements)
    if not items:
        raise EmptyList("left-normed product of an empty list")
    t = op.entries
    acc = items[0]
    for x in items[1:]:
        acc = t[acc][x]
    return acc


def suffix_products(op, xs):
    """All left-normed suffix products (x_i * ... * x_d for each i).

    This is the vertex tuple generated by ``xs`` in the shelf complex and the
    image tuple of the chain projection to it.
    """
    if isinstance(op, Shelf):
        op = op.table
    t = op.entries
    out = []
    for i in range(len(xs)):
        acc = xs[i]
        for x in xs[i + 1:]:
            acc = t[acc][x]
        out.append(acc)
    return tuple(out)


def distributive_closure(ms: MultiShelf, max_ops: int = 64) -> MultiShelf:
    """Close the operation set under composition, adjoining the identity.

    Compositions of mutually distributive operations stay mutually
    distributive, so the closure is again a multi-shelf (re-validated before
    returning).  Raises BoundExceeded, carrying the partial family, if more
    than ``max_ops`` distinct tables appear.
    """
    order: list[BinaryOpTable] = []
    seen: set[tuple] = set()

    def push(op):
        if op.entries in seen:
            return False
        if len(order) >= max_ops:
            raise BoundExceeded(
                f"closure exceeded max_ops={max_ops}",
                MultiShelf(tuple(order)),
            )
        seen.add(op.entries)
        order.append(op)
        return True

    for op in ms.ops:
        push(op)
    push(identity_op(ms.size))

    frontier = list(range(len(order)))
    while frontier:
        fresh = []
        hi = len(order)
        for a in range(hi):
            for b in range(hi):
                if a not in frontier and b not in frontier:
                    continue
                comp = compose_ops(order[a], order[b])
                if push(comp):
                    fresh.append(len(order) - 1)
        frontier = fresh
    return validate_multishelf(order)
