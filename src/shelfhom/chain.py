"""Chain complexes of shelves and multi-shelves over the integers.

The degree-d chain group has the tuples of length d+1 as basis, indexed
lexicographically with the leftmost coordinate most significant.  For a
family of operations with integer coefficients c_k the differential is

    d = sum_k c_k d^k,
    d^k(x_0,...,x_d) = sum_i (-1)^i (x_0 *_k x_i, ..., x_{i-1} *_k x_i,
                                     x_{i+1}, ..., x_d),

which squares to zero because the single-operation partial differentials
anticommute pairwise.  With the augmentation, C_{-1} = Z and every (x) maps
to 1; degree 0 then contributes the all-ones row.

Grading note: for a single operation this is the complex whose degree-0
homology counts left orbits (rank = orbits - 1 when augmented).  For the
coefficient pair (1, -1) on (op, identity) the degree-n group here is what
the knot-theory literature calls the (n+1)-st rack homology.
"""

from __future__ import annotations

from itertools import groupby, product

from .errors import (
    ChainMapViolation,
    DDNotZero,
    DegenerateNotSubcomplex,
    DegreeNegative,
    InputError,
    MemoryCapExceeded,
    NotASpindle,
    OutOfRange,
    ParseError,
    SizeMismatch,
)
from .intmat import SparseIntMatrix
from .snf import homology_from_boundaries
from .tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    compose_ops,
    identity_op,
    is_spindle,
    suffix_products,
    validate_multishelf,
)
from .value import Value

DEFAULT_MEMORY_CAP = 1 << 26


def basis_index(tup, size: int) -> int:
    """Lexicographic index of a tuple in {0..n-1}^len, leftmost major."""
    idx = 0
    for v in tup:
        if not 0 <= v < size:
            raise OutOfRange(f"tuple entry {v} outside 0..{size - 1}")
        idx = idx * size + v
    return idx


def index_tuple(index: int, length: int, size: int) -> tuple[int, ...]:
    """Inverse of :func:`basis_index` for tuples of the given length."""
    if not 0 <= index < size ** length:
        raise OutOfRange(f"index {index} outside the rank-{length} basis")
    out = []
    for _ in range(length):
        index, r = divmod(index, size)
        out.append(r)
    return tuple(reversed(out))


def _face_tables(ms, coefficients, degree):
    """(i, (-1)^i c_k, P_i) for each operation with c_k != 0 and each face i,
    one at a time, so that at most two tables are alive.

    P_i[q] indexes (x_0*x_i, ..., x_{i-1}*x_i) for the (x_0..x_i) of index
    q, so face i of the degree-d tuple x = q * s + r, s = n^(d-i), lies on
    row P_i[q] * s + r.  P_i is filled from P_{i-1}.
    """
    n = ms.size
    for t, c in [(op.entries, c) for op, c in zip(ms.ops, coefficients) if c]:
        prefix = [0] * n
        for i in range(degree + 1):
            if i:  # P_{i-1} of (x_0..x_{i-2}, x_i), then x_{i-1} * x_i
                prefix = [prefix[y // (n * n) * n + y % n] * n + t[y // n % n][y % n]
                          for y in range(n ** (i + 1))]
            yield i, c if i % 2 == 0 else -c, prefix


def _nondegenerate_prefixes(ms, coefficients, degree):
    """(i, (-1)^i c_k, qs, ps) for each operation with c_k != 0 and each face
    i: the q, ascending, whose prefix image ps = P_i[q] (see
    :func:`_face_tables`) is a nondegenerate i-tuple, one level at a time.

    A nondegenerate P_i[q] is a nondegenerate P_{i-1}[q'] followed by
    x_{i-1} * x_i, where q' is q without x_{i-1}, so level i grows from
    level i-1 alone: each run of one head x_0..x_{i-2} there extends by
    every x_{i-1} whose product differs from the image's last entry.
    """
    n = ms.size
    for t, c in [(op.entries, c) for op, c in zip(ms.ops, coefficients) if c]:
        qs, ps = list(range(n)), [0] * n
        yield 0, c, qs, ps
        for i in range(1, degree + 1):
            grown_qs, grown_ps = [], []
            for head, run in groupby(zip(qs, ps), lambda qp: qp[0] // n):
                run = [(q % n, p, p % n) for q, p in run]
                for v in range(n):
                    tv, base = t[v], (head * n + v) * n
                    for x, p, last in run:
                        # P_0 is the empty tuple, so at i = 1 every image is kept
                        if tv[x] != last or i == 1:
                            grown_qs.append(base + x)
                            grown_ps.append(p * n + tv[x])
            qs, ps = grown_qs, grown_ps
            yield i, c if i % 2 == 0 else -c, qs, ps


def _assemble(ms, coefficients, degree) -> SparseIntMatrix:
    """The matrix of sum_k c_k d^k on the degree-d tuples, column by column.

    What cancels within a column (face 0 under (op, identity) always does)
    is gone before the next one starts.  Each column lists its rows in the
    order the face terms reach them, a row whose terms cancel and come back
    going last; the SNF's tie-breaks follow that order.
    """
    n = ms.size
    terms = []
    for i, c, prefix in _face_tables(ms, coefficients, degree):
        s = n ** (degree - i)
        terms.append((s, [p * s for p in prefix], c))

    def columns():
        for x in range(n ** (degree + 1)):
            col: dict[int, int] = {}
            for s, table, c in terms:
                row = table[x // s] + x % s
                if row in col:
                    v = col[row] + c
                    if v:
                        col[row] = v
                    else:
                        del col[row]
                else:
                    col[row] = c
            yield col

    return SparseIntMatrix._columns(n ** degree, columns())


def boundary_matrix(ms, coefficients, degree: int, augmented: bool = True) -> SparseIntMatrix:
    """Matrix of sum_k c_k d^k in the tuple bases, stored column by column.

    Degree d maps C_d (n^(d+1) columns) to C_{d-1} (n^d rows); degree 0 is
    the augmentation row when ``augmented`` and the empty 0 x n matrix
    otherwise.
    """
    n = ms.size
    coefficients = tuple(coefficients)
    if len(coefficients) != len(ms.ops):
        raise SizeMismatch(
            f"{len(coefficients)} coefficients for {len(ms.ops)} operations"
        )
    if degree < 0:
        raise DegreeNegative(f"degree {degree} < 0")
    if degree == 0:
        if not augmented:
            return SparseIntMatrix(0, n)
        return SparseIntMatrix._columns(1, [{0: 1}] * n)
    return _assemble(ms, coefficients, degree)


class ChainComplex(Value):
    """An immutable built complex: boundary matrices d_0..d_maxdeg.  Two
    complexes are equal only when they are the same object."""

    __slots__ = ("size", "ops", "coefficients", "augmented", "boundaries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, size: int, ops, coefficients, augmented: bool, boundaries):
        self._set(size, tuple(ops), tuple(coefficients), augmented, tuple(boundaries))

    @property
    def maxdeg(self) -> int:
        return len(self.boundaries) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        """dims[d] is the rank of C_d, the column count of d_d."""
        return tuple(mat.ncols for mat in self.boundaries)

    def __repr__(self):
        return (f"ChainComplex(n={self.size}, ops={len(self.ops)}, "
                f"maxdeg={self.maxdeg}, augmented={self.augmented})")


def check_memory_cap(size, maxdeg, cap):
    # n^(maxdeg+2) basis elements, and at least one per built degree, which
    # bounds a 1-element carrier too.  Once 2^(maxdeg+2) > cap the power is
    # refused unformed, as it can take minutes to form, and a count past
    # 2^64 is shown as its power alone, as it can be too long to print.
    count = f"{size}^{maxdeg + 2}" if size > 1 else f"max({size}^{maxdeg + 2}, {maxdeg + 2})"
    if size < 2 or maxdeg + 2 <= cap.bit_length():
        need = max(size ** (maxdeg + 2), maxdeg + 2)
        if need <= cap:
            return
        if need.bit_length() <= 64:
            count += f" = {need}"
    raise MemoryCapExceeded(
        f"building d_0..d_{maxdeg} needs {count} <= cap, got cap {cap}; "
        "raise the cap to force the computation"
    )


def _check_dd(boundaries, label=""):
    """Raise DDNotZero unless every d_{d-1} o d_d vanishes."""
    for d in range(1, len(boundaries)):
        if not boundaries[d - 1].matmul(boundaries[d]).is_zero():
            raise DDNotZero(f"{label}d_{d - 1} o d_{d} != 0")


def build_complex(ms, coefficients, maxdeg: int, augmented: bool = True,
                  cap: int = DEFAULT_MEMORY_CAP) -> ChainComplex:
    """Build d_0..d_maxdeg and verify d o d = 0 before returning."""
    if maxdeg < 0:
        raise DegreeNegative(f"maxdeg {maxdeg} < 0")
    check_memory_cap(ms.size, maxdeg, cap)
    coefficients = tuple(coefficients)
    boundaries = [
        boundary_matrix(ms, coefficients, d, augmented)
        for d in range(maxdeg + 1)
    ]
    _check_dd(boundaries)
    return ChainComplex(ms.size, ms.ops, coefficients, augmented, boundaries)


# kind -> (coefficients, augmented by default); "multi" differentiates with
# the structure's own operations and takes its coefficients from the caller.
PRESETS = {"shelf": ((1,), True), "rack": ((1, -1), False),
           "quandle": ((1, -1), False), "multi": (None, True)}


def preset_complex(structure, kind: str, maxdeg: int, coefficients=None,
                   augmented: bool | None = None,
                   cap: int = DEFAULT_MEMORY_CAP) -> ChainComplex:
    """The complex of a kind in PRESETS, built through maxdeg + 1 for H_0..H_maxdeg.

    rack differentiates with (op, identity); quandle is the rack complex
    modulo degenerate chains (spindles only).  ``coefficients`` and
    ``augmented`` override the kind's defaults.
    """
    if kind not in PRESETS:
        raise ParseError(f"unknown preset kind {kind!r}")
    if maxdeg < 0:
        raise DegreeNegative(f"maxdeg {maxdeg} < 0")
    preset, default_augmented = PRESETS[kind]
    coefficients = preset if coefficients is None else coefficients
    if coefficients is None:
        raise SizeMismatch(f"kind={kind} needs one coefficient per operation")
    augmented = default_augmented if augmented is None else augmented
    if kind in ("rack", "quandle"):
        if not isinstance(structure, Shelf):
            raise SizeMismatch(f"kind={kind} needs a Shelf, got {type(structure).__name__}")
        structure = MultiShelf((structure.table, identity_op(structure.size)))
    build = quandle_quotient_complex if kind == "quandle" else build_complex
    return build(structure, coefficients, maxdeg + 1, augmented, cap)


def preset_homology(structure, kind: str, maxdeg: int, coefficients=None,
                    augmented: bool | None = None,
                    cap: int = DEFAULT_MEMORY_CAP) -> list[dict]:
    """H_0..H_maxdeg of :func:`preset_complex`."""
    cx = preset_complex(structure, kind, maxdeg, coefficients, augmented, cap)
    return homology_from_boundaries(cx.boundaries)


def _quotient_faces(ms, coefficients, degree, kept):
    """Entries of sum_k c_k d^k on the nondegenerate rows, as a dict
    {tuple index of the column: {row: value}} of the nonzero columns.

    The row of face i of x = q * s + r is the prefix image P_i[q] followed
    by the suffix r, so only the q and r where both parts are nondegenerate
    are visited: the q come grown level by level from the nondegenerate
    images alone (:func:`_nondegenerate_prefixes`), and the row lookup
    drops joins that repeat an entry.  Terms come face by face, and each
    column lists its rows in the order of :func:`_assemble`'s column-major
    loop.  A column whose terms all cancel leaves the dict at once.
    """
    n = ms.size
    rows = kept[degree]
    data: dict[int, dict[int, int]] = {}
    for i, c, qs, ps in _nondegenerate_prefixes(ms, coefficients, degree):
        s = n ** (degree - i)
        suffixes = kept[degree - i]
        for q, p in zip(qs, ps):
            row0, x0 = p * s, q * s
            for r in suffixes:
                row = rows.get(row0 + r)
                if row is None:
                    continue
                x = x0 + r
                col = data.get(x)
                if col is None:
                    data[x] = {row: c}
                    continue
                v = col.get(row, 0) + c
                if v:
                    col[row] = v
                elif len(col) > 1:
                    del col[row]
                else:
                    del data[x]
    return data


def quandle_quotient_complex(ms, coefficients, maxdeg: int, augmented: bool = False,
                             cap: int = DEFAULT_MEMORY_CAP) -> ChainComplex:
    """The quotient of the tuple complex of a multi-spindle by degenerate chains.

    Takes what :func:`build_complex` takes: a Shelf or MultiShelf whose
    operations are all spindles (x * x = x), and any coefficients.  Faces i
    and i+1 of a tuple with x_i = x_{i+1} then cancel, so the degenerate
    chains form a subcomplex.  Each degree is assembled once, from the face
    terms that land on nondegenerate rows only, whose prefix images are
    grown level by level without a full prefix table: a degenerate column
    that keeps a term raises a structured error naming the least such tuple,
    and the nondegenerate columns form the quotient matrix.  The name is kept
    because quandle homology, the preset (op, identity) under (1, -1), is
    its best-known case and callers look the function up by that name.
    """
    if not all(is_spindle(op) for op in ms.ops):
        raise NotASpindle("degenerate chains only form a subcomplex for spindles")
    if maxdeg < 0:
        raise DegreeNegative(f"maxdeg {maxdeg} < 0")
    n = ms.size
    check_memory_cap(n, maxdeg, cap)
    coefficients = tuple(coefficients)

    # degree 0 has no degenerate tuples, so d_0 is the full one
    boundaries = [boundary_matrix(ms, coefficients, 0, augmented)]
    # kept[k] maps the nondegenerate k-tuples, ascending, to their positions;
    # they extend the nondegenerate (k-1)-tuples
    kept = [{0: 0}, {x: x for x in range(n)}]
    for d in range(1, maxdeg + 1):
        kept.append({x: j for j, x in enumerate(
            y * n + v for y in kept[d] for v in range(n) if v != y % n)})
        rows, cols = kept[d], kept[d + 1]
        faces = _quotient_faces(ms, coefficients, d, kept)
        # d(D) must live in D: no degenerate column may keep a term
        leak = min((x for x in faces if x not in cols), default=None)
        if leak is not None:
            raise DegenerateNotSubcomplex(
                f"d({index_tuple(leak, d + 1, n)}) has a nondegenerate "
                f"term at degree {d} for coefficients {coefficients}"
            )
        # a column leaves faces as it is stored, so its entries are held once
        empty: dict[int, int] = {}
        boundaries.append(SparseIntMatrix._columns(
            len(rows), (faces.pop(x, empty) for x in cols)))
    _check_dd(boundaries, "quotient ")
    return ChainComplex(n, ms.ops, coefficients, augmented, boundaries)


def left_normed_tuple_map(op: BinaryOpTable, degree: int) -> SparseIntMatrix:
    """Basis map (x_0..x_d) -> (x_0*..*x_d, x_1*..*x_d, ..., x_d) as a matrix."""
    n = op.size
    return SparseIntMatrix._columns(n ** (degree + 1), (
        {basis_index(suffix_products(op, tup), n): 1}
        for tup in product(range(n), repeat=degree + 1)))


def F_chain_map(star1: BinaryOpTable, target, coefficients, degree: int) -> SparseIntMatrix:
    """The degree-d matrix of the chain map C(X; star1 o *) -> C(X; *) built
    from left-normed star1 suffix products.

    ``target`` is a Shelf or MultiShelf; the source operations are star1
    composed with each, under the same coefficients, and star1 must be
    mutually distributive with all of them (ChainMapViolation otherwise).
    The degree is held to build_complex's basis cap; for degree >= 1 the
    matrix is verified to commute with the two boundaries.
    """
    if star1.size != target.size:
        raise ChainMapViolation("carrier sizes differ")
    coefficients = tuple(coefficients)
    if len(coefficients) != len(target.ops):
        raise SizeMismatch(f"{len(coefficients)} coefficients for {len(target.ops)} operations")
    if degree < 0:
        raise DegreeNegative(f"degree {degree} < 0")
    check_memory_cap(star1.size, degree, DEFAULT_MEMORY_CAP)
    source = MultiShelf(tuple(compose_ops(star1, t) for t in target.ops))
    try:
        validate_multishelf((star1,) + target.ops + source.ops)
    except InputError as exc:
        raise ChainMapViolation(
            f"star1 is not mutually distributive with the complex operations: {exc}"
        ) from exc
    fd = left_normed_tuple_map(star1, degree)
    if degree >= 1:
        d_target = boundary_matrix(target, coefficients, degree)
        d_source = boundary_matrix(source, coefficients, degree)
        f_prev = left_normed_tuple_map(star1, degree - 1)
        if d_target.matmul(fd) != f_prev.matmul(d_source):
            raise ChainMapViolation(
                f"matrix fails to commute with the boundaries at degree {degree}"
            )
    return fd
