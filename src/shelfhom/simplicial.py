"""The simplicial complex generated by a shelf and its homology.

Every tuple (x_0,...,x_d) whose left-normed suffix products are pairwise
distinct contributes the simplex on that vertex set; a simplex is stored
once, as its sorted vertex tuple.  The family is face-closed: by right
distributivity, face i of a generating tuple generates the simplex minus its
i-th vertex.  Closure is verified after construction, and a missing face
raises FaceNotGenerated, since it can only come from a bug.

Orientation follows the fixed total order on vertices: a generating tuple
counts with the sign of the permutation sorting it, and tuples with a
repeated vertex are zero.  Degree-0 homology is unreduced, so its rank is
the number of connected components, which matches the number of left orbits
of the shelf.
"""

from __future__ import annotations

from itertools import combinations, product

from .chain import boundary_matrix
from .errors import (
    CapExceeded,
    ChainMapViolation,
    DegreeNegative,
    DegreeOutOfRange,
    FaceNotGenerated,
)
from .intmat import SparseIntMatrix
from .orbits import UnionFind
from .snf import HomologyGroup, homology_from_boundaries
from .tables import Shelf, suffix_products
from .value import Value

DEFAULT_TUPLE_CAP = 1 << 22


class ShelfComplex(Value):
    """Simplices per dimension, each a sorted tuple of vertices."""

    __slots__ = ("size", "maxdim", "simplices")

    def __init__(self, size: int, maxdim: int,
                 simplices: tuple[tuple[tuple[int, ...], ...], ...]):
        self._set(size, maxdim, simplices)

    def count(self, dim: int) -> int:
        if not 0 <= dim <= self.maxdim:
            return 0
        return len(self.simplices[dim])

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices that are not a face of any stored larger simplex."""
        stored = [s for simplices in self.simplices for s in simplices]
        faces = {f for s in stored for k in range(1, len(s)) for f in combinations(s, k)}
        return sorted((s for s in stored if s not in faces), key=lambda s: (len(s), s))


def build_shelf_complex(shelf: Shelf, maxdim: int | None = None,
                        cap: int = DEFAULT_TUPLE_CAP) -> ShelfComplex:
    """Collect the distinct-suffix-product simplices up to maxdim.

    maxdim defaults to n - 1 (a simplex on n vertices cannot be larger, and
    generating tuples longer than n always repeat a product), so only
    dimensions up to n - 1 are enumerated; the higher ones stay empty.  The
    cap bounds the tuples of the longest length enumerated, and counts at
    least one element per listed dimension.
    """
    n = shelf.size
    if maxdim is None:
        maxdim = n - 1
    if maxdim < 0:
        raise DegreeNegative(f"maxdeg {maxdim} < 0")
    top = min(maxdim, n - 1)
    need = max(n ** (top + 1), maxdim + 1)
    if need > cap:
        count = (f"n^(min(maxdim, n-1)+1) = {n}^{top + 1}" if need == n ** (top + 1)
                 else f"max(n^(min(maxdim, n-1)+1), maxdim+1) = "
                      f"max({n}^{top + 1}, {maxdim + 1}) = {need}")
        raise CapExceeded(f"{count} exceeds the tuple cap {cap}")
    table = shelf.table
    found: list[set] = [set() for _ in range(maxdim + 1)]
    for d in range(top + 1):
        bucket = found[d]
        for tup in product(range(n), repeat=d + 1):
            verts = suffix_products(table, tup)
            if len(set(verts)) == d + 1:
                bucket.add(tuple(sorted(verts)))
    _close_faces(found)
    return ShelfComplex(
        size=n,
        maxdim=maxdim,
        simplices=tuple(tuple(sorted(bucket)) for bucket in found),
    )


def _close_faces(found):
    """Raise FaceNotGenerated on the first face missing (see module doc)."""
    for d in range(len(found) - 1, 0, -1):
        lower = found[d - 1]
        for simplex in sorted(found[d]):
            for face in combinations(simplex, d):
                if face not in lower:
                    raise FaceNotGenerated(
                        f"face {face} of simplex {simplex} was not generated"
                    )


def components(cx: ShelfComplex):
    """Connected components of the 1-skeleton: (count, labels)."""
    uf = UnionFind(cx.size)
    if cx.maxdim >= 1:
        for a, b in cx.simplices[1]:
            uf.union(a, b)
    roots = {}
    labels = []
    for x in range(cx.size):
        r = uf.find(x)
        labels.append(roots.setdefault(r, len(roots)))
    return len(roots), tuple(labels)


def simplicial_boundary_matrix(cx: ShelfComplex, degree: int) -> SparseIntMatrix:
    """Oriented boundary from degree-d chains to (d-1)-chains."""
    if not 0 <= degree <= cx.maxdim:
        raise DegreeOutOfRange(
            f"degree {degree} outside the built range 0..{cx.maxdim}"
        )
    cols = cx.simplices[degree]
    if degree == 0:
        return SparseIntMatrix(0, len(cols), {})
    rows = {s: i for i, s in enumerate(cx.simplices[degree - 1])}
    data = {}
    for j, simplex in enumerate(cols):
        for i in range(degree + 1):
            face = simplex[:i] + simplex[i + 1:]
            data[(rows[face], j)] = 1 if i % 2 == 0 else -1
    return SparseIntMatrix._raw(len(rows), len(cols), data)


def simplicial_groups(cx: ShelfComplex) -> list[HomologyGroup]:
    """Unreduced simplicial homology H_0..H_{maxdim-1}, and H_maxdim too
    when maxdim >= n - 1: then there genuinely are no higher simplices, so
    the boundary from above the top is the zero map, not a cap artifact."""
    boundaries = [simplicial_boundary_matrix(cx, d) for d in range(cx.maxdim + 1)]
    if cx.maxdim >= cx.size - 1:
        boundaries.append(SparseIntMatrix(cx.count(cx.maxdim), 0))
    return homology_from_boundaries(boundaries)


def simplicial_projection_map(shelf: Shelf, degree: int) -> SparseIntMatrix:
    """Chain map from the tuple complex onto the oriented simplicial chains.

    A tuple goes to its suffix-product vertex tuple: zero if a vertex
    repeats, otherwise +-(sorted simplex) with the sign of the sorting
    permutation.  Degrees run 0..n-1 (past that every tuple repeats a
    vertex); the shelf complex is built here, under its tuple cap, and
    commutation with the boundaries is verified for degree >= 1.
    """
    if not 0 <= degree < shelf.size:
        raise DegreeOutOfRange(f"degree {degree} outside 0..{shelf.size - 1}, the simplex dimensions")
    complex_ = build_shelf_complex(shelf, degree)
    mat = _projection_matrix(shelf, complex_, degree)
    if degree >= 1:
        prev = _projection_matrix(shelf, complex_, degree - 1)
        d_alg = boundary_matrix(shelf, (1,), degree, augmented=False)
        d_simp = simplicial_boundary_matrix(complex_, degree)
        if d_simp.matmul(mat) != prev.matmul(d_alg):
            raise ChainMapViolation(
                f"projection fails to commute with boundaries at degree {degree}"
            )
    return mat


def _projection_matrix(shelf: Shelf, complex_, degree: int) -> SparseIntMatrix:
    n = shelf.size
    simplex_rows = {s: i for i, s in enumerate(complex_.simplices[degree])}
    data = {}
    for col, tup in enumerate(product(range(n), repeat=degree + 1)):
        verts = suffix_products(shelf.table, tup)
        if len(set(verts)) != len(verts):
            continue
        sign = _sort_sign(verts)
        key = tuple(sorted(verts))
        data[(simplex_rows[key], col)] = sign
    return SparseIntMatrix._raw(
        len(simplex_rows), n ** (degree + 1), data
    )


def _sort_sign(seq) -> int:
    inversions = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inversions += 1
    return -1 if inversions % 2 else 1
