"""The simplicial complex generated by a shelf and its homology.

Every tuple (x_0,...,x_d) whose left-normed suffix products are pairwise
distinct contributes the simplex on that vertex set; a simplex is stored
once, as its sorted vertex tuple.  The complex is that family itself: one
ascending tuple of simplices per dimension 0..maxdim.  So maxdim is its
length minus one, and, as every x generates the vertex (x,), the carrier
size is the length of its first tuple.  The family is face-closed: by right
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
from .snf import homology_from_boundaries
from .tables import Shelf, suffix_products

DEFAULT_TUPLE_CAP = 1 << 22


def build_shelf_complex(shelf: Shelf, maxdim: int | None = None,
                        cap: int = DEFAULT_TUPLE_CAP) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distinct-suffix-product simplices up to maxdim: one ascending
    tuple of sorted vertex tuples per dimension 0..maxdim.

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
    return tuple(tuple(sorted(bucket)) for bucket in found)


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


def maximal_simplices(simplices) -> list[tuple[int, ...]]:
    """Simplices that are not a face of any stored larger simplex."""
    stored = [s for layer in simplices for s in layer]
    faces = {f for s in stored for k in range(1, len(s)) for f in combinations(s, k)}
    return sorted((s for s in stored if s not in faces), key=lambda s: (len(s), s))


def components(simplices):
    """Connected components of the 1-skeleton: (count, labels)."""
    n = len(simplices[0])
    uf = UnionFind(n)
    for a, b in (simplices[1] if len(simplices) > 1 else ()):
        uf.union(a, b)
    roots = {}
    labels = []
    for x in range(n):
        r = uf.find(x)
        labels.append(roots.setdefault(r, len(roots)))
    return len(roots), tuple(labels)


def simplicial_boundary_matrix(simplices, degree: int) -> SparseIntMatrix:
    """Oriented boundary from degree-d chains to (d-1)-chains."""
    if not 0 <= degree < len(simplices):
        raise DegreeOutOfRange(
            f"degree {degree} outside the built range 0..{len(simplices) - 1}"
        )
    cols = simplices[degree]
    if degree == 0:
        return SparseIntMatrix(0, len(cols))
    rows = {s: i for i, s in enumerate(simplices[degree - 1])}
    # every column holds its degree + 1 faces, each on its own row
    return SparseIntMatrix._columns(len(rows), (
        {rows[simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1 for i in range(degree + 1)}
        for simplex in cols))


def simplicial_groups(simplices) -> list[dict]:
    """Unreduced simplicial homology H_0..H_{maxdim-1}, and H_maxdim too
    when maxdim >= n - 1, that is when there are at least as many
    dimensions as vertices: then there genuinely are no higher simplices, so
    the boundary from above the top is the zero map, not a cap artifact.
    The groups are the {"degree", "rank", "torsion"} records of
    :func:`homology_from_boundaries`."""
    boundaries = [simplicial_boundary_matrix(simplices, d) for d in range(len(simplices))]
    if len(simplices) >= len(simplices[0]):
        boundaries.append(SparseIntMatrix(len(simplices[-1]), 0))
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
    simplices = build_shelf_complex(shelf, degree)
    mat = _projection_matrix(shelf, simplices, degree)
    if degree >= 1:
        prev = _projection_matrix(shelf, simplices, degree - 1)
        d_alg = boundary_matrix(shelf, (1,), degree, augmented=False)
        d_simp = simplicial_boundary_matrix(simplices, degree)
        if d_simp.matmul(mat) != prev.matmul(d_alg):
            raise ChainMapViolation(
                f"projection fails to commute with boundaries at degree {degree}"
            )
    return mat


def _projection_matrix(shelf: Shelf, simplices, degree: int) -> SparseIntMatrix:
    n = shelf.size
    simplex_rows = {s: i for i, s in enumerate(simplices[degree])}
    verts = (suffix_products(shelf.table, tup) for tup in product(range(n), repeat=degree + 1))
    return SparseIntMatrix._columns(len(simplex_rows), (
        {simplex_rows[tuple(sorted(v))]: _sort_sign(v)} if len(set(v)) == len(v) else {}
        for v in verts))


def _sort_sign(seq) -> int:
    inversions = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inversions += 1
    return -1 if inversions % 2 else 1
