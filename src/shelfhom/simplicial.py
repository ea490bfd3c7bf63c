"""The simplicial complex generated by a shelf and its homology.

Every tuple (x_0,...,x_d) whose left-normed suffix products are pairwise
distinct contributes the simplex on that vertex set; a simplex is stored
once, as its sorted vertex tuple.  Distributivity should make the family
face-closed; this is verified after construction, and a missing face is
inserted with a logged warning rather than silently, since its absence
would point at a theory error.

Orientation follows the fixed total order on vertices: a generating tuple
counts with the sign of the permutation sorting it, and tuples with a
repeated vertex are zero.  Degree-0 homology is unreduced, so its rank is
the number of connected components, which matches the number of left orbits
of the shelf.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations, product

from .errors import CapExceeded, DegreeOutOfRange
from .intmat import SparseIntMatrix
from .orbits import UnionFind
from .snf import HomologyGroup, homology_from_boundaries
from .tables import Shelf, suffix_products

logger = logging.getLogger(__name__)

DEFAULT_TUPLE_CAP = 1 << 22


@dataclass(frozen=True)
class ShelfComplex:
    """Simplices per dimension, each a sorted tuple of vertices."""

    size: int
    maxdim: int
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    def count(self, dim: int) -> int:
        if not 0 <= dim <= self.maxdim:
            return 0
        return len(self.simplices[dim])

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices that are not a face of any stored larger simplex."""
        out = []
        for dim in range(self.maxdim, -1, -1):
            for s in self.simplices[dim]:
                sset = set(s)
                covered = any(
                    sset <= set(t)
                    for higher in range(dim + 1, self.maxdim + 1)
                    for t in self.simplices[higher]
                )
                if not covered:
                    out.append(s)
        return sorted(out, key=lambda s: (len(s), s))


def build_shelf_complex(shelf: Shelf, maxdim: int | None = None,
                        cap: int = DEFAULT_TUPLE_CAP) -> ShelfComplex:
    """Collect the distinct-suffix-product simplices up to maxdim.

    maxdim defaults to n - 1 (a simplex on n vertices cannot be larger, and
    generating tuples longer than n always repeat a product), so only
    dimensions up to n - 1 are enumerated; the higher ones stay empty.
    """
    n = shelf.size
    if maxdim is None:
        maxdim = n - 1
    if maxdim < 0:
        raise DegreeOutOfRange("maxdim must be nonnegative")
    if n ** (maxdim + 1) > cap:
        raise CapExceeded(
            f"n^(maxdim+1) = {n}^{maxdim + 1} exceeds the tuple cap {cap}"
        )
    table = shelf.table
    found: list[set] = [set() for _ in range(maxdim + 1)]
    for d in range(min(maxdim, n - 1) + 1):
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
    """Verify face closure; insert and warn on any miss (see module doc)."""
    for d in range(len(found) - 1, 0, -1):
        lower = found[d - 1]
        for simplex in sorted(found[d]):
            for face in combinations(simplex, d):
                if face not in lower:
                    logger.warning(
                        "face %s of simplex %s was not generated; inserting it",
                        face, simplex,
                    )
                    lower.add(face)


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
