"""Sparse integer matrices stored column by column.

Column j holds the rows rowidx[colptr[j]:colptr[j+1]] (array('q')) in the
order it was built, with the nonzero values at the same positions of a list
of Python ints, so every entry stays exact.  Matrices are treated as
immutable once built and are safe to share between threads.
"""

from array import array
from itertools import accumulate, chain, compress, islice, pairwise

from .errors import OutOfRange, SizeMismatch


class SparseIntMatrix:
    __slots__ = ("nrows", "ncols", "colptr", "rowidx", "values")

    def __init__(self, nrows: int, ncols: int, data=None):
        """From a dict {(row, col): value}; each column keeps its keys' order."""
        if nrows < 0 or ncols < 0:
            raise OutOfRange("matrix dimensions must be nonnegative")
        columns = [[] for _ in range(ncols)]
        for (i, j), v in (data or {}).items():
            if not 0 <= i < nrows or not 0 <= j < ncols:
                raise OutOfRange(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if v:
                columns[j].append((i, v))
        self.nrows, self.ncols = nrows, ncols
        self.colptr = array("q", accumulate(map(len, columns), initial=0))
        self.rowidx = array("q", [i for col in columns for i, _ in col])
        self.values = [v for col in columns for _, v in col]

    @classmethod
    def _raw(cls, nrows, colptr, rowidx, values) -> "SparseIntMatrix":
        """Internal fast path: trusted arrays without zeros."""
        m = cls.__new__(cls)
        m.nrows, m.ncols = nrows, len(colptr) - 1
        m.colptr, m.rowidx, m.values = colptr, rowidx, values
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return not self.values

    def colidx(self):
        """Each entry's column in stored order: the count of columns that end by it."""
        ends = [0] * (len(self.values) + 1)
        for p in islice(self.colptr, 1, None):
            ends[p] += 1
        return accumulate(ends)

    def items(self):
        """((row, col), value) for each entry, in stored order."""
        return zip(zip(self.rowidx, self.colidx()), self.values)

    def triplets(self):
        """Entries as (row, col, value), sorted for deterministic output."""
        return sorted(zip(self.rowidx, self.colidx(), self.values))

    def without_rows(self, drop) -> "SparseIntMatrix":
        """The same shape with the entries on the rows in ``drop`` removed."""
        keep = [i not in drop for i in self.rowidx]
        before = list(accumulate(keep, initial=0))
        # array() takes a list in one step but an iterator item by item
        return SparseIntMatrix._raw(
            self.nrows, array("q", [before[p] for p in self.colptr]),
            array("q", list(compress(self.rowidx, keep))), list(compress(self.values, keep)))

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise SizeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        pairs = list(zip(self.rowidx, self.values))
        cols_of_self = [pairs[p:q] for p, q in pairwise(self.colptr)] + [[]]
        colptr, rowidx, values = [0], [], []
        # other's entries in stored order: a product column is stored when other's
        # column ends, and a last term on the empty column self.ncols ends the rest
        ends = islice(other.colptr, 1, None)
        end, acc = next(ends, None), {}
        for t, (j, b) in enumerate(chain(zip(other.rowidx, other.values), [(self.ncols, 0)])):
            while t == end:
                if acc:
                    rowidx.extend(acc)
                    values.extend(acc.values())
                    acc = {}
                colptr.append(len(values))
                end = next(ends, None)
            for i, a in cols_of_self[j]:
                s = acc.get(i, 0) + a * b
                if s:
                    acc[i] = s
                else:
                    del acc[i]
        return SparseIntMatrix._raw(self.nrows, array("q", colptr), array("q", rowidx), values)

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix) and self.shape == other.shape
                and dict(self.items()) == dict(other.items()))

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def to_csv_text(self) -> str:
        """Triplet CSV (row,col,value) with a header, for external checks."""
        return "".join(f"{i},{j},{v}\n" for i, j, v in [("row", "col", "value")] + self.triplets())
