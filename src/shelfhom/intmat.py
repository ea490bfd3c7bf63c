"""Sparse integer matrices stored column by column.

Column j holds the rows rowidx[colptr[j]:colptr[j+1]] (array('q')) in the
order it was built, with the nonzero values at the same positions of a list
of Python ints, so every entry stays exact.  Only this module reads or
writes that layout: a matrix is built from its columns, each a dict
{row: nonzero value}, and read through items().  Matrices are treated as
immutable once built and are safe to share between threads.
"""

from array import array
from itertools import accumulate, islice, pairwise

from .errors import OutOfRange, SizeMismatch


class SparseIntMatrix:
    __slots__ = ("nrows", "ncols", "colptr", "rowidx", "values")

    def __init__(self, nrows: int, ncols: int, data=None):
        """From a dict {(row, col): value}; each column keeps its keys' order."""
        if nrows < 0 or ncols < 0:
            raise OutOfRange("matrix dimensions must be nonnegative")
        columns = [{} for _ in range(ncols)]
        for (i, j), v in (data or {}).items():
            if not 0 <= i < nrows or not 0 <= j < ncols:
                raise OutOfRange(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if v:
                columns[j][i] = v
        self._fill(nrows, columns)

    @classmethod
    def _columns(cls, nrows, columns) -> "SparseIntMatrix":
        """Internal fast path: the columns in order, each a trusted dict
        {row: nonzero value} in the order its entries are stored."""
        m = cls.__new__(cls)
        m._fill(nrows, columns)
        return m

    def _fill(self, nrows, columns):
        # lists grow faster than arrays, and array() takes a list in one step
        colptr, rowidx, values = [0], [], []
        for col in columns:
            if col:
                rowidx += col
                values += col.values()
            colptr.append(len(values))
        self.nrows, self.ncols = nrows, len(colptr) - 1
        self.colptr, self.rowidx, self.values = array("q", colptr), array("q", rowidx), values

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

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise SizeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return SparseIntMatrix._columns(self.nrows, self._product_columns(other))

    def _product_columns(self, other):
        """The columns of self @ other, one per column of other, which is
        streamed in stored order; terms that cancel leave the column at once."""
        pairs = list(zip(self.rowidx, self.values))
        cols_of_self = [pairs[p:q] for p, q in pairwise(self.colptr)]
        entries = zip(other.rowidx, other.values)
        acc = {}
        for p, q in pairwise(other.colptr):
            for j, b in islice(entries, q - p):
                for i, a in cols_of_self[j]:
                    s = acc.get(i, 0) + a * b
                    if s:
                        acc[i] = s
                    else:
                        del acc[i]
            # the consumer reads each column before the next, so an empty
            # column is handed over again rather than made anew
            yield acc
            if acc:
                acc = {}

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix) and self.shape == other.shape
                and dict(self.items()) == dict(other.items()))

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def to_csv_text(self) -> str:
        """Triplet CSV (row,col,value) with a header, for external checks."""
        return "".join(f"{i},{j},{v}\n" for i, j, v in [("row", "col", "value")] + self.triplets())
