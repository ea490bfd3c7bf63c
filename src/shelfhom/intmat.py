"""Sparse integer matrices in triplet form.

Only nonzero values are stored, keyed by (row, col); values are plain Python
integers, so arbitrary precision comes for free.  Matrices are treated as
immutable once built and are safe to share between threads.
"""

from __future__ import annotations

from .errors import OutOfRange, SizeMismatch


class SparseIntMatrix:
    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data=None):
        if nrows < 0 or ncols < 0:
            raise OutOfRange("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        if data:
            for (i, j), v in data.items():
                if not 0 <= i < nrows or not 0 <= j < ncols:
                    raise OutOfRange(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if v:
                    self.data[(i, j)] = v

    @classmethod
    def _raw(cls, nrows, ncols, data) -> "SparseIntMatrix":
        # Internal fast path: data is a trusted dict without zeros.
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.data = data
        return m

    @classmethod
    def from_dense(cls, rows, ncols=None) -> "SparseIntMatrix":
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise SizeMismatch("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = int(v)
        return cls._raw(nrows, ncols, data)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def to_dense(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def triplets(self):
        """Entries as (row, col, value), sorted for deterministic output."""
        return [(i, j, self.data[(i, j)]) for (i, j) in sorted(self.data)]

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise SizeMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        # walks other's entries in stored order: stored column by column, the
        # terms of one product column meet and cancel before the next starts
        cols_of_self = {}
        for (i, j), a in self.data.items():
            cols_of_self.setdefault(j, []).append((i, a))
        acc = {}
        for (j, k), b in other.data.items():
            for i, a in cols_of_self.get(j, ()):
                key = (i, k)
                s = acc.get(key, 0) + a * b
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return SparseIntMatrix._raw(self.nrows, other.ncols, acc)

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def to_csv_text(self) -> str:
        """Triplet CSV (row,col,value) with a header, for external checks."""
        lines = ["row,col,value"]
        lines.extend(f"{i},{j},{v}" for i, j, v in self.triplets())
        return "\n".join(lines) + "\n"


def identity_matrix(n: int) -> SparseIntMatrix:
    return SparseIntMatrix._raw(n, n, {(i, i): 1 for i in range(n)})
