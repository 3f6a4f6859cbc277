"""The feature matrix type: every column compressed by column (CSC).

The held cells of column j lie in ``rows[start[j]:start[j] + length[j]]``,
rows ascending, with their ``values`` beside them; every other cell is 0.
A matrix holds exactly its cells that are nonzero or -0.0, whichever
constructor built it: -0.0 is held so the matrix densifies bit for bit, and
readers that compare values see it as a zero.  The token columns (import
libraries, 4-grams) are 97-98% zeros; the fixed-size ones are mostly
nonzero, and are held the same way.

`fit_forest`, `cross_validate`, `predict_proba` and the importance selection
read this type in place.  The fit reads whole columns, and compares cells by
their `ranks`, worked out once per matrix on first use.  `cells` looks up
single cells by a binary search of ``keys``, one sorted key per held cell,
built once with the matrix; only `predict_proba` calls it.  `as_matrix`
converts a dense ndarray to this type.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# Values that `SparseMatrix.ranks` takes at a time, or more once it has
# found more distinct values than this
RANK_PIECE = 32_768


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    n_rows: int
    start: np.ndarray   # intp, per column
    length: np.ndarray  # intp, per column
    rows: np.ndarray    # int32, ascending within each column
    values: np.ndarray  # float64, parallel to rows
    # each held cell's (column * n_rows + row), ascending: the index `cells`
    # searches; int32 where every key fits
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dtype = np.int32 if self.length.size * self.n_rows < 2**31 else np.int64
        column_base = np.arange(self.length.size, dtype=dtype) * self.n_rows
        object.__setattr__(self, "keys", np.repeat(column_base, self.length) + self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.length.size

    @property
    def nbytes(self) -> int:
        arrays = (self.start, self.length, self.rows, self.values, self.keys)
        return sum(a.nbytes for a in arrays)

    @classmethod
    def from_csc(cls, columns, rows, values, shape: tuple[int, int]) -> SparseMatrix:
        """The matrix of the given shape whose cells (column, row, value) are
        given in any order, no two at one place; the cells equal to +0.0 are
        dropped."""
        n_rows, n_columns = shape
        values = np.asarray(values, dtype=np.float64)
        keep = held(values)
        columns = np.asarray(columns, dtype=np.intp)[keep]
        rows = np.asarray(rows, dtype=np.int32)[keep]
        # each cell's place is unique, so a plain sort puts columns in order
        # and each one's rows ascending
        order = np.argsort(columns * n_rows + rows)
        length = np.bincount(columns, minlength=n_columns)
        return cls(
            n_rows=n_rows,
            start=np.cumsum(length) - length,
            length=length,
            rows=rows[order],
            values=values[keep][order],
        )

    @classmethod
    def from_rows(cls, columns: Sequence[np.ndarray], values: Sequence[np.ndarray],
                  n_columns: int) -> SparseMatrix:
        """The matrix whose row i holds the cells ``values[i]`` at columns
        ``columns[i]`` (each row's columns distinct, in any order)."""
        counts = [c.size for c in columns]
        rows = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        return cls.from_csc(
            np.concatenate([np.empty(0, dtype=np.intp), *columns]), rows,
            np.concatenate([np.empty(0), *values]), (len(counts), n_columns),
        )

    @classmethod
    def from_dense(cls, values) -> SparseMatrix:
        """The matrix of a dense 2-d array."""
        X = np.asarray(values, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("values must be 2-d")
        # column after column, each one's rows ascending: already the order
        # of the held cells, so they are neither filtered nor sorted again
        cols, rows = np.nonzero(held(X).T)
        length = np.bincount(cols, minlength=X.shape[1])
        return cls(n_rows=X.shape[0], start=np.cumsum(length) - length, length=length,
                   rows=rows.astype(np.int32), values=X[rows, cols])

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, rank): the distinct held values and 0.0, ascending, and
        each held cell's index into them, in the smallest signed integer
        type that holds it.  -0.0 ranks as 0.0, and the zero in `distinct`
        is +0.0.  Worked out on first use and kept with the matrix.

        The values are taken a piece at a time, so that no temporary is
        the size of the matrix; a piece grows with the distinct values
        found, so that many distinct values cost O(n log n).
        """
        values = self.values
        distinct, at = np.zeros(1), 0
        while at < values.size:
            step = max(RANK_PIECE, distinct.size)
            distinct = np.union1d(distinct, values[at:at + step])
            at += step
        distinct[distinct == 0] = 0.0
        rank = np.empty(values.size, dtype=np.min_scalar_type(-distinct.size))
        for at in range(0, values.size, RANK_PIECE):
            rank[at:at + RANK_PIECE] = np.searchsorted(distinct, values[at:at + RANK_PIECE])
        return distinct, rank

    def entry_columns(self) -> np.ndarray:
        """The column of each held cell."""
        return np.repeat(np.arange(self.length.size), self.length)

    def take(self, rows) -> SparseMatrix:
        """The matrix of the given distinct rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        at = np.full(self.n_rows, -1, dtype=np.intp)
        at[rows] = np.arange(rows.size)
        new_rows = at[self.rows]
        keep = new_rows >= 0
        return SparseMatrix.from_csc(
            self.entry_columns()[keep], new_rows[keep], self.values[keep],
            (rows.size, self.length.size),
        )

    def columns(self, idx) -> SparseMatrix:
        """The matrix of the given columns, in the given order."""
        idx = np.asarray(idx, dtype=np.intp)
        length = self.length[idx]
        entries = ranges(self.start[idx], length)
        return SparseMatrix(
            n_rows=self.n_rows,
            start=np.cumsum(length) - length,
            length=length,
            rows=self.rows[entries],
            values=self.values[entries],
        )

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        out = np.zeros(self.shape)
        out[self.rows, self.entry_columns()] = self.values
        return out

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The value at (rows[i], cols[i]) for each i."""
        keys = self.keys
        if not keys.size:
            return np.zeros(rows.size)
        key = (cols * self.n_rows + rows).astype(keys.dtype)
        at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        return np.where(keys[at] == key, self.values[at], 0.0)

    def row_cells(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each row's held cells as (columns, values), columns ascending."""
        columns = self.entry_columns()
        order = np.argsort(self.rows.astype(np.intp) * self.length.size + columns)  # row-major
        bounds = np.cumsum(np.bincount(self.rows, minlength=self.n_rows))[:-1]
        return np.split(columns[order], bounds), np.split(self.values[order], bounds)


def as_matrix(values) -> SparseMatrix:
    """`values` as a SparseMatrix: itself, or a dense matrix converted."""
    if isinstance(values, SparseMatrix):
        return values
    return SparseMatrix.from_dense(values)


def held(values: np.ndarray) -> np.ndarray:
    """True where a value is held as a cell: nonzero, or -0.0."""
    return (values != 0) | np.signbit(values)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) for each start s and length l."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)
