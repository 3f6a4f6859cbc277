"""The feature matrix type: a dense block of leading columns beside CSC columns.

A schema's fixed-size groups (file size, complexity, section sizes and
permissions) lead it and are mostly nonzero; they are held as one row-major
block, ``dense``.  The library and 4-gram columns after them are 97-98%
zeros; they are held compressed by column (CSC): the nonzero cells of CSC
column j lie in ``rows[start[j]:start[j] + length[j]]``, rows ascending, with
their ``values`` beside them.  Column j of the CSC part is column
``n_dense + j`` of the matrix.  A -0.0 cell is held like a nonzero, so the
matrix densifies bit for bit; readers that compare values see it as a zero.

`fit_forest`, `cross_validate`, `predict_proba` and the importance selection
read this type in place.  `cells` looks up single cells by a binary search of
``keys``, one sorted key per CSC cell, built once with the matrix.
`as_matrix` wraps a dense ndarray as a block with no CSC columns, without a
copy.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    dense: np.ndarray   # float64, C-contiguous, n_rows x n_dense
    start: np.ndarray   # intp, per CSC column
    length: np.ndarray  # intp, per CSC column
    rows: np.ndarray    # int32, ascending within each column
    values: np.ndarray  # float64, parallel to rows
    # each CSC cell's (CSC column * rows of the matrix + row), ascending: the
    # index `cells` searches; int32 where every key fits
    keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_rows = self.dense.shape[0]
        dtype = np.int32 if self.length.size * n_rows < 2**31 else np.int64
        column_base = np.arange(self.length.size, dtype=dtype) * n_rows
        object.__setattr__(self, "keys", np.repeat(column_base, self.length) + self.rows)

    @property
    def n_dense(self) -> int:
        return self.dense.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.dense.shape[0], self.n_dense + self.length.size

    @property
    def nbytes(self) -> int:
        arrays = (self.dense, self.start, self.length, self.rows, self.values, self.keys)
        return sum(a.nbytes for a in arrays)

    @classmethod
    def from_csc(cls, dense, columns, rows, values, n_columns: int) -> SparseMatrix:
        """The matrix of a dense block and the CSC cells (matrix column, row,
        value), given in any order, no two at one place."""
        dense = np.ascontiguousarray(dense, dtype=np.float64)
        columns = np.asarray(columns, dtype=np.intp) - dense.shape[1]
        rows = np.asarray(rows, dtype=np.int32)
        # each cell's place is unique, so a plain sort puts columns in order
        # and each one's rows ascending
        order = np.argsort(columns * dense.shape[0] + rows)
        length = np.bincount(columns, minlength=n_columns - dense.shape[1])
        return cls(
            dense=dense,
            start=np.cumsum(length) - length,
            length=length,
            rows=rows[order],
            values=np.asarray(values, dtype=np.float64)[order],
        )

    @classmethod
    def from_rows(cls, dense: np.ndarray, columns: Sequence[np.ndarray],
                  values: Sequence[np.ndarray], n_columns: int) -> SparseMatrix:
        """The matrix whose row i is ``dense[i]`` and, past it, the cells
        ``values[i]`` at matrix columns ``columns[i]`` (each row's columns
        distinct, in any order)."""
        counts = [c.size for c in columns]
        rows = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        return cls.from_csc(
            dense, np.concatenate([np.empty(0, dtype=np.intp), *columns]), rows,
            np.concatenate([np.empty(0), *values]), n_columns,
        )

    @classmethod
    def from_dense(cls, values, n_dense: int | None = None) -> SparseMatrix:
        """A dense matrix's leading `n_dense` columns as the block (all of
        them by default) and the rest as CSC columns."""
        X = np.asarray(values, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("values must be 2-d")
        n_dense = X.shape[1] if n_dense is None else n_dense
        tail = X[:, n_dense:]
        # column after column, each one's rows ascending
        cols, rows = np.nonzero(((tail != 0) | np.signbit(tail)).T)
        return cls.from_csc(X[:, :n_dense], cols + n_dense, rows, tail[rows, cols], X.shape[1])

    def entry_columns(self) -> np.ndarray:
        """The CSC column of each held cell."""
        return np.repeat(np.arange(self.length.size), self.length)

    def take(self, rows) -> SparseMatrix:
        """The matrix of the given distinct rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        at = np.full(self.shape[0], -1, dtype=np.intp)
        at[rows] = np.arange(rows.size)
        new_rows = at[self.rows]
        keep = new_rows >= 0
        cols, new_rows = self.entry_columns()[keep], new_rows[keep]
        return SparseMatrix.from_csc(
            self.dense[rows], cols + self.n_dense, new_rows, self.values[keep], self.shape[1]
        )

    def columns(self, idx) -> SparseMatrix:
        """The matrix of the given columns, in the given order; every dense
        column among them must come before every CSC column."""
        idx = np.asarray(idx, dtype=np.intp)
        csc = idx >= self.n_dense
        if (np.diff(csc.astype(np.int8)) < 0).any():
            raise ValueError("a dense column follows a CSC column")
        lead, tail = idx[~csc], idx[csc] - self.n_dense
        length = self.length[tail]
        entries = ranges(self.start[tail], length)
        return SparseMatrix(
            dense=np.ascontiguousarray(self.dense[:, lead]),
            start=np.cumsum(length) - length,
            length=length,
            rows=self.rows[entries],
            values=self.values[entries],
        )

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        out = np.zeros(self.shape)
        out[:, :self.n_dense] = self.dense
        out[self.rows, self.n_dense + self.entry_columns()] = self.values
        return out

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The value at (rows[i], cols[i]) for each i."""
        out = np.empty(rows.size)
        dense = cols < self.n_dense
        out[dense] = self.dense.take(rows[dense] * self.n_dense + cols[dense])
        csc = ~dense
        keys = self.keys
        key = ((cols[csc] - self.n_dense) * self.shape[0] + rows[csc]).astype(keys.dtype)
        at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        out[csc] = np.where(keys[at] == key, self.values[at], 0.0) if keys.size else 0.0
        return out

    def row_cells(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each row's CSC cells as (matrix columns, values), columns ascending."""
        columns = self.entry_columns()
        order = np.argsort(self.rows.astype(np.intp) * self.length.size + columns)  # row-major
        bounds = np.cumsum(np.bincount(self.rows, minlength=self.shape[0]))[:-1]
        return np.split(columns[order] + self.n_dense, bounds), np.split(self.values[order], bounds)


def as_matrix(values) -> SparseMatrix:
    """`values` as a SparseMatrix: itself, or a dense matrix as the block."""
    if isinstance(values, SparseMatrix):
        return values
    return SparseMatrix.from_dense(values)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) for each start s and length l."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)
