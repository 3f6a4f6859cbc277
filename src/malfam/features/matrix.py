"""Feature matrices: extraction and CSV persistence.

A `FeatureMatrix` holds its values as one `SparseMatrix`: the schema's
leading fixed-size columns as a dense block, and the library and 4-gram
columns, almost all zeros, as CSC columns.  `extract_matrix` builds it from
each sample's dense-block values and (column, value) pairs, so no dense row
of the token columns is ever built.  Its digests come from the caller or are
taken one sample at a time, and every row is projected as it comes, all on
the calling thread: the listing scan and the projection are Python under the
interpreter lock, so a pool of digest threads measured no faster.
`values` densifies the matrix for a caller that asks.

The CSV layout is `id,label,<dim...>` with one row per sample.  Floats are
written with repr so a save/load round trip is bit-exact (zeros, most cells of
a gram matrix, as a ready-made "0.0"); the label cell is empty for unlabeled
samples.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import CorpusManifest
from ..errors import CorpusError
from ..sparse import SparseMatrix
from .extract import SampleDigest, checked_lookup, digest_sample, project_row
from .schema import FeatureSchema, group_of_dim


@dataclass(frozen=True, init=False)
class FeatureMatrix:
    schema: FeatureSchema
    ids: tuple[str, ...]
    labels: tuple[int | None, ...]
    cells: SparseMatrix

    def __init__(self, schema: FeatureSchema, ids, labels, values) -> None:
        """`values` is a SparseMatrix, or a dense array whose first
        `schema.dense_width()` columns become the dense block."""
        if not isinstance(values, SparseMatrix):
            values = SparseMatrix.from_dense(values, schema.dense_width())
        if values.shape != (len(ids), len(schema)):
            raise ValueError("values shape disagrees with ids/schema")
        if len(labels) != len(ids):
            raise ValueError("labels and ids must be parallel")
        for name, value in (("schema", schema), ("ids", ids), ("labels", labels), ("cells", values)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def values(self) -> np.ndarray:
        """The matrix as a dense array, built on each call."""
        return self.cells.toarray()

    def labeled(self) -> tuple[SparseMatrix, np.ndarray]:
        """Rows carrying a label, as (cells, labels).

        When every row carries one, the cells are the matrix's own, not a
        copy.
        """
        keep = [i for i, lab in enumerate(self.labels) if lab is not None]
        y = np.array([self.labels[i] for i in keep], dtype=np.int64)
        if len(keep) == len(self.labels):
            return self.cells, y
        return self.cells.take(keep), y


def extract_matrix(
    manifest: CorpusManifest,
    schema: FeatureSchema,
    vocab,
    *,
    prefer: str = "pe",
    binary_ngrams: bool = False,
    threads: int = 1,
    digests: Sequence[SampleDigest] | None = None,
) -> FeatureMatrix:
    """Extract every sample in manifest order, on the calling thread.

    `digests`, when given, is parallel to the manifest's samples and holds
    every group of the schema, and no sample is read.  Otherwise each sample
    is digested just before its row is projected.  Every row gets the checks
    of `assemble`.  `threads` is accepted for callers that still pass it; it
    starts nothing and changes nothing.
    """
    samples = manifest.samples
    lookup = checked_lookup(schema, vocab)
    if digests is None:
        digests = (digest_sample(sample, lookup.groups, prefer) for sample in samples)
    elif len(digests) != len(samples):
        raise ValueError("digests must be parallel to the manifest's samples")
    lead = np.empty((len(samples), lookup.n_dense))
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for i, (sample, digest) in enumerate(zip(samples, digests)):
        lead[i], row_cols, row_vals = project_row(lookup, schema, sample.id, digest, binary_ngrams)
        cols.append(row_cols)
        vals.append(row_vals)
    return FeatureMatrix(
        schema,
        tuple(s.id for s in samples),
        tuple(s.label for s in samples),
        SparseMatrix.from_rows(lead, cols, vals, len(schema)),
    )


def save_matrix_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        # the header and each row's id and label cells are written by a csv
        # writer (quoted as needed, a None label as an empty cell) into a
        # buffer, less its line end; the values are float reprs, which never
        # need quoting, so they are joined directly.  The writer ends its
        # lines with \r\n so that it quotes a cell holding a lone \r as well
        # as one holding \n; the file's lines end with \n alone.
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")

        def cells(row: list) -> str:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow(row)
            return buffer.getvalue()[:-2]

        handle.write(cells(["id", "label", *matrix.schema.names]) + "\n")
        zeros = ["0.0"] * len(matrix.schema)  # repr(0.0)
        sparse_cols, sparse_vals = matrix.cells.row_cells()
        for sample_id, label, lead, cols, vals in zip(
            matrix.ids, matrix.labels, matrix.cells.dense, sparse_cols, sparse_vals
        ):
            handle.write(cells([sample_id, label]))
            if zeros:
                # only the block cells that do not print as 0.0 are repr'd:
                # -0.0 equals 0 but keeps its sign, and nan differs from 0;
                # the CSC part holds no other cells
                text = zeros.copy()
                at = np.flatnonzero((lead != 0) | np.signbit(lead))
                for i, value in zip(at.tolist(), lead[at].tolist()):
                    text[i] = repr(value)
                for i, value in zip(cols.tolist(), vals.tolist()):
                    text[i] = repr(value)
                handle.write(",")
                handle.write(",".join(text))
            handle.write("\n")


def load_matrix_csv(path: str | Path) -> FeatureMatrix:
    """Read a matrix CSV row by row into the `SparseMatrix` the writer's
    matrix held: each row is parsed into one float64 array and split into
    its block values and its nonzero (or -0.0) cells past the block, so no
    dense copy of the token columns is built."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError(f"{path}: empty matrix file") from None
            if header[:2] != ["id", "label"]:
                raise CorpusError(f"{path}: matrix header must start with id,label")
            names = tuple(header[2:])
            groups = tuple(group_of_dim(n) for n in names)
            schema = FeatureSchema(names, groups)
            width = schema.dense_width()
            ids: list[str] = []
            labels: list[int | None] = []
            lead: list[np.ndarray] = []
            cols: list[np.ndarray] = []
            vals: list[np.ndarray] = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CorpusError(
                        f"{path}:{line_no}: expected {len(header)} cells, found {len(row)}"
                    )
                ids.append(row[0])
                labels.append(int(row[1]) if row[1] else None)
                cells = np.fromiter(map(float, row[2:]), dtype=np.float64, count=len(names))
                if not np.isfinite(cells).all():
                    col = int(np.flatnonzero(~np.isfinite(cells))[0])
                    raise CorpusError(
                        f"{path}:{line_no}: non-finite value {cells[col]} in column {names[col]}"
                    )
                tail = cells[width:]
                at = np.flatnonzero((tail != 0) | np.signbit(tail))
                lead.append(cells[:width].copy())
                cols.append(at + width)
                vals.append(tail[at])
    except OSError as exc:
        raise CorpusError(f"cannot read matrix {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise CorpusError(f"{path}:{reader.line_num}: malformed matrix: {exc}") from exc
    except ValueError as exc:
        raise CorpusError(f"{path}: malformed matrix: {exc}") from exc
    block = np.array(lead) if lead else np.zeros((0, width))
    values = SparseMatrix.from_rows(block, cols, vals, len(names))
    return FeatureMatrix(schema=schema, ids=tuple(ids), labels=tuple(labels), values=values)
