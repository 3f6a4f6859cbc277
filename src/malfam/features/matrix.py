"""Feature matrices: extraction and CSV persistence.

A `FeatureMatrix` holds its values as one `SparseMatrix`: the schema's
leading fixed-size columns as a dense block, and the library and 4-gram
columns, almost all zeros, as CSC columns.  `extract_matrix` builds it from
each sample's dense-block values and (column, value) pairs, so no dense row
of the token columns is ever built.  Digests taken earlier are projected on
the calling thread; samples that must be read are digested on worker
threads.  `values` densifies the matrix for a caller that asks.

The CSV layout is `id,label,<dim...>` with one row per sample.  Floats are
written with repr so a save/load round trip is bit-exact (zeros, most cells of
a gram matrix, as a ready-made "0.0"); the label cell is empty for unlabeled
samples.
"""
from __future__ import annotations

import csv
import io
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import CorpusManifest
from ..errors import CorpusError
from ..sparse import SparseMatrix
from .extract import SampleDigest, assemble, project_digest
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


def map_samples(fn: Callable, items: Sequence, threads: int = 1) -> Iterator:
    """Yield fn(item) for each item in order, on up to `threads` worker threads.

    At most two results per worker are computed ahead of the one yielded, so
    a caller that folds and drops each result holds a bounded number of them.
    """
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) > 2 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # after an error, or when the caller stops early, the work
            # not yet started is dropped rather than run to no use
            for future in pending:
                future.cancel()


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
    """Extract every sample in manifest order. Row order never depends on threads.

    `digests`, when given, is parallel to the manifest's samples and holds
    every group of the schema: each digest is projected as it stands, on the
    calling thread (the projection is pure Python, so worker threads would
    only contend for the interpreter lock), and no sample is read.
    Otherwise each sample is read and projected on up to `threads` workers.
    """
    samples = manifest.samples
    if digests is None:
        vectors = map_samples(
            lambda sample: assemble(
                sample, schema, vocab, prefer=prefer, binary_ngrams=binary_ngrams
            ),
            samples,
            threads,
        )
    elif len(digests) != len(samples):
        raise ValueError("digests must be parallel to the manifest's samples")
    else:
        vectors = (
            project_digest(sample.id, digest, schema, vocab, binary_ngrams=binary_ngrams)
            for sample, digest in zip(samples, digests)
        )
    lead = np.empty((len(samples), schema.dense_width()))
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for i, vector in enumerate(vectors):
        lead[i] = vector.lead
        cols.append(vector.cols)
        vals.append(vector.vals)
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
            ids: list[str] = []
            labels: list[int | None] = []
            rows: list[list[float]] = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CorpusError(
                        f"{path}:{line_no}: expected {len(header)} cells, found {len(row)}"
                    )
                ids.append(row[0])
                labels.append(int(row[1]) if row[1] else None)
                rows.append([float(cell) for cell in row[2:]])
    except OSError as exc:
        raise CorpusError(f"cannot read matrix {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise CorpusError(f"{path}:{reader.line_num}: malformed matrix: {exc}") from exc
    except ValueError as exc:
        raise CorpusError(f"{path}: malformed matrix: {exc}") from exc
    values = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise CorpusError(
            f"{path}:{row + 2}: non-finite value {values[row, col]} in column {names[col]}"
        )
    return FeatureMatrix(schema=schema, ids=tuple(ids), labels=tuple(labels), values=values)
