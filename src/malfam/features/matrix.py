"""Feature matrices: extraction and CSV persistence.

A `FeatureMatrix` holds its values as one `SparseMatrix`, every column
compressed by column (CSC).  `extract_matrix` builds it from each sample's
(column, value) pairs, so no dense row of the matrix is ever built.  Its
digests come from the caller or from a `fork_map` over the samples, whose
workers are processes: the listing scan is Python under the interpreter
lock, so a pool of digest threads measured no faster.  Every row is
projected as its digest comes, on the calling thread.  `values` densifies
the matrix for a caller that asks.

The CSV layout is `id,label,<dim...>` with one row per sample.  Floats are
written with repr so a save/load round trip is bit-exact (zeros, most cells of
a gram matrix, as a ready-made "0.0"); the label cell is empty for unlabeled
samples.  The writer reprs each row's held cells and the loader keeps each
row's nonzero (or -0.0) cells, so neither builds the dense matrix.
"""
from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from contextlib import ExitStack, closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import CorpusManifest
from ..errors import CorpusError
from ..forkmap import fork_map
from ..sparse import SparseMatrix, as_matrix, held
from .extract import SampleDigest, digest_sample
from .schema import FeatureSchema, group_of_dim


@dataclass(frozen=True, init=False)
class FeatureMatrix:
    schema: FeatureSchema
    ids: tuple[str, ...]
    labels: tuple[int | None, ...]
    cells: SparseMatrix

    def __init__(self, schema: FeatureSchema, ids, labels, values) -> None:
        """`values` is a SparseMatrix, or a dense array, which is converted."""
        values = as_matrix(values)
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

    def columns(self, schema: FeatureSchema) -> FeatureMatrix:
        """The matrix of `schema`'s columns, found by name; ValueError for a name it lacks."""
        at = {name: col for col, name in enumerate(self.schema.names)}
        try:
            idx = [at[name] for name in schema.names]
        except KeyError as exc:
            raise ValueError(f"matrix lacks dimension {exc.args[0]!r}") from None
        return FeatureMatrix(schema, self.ids, self.labels, self.cells.columns(idx))


def extract_matrix(
    manifest: CorpusManifest,
    schema: FeatureSchema,
    vocab,
    *,
    prefer: str = "pe",
    binary_ngrams: bool = False,
    threads: int = 1,
    digests: Iterable[SampleDigest] | None = None,
) -> FeatureMatrix:
    """Extract every sample, projecting each row in manifest order on the
    calling thread.

    `digests`, when given, yields one digest per manifest sample, in order,
    holding every group of the schema, and no sample is read.  Otherwise the
    samples are digested through `fork_map`.  Either way each row is
    projected as its digest arrives, as `assemble` projects it.  `threads`
    is accepted for callers that still pass it; it starts nothing and
    changes nothing.
    """
    samples = manifest.samples
    lookup = vocab.lookup(schema)
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    with ExitStack() as stack:
        if digests is None:
            digests = stack.enter_context(closing(fork_map(
                lambda sample: digest_sample(sample, lookup.groups, prefer), samples)))
        digests = iter(digests)
        for sample, digest in zip(samples, digests):
            row_cols, row_vals = lookup.project(digest, sample.id, binary_ngrams)
            cols.append(row_cols)
            vals.append(row_vals)
        if len(cols) != len(samples) or next(digests, None) is not None:
            raise ValueError("digests must be parallel to the manifest's samples")
    return FeatureMatrix(
        schema,
        tuple(s.id for s in samples),
        tuple(s.label for s in samples),
        SparseMatrix.from_rows(cols, vals, len(schema)),
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
        for sample_id, label, cols, vals in zip(matrix.ids, matrix.labels, *matrix.cells.row_cells()):
            handle.write(cells([sample_id, label]))
            if zeros:
                # only the held cells are repr'd: every other cell is +0.0
                text = zeros.copy()
                for i, value in zip(cols.tolist(), vals.tolist()):
                    text[i] = repr(value)
                handle.write(",")
                handle.write(",".join(text))
            handle.write("\n")


def load_matrix_csv(path: str | Path) -> FeatureMatrix:
    """Read a matrix CSV row by row into the `SparseMatrix` the writer's
    matrix held: each row is parsed into one float64 array and reduced to
    its nonzero (or -0.0) cells, so no dense copy of the matrix is built."""
    line_no = 1
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
            cols: list[np.ndarray] = []
            vals: list[np.ndarray] = []
            for row in reader:
                line_no = reader.line_num  # the last line of the row, past any newline in a cell
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
                at = np.flatnonzero(held(cells))
                cols.append(at)
                vals.append(cells[at])
    except OSError as exc:
        raise CorpusError(f"cannot read matrix {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise CorpusError(f"{path}:{reader.line_num}: malformed matrix: {exc}") from exc
    except ValueError as exc:  # a header name, label or cell that does not parse
        raise CorpusError(f"{path}:{line_no}: malformed matrix: {exc}") from exc
    values = SparseMatrix.from_rows(cols, vals, len(names))
    return FeatureMatrix(schema=schema, ids=tuple(ids), labels=tuple(labels), values=values)
