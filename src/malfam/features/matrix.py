"""Feature matrices: threaded extraction and CSV persistence.

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
from .extract import SampleDigest, assemble, project_digest
from .schema import GROUP_ORDER, FeatureSchema, build_schema, group_of_dim


@dataclass(frozen=True)
class FeatureMatrix:
    schema: FeatureSchema
    ids: tuple[str, ...]
    labels: tuple[int | None, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.ids), len(self.schema)):
            raise ValueError("values shape disagrees with ids/schema")
        if len(self.labels) != len(self.ids):
            raise ValueError("labels and ids must be parallel")

    def __len__(self) -> int:
        return len(self.ids)

    def labeled(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows carrying a label, as (values, labels) arrays.

        When every row carries one, the values are the matrix's own array,
        not a copy.
        """
        keep = [i for i, lab in enumerate(self.labels) if lab is not None]
        y = np.array([self.labels[i] for i in keep], dtype=np.int64)
        if len(keep) == len(self.labels):
            return self.values, y
        return self.values[keep], y


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
    digests: Sequence[SampleDigest | None] | None = None,
    also: FeatureMatrix | None = None,
) -> FeatureMatrix:
    """Extract every sample in manifest order. Row order never depends on threads.

    `digests`, when given, is parallel to the manifest's samples: a digest is
    projected as it stands (it must hold every group of the schema and of
    `also`), and a None in its place digests that sample afresh.

    `also`, when given, is a matrix of the same samples whose values are
    filled in the same pass, each column from the dimension of the same name:
    a sample is digested and projected once for both matrices.
    """
    samples = manifest.samples
    if digests is None:
        digests = [None] * len(samples)
    elif len(digests) != len(samples):
        raise ValueError("digests must be parallel to the manifest's samples")
    source, take, also_take = schema, None, None
    if also is not None:
        if also.ids != tuple(s.id for s in samples):
            raise ValueError("also must hold the manifest's samples in order")
        # one projection holds every dimension of both matrices' groups
        wanted = set(schema.groups) | set(also.schema.groups)
        source = build_schema(vocab, [g for g in GROUP_ORDER if g in wanted])
        position = {name: i for i, name in enumerate(source.names)}
        take = np.array([position[name] for name in schema.names], dtype=np.intp)
        also_take = np.array([position[name] for name in also.schema.names], dtype=np.intp)

    def one(i: int) -> np.ndarray:
        digest = digests[i]
        if digest is None:
            return assemble(
                samples[i], source, vocab, prefer=prefer, binary_ngrams=binary_ngrams
            ).values
        return project_digest(
            samples[i].id, digest, source, vocab, binary_ngrams=binary_ngrams
        ).values

    values = np.empty((len(samples), len(schema)))
    for i, row in enumerate(map_samples(one, range(len(samples)), threads)):
        if take is None:
            values[i] = row
        else:
            values[i] = row[take]
            also.values[i] = row[also_take]
    return FeatureMatrix(
        schema=schema,
        ids=tuple(s.id for s in samples),
        labels=tuple(s.label for s in samples),
        values=values,
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
        values = np.asarray(matrix.values, dtype=np.float64)
        zeros = ["0.0"] * values.shape[1]  # repr(0.0)
        for sample_id, label, row in zip(matrix.ids, matrix.labels, values):
            handle.write(cells([sample_id, label]))
            if row.size:
                # only the cells that do not print as 0.0 are repr'd: -0.0
                # equals 0 but keeps its sign, and nan differs from 0
                text = zeros.copy()
                at = np.flatnonzero((row != 0) | np.signbit(row))
                for i, value in zip(at.tolist(), row[at].tolist()):
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
