"""Feature matrices: threaded extraction and CSV persistence.

The CSV layout is `id,label,<dim...>` with one row per sample.  Floats are
written with repr so a save/load round trip is bit-exact; the label cell is
empty for unlabeled samples.
"""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..corpus import CorpusManifest
from ..errors import CorpusError
from .extract import assemble
from .schema import FeatureSchema, group_of_dim


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
        """Rows carrying a label, as (values, labels) arrays."""
        keep = [i for i, lab in enumerate(self.labels) if lab is not None]
        y = np.array([self.labels[i] for i in keep], dtype=np.int64)
        return self.values[keep], y


def extract_matrix(
    manifest: CorpusManifest,
    schema: FeatureSchema,
    vocab,
    *,
    prefer: str = "pe",
    binary_ngrams: bool = False,
    threads: int = 1,
) -> FeatureMatrix:
    """Extract every sample in manifest order. Row order never depends on threads."""
    samples = manifest.samples

    def one(sample):
        return assemble(
            sample, schema, vocab, prefer=prefer, binary_ngrams=binary_ngrams
        ).values

    if threads > 1 and len(samples) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, samples))
    else:
        rows = [one(s) for s in samples]
    values = np.vstack(rows) if rows else np.zeros((0, len(schema)))
    return FeatureMatrix(
        schema=schema,
        ids=tuple(s.id for s in samples),
        labels=tuple(s.label for s in samples),
        values=values,
    )


def save_matrix_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "label", *matrix.schema.names])
        # csv writes a None label as an empty cell; tolist yields Python floats
        values = np.asarray(matrix.values, dtype=np.float64)
        for sample_id, label, row in zip(matrix.ids, matrix.labels, values):
            writer.writerow([sample_id, label, *map(repr, row.tolist())])


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
    except ValueError as exc:
        raise CorpusError(f"{path}: malformed matrix: {exc}") from exc
    values = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise CorpusError(
            f"{path}:{row + 2}: non-finite value {values[row, col]} in column {names[col]}"
        )
    return FeatureMatrix(schema=schema, ids=tuple(ids), labels=tuple(labels), values=values)
