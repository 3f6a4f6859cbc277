"""Slow references that fast paths are checked against.

`reference_scan` folds the line reader's `AsmLine`s into the `ListingScan`
that `scan_listing` builds in one pass, one aggregate at a time over the
whole line list.  Only the comment and operand rules (`_declared_perms`,
`_segment`, `_import_library`, `_extern_symbol`, `_api_names`) are shared
with the scanner; the hand-counted tests in `test_asm.py` pin those.

`subset_columns` reprojects a full matrix onto a selected schema by copying
columns, as the train pass once did; `copying_cross_validate` fits each fold
on a copy of its rows.
"""
from __future__ import annotations

from dataclasses import replace
from itertools import groupby

import numpy as np

from malfam.asm import (
    ImportInfo,
    Listing,
    ListingScan,
    _api_names,
    _declared_perms,
    _extern_symbol,
    _import_library,
    _segment,
)
from malfam.features.matrix import FeatureMatrix
from malfam.features.schema import FeatureSchema
from malfam.forest import Metrics, evaluate, fit_forest
from malfam.util import mix_seed


def reference_scan(listing: Listing) -> ListingScan:
    """The `ListingScan` of a parsed listing, folded line object by line object."""
    lines = listing.lines
    segments = []
    for section, group in groupby(lines, key=lambda line: line.section):
        run = list(group)
        banners = (_declared_perms(line.comment) for line in run if line.comment is not None)
        segments.append(_segment(
            section,
            min(line.address for line in run),
            max(line.address + line.span for line in run),
            next((perms for perms in banners if perms is not None), None),
        ))
    known_bytes: dict[str, int] = {}
    for line in lines:
        known_bytes[line.section] = known_bytes.get(line.section, 0) + line.known_bytes
    libraries = {_import_library(line.comment) for line in lines if line.comment is not None}
    externs = [line.operands for line in lines if line.mnemonic == "extrn" and line.operands]
    api_symbols = frozenset(map(_extern_symbol, externs)) - {""}
    calls = [line.operands for line in lines if line.mnemonic in ("call", "jmp") and line.operands]
    return ListingScan(
        segments=segments,
        known_bytes=known_bytes,
        imports=ImportInfo(frozenset(libraries - {""}), api_symbols),
        opcodes=[line.mnemonic for line in lines if line.mnemonic is not None],
        api_calls=_api_names(calls, api_symbols),
        parse_failures=listing.parse_failures,
    )


def subset_columns(matrix: FeatureMatrix, schema: FeatureSchema) -> FeatureMatrix:
    """Reproject a matrix onto a schema whose dims are a subset of its columns."""
    position = {name: i for i, name in enumerate(matrix.schema.names)}
    try:
        cols = [position[name] for name in schema.names]
    except KeyError as exc:
        raise ValueError(f"matrix lacks dimension {exc.args[0]!r}") from exc
    return FeatureMatrix(
        schema=schema,
        ids=matrix.ids,
        labels=matrix.labels,
        values=np.ascontiguousarray(matrix.values[:, cols]),
    )


def copying_cross_validate(X, y, params, folds: int, seed: int) -> Metrics:
    """Stratified k-fold dealt one row at a time, each fold fitted on a copy."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    classes = np.unique(y)
    fold_of = np.empty(y.size, dtype=np.intp)
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        perm = np.random.Generator(np.random.PCG64(mix_seed(seed, "cv", int(cls)))).permutation(idx.size)
        for position, j in enumerate(perm):
            fold_of[idx[j]] = position % folds
    accuracies = []
    confusion = np.zeros((classes.size, classes.size), dtype=np.int64)
    for fold in range(folds):
        held = fold_of == fold
        forest = fit_forest(X[~held], y[~held], replace(params, seed=mix_seed(seed, "fold", fold)))
        metrics = evaluate(forest, X[held], y[held])
        accuracies.append(metrics.accuracy)
        confusion += np.asarray(metrics.confusion, dtype=np.int64)
    return Metrics(
        accuracy=float(np.mean(accuracies)),
        classes=tuple(int(c) for c in classes),
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
        per_fold=tuple(accuracies),
    )
