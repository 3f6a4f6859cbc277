"""Slow references that fast paths are checked against.

`reference_scan` folds the line reader's `AsmLine`s into the `ListingScan`
that `scan_listing` builds in one pass, one aggregate at a time over the
whole line list.  Only the comment and operand rules (`_declared_perms`,
`_segment`, `_import_library`, `_extern_symbol`, `_api_names`) are shared
with the scanner; the hand-counted tests in `test_asm.py` pin those.

`feat_complexity` takes the complexity group's values from each artifact's
whole bytes in one `zlib.compress`, the reference for `stream_complexity`,
which streams them from the files in chunks.

`subset_columns` reprojects a full matrix onto a selected schema by copying
its dense columns, the reference for `FeatureMatrix.columns`;
`copying_cross_validate` fits each fold on a copy of its rows.
`assert_same_cells` compares two `SparseMatrix` values array for array.

`node_by_node_forest` grows a forest one tree and one node at a time, calling
a given split search once per node, as `fit_forest` did before it grew all
trees in lockstep.
"""
from __future__ import annotations

import math
import zlib
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
from malfam.features.extract import COMPRESSION_LEVEL
from malfam.features.matrix import FeatureMatrix
from malfam.features.schema import FeatureSchema
from malfam.forest import ForestParams, Metrics, RandomForest, _candidate_count, evaluate, fit_forest
from malfam.sparse import SparseMatrix
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


def _complexity_triple(data: bytes | None) -> tuple[float, float, float]:
    if data is None:
        return (0.0, 0.0, 0.0)
    comp = len(zlib.compress(data, COMPRESSION_LEVEL))
    return (float(len(data)), float(comp), len(data) / comp)


def feat_complexity(asm_bytes: bytes | None, dump_bytes: bytes | None) -> np.ndarray:
    """Size, zlib size and ratio of the listing, then of the dump; None for an absent file."""
    values = _complexity_triple(asm_bytes) + _complexity_triple(dump_bytes)
    return np.array(values, dtype=np.float64)


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


def assert_same_cells(a: SparseMatrix, b: SparseMatrix) -> None:
    assert a.n_rows == b.n_rows
    for name in ("start", "length", "rows", "values", "keys"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


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


def _node_by_node_tree(X, rows, y_codes, n_classes, params: ForestParams, rng, split):
    """Grow one tree on X[rows]; returns its (feature, threshold, left, right,
    counts) node lists in preorder, child indices local to the tree."""
    n, d = rows.size, X.shape[1]
    m = _candidate_count(params.features_per_split, d)
    if params.bootstrap:
        rows = rows[rng.integers(0, n, size=n)]
    depth_cap = params.max_depth if params.max_depth is not None else math.inf
    min_leaf = params.min_samples_leaf
    feature, threshold, left, right, node_counts = [], [], [], [], []
    stack = [(rows, 0, -1, None)]
    while stack:
        idx, depth, parent, links = stack.pop()
        node = len(feature)
        if links is not None:
            links[parent] = node
        counts = np.bincount(y_codes[idx], minlength=n_classes)
        node_counts.append(counts)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        pure = counts.max() == idx.size
        if pure or depth >= depth_cap or idx.size < 2 * min_leaf:
            continue
        dims = np.sort(rng.choice(d, size=m, replace=False))
        found = split(X, idx, y_codes, n_classes, dims, min_leaf)
        if found is None:
            continue
        dim, thr, _ = found
        feature[node] = dim
        threshold[node] = thr
        left_mask = X[idx, dim] <= thr
        stack.append((idx[~left_mask], depth + 1, node, right))
        stack.append((idx[left_mask], depth + 1, node, left))
    return feature, threshold, left, right, node_counts


def node_by_node_forest(values, labels, params: ForestParams, split, rows=None) -> RandomForest:
    """`fit_forest` grown tree after tree, node after node, with `split`
    (called as `forest._best_split` is) scoring each node on its own."""
    X = np.ascontiguousarray(values, dtype=np.float64)
    y = np.asarray(labels)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    classes = np.unique(y[rows])
    y_codes = np.zeros(X.shape[0], dtype=np.intp)
    y_codes[rows] = np.searchsorted(classes, y[rows])
    trees = [
        _node_by_node_tree(
            X, rows, y_codes, classes.size, params,
            np.random.Generator(np.random.PCG64(mix_seed(params.seed, "tree", t))), split,
        )
        for t in range(params.n_trees)
    ]
    feature, threshold, left, right, counts = (np.concatenate(field) for field in zip(*trees))
    sizes = [len(tree[0]) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)
    return RandomForest(
        params=params,
        classes=tuple(int(c) for c in classes),
        n_features=X.shape[1],
        feature=feature,
        threshold=threshold,
        left=np.where(left >= 0, left + offset, -1),
        right=np.where(right >= 0, right + offset, -1),
        counts=counts,
        roots=roots,
    )
