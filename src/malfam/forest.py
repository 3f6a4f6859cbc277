"""CART decision trees and a random forest, written against numpy only.

A fitted forest is one set of parallel per-node arrays (the layout of
scikit-learn's ``Tree``): ``feature`` (-1 marks a leaf), ``threshold``,
absolute child indices ``left``/``right``, and per-class training ``counts``
for every node.  Nodes are stored in preorder, left child first, and trees are
concatenated in index order; ``roots[t]`` is the first node of tree t.  Fit,
predict, importance and ``model.json`` all read and write these arrays.

Split search scores all candidate dims of a node as one n x m block (n rows at
the node, m candidate dims): each column is sorted, the squared class counts
left and right of every cut come from one cumulative sum per class present,
and the gain of every (cut, dim) pair is computed at once.  Memory is O(n*m)
whatever the class count; no n x m x k one-hot tensor is built.  The counts
are exact integers, so gains are the same floats a per-dim loop computes.
Candidate dims that are constant on the node's rows are dropped from the
block before the sort (in sparse gram groups most are): they are skipped,
not redrawn, so the rng draws and the tree are what scoring them would give.

Determinism contract: every tree draws from its own PCG64 generator seeded by
mix_seed(seed, "tree", index), so refitting with the same seed reproduces the
forest node for node regardless of thread count.  Ties in the split search
resolve to the lowest dimension index, then the lowest threshold.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ModelError, TrainingError
from .families import family_name
from .util import json_int, mix_seed, read_json, write_json

MODEL_VERSION = 3

FEATURE_RULES = ("sqrt", "third")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 200
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | str = "sqrt"
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if isinstance(self.features_per_split, str):
            if self.features_per_split not in FEATURE_RULES:
                raise ValueError(f"features_per_split rule must be one of {FEATURE_RULES}")
        elif self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")


def _candidate_count(rule: int | str, n_dims: int) -> int:
    if rule == "sqrt":
        return max(1, int(math.isqrt(n_dims)))
    if rule == "third":
        return max(1, n_dims // 3)
    return max(1, min(int(rule), n_dims))


def params_to_dict(params: ForestParams) -> dict:
    """The one JSON form of ForestParams, shared by model, config and metrics files."""
    return asdict(params)


def params_from_dict(doc: Mapping) -> ForestParams:
    """The inverse of `params_to_dict`; every key is required.

    Raises KeyError, TypeError or ValueError for a missing key or a value
    of the wrong type: `bootstrap` must be a boolean, `features_per_split`
    a rule name or an integer, and every count an integer (see `json_int`).
    """
    rule = doc["features_per_split"]
    if not isinstance(doc["bootstrap"], bool):
        raise TypeError("bootstrap must be true or false")
    return ForestParams(
        n_trees=json_int(doc["n_trees"], "n_trees"),
        max_depth=None if doc["max_depth"] is None else json_int(doc["max_depth"], "max_depth"),
        min_samples_leaf=json_int(doc["min_samples_leaf"], "min_samples_leaf"),
        features_per_split=rule if isinstance(rule, str) else json_int(rule, "features_per_split"),
        bootstrap=doc["bootstrap"],
        seed=json_int(doc["seed"], "seed"),
    )


@dataclass(frozen=True, eq=False)
class RandomForest:
    """All trees as parallel node arrays; see the module docstring for the layout."""

    params: ForestParams
    classes: tuple[int, ...]
    n_features: int
    feature: np.ndarray    # intp, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # intp, absolute; -1 at leaves
    right: np.ndarray      # intp, absolute; -1 at leaves
    counts: np.ndarray     # int64, n_nodes x n_classes
    roots: np.ndarray      # intp, first node of each tree


def gini(counts) -> float:
    """Gini impurity 1 - sum(p^2) of a class-count vector."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("counts must be 1-d")
    if (arr < 0).any():
        raise ValueError("counts must be non-negative")
    total = arr.sum()
    if total <= 0:
        raise ValueError("gini is undefined for an empty node")
    p = arr / total
    return float(1.0 - p @ p)


def _best_split(X, row_idx, y_codes, n_classes, dims, min_leaf):
    """Exact best (dim, threshold, gain) over candidate dims, or None.

    Thresholds are midpoints between consecutive distinct sorted values.  The
    winner takes the strictly largest gain, which must be > 0; on a tie the
    dim listed first wins, and within a dim the lowest threshold.  Callers
    pass dims sorted, so the first listed is the lowest index.
    """
    n = row_idx.size
    dims = np.asarray(dims, dtype=np.intp)
    lo, hi = min_leaf - 1, n - min_leaf  # cut i puts sorted rows 0..i on the left
    if dims.size == 0 or hi <= lo:
        return None
    sub_y = y_codes[row_idx]
    total = np.bincount(sub_y, minlength=n_classes)
    total_sq = total @ total
    g_parent = 1.0 - total_sq / (n * n)
    block = X[row_idx[:, np.newaxis], dims]
    # A dim constant on the node's rows has no cut, so it can never win;
    # dropping it keeps the rest in order, and with them every gain and tie.
    live = (block != block[0]).any(axis=0)
    if not live.all():
        if not live.any():
            return None
        block, dims = block[:, live], dims[live]
    # Counts at a cut where the value changes do not depend on how equal
    # values are ordered, so the sort need not be stable.
    order = block.argsort(axis=0)
    sorted_vals = block[order, np.arange(dims.size)]
    ys = sub_y[order[:hi]]
    del block, order
    valid = sorted_vals[lo + 1:hi + 1] != sorted_vals[lo:hi]
    n_left = np.arange(lo + 1, hi + 1)[:, np.newaxis]
    n_right = n - n_left
    # Sums of squared class counts left and right of every cut, kept in
    # integers so they are exact whatever the order of summation.  One cumsum
    # per class present; the right side follows from
    # sum_c (T_c - L_c)^2 = sum_c T_c^2 - 2 sum_c T_c L_c + sum_c L_c^2.
    left_sq = np.zeros(valid.shape, dtype=np.int64)
    for c in np.flatnonzero(total):
        left_c = (ys == c).cumsum(axis=0)[lo:]
        left_sq += left_c * left_c
    right_sq = total_sq - 2 * total[ys].cumsum(axis=0)[lo:] + left_sq
    del ys
    g_left = 1.0 - left_sq / (n_left * n_left)
    g_right = 1.0 - right_sq / (n_right * n_right)
    gain = g_parent - (n_left / n) * g_left - (n_right / n) * g_right
    gain = np.where(valid, gain, -np.inf)
    cut = gain.argmax(axis=0)  # first max = lowest threshold
    per_dim = gain[cut, np.arange(dims.size)]
    j = int(per_dim.argmax())  # first max = dim listed first
    if not per_dim[j] > 0.0:
        return None
    row = lo + cut[j]
    threshold = (sorted_vals[row, j] + sorted_vals[row + 1, j]) / 2.0
    return (int(dims[j]), float(threshold), float(per_dim[j]))


def _require_finite(X: np.ndarray) -> None:
    # A NaN or inf value yields a NaN/inf threshold that sends every row to
    # one side, so the same node would be split again without end.  min and
    # max carry a NaN or an inf through, so a finite matrix is checked with
    # no temporary the size of the matrix.
    if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite value {X[row, col]} at row {row}, column {col}")


def best_split(values, labels, dims=None, min_samples_leaf: int = 1):
    """Public split search over arbitrary labels; see _best_split for rules."""
    X = np.asarray(values, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("values must be 2-d")
    _require_finite(X)
    y = np.asarray(labels)
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels must align with rows")
    classes, y_codes = np.unique(y, return_inverse=True)
    if dims is None:
        dims = range(X.shape[1])
    return _best_split(
        X, np.arange(X.shape[0]), y_codes.astype(np.intp),
        classes.size, sorted(int(d) for d in dims), min_samples_leaf,
    )


def _fit_tree(X, rows, y_codes, n_classes, params: ForestParams, rng) -> tuple[list, ...]:
    """Grow one tree on X[rows]; returns its (feature, threshold, left, right,
    counts) node lists in preorder, child indices local to the tree."""
    n, d = rows.size, X.shape[1]
    m = _candidate_count(params.features_per_split, d)
    if params.bootstrap:
        # the draw picks positions in `rows`, as it would rows of X[rows]
        rows = rows[rng.integers(0, n, size=n)]
    depth_cap = params.max_depth if params.max_depth is not None else math.inf
    min_leaf = params.min_samples_leaf

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    node_counts: list[np.ndarray] = []
    # preorder with an explicit stack (left child first) so rng draws do not
    # depend on the recursion limit
    stack: list[tuple[np.ndarray, int, int, list[int] | None]] = [(rows, 0, -1, None)]
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
        found = _best_split(X, idx, y_codes, n_classes, dims, min_leaf)
        if found is None:
            continue
        dim, thr, _ = found
        feature[node] = dim
        threshold[node] = thr
        left_mask = X[idx, dim] <= thr
        # push right first so the left branch is grown next
        stack.append((idx[~left_mask], depth + 1, node, right))
        stack.append((idx[left_mask], depth + 1, node, left))
    return feature, threshold, left, right, node_counts


def fit_forest(
    values,
    labels,
    params: ForestParams = ForestParams(),
    threads: int = 1,
    rows=None,
    *,
    checked: bool = False,
) -> RandomForest:
    """Fit `params.n_trees` trees on (values, labels).

    `rows`, when given, indexes the rows of `values` and `labels` to train
    on, in order, so that a caller with one matrix fits on part of it
    without copying that part: the forest equals, node for node, the one
    fitted on `values[rows]`, `labels[rows]`, as each bootstrap draw picks
    positions in `rows`.  `checked=True` skips the finiteness check of
    `values`, for a caller that has made it on the same matrix.
    """
    X = np.ascontiguousarray(values, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2:
        raise ValueError("values must be 2-d")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with rows")
    if rows is None:
        rows = np.arange(X.shape[0])
    else:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or ((rows < 0) | (rows >= X.shape[0])).any():
            raise ValueError("rows must be a 1-d index into the rows of values")
    if not checked:
        _require_finite(X)
    if rows.size == 0:
        raise TrainingError("cannot fit a forest on an empty training set")
    y_rows = y[rows]
    classes = np.unique(y_rows)
    if classes.size < 2:
        raise TrainingError("training data holds a single class; nothing to separate")
    # codes of rows outside `rows` are never read
    y_codes = np.zeros(X.shape[0], dtype=np.intp)
    y_codes[rows] = np.searchsorted(classes, y_rows)

    def build(index: int):
        rng = np.random.Generator(np.random.PCG64(mix_seed(params.seed, "tree", index)))
        return _fit_tree(X, rows, y_codes, classes.size, params, rng)

    if threads > 1 and params.n_trees > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(params.n_trees)))
    else:
        trees = [build(t) for t in range(params.n_trees)]
    feature, threshold, left, right, counts = (np.concatenate(field) for field in zip(*trees))
    sizes = [len(tree[0]) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)  # tree-local child indices become absolute
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


def predict_proba(forest: RandomForest, values) -> np.ndarray:
    """Average of per-tree leaf distributions; each row sums to 1.

    All (row, tree) pairs descend one level per step.  A leaf whose counts are
    all zero contributes the uniform distribution.
    """
    X = np.asarray(values, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[np.newaxis, :]
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} feature columns, got {X.shape}")
    n_rows, n_trees, k = X.shape[0], forest.roots.size, len(forest.classes)
    node = np.tile(forest.roots, n_rows)  # row-major over (row, tree)
    row = np.repeat(np.arange(n_rows), n_trees)
    pending = np.arange(node.size)
    while pending.size:
        cur = node[pending]
        dim = forest.feature[cur]
        inner = dim >= 0
        pending, cur, dim = pending[inner], cur[inner], dim[inner]
        go_left = X[row[pending], dim] <= forest.threshold[cur]
        node[pending] = np.where(go_left, forest.left[cur], forest.right[cur])
    counts = forest.counts[node].astype(np.float64).reshape(n_rows, n_trees, k)
    total = counts.sum(axis=2, keepdims=True)
    dist = np.divide(counts, total, out=np.full_like(counts, 1.0 / k), where=total > 0)
    # cumsum adds trees one at a time in index order, as a running total would
    out = np.cumsum(dist, axis=1)[:, -1] / n_trees
    return out[0] if single else out


def predict(forest: RandomForest, values) -> np.ndarray:
    probs = predict_proba(forest, values)
    if probs.ndim == 1:
        probs = probs[np.newaxis, :]
    picks = probs.argmax(axis=1)  # first max = lowest class id
    classes = np.asarray(forest.classes, dtype=np.int64)
    return classes[picks]


def feature_importance(forest: RandomForest) -> np.ndarray:
    """Mean decrease in impurity per dimension, normalized to sum to 1.

    One pass over the internal nodes.  Within a tree, a dimension's weighted
    impurity drops are summed in reverse preorder (every split after its
    subtrees) and scaled by the root count; the per-tree shares are then
    added in tree order.  That order is part of the result: another one moves
    importances in the last bits and can reorder ties in selection.
    """
    counts = forest.counts.astype(np.float64)
    n = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        node_gini = np.where(n > 0, 1.0 - (counts * counts).sum(axis=1) / (n * n), 0.0)
    inner = np.flatnonzero(forest.feature >= 0)[::-1]
    inner = inner[n[inner] > 0]
    lo, hi = forest.left[inner], forest.right[inner]
    n_in = n[inner]
    drop = node_gini[inner] - (n[lo] / n_in) * node_gini[lo] - (n[hi] / n_in) * node_gini[hi]
    tree = np.searchsorted(forest.roots, inner, side="right") - 1
    keys, slot = np.unique(tree * forest.n_features + forest.feature[inner], return_inverse=True)
    per_key = np.bincount(slot, weights=n_in * drop, minlength=keys.size)
    n_root = n[forest.roots][keys // forest.n_features]
    kept = n_root > 0
    total = np.bincount(
        keys[kept] % forest.n_features,
        weights=per_key[kept] / n_root[kept],
        minlength=forest.n_features,
    ) / forest.roots.size
    s = total.sum()
    if s > 0:
        total = total / s
    return total


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    accuracy: float
    classes: tuple[int, ...]
    confusion: tuple[tuple[int, ...], ...]  # confusion[true][predicted]
    per_fold: tuple[float, ...] | None = None


def evaluate(forest: RandomForest, values, labels) -> Metrics:
    X = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels)
    if y.shape[0] == 0:
        raise TrainingError("cannot evaluate on an empty set")
    unknown = sorted(set(int(c) for c in np.unique(y)) - set(forest.classes))
    if unknown:
        raise TrainingError(f"evaluation labels absent from the model: {unknown}")
    preds = predict(forest, X)
    classes = np.asarray(forest.classes)
    sorter = np.argsort(classes)  # a loaded model's class list need not be sorted
    k = classes.size
    conf = np.zeros((k, k), dtype=np.int64)
    truth = sorter[np.searchsorted(classes, y, sorter=sorter)]
    pred = sorter[np.searchsorted(classes, preds, sorter=sorter)]
    np.add.at(conf, (truth, pred), 1)
    return Metrics(
        accuracy=float(np.trace(conf)) / y.shape[0],
        classes=forest.classes,
        confusion=tuple(tuple(int(v) for v in row) for row in conf),
    )


def cross_validate(
    values,
    labels,
    params: ForestParams = ForestParams(),
    folds: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> Metrics:
    """Stratified k-fold: shuffle within each class, deal round-robin to folds.

    Each fold's forest is fitted on that fold's rows of the one matrix (see
    `fit_forest`'s `rows`); only the held-out rows are copied, to score them.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    X = np.ascontiguousarray(values, dtype=np.float64)
    y = np.asarray(labels)
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels must align with rows")
    classes = np.unique(y)
    if classes.size < 2:
        raise TrainingError("cross-validation needs at least two classes")
    for cls in classes:
        have = int((y == cls).sum())
        if have < folds:
            raise TrainingError(
                f"family {family_name(int(cls))} has {have} samples; "
                f"{folds}-fold cross-validation needs at least {folds}"
            )
    fold_of = np.empty(y.shape[0], dtype=np.intp)
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "cv", int(cls))))
        perm = rng.permutation(idx.size)
        fold_of[idx[perm]] = np.arange(idx.size) % folds

    # every fold fits on rows of this one matrix, so it is checked once
    _require_finite(X)
    accuracies: list[float] = []
    k = classes.size
    conf_total = np.zeros((k, k), dtype=np.int64)
    for fold in range(folds):
        held = fold_of == fold
        fold_params = replace(params, seed=mix_seed(seed, "fold", fold))
        forest = fit_forest(
            X, y, fold_params, threads=threads, rows=np.flatnonzero(~held), checked=True
        )
        metrics = evaluate(forest, X[held], y[held])
        accuracies.append(metrics.accuracy)
        conf_total += np.asarray(metrics.confusion, dtype=np.int64)
    return Metrics(
        accuracy=float(np.mean(accuracies)),
        classes=tuple(int(c) for c in classes),
        confusion=tuple(tuple(int(v) for v in row) for row in conf_total),
        per_fold=tuple(accuracies),
    )


def grid_search(
    values,
    labels,
    base: ForestParams = ForestParams(),
    *,
    tree_counts: Sequence[int] = (100, 200, 400),
    feature_rules: Sequence[int | str] = FEATURE_RULES,
    folds: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> tuple[ForestParams, list[tuple[ForestParams, float]]]:
    """Cross-validate every (n_trees, features_per_split) cell; best mean wins.

    Ties keep the earlier cell, so smaller forests are preferred.
    """
    results: list[tuple[ForestParams, float]] = []
    best: tuple[ForestParams, float] | None = None
    for n_trees in tree_counts:
        for rule in feature_rules:
            params = replace(base, n_trees=n_trees, features_per_split=rule)
            metrics = cross_validate(values, labels, params, folds=folds, seed=seed, threads=threads)
            results.append((params, metrics.accuracy))
            if best is None or metrics.accuracy > best[1]:
                best = (params, metrics.accuracy)
    assert best is not None
    return best[0], results


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_model(forest: RandomForest, schema, path: str | Path) -> None:
    """Serialize to JSON, binding the forest to the schema by digest.

    The node arrays are written as flat lists; ``counts`` is row-major,
    n_nodes x n_classes.
    """
    doc = {
        "version": MODEL_VERSION,
        "params": params_to_dict(forest.params),
        "classes": list(forest.classes),
        "schema_digest": schema.digest(),
        "roots": forest.roots.tolist(),
        "feature": forest.feature.tolist(),
        "threshold": forest.threshold.tolist(),
        "left": forest.left.tolist(),
        "right": forest.right.tolist(),
        "counts": forest.counts.ravel().tolist(),
    }
    write_json(path, doc, indent=None)


def load_model(path: str | Path, schema) -> RandomForest:
    """Load a model and refuse any schema whose digest disagrees.

    The node arrays are checked so that predict can neither index out of
    range nor loop: every split names a schema column and both its children
    lie after it.
    """
    doc = read_json(path, "model", ModelError, MODEL_VERSION)
    digest, expected = doc.get("schema_digest"), schema.digest()
    if digest != expected:
        raise ModelError(
            f"model {path} was trained on a different feature schema "
            f"(digest {digest} != {expected})"
        )
    try:
        params = params_from_dict(doc["params"])
        classes = tuple(json_int(c, "class id") for c in doc["classes"])
        roots = np.asarray(doc["roots"], dtype=np.intp)
        feature = np.asarray(doc["feature"], dtype=np.intp)
        threshold = np.asarray(doc["threshold"], dtype=np.float64)
        left = np.asarray(doc["left"], dtype=np.intp)
        right = np.asarray(doc["right"], dtype=np.intp)
        counts = np.asarray(doc["counts"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model {path}: {exc}") from exc
    if len(classes) < 2 or len(classes) != len(set(classes)):
        raise ModelError("model class list must hold at least two distinct ids")
    n_nodes = feature.size
    if any(a.shape != (n_nodes,) for a in (feature, threshold, left, right)):
        raise ModelError("model node arrays differ in length")
    if counts.shape != (n_nodes * len(classes),) or (counts < 0).any():
        raise ModelError("node counts disagree with the class list")
    if roots.shape != (params.n_trees,):
        raise ModelError("model tree count disagrees with its params")
    if roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n_nodes:
        raise ModelError("model tree roots are not increasing node indices from 0")
    n_features = len(schema)
    bad = feature[(feature < -1) | (feature >= n_features)]
    if bad.size:
        raise ModelError(
            f"split dimension {bad[0]} outside the schema's {n_features} columns"
        )
    inner = np.flatnonzero(feature >= 0)
    for child in (left[inner], right[inner]):
        if ((child <= inner) | (child >= n_nodes)).any():
            raise ModelError("a split's child must lie after it within the node arrays")
    return RandomForest(
        params=params,
        classes=classes,
        n_features=n_features,
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        counts=counts.reshape(n_nodes, len(classes)),
        roots=roots,
    )
