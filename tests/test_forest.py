"""Forest engine tests: gini, exact split search against a rational-arithmetic
oracle, fitting, probabilities, MDI importances, CV protocol, persistence."""
from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import malfam.features
from malfam import forest as forest_module
from malfam import sparse as sparse_module
from malfam.config import RunConfig, save_config
from malfam.errors import ModelError, TrainingError
from malfam.features import Vocabulary, assemble, build_schema, save_vocab
from malfam.features import extract as extract_module
from malfam.features import schema as schema_module
from malfam.features import vocab as vocab_module
from malfam.features.schema import GROUP_ORDER
from malfam.forest import (
    MODEL_VERSION,
    ForestParams,
    Metrics,
    RandomForest,
    best_split,
    cross_validate,
    evaluate,
    feature_importance,
    fit_forest,
    gini,
    grid_search,
    load_model,
    params_from_dict,
    params_to_dict,
    predict,
    predict_proba,
    save_model,
)
from malfam.pipeline import CONFIG_FILE, MODEL_FILE, VOCAB_FILE, load_model_dir
from malfam.sparse import SparseMatrix, as_matrix
from malfam.util import mix_seed
from oracles import copying_cross_validate, node_by_node_forest


# ---------------------------------------------------------------------------
# gini
# ---------------------------------------------------------------------------

def test_gini_reference_values():
    assert gini([4, 0, 0]) == 0.0
    assert gini([2, 2]) == 0.5
    assert gini([2, 1, 1]) == 0.625


def test_gini_bounds_property():
    rng = np.random.default_rng(0)
    for _ in range(300):
        c = int(rng.integers(1, 7))
        counts = rng.integers(0, 20, size=c)
        if counts.sum() == 0:
            counts[int(rng.integers(0, c))] = 1
        g = gini(counts)
        assert 0.0 <= g <= 1.0 - 1.0 / c + 1e-12
        pure = (counts > 0).sum() == 1
        assert (g == 0.0) == pure


def test_gini_rejects_degenerate_input():
    with pytest.raises(ValueError):
        gini([0, 0, 0])
    with pytest.raises(ValueError):
        gini([3, -1])


# ---------------------------------------------------------------------------
# best_split vs exact oracle
# ---------------------------------------------------------------------------

def frac_gini(counts: list[int]) -> Fraction:
    n = sum(counts)
    if n == 0:
        return Fraction(0)
    return 1 - sum(Fraction(c, n) ** 2 for c in counts)


def oracle_grid(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Every (dim, threshold, exact gain) over the midpoint grid."""
    n, d = X.shape
    classes = sorted(set(int(v) for v in y))

    def class_counts(mask: np.ndarray) -> list[int]:
        return [int(((y == c) & mask).sum()) for c in classes]

    parent = frac_gini(class_counts(np.ones(n, dtype=bool)))
    grid = []
    for dim in range(d):
        distinct = sorted(set(float(v) for v in X[:, dim]))
        for low, high in zip(distinct, distinct[1:]):
            thr = (low + high) / 2.0
            left = X[:, dim] <= thr
            n_left = int(left.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            gain = (parent
                    - Fraction(n_left, n) * frac_gini(class_counts(left))
                    - Fraction(n - n_left, n) * frac_gini(class_counts(~left)))
            grid.append((dim, thr, gain))
    return grid


def exact_gain_of(X, y, dim: int, thr: float, min_leaf: int) -> Fraction | None:
    for d, t, g in oracle_grid(X, y, min_leaf):
        if d == dim and t == thr:
            return g
    return None


def test_best_split_reference_case():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array(["A", "A", "B", "B"])
    dim, thr, gain = best_split(X, y)
    assert (dim, thr) == (0, 5.5)
    assert gain == pytest.approx(0.5, abs=1e-12)


def test_best_split_returns_none_without_signal():
    pure = best_split(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]))
    assert pure is None
    duplicates = best_split(np.array([[5.0], [5.0], [5.0], [5.0]]), np.array([1, 1, 2, 2]))
    assert duplicates is None


def test_best_split_respects_min_samples_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1, 2, 1, 2])
    # the gainful cuts (0.5, 2.5) strand single rows; the feasible one gains 0
    assert best_split(X, y, min_samples_leaf=2) is None
    assert best_split(X, y, min_samples_leaf=1) is not None


def test_best_split_tie_breaks_to_lower_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1, 2, 1, 2])
    # cuts at 0.5 and 2.5 share the same gain; the lower threshold wins
    dim, thr, _ = best_split(X, y)
    assert (dim, thr) == (0, 0.5)


def test_best_split_tie_breaks_to_lower_dim():
    col = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([col, col])
    y = np.array([1, 1, 2, 2])
    dim, thr, gain = best_split(X, y)
    assert dim == 0
    assert thr == 0.5
    assert gain == pytest.approx(0.5, abs=1e-12)


def test_best_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(1234)
    checked_splits = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        y = rng.integers(1, int(rng.integers(2, 5)) + 1, size=n)
        min_leaf = int(rng.integers(1, 4))

        got = best_split(X, y, min_samples_leaf=min_leaf)
        grid = oracle_grid(X, y, min_leaf)
        best_gain = max((g for _, _, g in grid), default=Fraction(0))
        if best_gain <= 0:
            assert got is None
            continue
        assert got is not None
        dim, thr, gain = got
        assert abs(gain - float(best_gain)) < 1e-9
        # the chosen split itself achieves the exact optimum
        chosen = exact_gain_of(X, y, dim, thr, min_leaf)
        assert chosen == best_gain
        checked_splits += 1
    assert checked_splits > 100  # the fixture mix must mostly be splittable


# ---------------------------------------------------------------------------
# block split search vs the per-dim loop it replaced
# ---------------------------------------------------------------------------

# The per-dim loop the block search replaced, kept verbatim as its oracle.
def per_dim_best_split(X, row_idx, y_codes, n_classes, dims, min_leaf):
    """Exact best (dim, threshold, gain) over candidate dims, or None.

    Thresholds are midpoints between consecutive distinct sorted values.  The
    winner takes the strictly largest gain; on a tie the dim iterated first
    (lowest index) wins, and within a dim argmax picks the lowest threshold.
    """
    n = row_idx.size
    sub_y = y_codes[row_idx]
    total = np.bincount(sub_y, minlength=n_classes).astype(np.float64)
    g_parent = 1.0 - total @ total / (n * n)
    positions = np.arange(n)
    best_gain = 0.0
    best: tuple[int, float] | None = None
    for dim in dims:
        col = X[row_idx, dim]
        order = np.argsort(col, kind="stable")
        sorted_vals = col[order]
        cuts = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
        if cuts.size == 0:
            continue
        n_left = cuts + 1
        n_right = n - n_left
        feasible = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not feasible.any():
            continue
        cuts = cuts[feasible]
        n_left = n_left[feasible]
        n_right = n_right[feasible]
        onehot = np.zeros((n, n_classes))
        onehot[positions, sub_y[order]] = 1.0
        left_counts = onehot.cumsum(axis=0)[cuts]
        right_counts = total - left_counts
        g_left = 1.0 - (left_counts * left_counts).sum(axis=1) / (n_left * n_left)
        g_right = 1.0 - (right_counts * right_counts).sum(axis=1) / (n_right * n_right)
        gain = g_parent - (n_left / n) * g_left - (n_right / n) * g_right
        pick = int(np.argmax(gain))  # first max = lowest threshold
        if gain[pick] > best_gain:
            best_gain = float(gain[pick])
            threshold = (sorted_vals[cuts[pick]] + sorted_vals[cuts[pick] + 1]) / 2.0
            best = (int(dim), float(threshold))
    if best is None:
        return None
    return (best[0], best[1], best_gain)


def random_nodes(seed: int, count: int):
    """Seeded split-search inputs: small-integer values with heavy ties,
    constant columns, signed zeros, nodes of 1-3 rows, rows drawn with
    repeats, classes missing from the node, min_leaf 1-4."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_total = int(rng.integers(1, 40))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        if rng.random() < 0.8:
            X = rng.integers(0, int(rng.integers(1, 5)), size=(n_total, d)).astype(np.float64)
        else:
            X = rng.normal(size=(n_total, d))
        X[:, rng.random(d) < 0.2] = 7.0
        if rng.random() < 0.3:
            X *= rng.choice([-1.0, 1.0], size=X.shape)
        present = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        y_codes = rng.choice(present, size=n_total).astype(np.intp)
        n = int(rng.integers(1, 4)) if rng.random() < 0.25 else int(rng.integers(1, n_total + 1))
        rows = rng.integers(0, n_total, size=n)
        dims = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        yield X, rows, y_codes, k, dims, int(rng.integers(1, 5))


def test_block_split_equals_per_dim_loop_bit_for_bit():
    found = tiny = 0
    for X, rows, y_codes, k, dims, min_leaf in random_nodes(seed=2024, count=3000):
        want = per_dim_best_split(X, rows, y_codes, k, dims, min_leaf)
        got = forest_module._best_split(X, rows, y_codes, k, dims, min_leaf)
        assert got == want, (rows, dims, min_leaf)
        found += want is not None
        tiny += rows.size <= 3
    assert found > 600 and tiny > 500  # the mix must exercise both outcomes


def gram_like_nodes(seed: int, count: int):
    """Split-search inputs shaped like the 4-gram groups: sparse non-negative
    counts, so most candidate dims are constant (all zero, or one shared
    count) on a node's rows, and about a sixth of the nodes have no live
    candidate at all."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_total, d = int(rng.integers(2, 60)), int(rng.integers(5, 80))
        k = int(rng.integers(2, 6))
        X = np.where(rng.random((n_total, d)) < rng.uniform(0.01, 0.3),
                     rng.integers(1, 6, size=(n_total, d)), 0).astype(np.float64)
        X[:, rng.random(d) < 0.2] = float(rng.integers(0, 4))
        y_codes = rng.integers(0, k, size=n_total).astype(np.intp)
        rows = rng.integers(0, n_total, size=int(rng.integers(1, n_total + 1)))
        dims = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        if rng.random() < 0.15:
            X[np.ix_(rows, dims)] = X[rows[0], dims]  # every candidate constant
        yield X, rows, y_codes, k, dims, int(rng.integers(1, 4))


def test_block_split_skipping_constant_dims_equals_per_dim_loop():
    found = all_constant = mostly_constant = 0
    for X, rows, y_codes, k, dims, min_leaf in gram_like_nodes(seed=2025, count=2000):
        want = per_dim_best_split(X, rows, y_codes, k, dims, min_leaf)
        got = forest_module._best_split(X, rows, y_codes, k, dims, min_leaf)
        assert got == want, (rows, dims, min_leaf)
        block = X[np.ix_(rows, dims)]
        live = (block != block[0]).any(axis=0).sum()
        found += want is not None
        all_constant += live == 0
        mostly_constant += 0 < live < dims.size / 2
    # the mix must exercise splits, nodes with nothing live, and nodes where
    # most candidates are dropped but some are left
    assert found > 500 and all_constant > 250 and mostly_constant > 300


def shared_matrix_nodes(seed: int, count: int):
    """One matrix and many split-search nodes on it, as a lockstep step
    batches them: node sizes from 1 row to every row (with repeats), dims
    sparse or dense, heavy ties, classes missing from some nodes."""
    rng = np.random.default_rng(seed)
    n_total, d, k = 80, 60, 5
    X = np.where(rng.random((n_total, d)) < 0.2, rng.integers(1, 4, size=(n_total, d)), 0)
    X = X.astype(np.float64)
    X[:, :10] = rng.normal(size=(n_total, 10)).round(1)
    X[:, 10:13] = 2.0
    y_codes = rng.integers(0, k, size=n_total).astype(np.intp)
    y_codes[:20] = 0
    nodes = []
    for _ in range(count):
        size = int(rng.choice([1, 2, 3, int(rng.integers(4, n_total)), n_total]))
        rows = rng.choice(n_total, size=size, replace=bool(rng.random() < 0.3))
        dims = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        nodes.append((rows.astype(np.intp), dims.astype(np.intp)))
    return X, y_codes, k, nodes


def checked_left_counts(X, y_codes, n_classes, nodes, found_all) -> list:
    """The (dim, threshold, gain) of each split `_best_splits` found, once
    its left counts are checked: the class counts of the node's rows whose
    value in the dense X is at most the threshold."""
    splits = []
    for (rows, _), found in zip(nodes, found_all):
        if found is not None:
            dim, threshold, gain, left = found
            going_left = rows[X[rows, dim] <= threshold]
            assert left.tolist() == np.bincount(y_codes[going_left], minlength=n_classes).tolist()
            found = (dim, threshold, gain)
        splits.append(found)
    return splits


@pytest.mark.parametrize("chunk_cells", [1, 7, 100, 2_000, forest_module.CHUNK_CELLS, 10**9])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_batched_split_search_equals_per_dim_loop_node_by_node(monkeypatch, chunk_cells, min_leaf):
    """Every chunk size (whole nodes packed together, nodes cut into slices
    of dims, one dim a chunk) gives each node the per-dim loop's split."""
    monkeypatch.setattr(forest_module, "CHUNK_CELLS", chunk_cells)
    X, y_codes, k, nodes = shared_matrix_nodes(seed=min_leaf, count=150)
    got = forest_module._best_splits(X, y_codes, k, nodes, min_leaf)
    want = [per_dim_best_split(X, rows, y_codes, k, dims, min_leaf) for rows, dims in nodes]
    assert checked_left_counts(X, y_codes, k, nodes, got) == want
    assert sum(w is not None for w in want) > 60


def sparse_nodes(seed: int, count: int):
    """Split-search inputs at least 95% zeros, shaped like the gram groups
    but signed: negative values, -0.0 cells among the zeros, a column whose
    only nonzero rows lie outside the node, rows drawn with repeats (as a
    bootstrap draws them), and a column that is nonzero on every row."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_total, d = int(rng.integers(4, 70)), int(rng.integers(4, 40))
        k = int(rng.integers(2, 6))
        X = np.zeros((n_total, d))
        hits = rng.choice(X.size, size=int(rng.uniform(0.005, 0.05) * X.size), replace=False)
        X.flat[hits] = rng.choice([-3.0, -1.5, -0.25, 0.5, 1.0, 2.0, 4.0], size=hits.size)
        X[rng.random((n_total, d)) < 0.02] = -0.0
        rows = rng.integers(0, n_total, size=int(rng.integers(2, n_total + 1)))
        outside = np.setdiff1d(np.arange(n_total), rows)
        if outside.size:
            X[:, 0] = 0.0
            X[outside[:2], 0] = 5.0
        if rng.random() < 0.3:
            X[:, -1] = rng.choice([-1.0, 1.0, 2.0], size=n_total)
        # at most 5% nonzero besides the first and last columns
        assert np.count_nonzero(X[:, 1:-1]) <= 0.05 * X.size
        y_codes = rng.integers(0, k, size=n_total).astype(np.intp)
        dims = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        yield X, rows, y_codes, k, dims, int(rng.integers(1, 4))


def in_layout(X: np.ndarray, source: str) -> SparseMatrix:
    """X as a SparseMatrix whose segments take their nonzero cells by
    `source`: "list" (X as it is; a column holding fewer cells than a node
    has rows is read cell by cell), "gather" (every +0.0 of X held as -0.0,
    so every column holds a cell on every row and every segment gathers its
    node's rows), or "rule" (the leading third gathered and the rest as it
    is, as a schema's fixed-size and token groups are).  The values equal
    X's, so the per-dim loop on X is the oracle for all three."""
    held = {"list": 0, "gather": X.shape[1], "rule": X.shape[1] // 3}[source]
    stored = X.copy()
    stored[:, :held] = np.where(stored[:, :held] == 0, -0.0, stored[:, :held])
    matrix = SparseMatrix.from_dense(stored)
    assert matrix.toarray().tobytes() == stored.tobytes()
    assert (matrix.length[:held] == X.shape[0]).all()
    return matrix


@pytest.mark.parametrize("chunk_cells", [1, forest_module.CHUNK_CELLS])
@pytest.mark.parametrize("source", ["rule", "list", "gather"])
def test_split_search_on_sparse_nodes_equals_per_dim_loop(monkeypatch, source, chunk_cells):
    """Both ways a segment takes its nonzero cells, reading its column's
    cells and gathering its node's rows, alone or mixed as a schema's groups
    mix them, give every node the per-dim loop's split."""
    monkeypatch.setattr(forest_module, "CHUNK_CELLS", chunk_cells)
    found = 0
    for X, rows, y_codes, k, dims, min_leaf in sparse_nodes(seed=2026, count=400):
        want = per_dim_best_split(X, rows, y_codes, k, dims, min_leaf)
        got = forest_module._best_split(in_layout(X, source), rows, y_codes, k, dims, min_leaf)
        assert got == want, (rows, dims)
        found += want is not None
    assert found > 150


@pytest.mark.parametrize("source", ["rule", "list", "gather"])
def test_batched_sparse_split_search_equals_per_dim_loop(source):
    """Many nodes on one sparse matrix, batched into one search, at the
    default chunk size."""
    rng = np.random.default_rng(41)
    X = np.where(rng.random((90, 300)) < 0.03, rng.choice([-2.0, -1.0, 1.0, 3.0], size=(90, 300)), 0.0)
    X[rng.random(X.shape) < 0.01] = -0.0
    assert np.count_nonzero(X) < 0.05 * X.size
    y_codes = rng.integers(0, 4, size=90).astype(np.intp)
    nodes = []
    for _ in range(120):
        rows = rng.choice(90, size=int(rng.integers(2, 91)), replace=True)
        nodes.append((rows, np.sort(rng.choice(300, size=int(rng.integers(1, 60)), replace=False))))
    got = forest_module._best_splits(in_layout(X, source), y_codes, 4, nodes, 1)
    got = checked_left_counts(X, y_codes, 4, nodes, got)
    assert got == [per_dim_best_split(X, rows, y_codes, 4, dims, 1) for rows, dims in nodes]
    assert sum(g is not None for g in got) > 60


def test_csc_cell_counts_from_the_count_table_equal_per_dim_loop():
    """A CSC cell's count in its node, read from the chunk's (node, row)
    count table, gives every node the per-dim loop's split and grows the
    per-dim loop's forest."""
    found = 0
    for X, rows, y_codes, k, dims, min_leaf in sparse_nodes(seed=2027, count=300):
        want = per_dim_best_split(X, rows, y_codes, k, dims, min_leaf)
        got = forest_module._best_split(in_layout(X, "list"), rows, y_codes, k, dims, min_leaf)
        assert got == want, (rows, dims)
        found += want is not None
    assert found > 100
    X, y = very_sparse_counts()
    params = ForestParams(n_trees=5, seed=21)
    assert_same_nodes(
        fit_forest(in_layout(X, "list"), y, params),
        node_by_node_forest(X, y, params, split=per_dim_best_split),
    )


def refuse(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("scratch_cells", [1, 60, 2_000])
def test_split_search_flushed_early_for_its_count_table_equals_per_dim_loop(
    monkeypatch, scratch_cells
):
    """Chunks flushed early, as their (node, row) count table would pass
    the cap, give every node the per-dim loop's split and left counts, and
    search with neither a binary search nor np.unique."""
    X, y_codes, k, nodes = shared_matrix_nodes(seed=7, count=150)
    want = [per_dim_best_split(X, rows, y_codes, k, dims, 1) for rows, dims in nodes]
    cases = [(X, in_layout(X, "rule"), y_codes, k, nodes, 1, want)]
    for X, rows, y_codes, k, dims, min_leaf in sparse_nodes(seed=2028, count=150):
        want = [per_dim_best_split(X, rows, y_codes, k, dims, min_leaf)]
        cases.append((X, in_layout(X, "list"), y_codes, k, [(rows, dims)], min_leaf, want))
    for _, matrix, *_ in cases:
        matrix.ranks  # worked out once per matrix, before the search
    chunks = []
    real_search = forest_module._search_chunk

    def search(X, slot, y_codes, n_classes, pieces, min_leaf):
        chunks.append(len(pieces))
        return real_search(X, slot, y_codes, n_classes, pieces, min_leaf)

    monkeypatch.setattr(forest_module, "_search_chunk", search)
    for capped in (False, True):
        with monkeypatch.context() as patch:
            if capped:
                patch.setattr(forest_module, "SCRATCH_CELLS", scratch_cells)
            patch.setattr(np, "searchsorted", refuse)
            patch.setattr(np, "unique", refuse)
            found = [forest_module._best_splits(matrix, y_codes, k, nodes, min_leaf)
                     for _, matrix, y_codes, k, nodes, min_leaf, _ in cases]
        for (X, _, y_codes, k, nodes, _, want), got in zip(cases, found):
            assert checked_left_counts(X, y_codes, k, nodes, got) == want
        if not capped:
            uncapped, chunks = len(chunks), []
    assert len(chunks) > uncapped  # the cap flushed chunks early
    assert sum(w is not None for w in cases[0][-1]) > 60


@pytest.mark.parametrize("scratch_cells", [1, forest_module.SCRATCH_CELLS])
@pytest.mark.parametrize("source", ["rule", "gather"])
def test_fit_and_cross_validate_never_look_a_cell_up(monkeypatch, source, scratch_cells):
    """No fit, a CV fold's included, calls `SparseMatrix.cells`: the search
    counts cells from a table and the partition reads a dense scratch, at
    any scratch cap.  The forests are the per-dim loop's, node for node,
    and the CV is that of fitting each fold on a copy."""
    X, y = very_sparse_counts()
    X[:, :5] = np.where(X[:, :5] == 0, 0.5, X[:, :5])  # nonzero on every row, as fixed-size groups are
    params = ForestParams(n_trees=5, seed=22)
    want_forest = node_by_node_forest(X, y, params, split=per_dim_best_split)
    want_cv = copying_cross_validate(X, y, params, folds=3, seed=4)
    monkeypatch.setattr(forest_module, "SCRATCH_CELLS", scratch_cells)
    fitting = []
    real_cells, real_fit = SparseMatrix.cells, forest_module.fit_forest

    def cells(self, rows, cols):
        if fitting:
            raise AssertionError("a fit looked cells up")
        return real_cells(self, rows, cols)

    def fit(*args, **kwargs):
        fitting.append(True)
        try:
            return real_fit(*args, **kwargs)
        finally:
            fitting.pop()

    monkeypatch.setattr(SparseMatrix, "cells", cells)
    monkeypatch.setattr(forest_module, "fit_forest", fit)
    matrix = in_layout(X, source)
    got = fit(matrix, y, params)
    assert got.feature.size > params.n_trees * 5  # deep enough to compare many splits
    assert_same_nodes(got, want_forest)
    assert cross_validate(matrix, y, params, folds=3, seed=4) == want_cv


def test_ranks_equal_one_unique_of_the_values_and_zero(monkeypatch):
    """The piecewise ranking equals one np.unique of the held values and
    0.0, with -0.0 ranked as 0.0 and held as +0.0, in the smallest signed
    type; also with more distinct values than a piece."""
    monkeypatch.setattr(sparse_module, "RANK_PIECE", 3)
    rng = np.random.default_rng(26)
    for trial in range(60):
        n, d = int(rng.integers(0, 12)), int(rng.integers(0, 8))
        if trial % 3:
            X = rng.choice([-2.0, -0.0, 0.0, 0.5, 3.0], size=(n, d))
        else:
            X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.7)
        matrix = SparseMatrix.from_dense(X)
        distinct, rank = matrix.ranks
        want = np.unique(np.append(matrix.values, 0.0))
        assert distinct.tolist() == want.tolist()
        assert not np.signbit(distinct[distinct == 0]).any()
        assert (distinct[rank] == matrix.values).all()  # -0.0 == 0.0
        assert rank.dtype == np.min_scalar_type(-want.size)
    assert SparseMatrix.from_dense(np.arange(300.0).reshape(30, 10)).ranks[1].dtype == np.int16


def test_a_midpoint_rounded_onto_the_upper_value_sends_that_value_left():
    """The midpoint of two adjacent floats can round onto the upper one;
    the fit then sends that value's rows left, as `value <= threshold`
    does, and counts them there, as the per-dim loop's tree does.  (Such a
    split leaves the node as it was, so max_depth bounds the tree.)"""
    a = 1.0 + 2.0**-52
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a, 0.0], [a, 1.0], [b, 0.0], [b, 1.0], [a, 0.0], [b, 1.0]])
    y = np.array([1, 1, 2, 2, 1, 2])
    params = ForestParams(n_trees=3, seed=1, max_depth=4, features_per_split=2)
    got = fit_forest(X, y, params)
    assert (got.threshold == b).any()
    assert_same_nodes(got, node_by_node_forest(X, y, params, split=per_dim_best_split))


def test_sparse_matrix_holds_the_csc_columns():
    X = np.array([
        [5.0, 0.0, 1.0, -0.0, 2.0],
        [0.0, 3.0, 0.0, 0.0, 2.0],
        [-0.0, 0.0, -1.0, 0.0, 2.0],
        [1.5, 0.0, 0.0, 0.0, 2.0],
    ])
    matrix = SparseMatrix.from_dense(X)
    assert (matrix.shape, matrix.n_rows) == ((4, 5), 4)
    # -0.0 is held, so that the matrix densifies bit for bit
    assert matrix.length.tolist() == [3, 1, 2, 1, 4]
    assert matrix.start.tolist() == [0, 3, 4, 6, 7]
    assert matrix.rows.tolist() == [0, 2, 3, 1, 0, 2, 0, 0, 1, 2, 3]
    assert matrix.values.tobytes() == np.array(
        [5.0, -0.0, 1.5, 3.0, 1.0, -1.0, -0.0, 2.0, 2.0, 2.0, 2.0]
    ).tobytes()
    assert matrix.toarray().tobytes() == X.tobytes()
    assert matrix.take([3, 0]).toarray().tobytes() == X[[3, 0]].tobytes()
    assert matrix.keys.tolist() == [0, 2, 3, 5, 8, 10, 12, 16, 17, 18, 19]
    rows, cols = np.repeat(np.arange(4), 5), np.tile(np.arange(5), 4)
    assert matrix.cells(rows, cols).tobytes() == X.ravel().tobytes()
    assert matrix.columns([0, 2, 4]).toarray().tobytes() == X[:, [0, 2, 4]].tobytes()
    cols, vals = matrix.row_cells()
    assert [c.tolist() for c in cols] == [[0, 2, 3, 4], [1, 4], [0, 2, 4], [0, 4]]
    assert [v.tolist() for v in vals] == [[5.0, 1.0, -0.0, 2.0], [3.0, 2.0], [-0.0, -1.0, 2.0], [1.5, 2.0]]
    assert as_matrix(matrix) is matrix
    converted = as_matrix(X)  # a dense array is converted, not wrapped
    assert not np.shares_memory(converted.values, X)
    assert converted.keys.tolist() == matrix.keys.tolist()
    assert converted.values.tobytes() == matrix.values.tobytes()


def test_public_best_split_sorts_unsorted_and_duplicate_dims():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n, d = int(rng.integers(2, 25)), int(rng.integers(1, 7))
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        y = rng.integers(1, 4, size=n)
        dims = rng.integers(0, d, size=int(rng.integers(1, 2 * d + 1)))  # repeats, any order
        min_leaf = int(rng.integers(1, 4))
        _, y_codes = np.unique(y, return_inverse=True)
        want = per_dim_best_split(
            X, np.arange(n), y_codes.astype(np.intp), np.unique(y).size,
            sorted(int(v) for v in dims), min_leaf,
        )
        assert best_split(X, y, dims=dims, min_samples_leaf=min_leaf) == want
        assert best_split(X, y, dims=np.unique(dims), min_samples_leaf=min_leaf) == want


def small_dense_counts():
    rng = np.random.default_rng(31)
    X = rng.integers(0, 4, size=(70, 15)).astype(np.float64)
    X[:, 3] = 1.0
    return X, rng.integers(1, 6, size=70)


def wide_sparse_counts():
    """Shaped like the 4-gram groups: most dims are zero on most rows."""
    rng = np.random.default_rng(60)
    X = np.where(rng.random((60, 2000)) < 0.03, rng.integers(1, 9, size=(60, 2000)), 0)
    return X.astype(np.float64), rng.integers(1, 5, size=60)


def assert_same_nodes(a: RandomForest, b: RandomForest) -> None:
    assert (a.classes, a.n_features, a.params) == (b.classes, b.n_features, b.params)
    for name in ("feature", "threshold", "left", "right", "counts", "roots"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("data, params, threads, chunk_cells", [
    (small_dense_counts, ForestParams(n_trees=6, seed=3), 1, None),
    (small_dense_counts, ForestParams(n_trees=6, seed=4, max_depth=3, min_samples_leaf=2), 1, None),
    (small_dense_counts, ForestParams(n_trees=6, seed=5, features_per_split="third"), 1, None),
    (wide_sparse_counts, ForestParams(n_trees=6, seed=9), 1, None),
    (small_dense_counts, ForestParams(n_trees=6, seed=10, bootstrap=False), 1, None),
    (small_dense_counts, ForestParams(n_trees=6, seed=11, features_per_split=5), 1, None),
    (wide_sparse_counts, ForestParams(n_trees=1, seed=12), 1, None),
    (wide_sparse_counts, ForestParams(n_trees=6, seed=13), 1, 1),
    (small_dense_counts, ForestParams(n_trees=6, seed=14, min_samples_leaf=2), 1, 1),
    (wide_sparse_counts, ForestParams(n_trees=6, seed=15), 1, 10**9),
    (small_dense_counts, ForestParams(n_trees=7, seed=16, features_per_split="third"), 3, None),
], ids=["default", "depth3-leaf2", "third", "wide-sparse", "no-bootstrap", "int-rule",
        "one-tree", "chunk-1-cell", "chunk-1-cell-leaf2", "chunk-1e9-cells", "threads3"])
def test_fit_forest_node_arrays_equal_per_dim_loop(monkeypatch, data, params, threads, chunk_cells):
    """The lockstep forest equals, node for node, the forest grown one node at
    a time with the per-dim loop as its split search."""
    X, y = data()
    if chunk_cells is not None:
        monkeypatch.setattr(forest_module, "CHUNK_CELLS", chunk_cells)
    lockstep = fit_forest(X, y, params, threads=threads)
    loop = node_by_node_forest(X, y, params, split=per_dim_best_split)
    assert lockstep.feature.size > params.n_trees * 5  # deep enough to compare many splits
    assert_same_nodes(lockstep, loop)


def very_sparse_counts():
    """At least 95% zeros, with negative values and -0.0 cells."""
    rng = np.random.default_rng(61)
    X = np.where(rng.random((80, 400)) < 0.04, rng.choice([-2.0, -0.5, 1.0, 3.0, 6.0], size=(80, 400)), 0.0)
    X[rng.random(X.shape) < 0.01] = -0.0
    assert np.count_nonzero(X) < 0.05 * X.size
    return X, rng.integers(1, 5, size=80)


@pytest.mark.parametrize("chunk_cells", [1, forest_module.CHUNK_CELLS])
@pytest.mark.parametrize("source", ["rule", "list", "gather"])
@pytest.mark.parametrize("params", [
    ForestParams(n_trees=5, seed=17),
    ForestParams(n_trees=5, seed=18, bootstrap=False, min_samples_leaf=2),
], ids=["bootstrap", "no-bootstrap-leaf2"])
def test_fit_forest_on_sparse_data_equals_per_dim_loop(monkeypatch, params, source, chunk_cells):
    """Both cell sources grow the forest of the per-dim loop, node for node,
    also on rows of a matrix whose columns are nonzero only outside them."""
    monkeypatch.setattr(forest_module, "CHUNK_CELLS", chunk_cells)
    X, y = very_sparse_counts()
    rows = np.arange(10, 80)
    X[:10, :20] = 7.0  # these columns are nonzero only outside the fit rows
    X[10:, :20] = 0.0
    assert np.count_nonzero(X) < 0.05 * X.size
    matrix = in_layout(X, source)
    lockstep = fit_forest(matrix, y, params, rows=rows)
    assert lockstep.feature.size > params.n_trees * 5  # deep enough to compare many splits
    assert_same_nodes(lockstep, node_by_node_forest(X, y, params, split=per_dim_best_split, rows=rows))
    assert_same_nodes(
        fit_forest(matrix, y, params),
        node_by_node_forest(X, y, params, split=per_dim_best_split),
    )


@pytest.mark.parametrize("source", ["rule", "list"])
def test_fit_and_cross_validate_on_the_sparse_matrix_equal_the_dense_array(source):
    """Node for node and fold for fold, the per-dim loop's forests, with
    negative values and -0.0 cells in the columns, and bootstrap draws that
    repeat rows."""
    X, y = very_sparse_counts()
    X[:, -1] = np.where(np.arange(80) % 3 == 0, -0.0, X[:, -1])
    matrix = in_layout(X, source)
    assert np.signbit(matrix.values).any() and (matrix.values < 0).any()
    rows = np.random.default_rng(4).permutation(80)[:60]
    for params in (ForestParams(n_trees=5, seed=19), ForestParams(n_trees=3, seed=20, bootstrap=False)):
        assert_same_nodes(
            fit_forest(matrix, y, params), node_by_node_forest(X, y, params, split=per_dim_best_split)
        )
        assert_same_nodes(
            fit_forest(matrix, y, params, rows=rows),
            node_by_node_forest(X, y, params, split=per_dim_best_split, rows=rows),
        )
        got = cross_validate(matrix, y, params, folds=3, seed=2)
        assert got == copying_cross_validate(X, y, params, folds=3, seed=2)


def test_fit_and_cross_validate_read_the_sparse_matrix_in_place(monkeypatch, call_log):
    """No fit copies or densifies the matrix, and cross-validation copies
    each fold's held-out rows alone, to score them without densifying, in
    whichever worker fits the fold."""
    X, y = very_sparse_counts()
    matrix = in_layout(X, "rule")
    real_take, real_toarray = SparseMatrix.take, SparseMatrix.toarray

    def take(self, rows):
        call_log.record(*np.asarray(rows).tolist())
        return real_take(self, rows)

    def toarray(self):
        raise AssertionError("densified")

    monkeypatch.setattr(SparseMatrix, "take", take)
    monkeypatch.setattr(SparseMatrix, "toarray", toarray)
    forest = fit_forest(matrix, y, ForestParams(n_trees=4, seed=0))
    assert call_log.lines() == []
    cross_validate(matrix, y, ForestParams(n_trees=4, seed=0), folds=4, seed=0)
    taken = [[int(row) for row in rows] for rows in call_log.lines()]
    # every row is held out once
    assert len(taken) == 4 and sorted(row for rows in taken for row in rows) == list(range(80))
    monkeypatch.setattr(SparseMatrix, "toarray", real_toarray)
    assert predict_proba(forest, matrix).tobytes() == predict_proba(forest, X).tobytes()


@pytest.mark.parametrize("params, threads", [
    (ForestParams(n_trees=6, seed=3), 1),
    (ForestParams(n_trees=6, seed=4, bootstrap=False), 1),
    (ForestParams(n_trees=6, seed=5, max_depth=3), 1),
    (ForestParams(n_trees=6, seed=6, min_samples_leaf=2, features_per_split="third"), 1),
    (ForestParams(n_trees=6, seed=7), 2),
    (ForestParams(n_trees=6, seed=8, bootstrap=False, min_samples_leaf=2), 2),
], ids=["bootstrap", "no-bootstrap", "depth3", "leaf2-third", "threads2", "no-bootstrap-leaf2-threads2"])
def test_fit_forest_on_rows_equals_fitting_on_their_copy(params, threads):
    X, y = small_dense_counts()
    # an unsorted subset with a repeat; a class of only the rows left out
    rows = np.random.default_rng(12).permutation(70)[:45]
    rows[7] = rows[3]
    y = y.copy()
    y[np.setdiff1d(np.arange(70), rows)[:4]] = 9
    got = fit_forest(X, y, params, threads=threads, rows=rows)
    want = fit_forest(X[rows], y[rows], params, threads=threads)
    assert want.feature.size > 6 * 5  # deep enough to compare many splits
    assert_same_nodes(got, want)
    assert_same_nodes(fit_forest(X, y, params, rows=np.arange(70)), fit_forest(X, y, params))


def test_fit_forest_rejects_rows_outside_the_matrix():
    X, y = small_dense_counts()
    for rows in (np.array([0, 70]), np.array([-1, 2]), np.array([[0, 1]])):
        with pytest.raises(ValueError, match="rows must be"):
            fit_forest(X, y, ForestParams(n_trees=2), rows=rows)
    with pytest.raises(TrainingError, match="empty"):
        fit_forest(X, y, ForestParams(n_trees=2), rows=np.array([], dtype=np.intp))
    with pytest.raises(TrainingError, match="single class"):
        fit_forest(X, y, ForestParams(n_trees=2), rows=np.flatnonzero(y == y[0]))


def test_block_split_memory_is_linear_in_the_block():
    n, m, k = 5000, 100, 9
    rng = np.random.default_rng(8)
    X = rng.integers(0, 50, size=(n, m)).astype(np.float64)
    y_codes = rng.integers(0, k, size=n).astype(np.intp)
    rows, dims = np.arange(n), np.arange(m)
    matrix = SparseMatrix.from_dense(X)
    tracemalloc.start()
    try:
        forest_module._best_split(matrix, rows, y_codes, k, dims, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The search works a chunk of cells at a time: 1.84 MB measured (0.46x
    # the dense array's 4 MB) on CPython 3.11 with numpy 2.4.  A per-search
    # nonzero list of the whole block peaked at 12.3 MB, and an n x m x k
    # one-hot tensor would pass 40x.
    assert peak < n * m * 8


def test_lockstep_fit_memory_is_bounded_by_the_chunk():
    n, d, n_trees = 100, 150, 50
    rng = np.random.default_rng(5)
    X = np.where(rng.random((n, d)) < 0.3, rng.integers(1, 9, size=(n, d)), 0).astype(np.float64)
    y = rng.integers(1, 10, size=n)
    params = ForestParams(n_trees=n_trees, seed=1, features_per_split="third")
    # the root step alone spans many chunks
    assert n_trees * n * (d // 3) > 5 * forest_module.CHUNK_CELLS
    tracemalloc.start()
    try:
        fit_forest(X, y, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # At most one chunk's arrays are alive at a time, beside the trees'
    # stacks and node lists: this fit peaks at 3.9 MB, and at 13.6 MB when
    # each step's nodes of all 50 trees are scored in one search.
    assert peak < 160 * forest_module.CHUNK_CELLS


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(bad):
    X = np.arange(6, dtype=np.float64).reshape(6, 1)
    X[2, 0] = bad
    y = np.array([1, 1, 1, 2, 2, 2])
    # max_depth bounds the fit, so a missing check fails here instead of hanging
    with pytest.raises(ValueError, match="non-finite value .* at row 2, column 0"):
        fit_forest(X, y, ForestParams(n_trees=2, max_depth=40))
    with pytest.raises(ValueError, match="non-finite"):
        best_split(X, y)


# ---------------------------------------------------------------------------
# fitting and prediction
# ---------------------------------------------------------------------------

def separable_data(rng, n_per_class=20, classes=(1, 2, 3)):
    blocks = []
    labels = []
    for k, cls in enumerate(classes):
        block = rng.normal(loc=10.0 * k, scale=0.3, size=(n_per_class, 4))
        blocks.append(block)
        labels.extend([cls] * n_per_class)
    return np.vstack(blocks), np.array(labels)


def test_fit_forest_tree_count_and_determinism():
    rng = np.random.default_rng(3)
    X, y = separable_data(rng)
    params = ForestParams(n_trees=12, seed=99)
    a = fit_forest(X, y, params)
    b = fit_forest(X, y, params)
    assert a.roots.size == 12
    probes = rng.normal(size=(10, 4)) * 15
    assert np.array_equal(predict_proba(a, probes), predict_proba(b, probes))


def test_fit_forest_separable_training_accuracy():
    rng = np.random.default_rng(5)
    X, y = separable_data(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=10, seed=0))
    assert evaluate(forest, X, y).accuracy == 1.0


def test_fit_forest_memorizes_distinct_rows():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 6))
    y = rng.integers(1, 10, size=120)
    params = ForestParams(n_trees=5, seed=1, bootstrap=False)
    forest = fit_forest(X, y, params)
    assert evaluate(forest, X, y).accuracy == 1.0


def test_fit_forest_rejects_degenerate_input():
    with pytest.raises(TrainingError):
        fit_forest(np.zeros((5, 2)), np.ones(5, dtype=int), ForestParams(n_trees=2))
    with pytest.raises(TrainingError):
        fit_forest(np.zeros((0, 2)), np.zeros(0, dtype=int), ForestParams(n_trees=2))


def test_forest_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        ForestParams(features_per_split="half")


def leaf(counts) -> tuple:
    return (-1, 0.0, -1, -1, counts)


def split(dim, threshold, left, right, counts) -> tuple:
    return (dim, threshold, left, right, counts)


def hand_forest(nodes, roots=(0,), n_classes=9, n_features=2) -> RandomForest:
    """A forest from preorder (dim, threshold, left, right, counts) node rows."""
    feature, threshold, left, right, counts = zip(*nodes)
    return RandomForest(
        params=ForestParams(n_trees=len(roots), seed=0),
        classes=tuple(range(1, n_classes + 1)),
        n_features=n_features,
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64).reshape(len(nodes), n_classes),
        roots=np.array(roots, dtype=np.intp),
    )


def reversed_trees(forest: RandomForest) -> RandomForest:
    """The same trees stored in the opposite order, child indices remapped."""
    bounds = np.append(forest.roots, forest.feature.size)
    order = np.concatenate([np.arange(bounds[t], bounds[t + 1])
                            for t in reversed(range(forest.roots.size))])
    moved_to = np.empty_like(order)
    moved_to[order] = np.arange(order.size)

    def remap(children):
        return np.where(children >= 0, moved_to[children], -1)

    return replace(
        forest,
        feature=forest.feature[order],
        threshold=forest.threshold[order],
        left=remap(forest.left[order]),
        right=remap(forest.right[order]),
        counts=forest.counts[order],
        roots=np.sort(moved_to[forest.roots]),
    )


def walk_proba(forest: RandomForest, x) -> np.ndarray:
    """Scalar oracle: walk each tree for one row and average in tree order."""
    k = len(forest.classes)
    acc = np.zeros(k)
    for root in forest.roots:
        n = root
        while forest.feature[n] >= 0:
            n = forest.left[n] if x[forest.feature[n]] <= forest.threshold[n] else forest.right[n]
        counts = forest.counts[n].astype(np.float64)
        total = counts.sum()
        acc += counts / total if total > 0 else np.full(k, 1.0 / k)
    return acc / forest.roots.size


def test_predict_proba_single_pure_tree():
    forest = hand_forest([leaf([0, 0, 5, 0, 0, 0, 0, 0, 0])])
    assert predict_proba(forest, np.zeros(2)).tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_predict_proba_averages_two_trees():
    forest = hand_forest([leaf([3, 0, 0, 0, 0, 0, 0, 0, 0]),
                          leaf([0, 7, 0, 0, 0, 0, 0, 0, 0])], roots=(0, 1))
    got = predict_proba(forest, np.zeros(2))
    assert got.tolist() == [0.5, 0.5, 0, 0, 0, 0, 0, 0, 0]
    # argmax tie resolves to the lower class id
    assert predict(forest, np.zeros((1, 2))).tolist() == [1]


def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 5))
    y = rng.integers(1, 6, size=80)
    forest = fit_forest(X, y, ForestParams(n_trees=15, seed=2))
    probes = rng.normal(size=(50, 5)) * 3
    probs = predict_proba(forest, probes)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    assert probs.min() >= 0.0


def test_predict_proba_permutation_invariant_over_trees():
    rng = np.random.default_rng(8)
    X, y = separable_data(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=9, seed=3))
    shuffled = reversed_trees(forest)
    probes = rng.normal(size=(20, 4)) * 12
    assert np.allclose(predict_proba(forest, probes), predict_proba(shuffled, probes),
                       rtol=0, atol=1e-12)


def test_predict_proba_matches_scalar_walk_on_thresholds():
    rng = np.random.default_rng(19)
    X = rng.integers(0, 5, size=(90, 6)).astype(np.float64)
    y = rng.integers(1, 5, size=90)
    forest = fit_forest(X, y, ForestParams(n_trees=11, seed=6))
    probes = rng.integers(0, 5, size=(60, 6)) + rng.choice([0.0, 0.5], size=(60, 6))
    # pin one coordinate of every probe exactly onto some split's threshold
    inner = np.flatnonzero(forest.feature >= 0)
    for probe, node in zip(probes, rng.choice(inner, size=len(probes))):
        probe[forest.feature[node]] = forest.threshold[node]
    expected = np.array([walk_proba(forest, x) for x in probes])
    assert np.array_equal(predict_proba(forest, probes), expected)
    assert np.array_equal(predict_proba(forest, probes[0]), expected[0])


def test_predict_proba_empty_leaf_is_uniform():
    forest = hand_forest([split(0, 0.5, 1, 2, [1, 0, 0, 0, 0, 0, 0, 0, 0]),
                          leaf([1, 0, 0, 0, 0, 0, 0, 0, 0]),
                          leaf([0, 0, 0, 0, 0, 0, 0, 0, 0])])
    got = predict_proba(forest, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert got[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert np.array_equal(got[1], np.full(9, 1 / 9))
    assert np.array_equal(got[1], walk_proba(forest, [1.0, 0.0]))


def test_predict_proba_shape_contract():
    forest = hand_forest([leaf([1, 1, 0, 0, 0, 0, 0, 0, 0])])
    assert predict_proba(forest, np.zeros(2)).shape == (9,)
    assert predict_proba(forest, np.zeros((3, 2))).shape == (3, 9)
    with pytest.raises(ValueError):
        predict_proba(forest, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# feature importance
# ---------------------------------------------------------------------------

def stump(base=0) -> list[tuple]:
    return [split(0, 5.5, base + 1, base + 2, [2, 2, 0, 0, 0, 0, 0, 0, 0]),
            leaf([2, 0, 0, 0, 0, 0, 0, 0, 0]),
            leaf([0, 2, 0, 0, 0, 0, 0, 0, 0])]


def test_importance_single_dim_forest_normalizes_to_one():
    forest = hand_forest(stump())
    assert feature_importance(forest).tolist() == [1.0, 0.0]


def test_importance_hand_computed_ratio():
    # stump on dim 0: root gini 0.5, pure children, raw MDI = 0.5
    # second tree on dim 1: counts [3,1] -> gini 0.375, pure children
    other = [split(1, 1.0, 4, 5, [3, 1, 0, 0, 0, 0, 0, 0, 0]),
             leaf([3, 0, 0, 0, 0, 0, 0, 0, 0]),
             leaf([0, 1, 0, 0, 0, 0, 0, 0, 0])]
    forest = hand_forest(stump() + other, roots=(0, 3))
    imp = feature_importance(forest)
    # averaged raw importances (0.25, 0.1875) normalize to (4/7, 3/7)
    assert imp[0] == pytest.approx(4 / 7, abs=1e-12)
    assert imp[1] == pytest.approx(3 / 7, abs=1e-12)


def test_importance_leaf_only_forest_is_zero():
    forest = hand_forest([leaf([5, 5, 0, 0, 0, 0, 0, 0, 0])])
    assert feature_importance(forest).tolist() == [0.0, 0.0]


def walk_importance(forest: RandomForest) -> np.ndarray:
    """Scalar oracle: per tree, visit splits after their subtrees (right
    subtree first) and accumulate n * impurity drop; average over trees."""
    def node_gini(c):
        t = c.sum()
        return 0.0 if t == 0 else float(1.0 - c @ c / (t * t))

    counts = forest.counts.astype(np.float64)
    total = np.zeros(forest.n_features)
    for root in forest.roots:
        tree_imp = np.zeros(forest.n_features)
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if forest.feature[node] < 0:
                continue
            lo, hi = forest.left[node], forest.right[node]
            if not expanded:
                stack += [(node, True), (lo, False), (hi, False)]
                continue
            n, n_l, n_r = counts[node].sum(), counts[lo].sum(), counts[hi].sum()
            if n > 0:
                drop = (node_gini(counts[node]) - (n_l / n) * node_gini(counts[lo])
                        - (n_r / n) * node_gini(counts[hi]))
                tree_imp[forest.feature[node]] += n * drop
        if counts[root].sum() > 0:
            total += tree_imp / counts[root].sum()
    total /= forest.roots.size
    return total / total.sum() if total.sum() > 0 else total


def test_importance_matches_scalar_walk():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(200, 5))
    y = rng.integers(1, 6, size=200)
    forest = fit_forest(X, y, ForestParams(n_trees=25, seed=7))
    assert np.array_equal(feature_importance(forest), walk_importance(forest))


def test_importance_sums_to_one_for_fitted_forest():
    rng = np.random.default_rng(9)
    X, y = separable_data(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=7, seed=4))
    imp = feature_importance(forest)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert (imp >= 0).all()


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictions():
    rng = np.random.default_rng(10)
    X, y = separable_data(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=10, seed=0))
    metrics = evaluate(forest, X, y)
    assert metrics.accuracy == 1.0
    conf = np.asarray(metrics.confusion)
    assert np.trace(conf) == len(y)
    assert conf.sum() == len(y)


def test_evaluate_accuracy_is_trace_over_total():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(90, 4))
    y = rng.integers(1, 5, size=90)
    forest = fit_forest(X, y, ForestParams(n_trees=3, seed=0, max_depth=2))
    metrics = evaluate(forest, X, y)
    conf = np.asarray(metrics.confusion)
    assert metrics.accuracy == pytest.approx(np.trace(conf) / conf.sum(), abs=1e-12)


def test_evaluate_confusion_follows_an_unsorted_class_list():
    stump = hand_forest(
        [split(0, 0.5, 1, 2, [1, 1]), leaf([1, 0]), leaf([0, 1])], n_classes=2, n_features=1,
    )
    forest = replace(stump, classes=(7, 3))  # a loaded model keeps its file's order
    metrics = evaluate(forest, np.array([[0.0], [1.0], [0.0]]), np.array([7, 3, 3]))
    assert metrics.confusion == ((1, 0), (1, 1))  # rows and columns in (7, 3) order
    assert metrics.accuracy == pytest.approx(2 / 3, abs=1e-12)


def test_evaluate_rejects_empty_or_unknown():
    rng = np.random.default_rng(12)
    X, y = separable_data(rng)
    forest = fit_forest(X, y, ForestParams(n_trees=3, seed=0))
    with pytest.raises(TrainingError):
        evaluate(forest, np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(TrainingError, match="absent"):
        evaluate(forest, X[:2], np.array([8, 9]))


def test_cross_validate_partitions_every_row_once():
    rng = np.random.default_rng(13)
    X, y = separable_data(rng, n_per_class=15, classes=(1, 2, 3, 4))
    metrics = cross_validate(X, y, ForestParams(n_trees=5, seed=0), folds=5, seed=7)
    conf = np.asarray(metrics.confusion)
    assert conf.sum() == len(y)  # each row validated exactly once
    assert conf.sum(axis=1).tolist() == [15, 15, 15, 15]
    assert metrics.per_fold is not None and len(metrics.per_fold) == 5
    assert metrics.accuracy == pytest.approx(float(np.mean(metrics.per_fold)), abs=1e-12)


def test_cross_validate_folds_match_round_robin_dealing(monkeypatch, workers):
    workers(1)  # the folds run inline, in fold order, so the spy sees that order
    rng = np.random.default_rng(15)
    X, y = separable_data(rng, n_per_class=13, classes=(2, 5, 7))
    X[:, 0] = np.arange(y.size)  # row ids survive the fold split
    held_out = []
    real_fit = forest_module.fit_forest

    def spy(values, labels, params, rows=None, **kwargs):
        trained = values.toarray() if rows is None else values.take(np.unique(rows)).toarray()
        held_out.append(sorted(set(range(y.size)) - {int(v) for v in trained[:, 0]}))
        return real_fit(values, labels, params, rows=rows, **kwargs)

    monkeypatch.setattr(forest_module, "fit_forest", spy)
    cross_validate(X, y, ForestParams(n_trees=2, seed=0), folds=4, seed=9)
    # the dealing loop the vectorized assignment replaced
    expected: list[list[int]] = [[] for _ in range(4)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        perm = np.random.Generator(np.random.PCG64(mix_seed(9, "cv", int(cls)))).permutation(idx.size)
        for position, j in enumerate(perm):
            expected[position % 4].append(int(idx[j]))
    assert held_out == [sorted(fold) for fold in expected]


@pytest.mark.parametrize("folds, params", [
    (3, ForestParams(n_trees=6, seed=4)),
    (4, ForestParams(n_trees=5, seed=8, bootstrap=False, max_depth=3, min_samples_leaf=2)),
], ids=["bootstrap", "no-bootstrap-depth3-leaf2"])
def test_cross_validate_equals_fitting_each_fold_on_a_copy(monkeypatch, workers, folds, params):
    workers(1)  # the folds run inline, so the spy sees each fold's matrix object
    X, y = small_dense_counts()
    fitted_on = []
    real_fit = forest_module.fit_forest

    def spy(values, *args, **kwargs):
        fitted_on.append(values)
        return real_fit(values, *args, **kwargs)

    monkeypatch.setattr(forest_module, "fit_forest", spy)
    got = cross_validate(X, y, params, folds=folds, seed=21)
    # every fold fits on one conversion of X, not on a copy of its rows
    assert len(fitted_on) == folds and all(values is fitted_on[0] for values in fitted_on)
    want = copying_cross_validate(X, y, params, folds=folds, seed=21)
    assert got.per_fold == want.per_fold
    assert got.confusion == want.confusion
    assert (got.accuracy, got.classes) == (want.accuracy, want.classes)


@pytest.mark.parametrize("n_workers", [2, 3])
def test_pooled_fits_equal_the_inline_ones(monkeypatch, workers, call_log, n_workers):
    """Cross-validation, the fit beside it and the grid give, on n workers,
    exactly what they give inline, with each (cell, fold) fitted once and
    no worker ranking the matrix again."""
    X, y = small_dense_counts()
    matrix = as_matrix(X)
    params = ForestParams(n_trees=6, seed=4)
    grid = dict(tree_counts=(3, 5), folds=3, seed=2)
    workers(1)
    want_cv = cross_validate(matrix, y, params, folds=3, seed=21)
    want_forest = fit_forest(matrix, y, params)
    want_grid = grid_search(matrix, y, params, **grid)
    real_fit = forest_module.fit_forest

    def fit(values, labels, params, rows=None, **kwargs):
        assert "ranks" in vars(values)  # ranked once, before the fork
        call_log.record(params.n_trees, params.features_per_split, params.seed, rows is None)
        return real_fit(values, labels, params, rows, **kwargs)

    monkeypatch.setattr(forest_module, "fit_forest", fit)
    workers(n_workers)
    fresh = as_matrix(X)
    forest, cv = forest_module.fit_and_cross_validate(fresh, y, params, folds=3, seed=21)
    assert (cv, cross_validate(fresh, y, params, folds=3, seed=21)) == (want_cv, want_cv)
    assert_same_nodes(forest, want_forest)
    assert grid_search(fresh, y, params, **grid) == want_grid
    fits = call_log.counts()
    folds = [(str(params.n_trees), "sqrt", str(mix_seed(21, "fold", f)), "False") for f in range(3)]
    cells = [(str(n), rule, str(mix_seed(2, "fold", f)), "False")
             for n in (3, 5) for rule in ("sqrt", "third") for f in range(3)]
    assert fits == Counter(folds * 2 + cells + [(str(params.n_trees), "sqrt", str(params.seed), "True")])


def test_cross_validate_refuses_a_non_finite_matrix():
    X, y = small_dense_counts()
    X[5, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite value nan at row 5, column 2"):
        cross_validate(X, y, ForestParams(n_trees=2, seed=0, max_depth=40), folds=3, seed=0)


def test_cross_validate_separable_data_is_perfect():
    rng = np.random.default_rng(14)
    X, y = separable_data(rng, n_per_class=15)
    metrics = cross_validate(X, y, ForestParams(n_trees=8, seed=0), folds=5, seed=1)
    assert metrics.accuracy == 1.0


def test_cross_validate_shuffled_labels_score_at_chance():
    rng = np.random.default_rng(15)
    accs = []
    for seed in range(3):
        X = rng.normal(size=(225, 8))
        y = np.repeat(np.arange(1, 10), 25)
        y = rng.permutation(y)
        metrics = cross_validate(X, y, ForestParams(n_trees=20, seed=seed), folds=5, seed=seed)
        accs.append(metrics.accuracy)
    assert abs(float(np.mean(accs)) - 1 / 9) < 0.05


def test_cross_validate_names_starved_family():
    X = np.vstack([np.zeros((4, 2)), np.ones((10, 2))])
    y = np.array([5] * 4 + [1] * 10)
    with pytest.raises(TrainingError, match="Simda"):
        cross_validate(X, y, ForestParams(n_trees=2, seed=0), folds=5)


def test_grid_search_prefers_earlier_cell_on_ties():
    rng = np.random.default_rng(16)
    X, y = separable_data(rng, n_per_class=10)
    best, cv, results = grid_search(
        X, y, ForestParams(seed=0), tree_counts=(5, 10), feature_rules=("sqrt", "third"),
        folds=2, seed=3,
    )
    assert len(results) == 4
    assert max(acc for _, acc in results) == dict((p.n_trees, a) for p, a in results)[best.n_trees]
    # separable data scores 1.0 everywhere; the first cell must win the tie
    assert (best.n_trees, best.features_per_split) == (5, "sqrt")
    assert cv == cross_validate(X, y, best, folds=2, seed=3)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def schema_for(n_features: int):
    # a real schema sized to the fitted matrix keeps the digest meaningful
    vocab = Vocabulary(
        section_names=("text",),
        libraries=tuple(f"L{i}" for i in range(n_features - 3 - 6 - 9 - 3 - 1 - 1)),
        api_grams=(("a", "b", "c", "d"),),
        opcode_grams=(("p", "q", "r", "s"),),
    )
    schema = build_schema(vocab)
    assert len(schema) == n_features
    return schema


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    n_features = 24
    schema = schema_for(n_features)
    X = rng.normal(size=(60, n_features))
    y = rng.integers(1, 5, size=60)
    forest = fit_forest(X, y, ForestParams(n_trees=6, seed=8))
    path = tmp_path / "model.json"
    save_model(forest, schema, path)
    loaded = load_model(path, schema)
    assert loaded.params == forest.params
    assert loaded.classes == forest.classes
    probes = rng.normal(size=(25, n_features))
    assert np.array_equal(predict_proba(loaded, probes), predict_proba(forest, probes))


def test_model_rejects_schema_digest_mismatch(tmp_path):
    rng = np.random.default_rng(18)
    schema = schema_for(24)
    X = rng.normal(size=(40, 24))
    y = rng.integers(1, 4, size=40)
    forest = fit_forest(X, y, ForestParams(n_trees=3, seed=9))
    path = tmp_path / "model.json"
    save_model(forest, schema, path)

    other_vocab = Vocabulary(
        section_names=("text", "data"),
        libraries=tuple(f"L{i}" for i in range(1)),
        api_grams=(("a", "b", "c", "d"),),
        opcode_grams=(("p", "q", "r", "s"),),
    )
    other = build_schema(other_vocab)
    with pytest.raises(ModelError, match="digest"):
        load_model(path, other)


@pytest.mark.parametrize("params", [
    ForestParams(),
    ForestParams(n_trees=7, max_depth=3, min_samples_leaf=2, features_per_split="third",
                 bootstrap=False, seed=11),
    ForestParams(features_per_split=5),
])
def test_params_from_dict_inverts_params_to_dict(params):
    assert params_from_dict(json.loads(json.dumps(params_to_dict(params)))) == params


def test_model_rejects_corrupt_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(ModelError):
        load_model(path, schema_for(24))


def saved_model_doc(tmp_path) -> tuple[dict, object]:
    rng = np.random.default_rng(20)
    schema = schema_for(24)
    X = rng.normal(size=(40, 24))
    y = rng.integers(1, 4, size=40)
    path = tmp_path / "model.json"
    save_model(fit_forest(X, y, ForestParams(n_trees=3, seed=2)), schema, path)
    return json.loads(path.read_text(encoding="utf-8")), schema


def first_split(doc) -> int:
    return next(i for i, f in enumerate(doc["feature"]) if f >= 0)


def set_split_dim(doc, value):
    doc["feature"][first_split(doc)] = value


def set_left(doc, value):
    doc["left"][first_split(doc)] = value


def set_right(doc, value):
    doc["right"][first_split(doc)] = value


@pytest.mark.parametrize("corrupt", [
    lambda d: d.update(version=1),
    lambda d: set_split_dim(d, 24),
    lambda d: set_split_dim(d, -2),
    lambda d: set_left(d, len(d["feature"])),
    lambda d: set_left(d, first_split(d)),
    lambda d: set_right(d, 0),
    lambda d: set_right(d, -1),
    lambda d: d.update(counts=d["counts"] + [0] * len(d["feature"])),
    lambda d: d["counts"].__setitem__(0, -1),
    lambda d: d.update(roots=d["roots"][:-1]),
    lambda d: d.update(roots=d["roots"] + [len(d["feature"]) - 1]),
    lambda d: d.update(roots=d["roots"][::-1]),
    lambda d: d.update(threshold=d["threshold"][:-1]),
    lambda d: d.update(feature=["x"] * len(d["feature"])),
    lambda d: d.pop("left"),
    lambda d: d["params"].update(bootstrap="false"),
    lambda d: d["params"].update(features_per_split=True),
    lambda d: d.update(params=[]),
    lambda d: d["params"].update(n_trees=d["params"]["n_trees"] + 0.5),
    lambda d: d["params"].update(seed=True),
    lambda d: d["classes"].__setitem__(0, True),
], ids=[
    "version-1", "dim-past-schema", "dim-below-leaf-mark", "child-out-of-range",
    "child-is-parent", "child-before-parent", "child-missing", "counts-too-wide",
    "counts-negative", "too-few-roots", "too-many-roots", "roots-decreasing",
    "short-threshold", "feature-not-int", "left-absent", "bootstrap-string",
    "features-per-split-bool", "params-list", "n-trees-fraction", "seed-bool",
    "class-id-bool",
])
def test_model_rejects_malformed_node_arrays(tmp_path, corrupt):
    doc, schema = saved_model_doc(tmp_path)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError):
        load_model(path, schema)


@pytest.mark.parametrize("version", [1, 2])
def test_model_refuses_earlier_formats_for_retraining(tmp_path, version):
    # version 2 stored an FNV-1a schema digest, version 1 nested trees
    doc, schema = saved_model_doc(tmp_path)
    assert doc["version"] == MODEL_VERSION == 3
    doc["version"] = version
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(
        ModelError,
        match=f"unsupported model format in .*: version {version}, this build reads 3",
    ):
        load_model(path, schema)


def test_model_dir_load_and_first_assemble_build_each_groups_names_once(
    tmp_path, small_corpus, monkeypatch
):
    vocab = Vocabulary(
        section_names=("text", "data"),
        libraries=("KERNEL32", "USER32"),
        api_grams=(("a", "b", "c", "d"),),
        opcode_grams=(("push", "mov", "call", "ret"), ("mov", "call", "ret", "push")),
    )
    schema = build_schema(vocab)
    rng = np.random.default_rng(21)
    forest = fit_forest(
        rng.normal(size=(30, len(schema))), rng.integers(1, 4, size=30),
        ForestParams(n_trees=2, seed=3),
    )
    save_config(RunConfig(), tmp_path / CONFIG_FILE)
    save_vocab(vocab, tmp_path / VOCAB_FILE)
    save_model(forest, schema, tmp_path / MODEL_FILE)

    built = []
    original = schema_module.group_dims

    def counting(group, vocab):
        built.append(group)
        return original(group, vocab)

    # every binding a caller could reach the builder through
    for module in (schema_module, vocab_module, extract_module, malfam.features):
        monkeypatch.setattr(module, "group_dims", counting, raising=False)
    bundle = load_model_dir(tmp_path)
    for sample in small_corpus.samples[:2]:
        assemble(sample, bundle.schema, bundle.vocab)
    assert sorted(built) == sorted(GROUP_ORDER)


def test_deep_tree_round_trips_under_default_recursion_limit(tmp_path):
    depth = 2500
    assert sys.getrecursionlimit() < depth
    # a right spine: split i sends x <= i to a leaf and the rest one level down
    nodes = []
    for i in range(depth):
        nodes.append(split(0, float(i), 2 * i + 1, 2 * i + 2, [depth - i, 1]))
        nodes.append(leaf([1, 0]))
    nodes.append(leaf([0, 1]))
    forest = hand_forest(nodes, n_classes=2, n_features=24)
    schema = schema_for(24)
    path = tmp_path / "model.json"
    save_model(forest, schema, path)
    loaded = load_model(path, schema)
    probes = np.zeros((3, 24))
    probes[:, 0] = [-1.0, 1.0, depth + 0.5]
    assert predict_proba(loaded, probes).tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert np.array_equal(predict_proba(loaded, probes), predict_proba(forest, probes))
    assert np.array_equal(feature_importance(loaded), feature_importance(forest))


def test_metrics_dataclass_shape():
    m = Metrics(accuracy=0.5, classes=(1, 2), confusion=((1, 1), (1, 1)), per_fold=(0.5, 0.5))
    assert m.accuracy == 0.5 and m.per_fold == (0.5, 0.5)
