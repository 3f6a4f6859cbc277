"""CART decision trees and a random forest, written against numpy only.

A fitted forest is one set of parallel per-node arrays (the layout of
scikit-learn's ``Tree``): ``feature`` (-1 marks a leaf), ``threshold``,
absolute child indices ``left``/``right``, and per-class training ``counts``
for every node.  Nodes are stored in preorder, left child first, and trees are
concatenated in index order; ``roots[t]`` is the first node of tree t.  Fit,
predict, importance and ``model.json`` all read and write these arrays.

The trees of a forest grow in lockstep.  Each keeps its own generator and
preorder stack; at each step, the next node of every unfinished tree that
needs a split is scored in one batched search, in chunks of at most
CHUNK_CELLS cells.  The search reads a `SparseMatrix`: a dense block of the
leading columns and CSC columns after it (see ``sparse.py``), and only the
nonzero cells of each (node, dim) segment.  A segment of a CSC column that
holds fewer cells than the node has rows reads the column's cells and counts
each as often as its row is in the node (bootstrap draws repeat rows); any
other segment gathers the node's rows and drops the zeros.  The segment's
zeros, +0.0 and -0.0 alike, are never gathered or sorted: they are one run
between its negative and positive values, whose class counts are the node's
counts less those of its nonzero cells.  The nonzero cells and one stand-in
per zero run are packed (segment, value rank, class) into one integer key
each and sorted, so each segment is in value order.  The class counts of every run of equal values come
from one bincount, and a cumulative sum over the runs gives the counts left of
every cut where the value changes; only those cuts are scored.  Memory is
O(chunk * k) for the run counts, whatever the number of trees; no one-hot
tensor is built.  The counts are exact integers and the gain expression is
that of a per-dim loop, so gains are the same floats and ties resolve the same
way.  A candidate dim that is zero (or any one value) on all of a node's rows
has no cut: it is skipped, not redrawn, so the rng draws and the tree are what
scoring it would give.  The rows of every node split in a step are sent left
or right by one lookup of their cells (`SparseMatrix.cells`), which predict
also reads; nothing densifies the matrix.

Determinism contract: every tree draws from its own PCG64 generator seeded by
mix_seed(seed, "tree", index), so refitting with the same seed reproduces the
forest node for node regardless of thread count: each thread grows a
contiguous slice of the tree indices, and the slices are joined in tree
order.  Ties in the split search resolve to the lowest dimension index, then
the lowest threshold.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ModelError, TrainingError
from .families import family_name
from .sparse import SparseMatrix, as_matrix, ranges
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


# Cells that one batched split search handles at most; a node with more is
# searched a slice of its dims at a time.  A (node, dim) segment costs one
# cell per row it gathers or per CSC cell it reads, plus one for its zero
# run, and a node one per row for its row list.
CHUNK_CELLS = 32_768

def _best_split(X, row_idx, y_codes, n_classes, dims, min_leaf):
    """Exact best (dim, threshold, gain) over candidate dims, or None.

    Thresholds are midpoints between consecutive distinct sorted values.  The
    winner takes the strictly largest gain, which must be > 0; on a tie the
    dim listed first wins, and within a dim the lowest threshold.  Callers
    pass dims sorted, so the first listed is the lowest index.  This is the
    one-node case of `_best_splits`.
    """
    dims = np.asarray(dims, dtype=np.intp)
    return _best_splits(X, y_codes, n_classes, [(row_idx, dims)], min_leaf)[0]


def _best_splits(X, y_codes, n_classes, nodes, min_leaf) -> list:
    """`_best_split` of every (row_idx, dims) pair in `nodes`.

    The nodes are scored in chunks of at most CHUNK_CELLS cells: whole nodes
    where they fit, slices of a node's dims where one does not.  A slice
    replaces an earlier slice's split of its node only with a strictly larger
    gain, so the tie rules hold across slices.
    """
    if not nodes:
        return []
    X = as_matrix(X)
    best: list = [None] * len(nodes)
    chunk: list[tuple[int, np.ndarray, np.ndarray]] = []
    cells = 0

    def flush() -> None:
        for (j, _, _), found in zip(
            chunk, _search_chunk(X, y_codes, n_classes, chunk, min_leaf)
        ):
            if found is not None and (best[j] is None or found[2] > best[j][2]):
                best[j] = found

    sizes = [rows.size for rows, _ in nodes]
    dim_counts = [dims.size for _, dims in nodes]
    n_of_dim = np.repeat(sizes, dim_counts)
    length = _list_lengths(X, np.concatenate([dims for _, dims in nodes]), n_of_dim)
    # used[i] is the cells taken by the nodes' dims before dim i, in order
    used = [0, *np.cumsum(np.where(length >= 0, length, n_of_dim) + 1).tolist()]
    del n_of_dim, length
    stop = 0
    for j, (row_idx, dims) in enumerate(nodes):
        n, first = sizes[j], stop
        stop += dim_counts[j]
        if n < 2 * min_leaf:  # no cut leaves min_leaf rows on both sides
            continue
        start = first
        while start < stop:
            room = used[start] + CHUNK_CELLS - cells - n
            end = stop if used[stop] <= room else bisect.bisect_right(used, room, start, stop) - 1
            if end <= start:  # not one more dim fits beside the chunk so far
                if chunk:
                    flush()
                    chunk, cells = [], 0
                    continue
                end = start + 1
            chunk.append((j, row_idx, dims[start - first:end - first]))
            cells += n + used[end] - used[start]
            start = end
    if chunk:
        flush()
    return best


def _list_lengths(X: SparseMatrix, dims: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The cells each segment of a dim on n rows reads from its CSC column,
    or -1 where it gathers its rows instead: for a block column, and for a
    CSC column holding at least n cells."""
    length = np.full(dims.size, -1, dtype=np.intp)
    csc = dims >= X.n_dense
    length[csc] = X.length[dims[csc] - X.n_dense]
    length[length >= n] = -1
    return length


def _search_chunk(X: SparseMatrix, y_codes, n_classes, pieces, min_leaf) -> list:
    """Best split of each (_, row_idx, dims) piece, or None, scored at once.

    Only the nonzero cells of each (piece, dim) segment are read: the cells
    of a CSC column holding fewer than the piece has rows (each as many
    times as its row is in the piece), or else the piece's rows, looked up,
    zeros dropped.  A segment's zeros (+0.0 and -0.0 alike) are one run
    between its negative and positive values, whose class counts are the
    piece's counts less those of its nonzero cells.  The nonzero cells and
    one stand-in for each zero run are sorted by segment and value, one
    bincount gives the class counts of every run of equal values, and a
    cumulative sum over the runs gives the counts left of every cut where
    the value changes.  The counts are exact
    integers and the gain is the per-dim loop's expression term for term, so
    every gain is the float it computes.
    """
    k = n_classes
    n_total, n_dense = X.shape[0], X.n_dense
    piece_n = np.array([rows.size for _, rows, _ in pieces], dtype=np.intp)
    piece_rows = np.concatenate([rows for _, rows, _ in pieces])
    piece_of_row = np.repeat(np.arange(len(pieces)), piece_n)
    piece_counts = np.bincount(
        piece_of_row * k + y_codes[piece_rows], minlength=len(pieces) * k
    ).reshape(-1, k)
    seg_dim = np.concatenate([dims for _, _, dims in pieces])
    seg_piece = np.repeat(np.arange(len(pieces)), [dims.size for _, _, dims in pieces])
    seg_n = piece_n[seg_piece]
    length = _list_lengths(X, seg_dim, seg_n)
    from_list = length >= 0

    # Listed segments: each cell of the CSC column, as many times as its row
    # is in the piece, found by binary search in the pieces' sorted rows.
    seg = np.flatnonzero(from_list)
    entries = ranges(X.start[seg_dim[seg] - n_dense], length[seg])
    list_seg = np.repeat(seg, length[seg])
    times = np.zeros(0, dtype=np.intp)
    if entries.size:
        held = np.sort(piece_of_row * n_total + piece_rows)
        key = seg_piece[list_seg] * n_total + X.rows[entries]
        times = np.searchsorted(held, key, side="right")
        times -= np.searchsorted(held, key, side="left")
        del held, key
    pick = entries[np.repeat(np.arange(times.size), times)]
    list_seg = np.repeat(list_seg, times)
    list_row, list_vals = X.rows[pick], X.values[pick]
    del entries, times, pick

    # Gathered segments: every row of the piece, looked up.
    seg = np.flatnonzero(~from_list)
    gather_seg = np.repeat(seg, seg_n[seg])
    gather_row = piece_rows[ranges((np.cumsum(piece_n) - piece_n)[seg_piece[seg]], seg_n[seg])]
    gather_vals = X.cells(gather_row, seg_dim[gather_seg])
    del piece_rows, piece_of_row

    cell_seg = np.concatenate([list_seg, gather_seg])
    vals = np.concatenate([list_vals, gather_vals])
    cell_row = np.concatenate([list_row, gather_row])
    del list_seg, list_row, list_vals, gather_seg, gather_row, gather_vals
    nonzero = vals != 0  # a CSC column may hold -0.0
    if not nonzero.all():
        cell_seg, vals, cell_row = cell_seg[nonzero], vals[nonzero], cell_row[nonzero]
    del nonzero
    if cell_seg.size == 0:
        return [None] * len(pieces)
    cls = y_codes[cell_row]
    del cell_row
    # A segment with nonzero cells and zeros gets a zero run; one whose
    # cells are all zero has no cut and no cells.
    seg_nonzero = np.bincount(cell_seg, minlength=seg_n.size)
    zero_seg = np.flatnonzero((seg_nonzero > 0) & (seg_nonzero < seg_n))
    if zero_seg.size:
        zero_counts = piece_counts[seg_piece[zero_seg]] - np.bincount(
            cell_seg * k + cls, minlength=seg_n.size * k
        ).reshape(-1, k)[zero_seg]
    # Each cell's (segment, value, class) packs into one integer key, the
    # value as its rank among the chunk's distinct values, so that a plain
    # sort of the keys (no argsort) orders every segment by value.  Class k
    # marks a zero run's stand-in.  A key is below cells^2 * (classes + 1),
    # far inside int64 for a chunk that fits in memory.
    cell_seg = np.concatenate([cell_seg, zero_seg])
    distinct, rank = np.unique(np.append(vals, np.zeros(zero_seg.size)), return_inverse=True)
    width = distinct.size
    key = (cell_seg * width + rank) * (k + 1) + np.append(cls, np.full(zero_seg.size, k))
    del vals, cls, cell_seg, rank
    key.sort()
    seg_rank, ys = np.divmod(key, k + 1)
    del key
    run_head = _heads(seg_rank)  # first cell of each run of equal values
    run = np.cumsum(run_head) - 1
    run_start = np.flatnonzero(run_head)
    del run_head
    run_counts = np.bincount(run * (k + 1) + ys, minlength=run_start.size * (k + 1))
    run_counts = run_counts.reshape(-1, k + 1)[:, :k]
    run_n = np.diff(run_start, append=seg_rank.size)  # rows in each run
    if zero_seg.size:
        zero_run = run[ys == k]
        run_counts[zero_run] = zero_counts
        run_n[zero_run] = seg_n[zero_seg] - seg_nonzero[zero_seg]
    del run, ys
    # cum[r] and cum_n[r] hold the class counts and the rows of runs
    # 0..r-1 of the whole chunk
    cum = np.zeros((run_start.size + 1, k), dtype=np.int64)
    np.cumsum(run_counts, axis=0, out=cum[1:])
    cum_n = np.zeros(run_start.size + 1, dtype=np.intp)
    np.cumsum(run_n, out=cum_n[1:])
    del run_counts, run_n
    run_seg, run_rank = np.divmod(seg_rank[run_start], width)
    del seg_rank, run_start
    seg_head = _heads(run_seg)
    first_run = np.maximum.accumulate(np.where(seg_head, np.arange(run_seg.size), 0))
    # A cut follows each run whose successor is in the same segment.
    cut = np.flatnonzero(~seg_head[1:])
    base = first_run[cut]
    n_left = cum_n[cut + 1] - cum_n[base]
    n = seg_n[run_seg[cut]]
    feasible = (n_left >= min_leaf) & (n_left <= n - min_leaf)
    cut, base, n_left, n = cut[feasible], base[feasible], n_left[feasible], n[feasible]
    n_right = n - n_left
    piece = seg_piece[run_seg[cut]]
    # Sums of squared class counts of both sides, kept in integers so they
    # are exact whatever the order of summation.
    left = cum[cut + 1] - cum[base]
    right = piece_counts[piece] - left
    total_sq = (piece_counts * piece_counts).sum(axis=1)[piece]
    left_sq = (left * left).sum(axis=1)
    right_sq = (right * right).sum(axis=1)
    g_parent = 1.0 - total_sq / (n * n)
    g_left = 1.0 - left_sq / (n_left * n_left)
    g_right = 1.0 - right_sq / (n_right * n_right)
    gain = g_parent - (n_left / n) * g_left - (n_right / n) * g_right
    # The first of a piece's largest positive gains wins: its cuts are
    # listed by dim, then by threshold, so this is the lowest of both.
    positive = np.flatnonzero(gain > 0.0)
    found: list = [None] * len(pieces)
    if positive.size == 0:
        return found
    gain, piece, cut = gain[positive], piece[positive], cut[positive]
    first = _heads(piece)
    piece_max = np.maximum.reduceat(gain, np.flatnonzero(first))
    hit = np.flatnonzero(gain == piece_max[np.cumsum(first) - 1])
    win = hit[_heads(piece[hit])]
    cut = cut[win]
    thresholds = (distinct[run_rank[cut]] + distinct[run_rank[cut + 1]]) / 2.0
    for p, dim, thr, g in zip(piece[win].tolist(), seg_dim[run_seg[cut]].tolist(),
                              thresholds.tolist(), gain[win].tolist()):
        found[p] = (dim, thr, g)
    return found


def _heads(a: np.ndarray) -> np.ndarray:
    """True at 0 and wherever an entry differs from the one before it."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _require_finite(X: SparseMatrix) -> None:
    # A NaN or inf value yields a NaN/inf threshold that sends every row to
    # one side, so the same node would be split again without end.  min and
    # max carry a NaN or an inf through, so a finite matrix is checked with
    # no temporary the size of the matrix.
    bad = []
    if X.dense.size and not (np.isfinite(X.dense.min()) and np.isfinite(X.dense.max())):
        row, col = np.argwhere(~np.isfinite(X.dense))[0]
        bad.append((row, col, X.dense[row, col]))
    if X.values.size and not (np.isfinite(X.values.min()) and np.isfinite(X.values.max())):
        at = np.flatnonzero(~np.isfinite(X.values))
        rows, cols = X.rows[at], X.entry_columns()[at] + X.n_dense
        first = np.lexsort((cols, rows))[0]
        bad.append((rows[first], cols[first], X.values[at[first]]))
    if bad:
        row, col, value = min(bad, key=lambda cell: cell[:2])
        raise ValueError(f"non-finite value {value} at row {row}, column {col}")


def best_split(values, labels, dims=None, min_samples_leaf: int = 1):
    """Public split search over arbitrary labels; see _best_split for rules."""
    X = as_matrix(values)
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


def _grow_trees(X: SparseMatrix, rows, y_codes, n_classes, params: ForestParams,
                trees: range) -> list:
    """Grow trees `trees` of the forest on X[rows] in lockstep.

    Each tree pops nodes off its own preorder stack (left child first) and
    settles leaves at once.  When every unfinished tree has reached a node to
    split, those nodes are scored by one `_best_splits` call and their
    children pushed.  A tree's rng draws and node order are those of growing
    it alone.  Returns each tree's (feature, threshold, left, right, counts)
    node lists in preorder, child indices local to the tree.
    """
    n, d = rows.size, X.shape[1]
    m = _candidate_count(params.features_per_split, d)
    depth_cap = params.max_depth if params.max_depth is not None else math.inf
    min_leaf = params.min_samples_leaf
    rngs, stacks, grown = [], [], []
    for index in trees:
        rng = np.random.Generator(np.random.PCG64(mix_seed(params.seed, "tree", index)))
        # the draw picks positions in `rows`, as it would rows of X[rows]
        tree_rows = rows[rng.integers(0, n, size=n)] if params.bootstrap else rows
        rngs.append(rng)
        stacks.append([(tree_rows, 0, -1, None)])
        grown.append(([], [], [], [], []))
    waiting = list(range(len(rngs)))
    while waiting:
        pending, nodes = [], []  # (tree, node, depth) and (rows, dims) of each node to split
        for t in waiting:
            feature, threshold, left, right, node_counts = grown[t]
            stack = stacks[t]
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
                pure = np.count_nonzero(counts) <= 1
                if pure or depth >= depth_cap or idx.size < 2 * min_leaf:
                    continue
                pending.append((t, node, depth))
                nodes.append((idx, np.sort(rngs[t].choice(d, size=m, replace=False))))
                break
        found_all = _best_splits(X, y_codes, n_classes, nodes, min_leaf)
        split = [(p, idx, found) for p, (idx, _), found in zip(pending, nodes, found_all)
                 if found is not None]
        # every split node's rows go left where their value is at most its
        # threshold, looked up for all nodes at once
        sizes = [idx.size for _, idx, _ in split]
        goes_left = X.cells(
            np.concatenate([np.empty(0, dtype=np.intp), *(idx for _, idx, _ in split)]),
            np.repeat(np.array([found[0] for _, _, found in split], dtype=np.intp), sizes),
        ) <= np.repeat(np.array([found[1] for _, _, found in split]), sizes)
        stop = 0
        for ((t, node, depth), idx, (dim, thr, _)), size in zip(split, sizes):
            left_mask = goes_left[stop:stop + size]
            stop += size
            feature, threshold, left, right, _ = grown[t]
            feature[node] = dim
            threshold[node] = thr
            # push right first so the left branch is grown next
            stacks[t].append((idx[~left_mask], depth + 1, node, right))
            stacks[t].append((idx[left_mask], depth + 1, node, left))
        waiting = [t for t, _, _ in pending]
    return grown


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

    `values` is a SparseMatrix or a dense 2-d array.  `rows`, when given,
    indexes the rows of `values` and `labels` to train on, in order, so that
    a caller with one matrix fits on part of it without copying that part: the forest equals, node for node, the one
    fitted on `values[rows]`, `labels[rows]`, as each bootstrap draw picks
    positions in `rows`.  `checked=True` skips the finiteness check of
    `values`, for a caller that has made it on the same matrix.
    """
    X = as_matrix(values)
    y = np.asarray(labels)
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

    def grow(trees: range) -> list:
        return _grow_trees(X, rows, y_codes, classes.size, params, trees)

    workers = min(threads, params.n_trees)
    if workers > 1:
        # one contiguous slice of tree indices per thread, joined in tree order
        bounds = [params.n_trees * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            slices = list(pool.map(grow, [range(a, b) for a, b in zip(bounds, bounds[1:])]))
        trees = [tree for grown in slices for tree in grown]
    else:
        trees = grow(range(params.n_trees))
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

    `values` is one dense row, a dense 2-d array or a SparseMatrix, read in
    place.  All (row, tree) pairs descend one level per step.  A leaf whose
    counts are all zero contributes the uniform distribution.
    """
    if isinstance(values, SparseMatrix):
        X, single = values, False
        cells = X.cells
    else:
        X = np.asarray(values, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[np.newaxis, :]
        cells = lambda rows, dims: X[rows, dims]
    if len(X.shape) != 2 or X.shape[1] != forest.n_features:
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
        go_left = cells(row[pending], dim) <= forest.threshold[cur]
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
    y = np.asarray(labels)
    if y.shape[0] == 0:
        raise TrainingError("cannot evaluate on an empty set")
    unknown = sorted(set(int(c) for c in np.unique(y)) - set(forest.classes))
    if unknown:
        raise TrainingError(f"evaluation labels absent from the model: {unknown}")
    preds = predict(forest, values)
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
    `fit_forest`'s `rows`); only the held-out rows are copied, to score
    them, and nothing is densified.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    X = as_matrix(values)
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
            X, y, fold_params, threads=threads, rows=np.flatnonzero(~held), checked=True,
        )
        metrics = evaluate(forest, X.take(np.flatnonzero(held)), y[held])
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
) -> tuple[ForestParams, Metrics, list[tuple[ForestParams, float]]]:
    """Cross-validate every (n_trees, features_per_split) cell; best mean wins.

    Returns the winner's params and cross-validation, and every cell's mean
    accuracy in grid order.  Ties keep the earlier cell, so smaller forests
    are preferred.
    """
    results: list[tuple[ForestParams, float]] = []
    best: tuple[ForestParams, Metrics] | None = None
    for n_trees in tree_counts:
        for rule in feature_rules:
            params = replace(base, n_trees=n_trees, features_per_split=rule)
            metrics = cross_validate(values, labels, params, folds=folds, seed=seed, threads=threads)
            results.append((params, metrics.accuracy))
            if best is None or metrics.accuracy > best[1].accuracy:
                best = (params, metrics)
    assert best is not None
    return best[0], best[1], results


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
