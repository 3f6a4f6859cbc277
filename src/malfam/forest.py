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
CHUNK_CELLS cells.  The search reads a `SparseMatrix`, every column of it
CSC (see ``sparse.py``), and compares values by their rank among the
matrix's distinct values, worked out once per matrix.  Each (node, dim)
segment reads its column's cells and counts each as often as its row is in
the node (bootstrap draws repeat rows), from one (node, row) count table per
chunk; no binary search is made.  The segment's zeros, +0.0 and -0.0 alike,
are never read or sorted: they are one run between its negative and
positive values, whose class counts are the node's counts less those of its
nonzero cells.  The nonzero cells and one stand-in per zero run are packed
(segment, rank, class) into one integer key each and sorted, so each
segment is in value order.  The class counts of every run of equal values
come from one bincount, and a cumulative sum over the runs gives the counts
left of every cut where the value changes; only those cuts are scored.
Memory is O(chunk * k) for the run counts, whatever the number of trees; no
one-hot tensor is built.  The counts are exact integers and the gain
expression is that of a per-dim loop, so gains are the same floats and ties
resolve the same way.  A candidate dim that is zero (or any one value) on
all of a node's rows has no cut: it is skipped, not redrawn, so the rng
draws and the tree are what scoring it would give.  The rows of every node
split in a step are sent left or right by their values, read from a dense
scratch of those rows and split columns, and the children's class counts
are those either side of the winning cut; a tree's root is the one node
whose rows are counted.  No fit looks a cell up (`SparseMatrix.cells`
serves predict), and nothing densifies the matrix.

The whole forest is one lockstep on the calling thread.  A step's search is
numpy, but the preorder stacks and the step's bookkeeping are Python under
the interpreter lock, so a pool of threads, each growing a slice of the
trees, measured slower than one lockstep.

Determinism contract: every tree draws from its own PCG64 generator seeded by
mix_seed(seed, "tree", index), so refitting with the same seed reproduces the
forest node for node.  Ties in the split search resolve to the lowest
dimension index, then the lowest threshold.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Mapping, Sequence
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
# cell per cell of its column, plus one for its zero run, and a node one per
# row for its row list.
CHUNK_CELLS = 32_768
# Entries that a search chunk's count table, or a partition's dense scratch,
# holds at most; a chunk is flushed early where one would pass it.  A chunk
# of one node always fits, whatever its size.
SCRATCH_CELLS = 4 * CHUNK_CELLS


def _best_split(X, row_idx, y_codes, n_classes, dims, min_leaf):
    """Exact best (dim, threshold, gain) over candidate dims, or None.

    Thresholds are midpoints between consecutive distinct sorted values.  The
    winner takes the strictly largest gain, which must be > 0; on a tie the
    dim listed first wins, and within a dim the lowest threshold.  Callers
    pass dims sorted, so the first listed is the lowest index.  This is the
    one-node case of `_best_splits`.
    """
    dims = np.asarray(dims, dtype=np.intp)
    found = _best_splits(X, y_codes, n_classes, [(row_idx, dims)], min_leaf)[0]
    return None if found is None else found[:3]


def _best_splits(X, y_codes, n_classes, nodes, min_leaf, slot=None) -> list:
    """(dim, threshold, gain, left counts) of `_best_split` for every
    (row_idx, dims) pair in `nodes`, or None.

    The left counts are the class counts of the node's rows whose value is
    at most the threshold.  The nodes are scored in chunks of at most
    CHUNK_CELLS cells: whole nodes where they fit, slices of a node's dims
    where one does not.  A slice replaces an earlier slice's split of its
    node only with a strictly larger gain, so the tie rules hold across
    slices.  `slot`, when given, is a zeroed intp array over X's rows that
    the search borrows and leaves zeroed, so that a fit allocates it once.
    """
    if not nodes:
        return []
    X = as_matrix(X)
    if slot is None:
        slot = np.zeros(X.n_rows, dtype=np.intp)
    best: list = [None] * len(nodes)
    chunk: list[tuple[int, np.ndarray, np.ndarray]] = []
    cells = chunk_rows = 0

    def flush() -> None:
        for (j, _, _), found in zip(
            chunk, _search_chunk(X, slot, y_codes, n_classes, chunk, min_leaf)
        ):
            if found is not None and (best[j] is None or found[2] > best[j][2]):
                best[j] = found

    # used[i] is the cells taken by the nodes' dims before dim i, in order
    used = np.zeros(sum(dims.size for _, dims in nodes) + 1, dtype=np.int64)
    np.cumsum(X.length[np.concatenate([dims for _, dims in nodes])] + 1, out=used[1:])
    stop = 0
    for j, (row_idx, dims) in enumerate(nodes):
        n, first = row_idx.size, stop
        stop += dims.size
        if n < 2 * min_leaf:  # no cut leaves min_leaf rows on both sides
            continue
        start = first
        while start < stop:
            room = int(used[start]) + CHUNK_CELLS - cells - n
            end = stop if used[stop] <= room else bisect.bisect_right(used, room, start, stop) - 1
            # the count table with this node: the chunk's pieces by its
            # distinct rows, at most
            table = (len(chunk) + 1) * (min(X.n_rows, chunk_rows + n) + 1)
            if chunk and (end <= start or table > SCRATCH_CELLS):
                flush()
                chunk, cells, chunk_rows = [], 0, 0
                continue
            end = max(end, start + 1)
            chunk.append((j, row_idx, dims[start - first:end - first]))
            cells += n + int(used[end] - used[start])
            chunk_rows += n
            start = end
    if chunk:
        flush()
    return best


def _search_chunk(X: SparseMatrix, slot, y_codes, n_classes, pieces, min_leaf) -> list:
    """(dim, threshold, gain, left counts) of each (_, row_idx, dims) piece,
    or None, scored at once.

    Each (piece, dim) segment reads its column's cells, each as many times
    as its row is in the piece, from one (piece, row) count table of the
    chunk, and drops those that are zero.  Values are compared by their rank
    in the matrix (`SparseMatrix.ranks`), so -0.0 is a zero.  A segment's
    zeros are one run between its negative and positive values, whose class
    counts are the piece's counts less those of its nonzero cells.  The
    nonzero cells and one stand-in for each zero run are sorted by segment
    and rank, one bincount gives the class counts of every run of equal
    values, and a cumulative sum over the runs gives the counts left of
    every cut where the value changes.  The counts are exact integers and
    the gain is the per-dim loop's expression term for term, so every gain
    is the float it computes.
    """
    k = n_classes
    distinct, rank = X.ranks
    zero = np.count_nonzero(distinct < 0)  # the rank of 0.0
    piece_n = np.array([rows.size for _, rows, _ in pieces], dtype=np.intp)
    piece_rows = np.concatenate([rows for _, rows, _ in pieces])
    piece_of_row = np.repeat(np.arange(len(pieces)), piece_n)
    piece_counts = np.bincount(
        piece_of_row * k + y_codes[piece_rows], minlength=len(pieces) * k
    ).reshape(-1, k)
    seg_dim = np.concatenate([dims for _, _, dims in pieces])
    seg_piece = np.repeat(np.arange(len(pieces)), [dims.size for _, _, dims in pieces])
    seg_n = piece_n[seg_piece]

    # table[piece, slot] is the times a row is in a piece.  The chunk's
    # distinct rows take slots 1.., and slot 0, every other row, stays 0.
    slot[piece_rows] = 1
    chunk_rows = np.flatnonzero(slot)
    n_slots = chunk_rows.size + 1
    slot[chunk_rows] = np.arange(1, n_slots)
    table = np.bincount(piece_of_row * n_slots + slot[piece_rows], minlength=len(pieces) * n_slots)
    del piece_rows, piece_of_row
    length = X.length[seg_dim]
    entries = ranges(X.start[seg_dim], length)
    times = slot[X.rows[entries]]
    times += np.repeat(seg_piece * n_slots, length)
    times = table[times]
    slot[chunk_rows] = 0
    del table, chunk_rows
    times[rank[entries] == zero] = 0  # a column may hold -0.0
    cell_seg = np.repeat(np.repeat(np.arange(seg_dim.size), length), times)
    entries = np.repeat(entries, times)
    del length, times
    cell_rank, cell_row = rank[entries], X.rows[entries]
    del entries
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
    # Each cell's (segment, rank, class) packs into one integer key, so
    # that a plain sort of the keys (no argsort) orders every segment by
    # value.  Class k marks a zero run's stand-in.  A key is below
    # segments * ranks * (classes + 1), far inside int64.
    width = distinct.size
    key = (np.append(cell_seg, zero_seg) * width
           + np.append(cell_rank, np.full(zero_seg.size, zero))) * (k + 1)
    key += np.append(cls, np.full(zero_seg.size, k))
    del cell_rank, cls, cell_seg
    key.sort()
    seg_rank, ys = np.divmod(key, k + 1)
    del key
    run_head = _heads(seg_rank)  # first cell of each run of equal values
    run = np.cumsum(run_head) - 1
    run_start = np.flatnonzero(run_head)
    del run_head
    n_runs = run_start.size
    run_counts = np.bincount(run * (k + 1) + ys, minlength=n_runs * (k + 1))
    run_counts = run_counts.reshape(-1, k + 1)[:, :k]
    run_n = np.diff(run_start, append=seg_rank.size)  # rows in each run
    if zero_seg.size:
        zero_run = run[ys == k]
        run_counts[zero_run] = zero_counts
        run_n[zero_run] = seg_n[zero_seg] - seg_nonzero[zero_seg]
    del run, ys
    # cum[:, r] and cum_n[r] hold the class counts and the rows of runs
    # 0..r-1 of the whole chunk
    cum = np.zeros((n_runs + 1, k), dtype=np.int64)
    np.cumsum(run_counts, axis=0, out=cum[1:])
    cum_n = np.zeros(n_runs + 1, dtype=np.intp)
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
    del left, right
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
    gain, piece, cut, base = gain[positive], piece[positive], cut[positive], base[positive]
    first = _heads(piece)
    piece_max = np.maximum.reduceat(gain, np.flatnonzero(first))
    hit = np.flatnonzero(gain == piece_max[np.cumsum(first) - 1])
    win = hit[_heads(piece[hit])]
    cut, base = cut[win], base[win]
    upper = distinct[run_rank[cut + 1]]
    thresholds = (distinct[run_rank[cut]] + upper) / 2.0
    # The midpoint of two adjacent floats may round onto the upper one;
    # then its run is at most the threshold too, and goes left.
    left = cum[cut + 1 + (upper <= thresholds)] - cum[base]
    for p, dim, thr, g, counts in zip(piece[win].tolist(), seg_dim[run_seg[cut]].tolist(),
                                      thresholds.tolist(), gain[win].tolist(), left):
        found[p] = (dim, thr, g, counts)
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
    if X.values.size and not (np.isfinite(X.values.min()) and np.isfinite(X.values.max())):
        at = np.flatnonzero(~np.isfinite(X.values))
        rows, cols = X.rows[at], X.entry_columns()[at]
        first = np.lexsort((cols, rows))[0]
        raise ValueError(
            f"non-finite value {X.values[at[first]]} at row {rows[first]}, column {cols[first]}"
        )


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


def _grow_trees(X: SparseMatrix, rows, y_codes, n_classes, params: ForestParams) -> list:
    """Grow every tree of the forest on X[rows] in lockstep.

    Each tree pops nodes off its own preorder stack (left child first) and
    settles leaves at once.  When every unfinished tree has reached a node to
    split, those nodes are scored by one `_best_splits` call and their
    children pushed.  A root's class counts are counted from its rows, and a
    child's taken from its parent's winning cut.  A tree's rng draws and node
    order are those of growing it alone.  Returns each tree's (feature,
    threshold, left, right, counts) node lists in preorder, child indices
    local to the tree.
    """
    n, d = rows.size, X.shape[1]
    m = _candidate_count(params.features_per_split, d)
    depth_cap = params.max_depth if params.max_depth is not None else math.inf
    min_leaf = params.min_samples_leaf
    slot = np.zeros(X.n_rows, dtype=np.intp)  # borrowed by every search and partition
    rngs, stacks, grown = [], [], []
    for index in range(params.n_trees):
        rng = np.random.Generator(np.random.PCG64(mix_seed(params.seed, "tree", index)))
        # the draw picks positions in `rows`, as it would rows of X[rows]
        tree_rows = rows[rng.integers(0, n, size=n)] if params.bootstrap else rows
        rngs.append(rng)
        counts = np.bincount(y_codes[tree_rows], minlength=n_classes)
        stacks.append([(tree_rows, counts, 0, -1, None)])
        grown.append(([], [], [], [], []))
    waiting = list(range(len(rngs)))
    while waiting:
        pending, nodes = [], []  # (tree, node, depth, counts) and (rows, dims) of each node to split
        for t in waiting:
            feature, threshold, left, right, node_counts = grown[t]
            stack = stacks[t]
            while stack:
                idx, counts, depth, parent, links = stack.pop()
                node = len(feature)
                if links is not None:
                    links[parent] = node
                node_counts.append(counts)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                pure = np.count_nonzero(counts) <= 1
                if pure or depth >= depth_cap or idx.size < 2 * min_leaf:
                    continue
                pending.append((t, node, depth, counts))
                nodes.append((idx, np.sort(rngs[t].choice(d, size=m, replace=False))))
                break
        found_all = _best_splits(X, y_codes, n_classes, nodes, min_leaf, slot)
        split = [(p, idx, found) for p, (idx, _), found in zip(pending, nodes, found_all)
                 if found is not None]
        goes_left = _goes_left(X, slot, [(idx, found[0], found[1]) for _, idx, found in split])
        stop = 0
        for (t, node, depth, counts), idx, (dim, thr, _, left_counts) in split:
            left_mask = goes_left[stop:stop + idx.size]
            stop += idx.size
            feature, threshold, left, right, _ = grown[t]
            feature[node] = dim
            threshold[node] = thr
            # push right first so the left branch is grown next
            stacks[t].append((idx[~left_mask], counts - left_counts, depth + 1, node, right))
            stacks[t].append((idx[left_mask], left_counts, depth + 1, node, left))
        waiting = [p[0] for p in pending]
    return grown


def _goes_left(X: SparseMatrix, slot, nodes) -> np.ndarray:
    """Whether each row of each (rows, dim, threshold) node has its value at
    most the threshold, for all nodes' rows in order.

    A run of nodes reads its values from one dense scratch of ranks: a slot
    for each of the run's distinct rows (`slot` is borrowed as
    `_best_splits` borrows it) by a column for each node.  A run holds at
    most SCRATCH_CELLS entries and its columns as many cells, unless one
    node needs more.
    """
    distinct, rank = X.ranks
    zero = np.count_nonzero(distinct < 0)
    out = np.empty(sum(idx.size for idx, _, _ in nodes), dtype=bool)
    stop = first = 0
    while first < len(nodes):
        last, n_rows, n_cells = first, 0, 0
        while last < len(nodes):
            idx, dim, _ = nodes[last]
            rows = min(X.n_rows, n_rows + idx.size)
            cells = n_cells + int(X.length[dim])
            if last > first and max((rows + 1) * (last - first + 1), cells) > SCRATCH_CELLS:
                break
            last, n_rows, n_cells = last + 1, rows, cells
        run = nodes[first:last]
        node_rows = np.concatenate([idx for idx, _, _ in run])
        slot[node_rows] = 1
        run_rows = np.flatnonzero(slot)
        slot[run_rows] = np.arange(1, run_rows.size + 1)
        # cells of rows outside the run land in slot 0, which nothing reads
        dims = np.array([dim for _, dim, _ in run], dtype=np.intp)
        length = X.length[dims]
        entries = ranges(X.start[dims], length)
        scratch = np.full((run_rows.size + 1, len(run)), zero, dtype=rank.dtype)
        scratch[slot[X.rows[entries]], np.repeat(np.arange(len(run)), length)] = rank[entries]
        sizes = [idx.size for idx, _, _ in run]
        values = distinct[scratch[slot[node_rows], np.repeat(np.arange(len(run)), sizes)]]
        slot[run_rows] = 0
        out[stop:stop + node_rows.size] = values <= np.repeat([thr for _, _, thr in run], sizes)
        stop += node_rows.size
        first = last
    return out


def fit_forest(
    values,
    labels,
    params: ForestParams = ForestParams(),
    rows=None,
    *,
    threads: int = 1,
) -> RandomForest:
    """Fit `params.n_trees` trees on (values, labels), on the calling thread.

    `values` is a SparseMatrix, or a dense 2-d array, which is converted.
    `rows`, when given, indexes the rows of `values` and `labels` to train
    on, in order, so that a caller with one matrix fits on part of it
    without copying that part: the forest equals, node for node, the one
    fitted on `values[rows]`, `labels[rows]`, as each bootstrap draw picks
    positions in `rows`.  The matrix's values are ranked on its first fit
    and the ranks kept with it (`SparseMatrix.ranks`).  `threads` is
    accepted for callers that still pass it; it starts nothing and changes
    nothing.
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
    trees = _grow_trees(X, rows, y_codes, classes.size, params)
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
) -> Metrics:
    """Stratified k-fold: shuffle within each class, deal round-robin to folds.

    Each fold's forest is fitted on that fold's rows of the one matrix (see
    `fit_forest`'s `rows`), whose values are ranked once for every fold;
    only the held-out rows are copied, to score them, and nothing is
    densified.
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

    accuracies: list[float] = []
    k = classes.size
    conf_total = np.zeros((k, k), dtype=np.int64)
    for fold in range(folds):
        held = fold_of == fold
        fold_params = replace(params, seed=mix_seed(seed, "fold", fold))
        forest = fit_forest(X, y, fold_params, rows=np.flatnonzero(~held))
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
            metrics = cross_validate(values, labels, params, folds=folds, seed=seed)
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
