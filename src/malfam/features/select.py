"""Importance-based dimension selection."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from collections.abc import Mapping, Sequence

from ..errors import MalfamError
from ..forest import ForestParams, feature_importance, fit_forest
from ..sparse import as_matrix
from ..util import read_json, write_json
from .schema import GROUP_ORDER

SELECTION_VERSION = 1


def select_by_importance(
    values,
    labels,
    k: int,
    params: ForestParams = ForestParams(),
    seed: int | None = None,
) -> list[int]:
    """Rank dimensions by mean decrease in impurity and keep the top k.

    `values` is a SparseMatrix or a dense 2-d array, which is converted.
    Returns column indices ordered by (importance desc, index asc).  A k
    equal to the column count returns every index, so selection with a full
    budget degrades to a ranking.
    """
    X = as_matrix(values)
    if not 1 <= k <= X.shape[1]:
        raise ValueError(f"k must be in 1..{X.shape[1]}, not {k}")
    if seed is not None:
        params = replace(params, seed=seed)
    forest = fit_forest(X, labels, params)
    importance = feature_importance(forest)
    order = sorted(range(X.shape[1]), key=lambda i: (-importance[i], i))
    return order[:k]


def save_selection(selection: Mapping[str, Sequence[str]], path: str | Path) -> None:
    """Persist per-group kept dimension names, importance order preserved."""
    doc = {
        "version": SELECTION_VERSION,
        "selection": {group: list(names) for group, names in selection.items()},
    }
    write_json(path, doc)


def load_selection(path: str | Path) -> dict[str, list[str]]:
    doc = read_json(path, "selection", MalfamError, SELECTION_VERSION)
    raw = doc.get("selection")
    if not isinstance(raw, dict):
        raise MalfamError(f"malformed selection {path}")
    out: dict[str, list[str]] = {}
    for group, names in raw.items():
        if group not in GROUP_ORDER or not isinstance(names, list):
            raise MalfamError(f"malformed selection {path}: bad group {group!r}")
        out[group] = [str(n) for n in names]
    return out
