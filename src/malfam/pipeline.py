"""End-to-end orchestration: split, vocab, extract, select, fit, persist.

The CLI is a thin argv wrapper over these functions; tests drive them
directly.  Every artifact written here is byte-stable for a fixed
(config, seed, corpus) triple.

A train pass digests each sample once, train and test samples alike, in one
`fork_map`.  `build_vocab` folds the train digests in manifest order as they
arrive and holds each one, its gram counts held compactly; `extract
--build-vocab` takes the same path.  The pass projects the held train
digests once, into every dimension of the enabled groups, and drops them
before selection.  Selection reads its groups' columns of that matrix, and
the train matrix is the final schema's columns of it
(`FeatureMatrix.columns`).  Both are `SparseMatrix` values, every column
held compressed (CSC), and the fit and every CV fold read the train matrix
in place; no dense copy of it is made.  The test digests wait in the
workers until selection is done, and are projected into the final schema
as they arrive.  The CV folds and the final fit are a second
`fork_map` (a grid's (cell, fold) fits are one, and its final fit follows).

Those two maps are the only work off the calling thread.  Each runs on
forked worker processes, one per CPU this process may use and no more than
it has items; the parent starts no thread, and reads the results in item
order, so every output is what the serial loop gives.  A map runs inline,
as that loop, on one CPU, off Linux, from Python 3.12, or when the process
has a thread besides the calling one (see `forkmap`).  Selection, every
projection and every saved file stay on the calling thread.  Inside a
digest, a listing of at least `OVERLAP_MIN_BYTES` takes two zlib helper
threads, joined before the digest returns.  `RunConfig.threads` is kept in
config files and has no effect.
"""
from __future__ import annotations

import logging
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from time import perf_counter

from .config import RunConfig, save_config, load_config
from .corpus import CorpusManifest, save_manifest, stratified_split
from .errors import ModelError, TrainingError
from .features.matrix import FeatureMatrix, extract_matrix, save_matrix_csv
from .features.schema import GROUP_ORDER, FeatureSchema, build_schema
from .features.select import load_selection, save_selection, select_by_importance
from .features.extract import digest_sample
from .features.vocab import Vocabulary, build_vocab, load_vocab, save_vocab
from .forest import (
    ForestParams,
    Metrics,
    RandomForest,
    evaluate,
    fit_and_cross_validate,
    fit_forest,
    grid_search,
    load_model,
    params_to_dict,
    save_model,
)
from .forkmap import fork_map, workers
from .util import mix_seed, write_json

log = logging.getLogger(__name__)

CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.json"
SELECTION_FILE = "selection.json"
MODEL_FILE = "model.json"
METRICS_FILE = "metrics.json"
TRAIN_MATRIX_FILE = "train_matrix.csv"
TEST_MATRIX_FILE = "test_matrix.csv"
TRAIN_MANIFEST_FILE = "train_manifest.json"
TEST_MANIFEST_FILE = "test_manifest.json"

@dataclass(frozen=True)
class TrainResult:
    config: RunConfig
    vocab: Vocabulary
    selection: dict[str, list[str]]
    schema: FeatureSchema
    train_matrix: FeatureMatrix
    test_matrix: FeatureMatrix
    params: ForestParams
    forest: RandomForest
    holdout: Metrics
    cv: Metrics
    grid: list[tuple[ForestParams, float]] | None = None


def compute_selection(matrix: FeatureMatrix, config: RunConfig) -> dict[str, list[str]]:
    """Per-group importance ranking under the config's budgets.

    Groups without a budget keep their full dimension list (no entry in the
    returned map); a budget at or above the group size still reorders by
    importance.
    """
    budgets = config.active_selection()
    if not budgets:
        return {}
    values, labels = matrix.labeled()
    if len(labels) == 0:
        raise TrainingError("feature selection needs labeled rows")
    out: dict[str, list[str]] = {}
    for group, budget in sorted(budgets.items()):
        idx = matrix.schema.group_indices(group)
        if idx.size == 0:
            continue
        k = min(budget, int(idx.size))
        order = select_by_importance(
            values.columns(idx),
            labels,
            k,
            config.forest,
            seed=mix_seed(config.seed, "select", group),
        )
        out[group] = [matrix.schema.names[int(idx[i])] for i in order]
    return out


def fit_pipeline(
    train_man: CorpusManifest,
    test_man: CorpusManifest,
    config: RunConfig,
    *,
    grid: bool = False,
) -> TrainResult:
    """Vocabulary, selection, and model all come from the train manifest only.

    Each sample is digested once, in one `fork_map` over the train and then
    the test samples, whose train digests `build_vocab` folds.  Each train
    digest is projected once, into every dimension of the enabled groups;
    the digests are dropped before selection.  Selection reads its groups'
    columns of that matrix, and the train matrix, which the fit and every CV
    fold read in place, is the final schema's columns of it.  The CV folds
    and the final fit are one more `fork_map`.  A grid search's
    cross-validation of its winner is the run's.  The worker count and the
    wall time of each map are logged at INFO.
    """
    overlap = train_man.ids() & test_man.ids()
    if overlap:
        raise TrainingError(f"train/test manifests overlap: {sorted(overlap)[:3]}")
    samples = train_man.samples + test_man.samples
    options = dict(prefer=config.prefer, binary_ngrams=config.binary_ngrams)
    t0 = perf_counter()
    with closing(fork_map(
        lambda sample: digest_sample(sample, config.groups, config.prefer), samples
    )) as digests:
        vocab, held = build_vocab(train_man, config.caps, config.groups, config.prefer,
                                  digests=islice(digests, len(train_man)))
        log.info("vocabulary built: %s",
                 {g: len(vocab.dims(g)) for g in GROUP_ORDER if g in config.groups and vocab.dims(g)})
        full = extract_matrix(train_man, build_schema(vocab, config.groups), vocab,
                              digests=held, **options)
        del held  # nothing after the projection reads the train digests
        selection = compute_selection(full, config)
        schema = build_schema(vocab, config.groups, selection or None)
        train_matrix = full.columns(schema)
        del full
        # the test digests wait in the workers until now, and are projected
        # one at a time as they arrive
        test_matrix = extract_matrix(test_man, schema, vocab, digests=digests, **options)
    log.info("digests: %d samples, %d workers, the last in at %.3f s",
             len(samples), workers(len(samples)), perf_counter() - t0)
    train_values, train_labels = train_matrix.labeled()
    if len(train_labels) != len(train_matrix):
        raise TrainingError("every training sample must carry a label")

    params = config.forest
    grid_results = None
    t0 = perf_counter()
    if grid:
        params, cv, grid_results = grid_search(
            train_values,
            train_labels,
            config.forest,
            folds=config.folds,
            seed=config.seed,
        )
        log.info("grid winner: n_trees=%d features_per_split=%s",
                 params.n_trees, params.features_per_split)
        forest = fit_forest(train_values, train_labels, params)
        fits = len(grid_results) * config.folds + 1
    else:
        forest, cv = fit_and_cross_validate(
            train_values,
            train_labels,
            params,
            folds=config.folds,
            seed=config.seed,
        )
        fits = config.folds + 1
    log.info("cross-validation and fit: %d fits, %d workers, %.3f s",
             fits, workers(fits), perf_counter() - t0)

    test_values, test_labels = test_matrix.labeled()
    if len(test_labels) != len(test_matrix):
        raise TrainingError("every holdout sample must carry a label")
    holdout = evaluate(forest, test_values, test_labels)
    return TrainResult(
        config=config,
        vocab=vocab,
        selection=selection,
        schema=schema,
        train_matrix=train_matrix,
        test_matrix=test_matrix,
        params=params,
        forest=forest,
        holdout=holdout,
        cv=cv,
        grid=grid_results,
    )


def train_pipeline(
    corpus: CorpusManifest, config: RunConfig, *, grid: bool = False
) -> tuple[TrainResult, CorpusManifest, CorpusManifest]:
    train_man, test_man = stratified_split(corpus, config.train_fraction, config.seed)
    result = fit_pipeline(train_man, test_man, config, grid=grid)
    return result, train_man, test_man


def metrics_to_dict(metrics: Metrics) -> dict:
    doc = {
        "accuracy": metrics.accuracy,
        "classes": list(metrics.classes),
        "confusion": [list(row) for row in metrics.confusion],
    }
    if metrics.per_fold is not None:
        doc["per_fold"] = list(metrics.per_fold)
    return doc


def save_train_dir(
    out_dir: str | Path,
    result: TrainResult,
    train_man: CorpusManifest,
    test_man: CorpusManifest,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a config's thread count has no effect; normalize it so rerun
    # directories diff clean
    save_config(replace(result.config, threads=1), out / CONFIG_FILE)
    save_vocab(result.vocab, out / VOCAB_FILE)
    save_selection(result.selection, out / SELECTION_FILE)
    save_matrix_csv(result.train_matrix, out / TRAIN_MATRIX_FILE)
    save_matrix_csv(result.test_matrix, out / TEST_MATRIX_FILE)
    save_manifest(train_man, out / TRAIN_MANIFEST_FILE)
    save_manifest(test_man, out / TEST_MANIFEST_FILE)
    save_model(result.forest, result.schema, out / MODEL_FILE)
    metrics_doc = {
        "version": 1,
        "params": params_to_dict(result.params),
        "holdout": metrics_to_dict(result.holdout),
        "cv": metrics_to_dict(result.cv),
    }
    if result.grid is not None:
        metrics_doc["grid"] = [
            {"params": params_to_dict(p), "cv_accuracy": a} for p, a in result.grid
        ]
    write_json(out / METRICS_FILE, metrics_doc)


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score new samples, as loaded from a train directory."""

    root: Path
    config: RunConfig
    vocab: Vocabulary
    selection: dict[str, list[str]]
    schema: FeatureSchema
    forest: RandomForest


def load_model_dir(path: str | Path) -> ModelBundle:
    root = Path(path)
    for name in (CONFIG_FILE, VOCAB_FILE, MODEL_FILE):
        if not (root / name).is_file():
            raise ModelError(f"model directory {root} lacks {name}")
    config = load_config(root / CONFIG_FILE)
    vocab = load_vocab(root / VOCAB_FILE)
    selection = {}
    if (root / SELECTION_FILE).is_file():
        selection = load_selection(root / SELECTION_FILE)
    try:
        schema = build_schema(vocab, config.groups, selection or None)
    except ValueError as exc:
        raise ModelError(f"model directory {root} is inconsistent: {exc}") from exc
    forest = load_model(root / MODEL_FILE, schema)
    return ModelBundle(
        root=root,
        config=config,
        vocab=vocab,
        selection=selection,
        schema=schema,
        forest=forest,
    )
