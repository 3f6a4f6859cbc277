"""Config plumbing and end-to-end pipeline tests (vocab -> selection -> forest)."""
from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from malfam.config import (
    DEFAULT_SELECTION,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    with_overrides,
)
from malfam.errors import CorpusError, MalfamError, ModelError, TrainingError
from malfam.features import (
    build_vocab,
    build_schema,
    extract_matrix,
    load_selection,
    load_vocab,
    save_selection,
    VocabCaps,
)
from malfam.features import extract as extract_module
from malfam.features import vocab as vocab_module
from malfam.features.vocab import hold_digest
from malfam.features.extract import digest_sample
from malfam.features.schema import (
    GROUP_API_4GRAM,
    GROUP_COMPLEXITY,
    GROUP_IMPORT_LIB,
    GROUP_OPCODE_4GRAM,
    GROUP_SECTION_PERM,
    GROUP_SECTION_SIZE,
    group_of_dim,
)
from malfam.forest import ForestParams, load_model, predict_proba
from malfam import forest as forest_module
from malfam import pipeline as pipeline_module
from malfam.pipeline import (
    compute_selection,
    fit_pipeline,
    load_model_dir,
    save_train_dir,
    train_pipeline,
)
from malfam.corpus import load_manifest, stratified_split
from malfam.synth import gen_synthetic
from malfam.util import json_int
from oracles import subset_columns


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    config = RunConfig(
        groups=(GROUP_COMPLEXITY, GROUP_SECTION_SIZE),
        caps=VocabCaps(10, 20, 30, 40),
        selection={GROUP_SECTION_SIZE: 7},
        train_fraction=0.75,
        folds=3,
        forest=ForestParams(n_trees=50, max_depth=12, seed=3),
        seed=3,
        threads=2,
        prefer="asm",
        binary_ngrams=True,
    )
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_defaults_fill_in():
    config = config_from_dict({})
    assert config == RunConfig()
    assert config.selection == DEFAULT_SELECTION
    assert config.caps == VocabCaps(282, 300, 5000, 5000)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        RunConfig(folds=1)
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    with pytest.raises(ValueError):
        RunConfig(prefer="midi")
    with pytest.raises(ValueError):
        RunConfig(groups=("nope",))
    with pytest.raises(ValueError):
        RunConfig(selection={"nope": 3})
    with pytest.raises(MalfamError):
        config_from_dict({"version": 7})
    with pytest.raises(MalfamError):
        config_from_dict({"folds": "many"})


@pytest.mark.parametrize("doc", [
    {"selection": []},
    {"caps": []},
    {"forest": 3},
    {"binary_ngrams": "false"},
    {"forest": {"bootstrap": "false"}},
    {"forest": {"features_per_split": True}},
    {"selection": {"section_size": True}},
    {"folds": 2.9},
    {"forest": {"n_trees": 7.9}},
    {"caps": {"sections": True}},
    {"seed": "3"},
    {"train_fraction": "0.5"},
    {"train_fraction": True},
    {"train_fraction": None},
    {"groups": {"file_size": 1, "complexity": 2}},
    {"groups": "file_size"},
    {"groups": ["file_size", 2]},
    {"prefer": 1},
    {"prefer": ["pe"]},
], ids=[
    "selection-list", "caps-list", "forest-number", "binary-ngrams-string",
    "bootstrap-string", "features-per-split-bool", "selection-bool", "folds-fraction",
    "n-trees-fraction", "caps-bool", "seed-string", "train-fraction-string",
    "train-fraction-bool", "train-fraction-null", "groups-object", "groups-string",
    "groups-number-entry", "prefer-number", "prefer-list",
])
def test_config_rejects_wrong_json_types(doc):
    with pytest.raises(MalfamError, match="invalid config"):
        config_from_dict(doc)


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_config_version_must_be_the_exact_integer(version):
    with pytest.raises(MalfamError, match="unsupported config version"):
        config_from_dict({"version": version})


def test_config_reads_forest_params_like_the_model():
    config = config_from_dict({"forest": {"features_per_split": 5.0, "bootstrap": False}})
    assert config.forest == ForestParams(features_per_split=5, bootstrap=False)
    assert type(config_to_dict(config)["forest"]["features_per_split"]) is int
    config = config_from_dict({"folds": 3.0, "caps": {"sections": 9.0}})
    assert (config.folds, config.caps.sections) == (3, 9)
    assert type(config.folds) is int and type(config.caps.sections) is int


def test_json_int_takes_integral_numbers_only():
    assert json_int(7, "n") == 7
    assert json_int(-2.0, "n") == -2 and type(json_int(-2.0, "n")) is int
    for value in (True, False, 7.9, "7", None, [7], math.inf, math.nan):
        with pytest.raises(TypeError, match="n must be an integer"):
            json_int(value, "n")


@pytest.mark.parametrize("what, error, load", [
    ("config", MalfamError, load_config),
    ("vocabulary", CorpusError, load_vocab),
    ("selection", MalfamError, load_selection),
    ("model", ModelError, lambda path: load_model(path, schema=None)),
    ("manifest", CorpusError, load_manifest),
])
def test_loaders_refuse_a_top_level_array(tmp_path, what, error, load):
    path = tmp_path / f"{what}.json"
    path.write_text('[{"version": 1}]', encoding="utf-8")
    with pytest.raises(MalfamError, match=f"malformed {what} .*: not a JSON object") as info:
        load(path)
    assert info.type is error


def test_config_overrides_steer_both_seeds():
    config = with_overrides(RunConfig(), seed=17, threads=4)
    assert config.seed == 17
    assert config.forest.seed == 17
    assert config.threads == 4


def test_active_selection_ignores_disabled_groups():
    config = RunConfig(groups=(GROUP_COMPLEXITY,), selection={GROUP_SECTION_SIZE: 5})
    assert config.active_selection() == {}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_fit_pipeline_rejects_overlapping_manifests(small_corpus, fast_config):
    train, _ = stratified_split(small_corpus, 0.8, seed=0)
    with pytest.raises(TrainingError, match="overlap"):
        fit_pipeline(train, train, fast_config)


def test_compute_selection_budgets_and_grouping(small_corpus, fast_config):
    vocab = build_vocab(small_corpus, fast_config.caps, fast_config.groups, prefer="asm")
    schema = build_schema(vocab, fast_config.groups)
    matrix = extract_matrix(small_corpus, schema, vocab, prefer="asm")
    selection = compute_selection(matrix, fast_config)
    assert set(selection) == {GROUP_SECTION_SIZE}
    kept = selection[GROUP_SECTION_SIZE]
    budget = fast_config.selection[GROUP_SECTION_SIZE]
    group_size = schema.group_sizes()[GROUP_SECTION_SIZE]
    assert len(kept) == min(budget, group_size)
    assert all(group_of_dim(name) == GROUP_SECTION_SIZE for name in kept)
    # deterministic given the same config
    assert compute_selection(matrix, fast_config) == selection


def test_selection_file_round_trip(tmp_path):
    selection = {GROUP_SECTION_SIZE: ["sec_data_rsize", "sec_text_vsize"]}
    path = tmp_path / "selection.json"
    save_selection(selection, path)
    assert load_selection(path) == selection


def test_load_selection_rejects_unknown_group(tmp_path):
    path = tmp_path / "selection.json"
    path.write_text('{"version": 1, "selection": {"bogus": []}}', encoding="utf-8")
    with pytest.raises(MalfamError, match="bogus"):
        load_selection(path)


def test_subset_columns_reorders_by_name(small_corpus, fast_config):
    vocab = build_vocab(small_corpus, fast_config.caps, fast_config.groups, prefer="asm")
    schema = build_schema(vocab, fast_config.groups)
    matrix = extract_matrix(small_corpus, schema, vocab, prefer="asm")
    narrow_schema = build_schema(
        vocab, fast_config.groups,
        selection={GROUP_SECTION_SIZE: [schema.names[10], schema.names[7]]},
    )
    narrow = subset_columns(matrix, narrow_schema)
    for name in narrow_schema.names:
        src = schema.names.index(name)
        dst = narrow_schema.names.index(name)
        assert np.array_equal(narrow.values[:, dst], matrix.values[:, src])


def test_train_pipeline_end_to_end(small_corpus, fast_config):
    result, train_man, test_man = train_pipeline(small_corpus, fast_config)
    assert train_man.ids() & test_man.ids() == set()
    assert len(result.schema) == 6 + 25 + 9
    # tiny corpus and forest: well above the 1/9 chance floor is enough here
    assert result.holdout.accuracy >= 0.7
    assert result.cv.per_fold is not None
    # grid off by default
    assert result.grid is None


def test_grid_train_cross_validates_each_cell_once(tmp_path, monkeypatch, small_corpus, fast_config):
    """The grid's cross-validation of its winner is the run's: six cells, six
    cross-validations, and the saved run is the one a seventh would give."""
    cells = []
    real = forest_module.cross_validate

    def spy(values, labels, params, **kwargs):
        cells.append((params.n_trees, params.features_per_split))
        return real(values, labels, params, **kwargs)

    monkeypatch.setattr(forest_module, "cross_validate", spy)
    monkeypatch.setattr(pipeline_module, "cross_validate", spy)
    result, train_man, test_man = train_pipeline(small_corpus, fast_config, grid=True)
    assert cells == [(n, rule) for n in (100, 200, 400) for rule in ("sqrt", "third")]
    assert [(p.n_trees, p.features_per_split) for p, _ in result.grid] == cells
    values, labels = result.train_matrix.labeled()
    again = real(values, labels, result.params, folds=fast_config.folds, seed=fast_config.seed)
    assert result.cv == again
    save_train_dir(tmp_path / "grid", result, train_man, test_man)
    save_train_dir(tmp_path / "again", replace(result, cv=again), train_man, test_man)
    for name in TRAIN_DIR_FILES:
        assert (tmp_path / "grid" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


# ---------------------------------------------------------------------------
# one digest per train sample
# ---------------------------------------------------------------------------

TRAIN_DIR_FILES = (
    "config.json", "vocab.json", "selection.json", "model.json", "metrics.json",
    "train_matrix.csv", "test_matrix.csv", "train_manifest.json", "test_manifest.json",
)

DIGEST_ONCE_CONFIGS = {
    "three-dense-groups": RunConfig(
        groups=(GROUP_COMPLEXITY, GROUP_SECTION_SIZE, GROUP_SECTION_PERM),
        selection={GROUP_SECTION_SIZE: 25},
        folds=2,
        forest=ForestParams(n_trees=10, seed=0),
    ),
    # section permissions without section sizes: the shared digests hold
    # sections, which the vocabulary must still leave out
    "perms-libs-opcodes": RunConfig(
        groups=(GROUP_SECTION_PERM, GROUP_IMPORT_LIB, GROUP_OPCODE_4GRAM),
        caps=VocabCaps(8, 8, 40, 40),
        selection={GROUP_OPCODE_4GRAM: 12},
        folds=2,
        forest=ForestParams(n_trees=10, seed=1),
        seed=3,
        binary_ngrams=True,
    ),
    "every-group": RunConfig(
        caps=VocabCaps(8, 8, 40, 40),
        folds=2,
        forest=ForestParams(n_trees=10, seed=2),
        seed=5,
        prefer="asm",
    ),
}


def saved_train_files(tmp_path, corpus, config) -> dict[str, bytes]:
    result, train_man, test_man = train_pipeline(corpus, config)
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    save_train_dir(out, result, train_man, test_man)
    assert sorted(p.name for p in out.iterdir()) == sorted(TRAIN_DIR_FILES)
    return {name: (out / name).read_bytes() for name in TRAIN_DIR_FILES}


def count_digests(monkeypatch) -> tuple[Counter, Counter]:
    """Count digest_sample calls by sample id, at every binding that calls it,
    and the 4-gram entries (api and opcode together) of each call's digest."""
    calls: Counter = Counter()
    grams: Counter = Counter()
    original = extract_module.digest_sample

    def counted(sample, *args, **kwargs):
        calls[sample.id] += 1
        digest = original(sample, *args, **kwargs)
        grams[sample.id] += len(digest.api_grams) + len(digest.opcode_grams)
        return digest

    for module in (pipeline_module, vocab_module, extract_module):
        monkeypatch.setattr(module, "digest_sample", counted)
    return calls, grams


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """Nine families x 30 samples: a train split's digests hold more than
    40,000 4-gram entries."""
    return gen_synthetic(30, 7, tmp_path_factory.mktemp("wide"))


@pytest.mark.parametrize("name", sorted(DIGEST_ONCE_CONFIGS))
def test_train_pipeline_digests_each_sample_once(monkeypatch, wide_corpus, name):
    config = DIGEST_ONCE_CONFIGS[name]
    calls, grams = count_digests(monkeypatch)
    _, train_man, test_man = train_pipeline(wide_corpus, config)
    assert calls == Counter({s.id: 1 for s in wide_corpus.samples})
    assert len(train_man) > len(test_man) > 0
    if {GROUP_API_4GRAM, GROUP_OPCODE_4GRAM} & set(config.groups):
        assert sum(grams[s.id] for s in train_man.samples) > 40_000


def test_held_digests_take_under_16_bytes_a_gram_entry(wide_corpus):
    train_man, _ = stratified_split(wide_corpus, 0.8, 0)
    fresh = [digest_sample(s, (GROUP_API_4GRAM, GROUP_OPCODE_4GRAM)) for s in train_man.samples]
    entries = sum(len(d.api_grams) + len(d.opcode_grams) for d in fresh)
    tracemalloc.start()
    try:
        shared: dict = {}
        held = [hold_digest(digest, shared) for digest in fresh]
        del shared  # a train pass drops it once the vocabulary is built
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entries > 40_000
    # a pointer and an int32 per entry, plus each held digest's own objects:
    # 14.3 bytes an entry measured on CPython 3.11 with numpy 2.4, where a
    # fresh digest takes about 127 (its Counter entry and key tuple).  The
    # gram tuples the held digests point at are the fresh digests' own here,
    # so they are not counted: a train pass keeps one per distinct gram.
    assert size <= 16 * entries
    for digest, kept in zip(fresh, held):
        assert list(kept.api_grams.items()) == list(digest.api_grams.items())
        assert list(kept.opcode_grams.items()) == list(digest.opcode_grams.items())


@pytest.mark.parametrize("name", sorted(DIGEST_ONCE_CONFIGS))
def test_train_matrix_equals_the_selected_columns_of_the_full_matrix(small_corpus, name):
    config = DIGEST_ONCE_CONFIGS[name]
    result, train_man, _ = train_pipeline(small_corpus, config)
    full = extract_matrix(
        train_man, build_schema(result.vocab, config.groups), result.vocab,
        prefer=config.prefer, binary_ngrams=config.binary_ngrams,
    )
    want = subset_columns(full, result.schema)
    assert result.selection  # every config budgets a group
    assert (result.train_matrix.schema, result.train_matrix.ids) == (want.schema, want.ids)
    assert result.train_matrix.labels == want.labels
    assert np.array_equal(result.train_matrix.values, want.values)
    assert compute_selection(full, config) == result.selection


def test_train_pass_peak_memory_is_bounded_by_the_train_matrix(tmp_path):
    corpus = gen_synthetic(12, 301, tmp_path / "corpus")
    config = RunConfig(folds=3, forest=ForestParams(n_trees=10))
    train_pipeline(corpus, config)  # first-call allocations (imports, caches) stay out
    tracemalloc.start()
    try:
        result, _, _ = train_pipeline(corpus, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # No dense copy of the train matrix is made: the pass peaks at 3.80 MB,
    # 0.79x the 4.83 MB a dense 86 x 7,024 train matrix would take, while
    # the held digests and the sparse matrix (17,737 nonzeros, 0.43 MB with
    # its cell keys) are alive, on CPython 3.11 with numpy 2.4.  A dense copy
    # alone is 1x, and the dense train pass peaked at 2.1x.
    dense_nbytes = result.train_matrix.values.nbytes
    assert result.train_matrix.cells.nbytes < 0.1 * dense_nbytes
    assert peak <= 0.9 * dense_nbytes


@pytest.mark.parametrize("name", sorted(DIGEST_ONCE_CONFIGS))
def test_train_dir_equals_the_two_pass_build(tmp_path, monkeypatch, small_corpus, name):
    config = DIGEST_ONCE_CONFIGS[name]
    with monkeypatch.context() as two_pass:
        # the vocabulary and the full train matrix each digest every train
        # sample on their own, as they did before the digests were shared
        two_pass.setattr(
            pipeline_module, "build_vocab",
            lambda manifest, caps, groups, prefer, *, digests: build_vocab(
                manifest, caps, groups, prefer),
        )
        two_pass.setattr(
            pipeline_module, "extract_matrix",
            lambda manifest, schema, vocab, *, digests=None, **options: extract_matrix(
                manifest, schema, vocab, **options),
        )
        want = saved_train_files(tmp_path, small_corpus, config)
    assert saved_train_files(tmp_path, small_corpus, config) == want
    assert saved_train_files(tmp_path, small_corpus, replace(config, threads=2)) == want


def test_saved_run_loads_and_predicts(trained_dir):
    bundle = load_model_dir(trained_dir)
    for name in (
        "config.json", "vocab.json", "selection.json", "model.json",
        "metrics.json", "train_matrix.csv", "test_matrix.csv",
        "train_manifest.json", "test_manifest.json",
    ):
        assert (trained_dir / name).is_file(), name
    from malfam.features.matrix import load_matrix_csv

    test_matrix = load_matrix_csv(trained_dir / "test_matrix.csv")
    assert test_matrix.schema.digest() == bundle.schema.digest()
    probs = predict_proba(bundle.forest, test_matrix.values)
    assert probs.shape == (len(test_matrix.ids), 9)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_saved_config_normalizes_thread_count(tmp_path, small_corpus, fast_config):
    from dataclasses import replace as dc_replace

    config = dc_replace(fast_config, threads=4)
    result, train_man, test_man = train_pipeline(small_corpus, config)
    out = tmp_path / "run"
    save_train_dir(out, result, train_man, test_man)
    assert load_config(out / "config.json").threads == 1


def test_load_model_dir_requires_artifacts(tmp_path):
    with pytest.raises(ModelError, match="lacks"):
        load_model_dir(tmp_path)
