"""Shared fixtures: small synthetic corpora, a pre-trained model directory,
and the seams a test of `fork_map`'s callers needs: its worker count, and a
call log that counts the calls its forked workers make as well.

Session scope keeps the expensive pieces (corpus generation, forest
training) to one run each; tests that mutate state get their own tmp dirs.
Every test must leave no child process behind.
"""
from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

import pytest

from malfam import forkmap
from malfam.config import RunConfig
from malfam.features.schema import (
    GROUP_COMPLEXITY,
    GROUP_SECTION_PERM,
    GROUP_SECTION_SIZE,
)
from malfam.forest import ForestParams
from malfam.pipeline import save_train_dir, train_pipeline
from malfam.synth import gen_synthetic


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory: pytest.TempPathFactory):
    """Nine families x 3 samples; enough to exercise every pipeline stage."""
    root = tmp_path_factory.mktemp("corpus")
    manifest = gen_synthetic(3, seed=11, out_root=root)
    return manifest


@pytest.fixture(scope="session")
def fast_config() -> RunConfig:
    # small forest, two folds, and the 40-dim combination keep fixtures quick
    return RunConfig(
        groups=(GROUP_COMPLEXITY, GROUP_SECTION_SIZE, GROUP_SECTION_PERM),
        selection={GROUP_SECTION_SIZE: 25},
        folds=2,
        forest=ForestParams(n_trees=25, seed=0),
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory: pytest.TempPathFactory, fast_config: RunConfig) -> Path:
    """A saved training run over a 5-per-family corpus."""
    corpus_root = tmp_path_factory.mktemp("train_corpus")
    manifest = gen_synthetic(5, seed=23, out_root=corpus_root)
    result, train_man, test_man = train_pipeline(manifest, fast_config)
    out = tmp_path_factory.mktemp("model") / "run"
    save_train_dir(out, result, train_man, test_man)
    return out


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """`workers(n)` makes `fork_map` see n CPUs; at 1 every map runs inline."""
    return lambda n: monkeypatch.setattr(forkmap, "cpu_count", lambda: n)


class CallLog:
    """Calls recorded in a file, one line each, so that a call made in a
    forked worker is counted with the parent's.  Lines of concurrent writers
    interleave whole: each is one append of a few bytes."""

    def __init__(self, path: Path) -> None:
        self.path = path
        path.touch()

    def record(self, *fields) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("\t".join(map(str, fields)) + "\n")

    def lines(self) -> list[tuple[str, ...]]:
        """Every recorded call's fields, as strings, in no fixed order."""
        text = self.path.read_text(encoding="utf-8")
        return [tuple(line.split("\t")) for line in text.splitlines()]

    def counts(self) -> Counter:
        """How often each call was recorded: by its one field, or by the tuple of them."""
        return Counter(fields[0] if len(fields) == 1 else fields for fields in self.lines())


@pytest.fixture
def call_log(tmp_path) -> CallLog:
    return CallLog(tmp_path / "calls.log")
