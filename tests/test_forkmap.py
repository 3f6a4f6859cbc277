"""`fork_map` and the train pass on its workers: the same bytes as the inline
loop at any worker count, and every way out of a map (all results taken, a
failing item, a worker that dies, the iterator closed) reaps every worker.
The autouse `no_child_left` fixture checks the last after every test."""
from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from malfam import forkmap
from malfam import pipeline as pipeline_module
from malfam.config import RunConfig
from malfam.errors import ExtractionError, WorkerError
from malfam.features import extract as extract_module
from malfam.features import matrix as matrix_module
from malfam.features import vocab as vocab_module
from malfam.forest import ForestParams
from malfam.forkmap import fork_map
from malfam.pipeline import save_train_dir, train_pipeline
from malfam.synth import gen_synthetic

TRAIN_CONFIG = RunConfig(folds=3, forest=ForestParams(n_trees=10))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return gen_synthetic(4, 5, tmp_path_factory.mktemp("corpus"))


def saved_files(out, corpus, config=TRAIN_CONFIG) -> dict[str, bytes]:
    result, train_man, test_man = train_pipeline(corpus, config)
    save_train_dir(out, result, train_man, test_man)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def patch_digests(monkeypatch, replacement) -> None:
    for module in (pipeline_module, vocab_module, matrix_module, extract_module):
        monkeypatch.setattr(module, "digest_sample", replacement)


@pytest.mark.parametrize("n_workers", [2, 3])
def test_a_pooled_train_pass_saves_the_inline_bytes(tmp_path, monkeypatch, workers, corpus, n_workers):
    workers(1)
    want = saved_files(tmp_path / "inline", corpus)
    workers(n_workers)
    started = []
    real_start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return real_start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    assert forkmap.workers(len(corpus)) == n_workers
    assert saved_files(tmp_path / "pooled", corpus) == want
    assert started == []  # the parent reads every pipe on the calling thread


def test_results_come_in_item_order_whatever_order_they_finish_in(workers):
    workers(3)

    def slow_first(i: int) -> int:
        time.sleep(0.05 if i % 3 == 0 else 0)
        return i * i

    assert list(fork_map(slow_first, range(10))) == [i * i for i in range(10)]


def test_a_failing_item_raises_at_its_position(workers):
    workers(2)
    got = []

    def fail_at_five(i: int) -> int:
        if i == 5:
            raise ExtractionError(f"item {i} is unreadable")
        return i

    with pytest.raises(ExtractionError, match="^item 5 is unreadable$"):
        for value in fork_map(fail_at_five, range(9)):
            got.append(value)
    assert got == [0, 1, 2, 3, 4]


def test_a_missing_listing_raises_the_inline_message(tmp_path, workers):
    corpus = gen_synthetic(3, 8, tmp_path / "corpus")
    missing = next(s for s in corpus.samples if s.asm_path is not None)
    missing.asm_path.unlink()
    messages = []
    for n in (1, 2):
        workers(n)
        with pytest.raises(ExtractionError) as caught:
            train_pipeline(corpus, TRAIN_CONFIG)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert missing.id in messages[0]


@pytest.mark.parametrize("how, named", [
    ("exit", "exited with code 3"),
    ("signal", "was killed by SIGKILL"),
])
def test_a_worker_that_dies_mid_map_raises_a_named_error(monkeypatch, workers, corpus, how, named):
    workers(2)
    victim = corpus.samples[5].id
    real = extract_module.digest_sample

    def dying(sample, *args, **kwargs):
        if sample.id == victim:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(sample, *args, **kwargs)

    patch_digests(monkeypatch, dying)
    start = time.perf_counter()
    with pytest.raises(WorkerError, match=f"worker process \\d+ {named} before it sent item "):
        train_pipeline(corpus, TRAIN_CONFIG)
    assert time.perf_counter() - start < 60


def test_closing_the_map_after_its_first_item_kills_its_workers(workers):
    workers(2)

    def slow_after_first(i: int) -> int:
        if i:
            time.sleep(120)
        return i

    results = fork_map(slow_after_first, range(4))
    start = time.perf_counter()
    assert next(results) == 0
    results.close()  # the second worker is still asleep: it is killed, not waited for
    assert time.perf_counter() - start < 60


def test_an_exception_that_does_not_unpickle_arrives_by_name(workers):
    workers(2)

    class Unpicklable(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    def fail(i: int) -> int:
        if i == 1:
            raise Unpicklable("this", "that")
        return i

    with pytest.raises(RuntimeError, match="^Unpicklable: this and that$"):
        list(fork_map(fail, range(4)))


def test_the_map_runs_inline_beside_another_thread(workers):
    workers(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert forkmap.workers(4) == 1
        assert list(fork_map(lambda i: os.getpid(), range(4))) == [os.getpid()] * 4
    finally:
        release.set()
        other.join()
    assert forkmap.workers(4) == 2
    assert os.getpid() not in set(fork_map(lambda i: os.getpid(), range(4)))
