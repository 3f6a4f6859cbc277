"""The measured phase of one benchmark run, in a process of its own.

``run.py`` generates the inputs and prepares the model, then starts this
script, so the peak resident memory it reports belongs to the measured phase
alone: it is this address space's high-water mark, ``VmHWM``, which starts
afresh at exec (``ru_maxrss`` does not: Linux carries it across exec).

Usage: ``python3 perfbench/worker.py SPEC.json``; the result is written as
JSON to the path named in the spec.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path
from time import perf_counter, process_time

from common import import_malfam

import_malfam()

import numpy as np  # noqa: E402

import spans  # noqa: E402
from malfam import corpus, forest, pipeline  # noqa: E402
from malfam.config import RunConfig  # noqa: E402
from malfam.features import extract, matrix  # noqa: E402
from malfam.forest import ForestParams  # noqa: E402

MIN_ACCURACY = 0.95
CV_AGREEMENT = 0.05
ROW_SUM_TOLERANCE = 1e-9
# set-up is repeated for at least this long and this many times before the
# measured phase and again after it, so its median spans the run's changes in
# machine speed and is not made of a handful of timer readings
SETUP_SECONDS = 0.5
SETUP_MIN_REPEATS = 5


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def labels_sha256(pairs) -> str:
    """Digest of (sample id, predicted class) pairs in id order."""
    text = "\n".join(f"{sid},{cls}" for sid, cls in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec, from ``VmHWM``."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the value is in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def repeat_setup(set_up) -> object:
    """Run ``set_up`` for SETUP_SECONDS and SETUP_MIN_REPEATS; returns its last result."""
    start = perf_counter()
    count = 0
    while count < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_SECONDS:
        result = set_up()
        count += 1
    return result


def timed_loop(seconds: float, operation, doc: dict) -> None:
    """Call ``operation(i)``, which returns the time of its measured part,
    while the next call should still end within ``seconds`` of the start.

    At least one call runs.  Stores the measured times in ``doc``, with the
    loop's wall and CPU time: their difference is time the process was ready
    to run but had no CPU, a measure of how busy the machine was.
    """
    times: list[float] = []
    start, cpu_start = perf_counter(), process_time()
    while True:
        times.append(operation(len(times)))
        elapsed = perf_counter() - start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            break
    doc.update(op_times=times, loop_wall_s=elapsed, loop_cpu_s=process_time() - cpu_start)


def traced(operation, count: int, setup) -> dict:
    """Repeat operations ``0..count-1`` under the tracer.

    ``setup`` runs first under the tracer, outside the window that layer
    shares are computed over.
    """
    tracer = spans.Tracer()
    tracer.install()
    try:
        setup()
        times = []
        t0 = perf_counter()
        for index in range(count):
            times.append(operation(index))
        t1 = perf_counter()
    finally:
        tracer.uninstall()
    doc = tracer.summary((t0, t1))
    doc.update(traced_s=sum(times), window_s=t1 - t0, spans=len(tracer.spans))
    return doc


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(spec: dict) -> dict:
    root = Path(spec["inputs"])
    out = Path(spec["out"])
    labels = corpus.load_labels(root / "labels.csv")
    config = RunConfig(forest=ForestParams(n_trees=spec["n_trees"]))

    def set_up():
        t0 = perf_counter()
        found = corpus.scan_corpus(root, labels)
        corpus.stratified_split(found, config.train_fraction, config.seed)
        setup.append(perf_counter() - t0)
        return found

    setup: list[float] = []
    manifest = repeat_setup(set_up)

    checks: list[dict] = []
    digests: list[dict] = []
    errors: list[str] = []
    last: dict = {}

    def one_pass(_index: int) -> float:
        last.clear()  # the previous pass's result must not raise this pass's peak memory
        t0 = perf_counter()
        try:
            result, train_man, test_man = pipeline.train_pipeline(manifest, config)
            pipeline.save_train_dir(out, result, train_man, test_man)
        except Exception as exc:  # a failed pass is counted, not fatal
            elapsed = perf_counter() - t0
            errors.append(repr(exc))
            return elapsed
        elapsed = perf_counter() - t0
        holdout, cv = result.holdout.accuracy, result.cv.accuracy
        test_values, _ = result.test_matrix.labeled()
        predicted = forest.predict(result.forest, test_values)
        digest = {
            "model_json": file_sha256(out / pipeline.MODEL_FILE),
            "train_matrix": file_sha256(out / pipeline.TRAIN_MATRIX_FILE),
            "test_matrix": file_sha256(out / pipeline.TEST_MATRIX_FILE),
            "predicted_labels": labels_sha256(zip(result.test_matrix.ids, predicted.tolist())),
        }
        ok = holdout >= MIN_ACCURACY and abs(cv - holdout) <= CV_AGREEMENT
        ok = ok and (not digests or digest == digests[0])  # passes are deterministic
        checks.append({"holdout_accuracy": holdout, "cv_accuracy": cv, "ok": ok})
        digests.append(digest)
        last.update(result=result, train_man=train_man)
        return elapsed

    doc: dict = {"setup_s": setup, "samples": len(manifest)}
    if not spec["trace"]:
        timed_loop(spec["seconds"], one_pass, doc)
    else:
        untraced = one_pass(0)
        doc["trace"] = traced(one_pass, 1, lambda: corpus.scan_corpus(root, labels))
        doc["trace"]["untraced_s"] = untraced
        doc["trace"].update(model_bytes=0, bytes_written=0)
        if last:  # the traced pass succeeded
            scaling = thread_scaling(last["result"], last["train_man"], config)
            checks[-1]["ok"] = checks[-1]["ok"] and scaling.pop("same_results")
            doc["trace"].update(
                scaling=scaling,
                model_bytes=(out / pipeline.MODEL_FILE).stat().st_size,
                bytes_written=sum(p.stat().st_size for p in out.iterdir()),
            )
    repeat_setup(set_up)
    doc.update(
        attempted=len(checks) + len(errors),
        failed=sum(not c["ok"] for c in checks) + len(errors),
        checks=checks[:10],
        errors=errors[:10],
        digests=digests[0] if digests else {},
    )
    return doc


def thread_scaling(result, train_man, config: RunConfig) -> dict:
    """Time extract_matrix and fit_forest at one thread and at os.cpu_count().

    Also reports whether both thread counts gave the results of the pass.
    """
    n = os.cpu_count() or 1
    out: dict = {"threads": n}
    matrices = []
    for label, threads in (("t1", 1), ("tN", n)):
        t0 = perf_counter()
        extracted = matrix.extract_matrix(
            train_man, result.schema, result.vocab,
            prefer=config.prefer, binary_ngrams=config.binary_ngrams, threads=threads,
        )
        out[f"extract_{label}_s"] = perf_counter() - t0
        matrices.append(extracted.values)
    values, labels = result.train_matrix.labeled()
    test_values, _ = result.test_matrix.labeled()
    probs = []
    for label, threads in (("t1", 1), ("tN", n)):
        t0 = perf_counter()
        fitted = forest.fit_forest(values, labels, result.params, threads=threads)
        out[f"fit_{label}_s"] = perf_counter() - t0
        probs.append(forest.predict_proba(fitted, test_values))
    out["same_results"] = bool(
        np.array_equal(matrices[0], matrices[1])
        and np.array_equal(matrices[0], result.train_matrix.values)
        and np.array_equal(probs[0], probs[1])
        and np.array_equal(probs[0], forest.predict_proba(result.forest, test_values))
    )
    return out


# ---------------------------------------------------------------------------
# classify and classify-large
# ---------------------------------------------------------------------------

def run_classify(spec: dict) -> dict:
    root = Path(spec["inputs"])
    model_dir = Path(spec["model"])
    samples = corpus.scan_corpus(root, corpus.load_labels(root / "labels.csv")).samples
    order = random.Random(spec["order_seed"]).sample(range(len(samples)), len(samples))

    def set_up():
        t0 = perf_counter()
        loaded = pipeline.load_model_dir(model_dir)
        setup.append(perf_counter() - t0)
        return loaded

    setup: list[float] = []
    bundle = repeat_setup(set_up)
    classes = bundle.forest.classes

    first_probs: dict[str, np.ndarray] = {}
    predicted: dict[str, int] = {}
    tally = {"attempted": 0, "failed": 0, "matched": 0}
    errors: list[str] = []

    def request(index: int) -> float:
        """One request as ``malfam classify`` makes it; returns its latency."""
        sample = samples[order[index % len(samples)]]
        tally["attempted"] += 1
        t0 = perf_counter()
        try:
            vector = extract.assemble(
                sample, bundle.schema, bundle.vocab,
                prefer=bundle.config.prefer, binary_ngrams=bundle.config.binary_ngrams,
            )
            probs = forest.predict_proba(bundle.forest, vector.values)
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = perf_counter() - t0
            tally["failed"] += 1
            errors.append(f"{sample.id}: {exc!r}")
            return elapsed
        elapsed = perf_counter() - t0
        row = np.asarray(probs, dtype=np.float64)
        ok = (
            row.shape == (len(classes),)
            and bool(np.isfinite(row).all())
            and bool((row >= 0).all())
            and abs(float(row.sum()) - 1.0) <= ROW_SUM_TOLERANCE
        )
        if sample.id in first_probs:
            ok = ok and np.array_equal(first_probs[sample.id], row)  # deterministic
        elif ok:
            first_probs[sample.id] = row
            predicted[sample.id] = int(classes[int(np.argmax(row))])
        if not ok:
            tally["failed"] += 1
            errors.append(f"{sample.id}: bad probability row {row.tolist()}")
        elif predicted[sample.id] == sample.label:
            tally["matched"] += 1
        return elapsed

    doc: dict = {"setup_s": setup, "samples": len(samples)}
    if not spec["trace"]:
        timed_loop(spec["seconds"], request, doc)
    else:
        # a fixed amount of work, so per-layer totals compare across commits
        untraced = [request(index) for index in range(len(samples))]
        doc["trace"] = traced(request, len(samples), lambda: pipeline.load_model_dir(model_dir))
        doc["trace"]["untraced_s"] = sum(untraced)
        doc["trace"]["model_bytes"] = (model_dir / pipeline.MODEL_FILE).stat().st_size
    repeat_setup(set_up)
    # classify what the timed loop did not reach, so the digest covers every
    # sample; these requests are checked but not timed
    for index in range(len(samples)):
        if samples[order[index]].id not in first_probs:
            request(index)
    accuracy = tally["matched"] / max(1, tally["attempted"] - tally["failed"])
    doc.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        checks=[{"label_accuracy": accuracy, "ok": accuracy >= MIN_ACCURACY}],
        errors=errors[:10],
        digests={
            "model_json": file_sha256(model_dir / pipeline.MODEL_FILE),
            "train_matrix": file_sha256(model_dir / pipeline.TRAIN_MATRIX_FILE),
            "test_matrix": file_sha256(model_dir / pipeline.TEST_MATRIX_FILE),
            "predicted_labels": labels_sha256(predicted.items()),
        },
    )
    return doc


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    run = run_train if spec["workload"] == "train" else run_classify
    doc = run(spec)
    doc["peak_rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
