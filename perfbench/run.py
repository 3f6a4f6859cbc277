"""malfam benchmark: one command for the train, classify and classify-large workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,classify,classify-large} \
        --seed N --seconds S --trace {0,1}

The run generates its inputs from ``--seed`` with malfam's synthetic
generator, prepares what the workload needs, then measures in a separate
process (``worker.py``) at one thread, one client, in a closed loop.  It
checks the outputs, prints every metric by name with its unit, a ``report``
line with the environment, inputs, checks and behaviour digests, and last
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a traced
run reports time per module instead (see ``spans.py``).

The classify model is trained once per checkout from a fixed corpus and
cached under ``.bench_build/perfbench``; requests are always drawn from other
seeds, so the model never sees them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from common import BUILD, ROOT, derive_seed, import_malfam, source_digest

WORKLOADS = ("train", "classify", "classify-large")

TRAIN_PER_FAMILY = 12      # 108 samples
TRAIN_TREES = 50           # through the config; every other setting is default
CLASSIFY_PER_FAMILY = 40   # 360 requests of about 20 KB each
LARGE_PER_FAMILY = 2       # 18 requests
LARGE_TARGET_BYTES = 2_500_000
# The classify model: 200 trees, default parameters, trained on 20 regular
# and 2 large samples per family.  Trained on regular samples alone it labels
# multi-MB listings little better than chance, and the classify-large check
# would measure that distribution shift instead of the code.
MODEL_PER_FAMILY = 20
MODEL_LARGE_PER_FAMILY = 2
MODEL_CORPUS_SEED = 20_220_118
MODEL_FOLDS = 2            # CV only gates the cached model; two folds keep prep short
PREP_VERSION = "2"         # part of the model cache key: bump when the recipe changes
# the worker may run this much longer than --seconds: set-up, the untimed
# requests after the loop, and a traced run's fixed work
WORKER_MARGIN_S = 140


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    return ns


def ensure_model() -> Path:
    """The classify model for this source tree, trained on first use."""
    from large import build_large
    from malfam.config import RunConfig
    from malfam.corpus import CorpusManifest
    from malfam.pipeline import save_train_dir, train_pipeline
    from malfam.synth import gen_synthetic

    key = source_digest()[:16]
    cache = BUILD / f"model-{PREP_VERSION}-{key}"
    if (cache / "model.json").is_file():
        return cache
    tmp = BUILD / f"prep-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        regular = gen_synthetic(MODEL_PER_FAMILY, MODEL_CORPUS_SEED, tmp / "corpus")
        large = build_large(tmp / "large", MODEL_CORPUS_SEED, MODEL_LARGE_PER_FAMILY,
                            LARGE_TARGET_BYTES)
        corpus = CorpusManifest(
            root=regular.root,
            samples=tuple(sorted(regular.samples + large.samples, key=lambda s: s.id)),
        )
        result, train_man, test_man = train_pipeline(corpus, RunConfig(folds=MODEL_FOLDS))
        if result.holdout.accuracy < 0.95:
            print(f"perfbench: classify model holdout accuracy {result.holdout.accuracy}",
                  file=sys.stderr)
            sys.exit(2)
        save_train_dir(tmp / "model", result, train_man, test_man)
        os.replace(tmp / "model", cache)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return cache


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs under ``work``; returns the input record."""
    from large import build_large
    from malfam.synth import gen_synthetic

    inputs = work / "inputs"
    if workload == "train":
        per_family = TRAIN_PER_FAMILY
        manifest = gen_synthetic(per_family, derive_seed(seed, "train"), inputs)
    elif workload == "classify":
        per_family = CLASSIFY_PER_FAMILY
        manifest = gen_synthetic(per_family, derive_seed(seed, "classify"), inputs)
    else:
        per_family = LARGE_PER_FAMILY
        manifest = build_large(inputs, derive_seed(seed, "classify-large"), per_family,
                               LARGE_TARGET_BYTES)
    asm = [s.asm_path.stat().st_size for s in manifest.samples]
    dumps = [s.bytes_path.stat().st_size for s in manifest.samples]
    return {
        "seed": seed,
        "per_family": per_family,
        "samples": len(manifest),
        "mean_asm_bytes": statistics.fmean(asm),
        "mean_dump_bytes": statistics.fmean(dumps),
        "path": str(inputs),
    }


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; one value is its own."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_latency(times: list[float]) -> float:
    """95th percentile of operation times, robust to short machine stalls.

    With at least 20 operations in each of 5 consecutive windows, the median
    of the windows' 95th percentiles; a stall of a few seconds then moves one
    window, not the result.  Otherwise the 95th percentile of all times.
    """
    size = len(times) // 5
    if size < 20:
        return percentile(times, 95)
    return statistics.median(percentile(times[i * size:(i + 1) * size], 95) for i in range(5))


def end_to_end(doc: dict, samples_per_op: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics with units, from the untraced run's timings."""
    times = doc["op_times"]
    return {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "samples_per_s": (samples_per_op * len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1000.0 * percentile(times, 50), "ms"),
        "latency_p95_ms": (1000.0 * tail_latency(times), "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics with units, from the traced run's span summary."""
    from spans import LAYERS

    total, own, counts = trace["total_s"], trace["self_s"], trace["counts"]
    scaling = trace.get("scaling", {})

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str, key: str = "calls") -> float:
        return counts.get(name, {}).get(key, 0)

    load_s = t("asm.load_listing")
    overhead = trace["traced_s"] - trace["untraced_s"]
    out = {
        "asm.load_listing_s": (load_s, "s"),
        "asm.mb_per_s": (c("asm.load_listing", "bytes") / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "asm.lines": (c("asm.load_listing", "lines"), "count"),
        "asm.parse_failures": (c("asm.load_listing", "parse_failures"), "count"),
        "asm.streams_s": (t("asm.streams"), "s"),
        "asm.segments_s": (t("asm.segments"), "s"),
        "features.extract.assemble_self_s": (own.get("features.extract.assemble", 0.0), "s"),
        "features.extract.calls": (c("features.extract.assemble"), "count"),
        "features.extract.group_dims_s": (t("features.extract.group_dims"), "s"),
        "features.extract.feat_ngrams_s": (t("features.extract.feat_ngrams"), "s"),
        "features.extract.complexity_s": (t("features.extract.complexity"), "s"),
        "features.vocab.build_self_s": (own.get("features.vocab.build", 0.0), "s"),
        "features.matrix.extract_t1_s": (scaling.get("extract_t1_s", 0.0), "s"),
        "features.matrix.extract_tN_s": (scaling.get("extract_tN_s", 0.0), "s"),
        "features.matrix.rows": (c("features.matrix.extract", "rows"), "count"),
        "features.matrix.save_csv_s": (t("features.matrix.save_csv"), "s"),
        "features.select.select_s": (t("features.select.select"), "s"),
        "forest.fit_t1_s": (scaling.get("fit_t1_s", 0.0), "s"),
        "forest.fit_tN_s": (scaling.get("fit_tN_s", 0.0), "s"),
        "forest.trees": (c("forest.fit", "trees"), "count"),
        "forest.cv_s": (t("forest.cv"), "s"),
        "forest.importance_s": (t("forest.importance"), "s"),
        "forest.predict_s": (t("forest.predict"), "s"),
        "forest.predict_row_trees": (c("forest.predict", "row_trees"), "count"),
        "forest.save_model_s": (t("forest.save_model"), "s"),
        "forest.load_model_s": (t("forest.load_model"), "s"),
        "forest.model_bytes": (trace["model_bytes"], "bytes"),
        "pipeline.train_s": (t("pipeline.train"), "s"),
        "pipeline.save_train_dir_s": (t("pipeline.save_train_dir"), "s"),
        "pipeline.bytes_written": (trace.get("bytes_written", 0), "bytes"),
        "pipeline.load_model_dir_s": (t("pipeline.load_model_dir"), "s"),
        "corpus.scan_s": (t("corpus.scan"), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / trace["untraced_s"], "ratio"),
        "trace.spans": (trace["spans"], "count"),
    }
    for layer in LAYERS:
        share = trace["layer_self_s"].get(layer, 0.0) / trace["window_s"]
        out[f"share.{layer}"] = (share, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(argv)
    import_malfam()
    BUILD.mkdir(parents=True, exist_ok=True)
    model = ensure_model()
    work = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(ns.workload, ns.seed, work)
        n_trees = TRAIN_TREES
        if ns.workload != "train":
            n_trees = json.loads((model / "config.json").read_text())["forest"]["n_trees"]
        inputs["n_trees"] = n_trees
        spec = {
            "workload": ns.workload,
            "seconds": ns.seconds,
            "trace": ns.trace,
            "inputs": inputs.pop("path"),
            "model": str(model),
            "out": str(work / "out"),
            "n_trees": n_trees,
            "order_seed": ns.seed,
            "result": str(work / "result.json"),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(work / "spec.json")],
            stdout=sys.stderr, check=True, timeout=ns.seconds + WORKER_MARGIN_S,
        )
        doc = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples_per_op = doc["samples"] if ns.workload == "train" else 1
    metrics = per_layer(doc["trace"]) if ns.trace else end_to_end(doc, samples_per_op)
    failed_ratio = doc["failed"] / doc["attempted"]
    correct = doc["failed"] == 0 and all(check["ok"] for check in doc["checks"])

    for name, (value, unit) in metrics.items():
        print(f"{ns.workload} {name} = {value:.6g} {unit}")
    print(f"{ns.workload} failed_ratio = {failed_ratio:.6g} ratio")
    report = {
        "workload": ns.workload,
        "environment": environment(),
        "inputs": inputs,
        "threads": 1,
        "measured_operations": len(doc.get("op_times", [])),
        "loop_wall_s": doc.get("loop_wall_s"),
        "loop_cpu_s": doc.get("loop_cpu_s"),
        "failed_ratio": failed_ratio,
        "checks": doc["checks"],
        "errors": doc.get("errors", []),
        "digests": doc["digests"],
    }
    if ns.trace:
        report["trace"] = {k: doc["trace"][k] for k in
                           ("untraced_s", "traced_s", "window_s", "spans", "layer_self_s")}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
