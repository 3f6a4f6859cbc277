"""Spans around the calls into malfam's modules, recorded from outside.

The tracer replaces public functions at the names their callers look them
up under (``malfam.features.vocab.load_listing`` is the binding
``build_vocab`` calls, ``malfam.features.extract.load_listing`` the one
``assemble`` calls) and restores them afterwards.  Nothing inside malfam is
edited and no private name is touched.  A binding that a later refactor
removes is skipped, so its span records zero calls.

Each span records its parent span; a span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _listing_counts(args, kwargs, result) -> dict[str, float]:
    path = args[0] if args else kwargs["path"]
    return {
        "bytes": os.path.getsize(path),
        "lines": len(getattr(result, "lines", ())),
        "parse_failures": getattr(result, "parse_failures", 0),
    }


def _rows_counts(args, kwargs, result) -> dict[str, float]:
    return {"rows": len(result)}


def _fit_counts(args, kwargs, result) -> dict[str, float]:
    return {"trees": result.params.n_trees}


def _predict_counts(args, kwargs, result) -> dict[str, float]:
    forest = args[0] if args else kwargs["forest"]
    values = args[1] if len(args) > 1 else kwargs["values"]
    shape = np.shape(values)
    rows = 1 if len(shape) == 1 else shape[0]
    return {"row_trees": rows * forest.params.n_trees}


# span name -> (bindings that callers look up, counter taken from the call)
SITES: dict[str, tuple[tuple[tuple[str, str], ...], object]] = {
    "asm.load_listing": (
        (("malfam.features.vocab", "load_listing"), ("malfam.features.extract", "load_listing")),
        _listing_counts,
    ),
    "asm.streams": (
        tuple((mod, fn) for mod in ("malfam.features.vocab", "malfam.features.extract")
              for fn in ("parse_imports", "opcode_stream", "api_stream")),
        None,
    ),
    "asm.segments": ((("malfam.features.extract", "parse_segments"),), None),
    "features.extract.assemble": (
        (("malfam.features.matrix", "assemble"), ("malfam.features.extract", "assemble")),
        None,
    ),
    "features.extract.group_dims": ((("malfam.features.extract", "group_dims"),), None),
    "features.extract.feat_ngrams": ((("malfam.features.extract", "feat_ngrams"),), None),
    "features.extract.complexity": ((("malfam.features.extract", "feat_complexity"),), None),
    "features.vocab.build": ((("malfam.pipeline", "build_vocab"),), None),
    "features.matrix.extract": ((("malfam.pipeline", "extract_matrix"),), _rows_counts),
    "features.matrix.save_csv": ((("malfam.pipeline", "save_matrix_csv"),), None),
    "features.select.select": ((("malfam.pipeline", "select_by_importance"),), None),
    "forest.fit": (
        (("malfam.pipeline", "fit_forest"), ("malfam.features.select", "fit_forest"),
         ("malfam.forest", "fit_forest")),
        _fit_counts,
    ),
    "forest.cv": ((("malfam.pipeline", "cross_validate"),), None),
    "forest.importance": ((("malfam.features.select", "feature_importance"),), None),
    "forest.predict": ((("malfam.forest", "predict_proba"),), _predict_counts),
    "forest.save_model": ((("malfam.pipeline", "save_model"),), None),
    "forest.load_model": ((("malfam.pipeline", "load_model"),), None),
    "pipeline.train": ((("malfam.pipeline", "train_pipeline"),), None),
    "pipeline.save_train_dir": ((("malfam.pipeline", "save_train_dir"),), None),
    "pipeline.load_model_dir": ((("malfam.pipeline", "load_model_dir"),), None),
    "corpus.scan": ((("malfam.corpus", "scan_corpus"),), None),
}

LAYERS = (
    "asm", "features.extract", "features.vocab", "features.matrix",
    "features.select", "forest", "pipeline", "corpus",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (bindings, counter) in SITES.items():
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    continue
                setattr(module, attr, self._wrap(name, original, counter))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, parent, start, end))
            counts = self.counts[name]
            counts["calls"] += 1
            if counter is not None:
                try:
                    extra = counter(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError, OSError):
                    extra = {}  # the result no longer has the shape counted
                for key, value in extra.items():
                    counts[key] += value
            return result

        return traced

    def summary(self, window: tuple[float, float]) -> dict:
        """Per-span-name totals, plus per-layer self time inside ``window``."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        lo, hi = window
        for span in self.spans:
            own = span.duration - child_time[span.id]
            total[span.name] += span.duration
            self_time[span.name] += own
            if lo <= span.start and span.end <= hi:
                layer_self[span.name.rpartition(".")[0]] += own
        return {
            "total_s": dict(total),
            "self_s": dict(self_time),
            "layer_self_s": dict(layer_self),
            "counts": {name: dict(c) for name, c in self.counts.items()},
        }
