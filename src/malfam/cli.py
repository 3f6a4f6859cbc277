"""Command-line surface: gen, extract, select, train, eval, classify.

Exit codes: 0 success, 1 usage problems, 2 data-level failures.  Reports go
to stdout; logging and per-sample errors go to stderr so pipelines can
capture clean reports.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import pe
from .config import RunConfig, config_to_dict, load_config, with_overrides
from .corpus import CorpusManifest, Sample, load_labels, scan_corpus
from .errors import CorpusError, MalfamError, ModelError
from .families import family_name
from .features.matrix import extract_matrix, load_matrix_csv, save_matrix_csv
from .features.schema import GROUP_ORDER, FeatureVector, build_schema
from .features.select import load_selection, save_selection
from .features.vocab import build_vocab, load_vocab, save_vocab
from .features.extract import assemble
from .forest import evaluate, predict_proba
from .pipeline import (
    compute_selection,
    load_model_dir,
    save_train_dir,
    train_pipeline,
)
from .synth import gen_synthetic

log = logging.getLogger("malfam")

_LABEL_FILE_NAMES = ("labels.csv", "trainLabels.csv", "trainlabels.csv")


class UsageError(Exception):
    """Bad flag combinations detected after argparse (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this surface reserves 2
    # for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS,
        help="JSON run config (defaults apply when omitted)",
    )
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="override the config seed",
    )
    parser.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress informational logging",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="malfam", description=__doc__.splitlines()[0])
    _common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="generate corpus files")
    _common_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--synthetic", action="store_true",
                   help="emit the labeled synthetic nine-family corpus")
    p.add_argument("--per-family", type=int, default=10, metavar="N")
    p.add_argument("--from-pe", nargs="+", metavar="FILE",
                   help="dump real PE files into .bytes format")
    p.add_argument("--strip-headers", action="store_true",
                   help="omit the header region from --from-pe dumps")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="extract a feature matrix")
    _common_flags(p)
    p.add_argument("--corpus", required=True, metavar="DIR")
    p.add_argument("--labels", metavar="CSV")
    p.add_argument("--out", required=True, metavar="MATRIX")
    p.add_argument("--vocab", metavar="PATH", help="frozen vocabulary to reuse")
    p.add_argument("--build-vocab", metavar="PATH",
                   help="fit a vocabulary on this corpus (train data only) and write it here")
    p.add_argument("--selection", metavar="PATH", help="apply a stored dimension selection")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("select", help="rank dimensions by forest importance")
    _common_flags(p)
    p.add_argument("--matrix", required=True, metavar="CSV", help="labeled training matrix")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--budget", action="append", default=[], metavar="GROUP=K",
                   help="override a per-group budget (repeatable)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="split, fit, and persist a model directory")
    _common_flags(p)
    p.add_argument("--corpus", required=True, metavar="DIR")
    p.add_argument("--labels", metavar="CSV")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--grid", action="store_true",
                   help="sweep n_trees x features_per_split by cross-validation first")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on labeled data")
    _common_flags(p)
    p.add_argument("--model-dir", required=True, metavar="DIR")
    p.add_argument("--matrix", metavar="CSV")
    p.add_argument("--corpus", metavar="DIR")
    p.add_argument("--labels", metavar="CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="report family probabilities per sample")
    _common_flags(p)
    p.add_argument("--model-dir", required=True, metavar="DIR")
    p.add_argument("--json", action="store_true", help="emit raw distributions as JSON")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="sample files (.asm/.bytes/PE), or one corpus directory")
    p.set_defaults(func=cmd_classify)

    return parser


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    path = getattr(ns, "config", None)
    config = load_config(path) if path else RunConfig()
    config = with_overrides(config, seed=getattr(ns, "seed", None))
    log.info("resolved config: %s", json.dumps(config_to_dict(config), sort_keys=True))
    return config


def _find_labels(root: Path, explicit: str | None, required: bool) -> dict[str, int] | None:
    if explicit:
        return load_labels(explicit)
    for name in _LABEL_FILE_NAMES:
        candidate = root / name
        if candidate.is_file():
            return load_labels(candidate)
    if required:
        raise CorpusError(
            f"no label file in {root} (tried {', '.join(_LABEL_FILE_NAMES)}); pass --labels"
        )
    return None


def _scan(root_arg: str, labels: dict[str, int] | None) -> CorpusManifest:
    root = Path(root_arg)
    if not root.is_dir():
        raise CorpusError(f"corpus directory {root} does not exist")
    manifest = scan_corpus(root, labels)
    if len(manifest) == 0:
        raise CorpusError(f"no samples found under {root}")
    return manifest


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(ns: argparse.Namespace, config: RunConfig) -> int:
    out = Path(ns.out)
    if bool(ns.synthetic) == bool(ns.from_pe):
        raise UsageError("pass exactly one of --synthetic or --from-pe")
    if ns.synthetic:
        if ns.per_family < 1:
            raise UsageError("--per-family must be >= 1")
        manifest = gen_synthetic(ns.per_family, config.seed, out)
        print(f"wrote {len(manifest)} samples ({ns.per_family} per family) to {out}")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    written: set[str] = set()  # the dump names this call has written
    failed = 0
    for raw in ns.from_pe:
        src = Path(raw)
        name = src.stem + ".bytes"
        try:
            if name in written:
                raise MalfamError(f"{out / name} already holds an earlier input's dump")
            data = src.read_bytes()
            summary = pe.parse_pe(data)
            payload = data[summary.size_of_headers:] if ns.strip_headers else data
            (out / name).write_text(pe.dump_bytes(payload), encoding="ascii")
            written.add(name)
        except (OSError, MalfamError) as exc:
            failed += 1
            print(f"error: {src}: {exc}", file=sys.stderr)
    print(f"wrote {len(written)} dump(s) to {out}")
    return 2 if not written and failed else 0


def cmd_extract(ns: argparse.Namespace, config: RunConfig) -> int:
    manifest = _scan(ns.corpus, _find_labels(Path(ns.corpus), ns.labels, required=False))
    if ns.vocab and ns.build_vocab:
        raise UsageError("--vocab and --build-vocab are mutually exclusive")
    held = None  # the digests build_vocab took, projected without a second read
    if ns.vocab:
        vocab = load_vocab(ns.vocab)
    elif ns.build_vocab:
        vocab, held = build_vocab(manifest, config.caps, config.groups, config.prefer)
        save_vocab(vocab, ns.build_vocab)
    else:
        raise UsageError(
            "no vocabulary given: use --vocab PATH to reuse a frozen one, or "
            "--build-vocab PATH on training data only (building on test data "
            "leaks it into the features)"
        )
    selection = load_selection(ns.selection) if ns.selection else None
    try:
        schema = build_schema(vocab, config.groups, selection)
    except ValueError as exc:
        raise CorpusError(f"selection does not fit this vocabulary: {exc}") from exc
    matrix = extract_matrix(
        manifest, schema, vocab,
        prefer=config.prefer,
        binary_ngrams=config.binary_ngrams,
        digests=held,
    )
    save_matrix_csv(matrix, ns.out)
    sizes = schema.group_sizes()
    for group in GROUP_ORDER:
        if group in sizes:
            print(f"{group}: {sizes[group]}")
    print(f"total: {len(schema)}")
    return 0


def _parse_budgets(items: list[str]) -> dict[str, int]:
    budgets: dict[str, int] = {}
    for item in items:
        group, sep, num = item.partition("=")
        if not sep or group not in GROUP_ORDER:
            raise UsageError(f"--budget expects GROUP=K with a known group, not {item!r}")
        try:
            k = int(num)
        except ValueError:
            raise UsageError(f"--budget {item!r}: K must be an integer") from None
        if k < 1:
            raise UsageError(f"--budget {item!r}: K must be >= 1")
        budgets[group] = k
    return budgets


def cmd_select(ns: argparse.Namespace, config: RunConfig) -> int:
    matrix = load_matrix_csv(ns.matrix)
    budgets = dict(config.selection)
    budgets.update(_parse_budgets(ns.budget))
    budgets = {g: k for g, k in budgets.items() if g in set(matrix.schema.groups)}
    if not budgets:
        raise UsageError("no selection budgets apply to this matrix; pass --budget GROUP=K")
    selection = compute_selection(matrix, replace(config, selection=budgets))
    save_selection(selection, ns.out)
    sizes = matrix.schema.group_sizes()
    for group in GROUP_ORDER:
        if group in selection:
            print(f"{group}: kept {len(selection[group])} of {sizes[group]}")
    return 0


def cmd_train(ns: argparse.Namespace, config: RunConfig) -> int:
    manifest = _scan(ns.corpus, _find_labels(Path(ns.corpus), ns.labels, required=True))
    result, train_man, test_man = train_pipeline(manifest, config, grid=ns.grid)
    save_train_dir(ns.out, result, train_man, test_man)
    print(f"train samples: {len(train_man)}  holdout samples: {len(test_man)}")
    print(f"feature dimensions: {len(result.schema)}")
    if result.grid is not None:
        for params, accuracy in result.grid:
            print(
                f"grid n_trees={params.n_trees} features={params.features_per_split}: "
                f"cv {accuracy:.4f}"
            )
    folds = ", ".join(f"{a:.4f}" for a in result.cv.per_fold or ())
    print(f"cv mean accuracy: {result.cv.accuracy:.4f} (folds: {folds})")
    print(f"holdout accuracy: {result.holdout.accuracy:.4f}")
    print(f"model directory: {ns.out}")
    return 0


def _print_metrics(metrics) -> None:
    print(f"accuracy: {metrics.accuracy:.4f}")
    ids = metrics.classes
    print("confusion (rows true, cols predicted):")
    print("      " + " ".join(f"{c:>5d}" for c in ids))
    for i, row in enumerate(metrics.confusion):
        print(f"{ids[i]:>5d} " + " ".join(f"{v:>5d}" for v in row))


def cmd_eval(ns: argparse.Namespace, config: RunConfig) -> int:
    if bool(ns.matrix) == bool(ns.corpus):
        raise UsageError("pass exactly one of --matrix or --corpus")
    bundle = load_model_dir(ns.model_dir)
    if ns.matrix:
        matrix = load_matrix_csv(ns.matrix)
        digest, expected = matrix.schema.digest(), bundle.schema.digest()
        if digest != expected:
            raise ModelError(
                f"matrix {ns.matrix} was extracted under a different schema "
                f"(digest {digest} != {expected})"
            )
    else:
        manifest = _scan(ns.corpus, _find_labels(Path(ns.corpus), ns.labels, required=True))
        matrix = extract_matrix(
            manifest, bundle.schema, bundle.vocab,
            prefer=bundle.config.prefer,
            binary_ngrams=bundle.config.binary_ngrams,
        )
    values, labels = matrix.labeled()
    metrics = evaluate(bundle.forest, values, labels)
    _print_metrics(metrics)
    return 0


def format_report(probabilities, classes) -> list[str]:
    """Nine (or k) report lines, probability descending then class id ascending."""
    order = sorted(range(len(classes)), key=lambda i: (-probabilities[i], classes[i]))
    return [f"{probabilities[i]:.2f} -> {family_name(classes[i])}" for i in order]


def _paths_to_samples(paths: list[str]) -> list[Sample]:
    if len(paths) == 1 and Path(paths[0]).is_dir():
        return list(scan_corpus(paths[0]).samples)
    slots: dict[str, dict[str, Path]] = {}
    order: list[str] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_file():
            raise CorpusError(f"{path}: no such file")
        suffix = path.suffix.lower()
        slot = "asm" if suffix == ".asm" else "bytes" if suffix == ".bytes" else "pe"
        if path.stem not in slots:
            slots[path.stem] = {}
            order.append(path.stem)
        if slot in slots[path.stem]:
            raise CorpusError(f"{path.stem}: more than one {slot} artifact given")
        slots[path.stem][slot] = path
    return [
        Sample(
            id=stem,
            asm_path=slots[stem].get("asm"),
            bytes_path=slots[stem].get("bytes"),
            pe_path=slots[stem].get("pe"),
        )
        for stem in order
    ]


def cmd_classify(ns: argparse.Namespace, config: RunConfig) -> int:
    bundle = load_model_dir(ns.model_dir)
    samples = _paths_to_samples(ns.paths)
    results: list[tuple[str, list[float], FeatureVector]] = []
    failed = 0
    for sample in samples:
        try:
            vector = assemble(
                sample, bundle.schema, bundle.vocab,
                prefer=bundle.config.prefer,
                binary_ngrams=bundle.config.binary_ngrams,
            )
            values = vector.values
            probs = predict_proba(bundle.forest, values)
            results.append((sample.id, [float(p) for p in probs], vector))
            if not values.any():
                print(f"warning: {sample.id}: all-zero feature vector", file=sys.stderr)
        except MalfamError as exc:
            failed += 1
            print(f"error: {sample.id}: {exc}", file=sys.stderr)
    classes = bundle.forest.classes
    if ns.json:
        doc = []
        for sample_id, probs, vector in results:
            best = max(range(len(classes)), key=lambda i: (probs[i], -classes[i]))
            doc.append({
                "id": sample_id,
                "prediction": classes[best],
                "family": family_name(classes[best]),
                "probabilities": {str(c): probs[i] for i, c in enumerate(classes)},
                "parse_failures": vector.parse_failures,
                "imports_degraded": vector.imports_degraded,
            })
        print(json.dumps(doc, indent=1))
    else:
        for block, (sample_id, probs, _) in enumerate(results):
            if len(samples) > 1:
                if block:
                    print()
                print(f"# {sample_id}")
            for line in format_report(probs, classes):
                print(line)
    return 2 if results == [] and failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if getattr(ns, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _resolve_config(ns)
        return ns.func(ns, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MalfamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
