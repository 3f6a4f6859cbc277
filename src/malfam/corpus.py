"""Corpus handling: label CSVs, directory scanning, manifests, splits."""
from __future__ import annotations

import csv
import io
import logging
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusError, LabelError
from .families import FAMILY_NAMES, family_name
from .util import json_int, mix_seed, read_json, write_json

log = logging.getLogger(__name__)

ASM_EXTENSIONS = frozenset({".asm"})
BYTES_EXTENSIONS = frozenset({".bytes"})
PE_EXTENSIONS = frozenset({".exe", ".dll", ".bin"})

# corpus bookkeeping files a scan silently accepts next to the samples
_METADATA_NAMES = frozenset({"labels.csv", "trainlabels.csv", "manifest.json"})

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Sample:
    """One corpus sample; at least one artifact path must be present."""

    id: str
    asm_path: Path | None = None
    bytes_path: Path | None = None
    pe_path: Path | None = None
    label: int | None = None

    def __post_init__(self) -> None:
        if self.asm_path is None and self.bytes_path is None and self.pe_path is None:
            raise ValueError(f"sample {self.id}: no artifact paths")


@dataclass(frozen=True)
class CorpusManifest:
    root: Path
    samples: tuple[Sample, ...]  # sorted by id

    def __len__(self) -> int:
        return len(self.samples)

    def family_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for sample in self.samples:
            if sample.label is not None:
                counts[sample.label] = counts.get(sample.label, 0) + 1
        return counts

    def ids(self) -> set[str]:
        return {sample.id for sample in self.samples}


def load_labels(path: str | Path) -> dict[str, int]:
    """Read a label CSV with an Id,Class header; values may be quoted.

    Classes must be in 1..9; malformed rows and duplicate ids fail with the
    offending line number.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise LabelError(f"cannot read labels {path}: {exc}") from exc
    labels: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [col.strip() for col in header] != ["Id", "Class"]:
        raise LabelError(f"{path}: line 1: expected header Id,Class")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise LabelError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
        sample_id = row[0].strip()
        class_text = row[1].strip()
        if not sample_id:
            raise LabelError(f"{path}: line {lineno}: empty sample id")
        try:
            class_id = int(class_text)
        except ValueError:
            raise LabelError(f"{path}: line {lineno}: class {class_text!r} is not an integer") from None
        if class_id not in FAMILY_NAMES:
            raise LabelError(f"{path}: line {lineno}: class {class_id} outside 1..9")
        if sample_id in labels:
            raise LabelError(f"{path}: line {lineno}: duplicate id {sample_id!r}")
        labels[sample_id] = class_id
    return labels


def scan_corpus(root: str | Path, labels: dict[str, int] | None = None) -> CorpusManifest:
    """Pair corpus files by stem into samples, sorted by id.

    Recognized extensions: .asm, .bytes, and .exe/.dll/.bin for raw PE files.
    Anything else is skipped and reported once as a warning count.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"{root}: not a directory")
    found: dict[str, dict[str, Path]] = {}
    skipped = 0
    for entry in sorted(root.iterdir()):
        if not entry.is_file():
            continue
        if entry.name.lower() in _METADATA_NAMES:
            continue
        ext = entry.suffix.lower()
        if ext in ASM_EXTENSIONS:
            slot = "asm"
        elif ext in BYTES_EXTENSIONS:
            slot = "bytes"
        elif ext in PE_EXTENSIONS:
            slot = "pe"
        else:
            skipped += 1
            continue
        slots = found.setdefault(entry.stem, {})
        if slot in slots:
            skipped += 1  # e.g. both x.exe and x.dll; first (sorted) wins
            continue
        slots[slot] = entry
    if skipped:
        log.warning("%s: skipped %d files with unrecognized extensions", root, skipped)
    samples = tuple(
        Sample(
            id=stem,
            asm_path=slots.get("asm"),
            bytes_path=slots.get("bytes"),
            pe_path=slots.get("pe"),
            label=labels.get(stem) if labels else None,
        )
        for stem, slots in sorted(found.items())
    )
    return CorpusManifest(root=root, samples=samples)


def stratified_split(
    manifest: CorpusManifest, train_fraction: float, seed: int
) -> tuple[CorpusManifest, CorpusManifest]:
    """Split into train/test keeping per-family proportions.

    Per-family train counts start at floor(fraction * count); the leftover
    against round(fraction * total) goes to the families with the largest
    fractional parts (ties to the lower family id), so every family lands
    within one sample of its exact target.  Deterministic per seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_family: dict[int, list[Sample]] = {}
    for sample in manifest.samples:
        if sample.label is None:
            raise CorpusError(f"sample {sample.id} has no label; cannot stratify")
        by_family.setdefault(sample.label, []).append(sample)
    if not by_family:
        raise CorpusError("cannot split an empty corpus")
    for fam, members in sorted(by_family.items()):
        if len(members) < 2:
            raise CorpusError(f"family {family_name(fam)} has a single sample; cannot split")

    total_target = math.floor(train_fraction * len(manifest.samples) + 0.5)
    quota = {fam: math.floor(train_fraction * len(members)) for fam, members in by_family.items()}
    remainder = total_target - sum(quota.values())
    by_fractional = sorted(
        by_family,
        key=lambda fam: (-(train_fraction * len(by_family[fam]) - quota[fam]), fam),
    )
    for fam in by_fractional[:remainder]:
        quota[fam] += 1

    train: list[Sample] = []
    test: list[Sample] = []
    for fam, members in sorted(by_family.items()):
        shuffled = list(members)
        random.Random(mix_seed(seed, "split", fam)).shuffle(shuffled)
        take = quota[fam]
        train.extend(shuffled[:take])
        test.extend(shuffled[take:])
    train.sort(key=lambda s: s.id)
    test.sort(key=lambda s: s.id)
    return (
        CorpusManifest(root=manifest.root, samples=tuple(train)),
        CorpusManifest(root=manifest.root, samples=tuple(test)),
    )


def _path_str(path: Path | None, root: Path) -> str | None:
    if path is None:
        return None
    try:
        return os.path.relpath(path, root)
    except ValueError:  # different drive on windows
        return str(path)


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write the manifest as JSON; sample paths are stored relative to root."""
    doc = {
        "version": MANIFEST_VERSION,
        "root": str(manifest.root),
        "samples": [
            {
                "id": sample.id,
                "asm": _path_str(sample.asm_path, manifest.root),
                "bytes": _path_str(sample.bytes_path, manifest.root),
                "pe": _path_str(sample.pe_path, manifest.root),
                "label": sample.label,
            }
            for sample in manifest.samples
        ],
    }
    write_json(path, doc, indent=2)


def _manifest_label(value) -> int | None:
    if value is None:
        return None
    label = json_int(value, "label")
    if label not in FAMILY_NAMES:
        raise ValueError(f"label {label} is not a family id 1..{len(FAMILY_NAMES)}")
    return label


def load_manifest(path: str | Path) -> CorpusManifest:
    doc = read_json(path, "manifest", CorpusError, MANIFEST_VERSION)
    try:
        root = Path(doc["root"])
        samples = []
        for entry in doc["samples"]:
            sample_id = entry["id"]
            if not isinstance(sample_id, str) or not sample_id:
                raise TypeError(f"sample id must be a non-empty string, not {sample_id!r}")
            samples.append(Sample(
                id=sample_id,
                asm_path=root / entry["asm"] if entry.get("asm") else None,
                bytes_path=root / entry["bytes"] if entry.get("bytes") else None,
                pe_path=root / entry["pe"] if entry.get("pe") else None,
                label=_manifest_label(entry.get("label")),
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed manifest {path}: {exc}") from None
    samples.sort(key=lambda s: s.id)
    return CorpusManifest(root=root, samples=tuple(samples))
