"""Checks for the large-sample generator in large.py.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_large.py``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_malfam  # noqa: E402

import_malfam()

from large import build_large  # noqa: E402
from malfam.asm import load_listing  # noqa: E402

TARGET = 300_000


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_builds_byte_identical_files(tmp_path):
    first = build_large(tmp_path / "a", seed=5, per_family=1, target_bytes=TARGET)
    build_large(tmp_path / "b", seed=5, per_family=1, target_bytes=TARGET)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert len(first) == 9
    assert sorted(first.family_counts()) == list(range(1, 10))


def test_other_seed_builds_other_files(tmp_path):
    build_large(tmp_path / "a", seed=5, per_family=1, target_bytes=TARGET)
    build_large(tmp_path / "b", seed=6, per_family=1, target_bytes=TARGET)
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")


def test_large_listings_reach_target_and_parse_cleanly(tmp_path):
    manifest = build_large(tmp_path, seed=5, per_family=1, target_bytes=TARGET)
    for sample in manifest.samples:
        assert sample.asm_path.stat().st_size >= TARGET
        assert sample.bytes_path.stat().st_size > 0
        listing = load_listing(sample.asm_path)
        assert listing.parse_failures == 0
        assert len(listing.lines) > 0
