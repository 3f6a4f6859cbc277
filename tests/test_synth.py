"""Synthetic corpus generator tests: determinism, parseability, ground truth."""
from __future__ import annotations

import filecmp

from malfam.asm import load_listing
from malfam.corpus import load_labels
from malfam.synth import gen_synthetic
from oracles import reference_scan


def test_shape_and_labels(tmp_path):
    manifest = gen_synthetic(2, seed=7, out_root=tmp_path)
    assert len(manifest) == 18
    assert manifest.family_counts() == {fam: 2 for fam in range(1, 10)}
    for sample in manifest.samples:
        assert sample.asm_path is not None and sample.asm_path.is_file()
        assert sample.bytes_path is not None and sample.bytes_path.is_file()
    labels = load_labels(tmp_path / "labels.csv")
    assert labels == {s.id: s.label for s in manifest.samples}


def test_generated_listings_parse_clean(small_corpus):
    for sample in small_corpus.samples:
        scan = reference_scan(load_listing(sample.asm_path))
        assert scan.parse_failures == 0
        assert scan.segments  # never degenerate


def test_same_seed_byte_identical(tmp_path):
    root_a = tmp_path / "a"
    root_b = tmp_path / "b"
    man_a = gen_synthetic(2, seed=41, out_root=root_a)
    man_b = gen_synthetic(2, seed=41, out_root=root_b)
    assert man_a.ids() == man_b.ids()
    names = sorted(p.name for p in root_a.iterdir())
    assert names == sorted(p.name for p in root_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(root_a, root_b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_different_seeds_differ(tmp_path):
    gen_synthetic(1, seed=1, out_root=tmp_path / "a")
    gen_synthetic(1, seed=2, out_root=tmp_path / "b")
    a_files = sorted((tmp_path / "a").glob("*.asm"))
    b_files = sorted((tmp_path / "b").glob("*.asm"))
    assert any(x.read_bytes() != y.read_bytes() for x, y in zip(a_files, b_files))


def test_recorded_instruction_counts_match_parser(tmp_path):
    stats: dict[str, int] = {}
    manifest = gen_synthetic(2, seed=13, out_root=tmp_path, stats=stats)
    assert set(stats) == manifest.ids()
    for sample in manifest.samples:
        scan = reference_scan(load_listing(sample.asm_path))
        assert len(scan.opcodes) == stats[sample.id]
