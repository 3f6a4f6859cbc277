"""Corpus plumbing tests: label CSVs, scanning, splitting, manifest I/O."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from malfam.corpus import (
    CorpusManifest,
    Sample,
    load_labels,
    load_manifest,
    save_manifest,
    scan_corpus,
    stratified_split,
)
from malfam.errors import CorpusError, LabelError
from malfam.families import FAMILY_NAMES, family_name


def write_labels(tmp_path, body: str):
    path = tmp_path / "labels.csv"
    path.write_text(body, encoding="utf-8")
    return path


def test_load_labels_quoted_and_bare(tmp_path):
    path = write_labels(tmp_path, 'Id,Class\n"abc123",1\n"x","5"\nplain,9\n')
    labels = load_labels(path)
    assert labels == {"abc123": 1, "x": 5, "plain": 9}
    assert family_name(labels["abc123"]) == "Ramnit"
    assert family_name(labels["x"]) == "Simda"


def test_family_table_is_fixed():
    assert FAMILY_NAMES == {
        1: "Ramnit", 2: "Lollipop", 3: "Kelihos_ver3", 4: "Vundo", 5: "Simda",
        6: "Tracur", 7: "Kelihos_ver1", 8: "Obfuscator.ACY", 9: "Gatak",
    }


def test_load_labels_rejects_out_of_range(tmp_path):
    path = write_labels(tmp_path, 'Id,Class\n"x",10\n')
    with pytest.raises(LabelError, match="line 2"):
        load_labels(path)


def test_load_labels_rejects_bad_rows(tmp_path):
    with pytest.raises(LabelError, match="header"):
        load_labels(write_labels(tmp_path, "Nope,Class\nx,1\n"))
    with pytest.raises(LabelError, match="not an integer"):
        load_labels(write_labels(tmp_path, "Id,Class\nx,one\n"))
    with pytest.raises(LabelError, match="2 fields"):
        load_labels(write_labels(tmp_path, "Id,Class\nx,1,extra\n"))
    with pytest.raises(LabelError, match="duplicate"):
        load_labels(write_labels(tmp_path, "Id,Class\nx,1\nx,2\n"))


def test_load_manifest_unreadable_is_a_corpus_error(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(CorpusError, match=re.escape(f"cannot read manifest {missing}")):
        load_manifest(missing)
    undecodable = tmp_path / "manifest.json"
    undecodable.write_bytes(b'\xff{"root": ".", "samples": []}')
    with pytest.raises(CorpusError, match=re.escape(f"cannot read manifest {undecodable}")):
        load_manifest(undecodable)


def test_scan_corpus_pairs_by_stem(tmp_path):
    (tmp_path / "a.asm").write_text("")
    (tmp_path / "a.bytes").write_text("")
    manifest = scan_corpus(tmp_path, {"a": 1})
    assert len(manifest) == 1
    sample = manifest.samples[0]
    assert sample.id == "a"
    assert sample.asm_path is not None and sample.bytes_path is not None
    assert sample.pe_path is None
    assert sample.label == 1


def test_scan_corpus_partial_artifacts_and_no_labels(tmp_path):
    (tmp_path / "a.asm").write_text("")
    (tmp_path / "b.bytes").write_text("")
    manifest = scan_corpus(tmp_path)
    assert [s.id for s in manifest.samples] == ["a", "b"]
    a, b = manifest.samples
    assert a.bytes_path is None and a.label is None
    assert b.asm_path is None


def test_scan_corpus_skips_unrecognized_and_metadata(tmp_path):
    (tmp_path / "a.asm").write_text("")
    (tmp_path / "notes.txt").write_text("")
    (tmp_path / "labels.csv").write_text("Id,Class\n")
    manifest = scan_corpus(tmp_path)
    assert [s.id for s in manifest.samples] == ["a"]


def test_scan_corpus_empty_dir_and_idempotence(tmp_path):
    assert len(scan_corpus(tmp_path)) == 0
    (tmp_path / "z.exe").write_bytes(b"MZ")
    (tmp_path / "a.asm").write_text("")
    first = scan_corpus(tmp_path, {"a": 3})
    second = scan_corpus(tmp_path, {"a": 3})
    assert first == second
    assert [s.id for s in first.samples] == ["a", "z"]


def make_manifest(counts: dict[int, int]) -> CorpusManifest:
    samples = []
    for fam, n in counts.items():
        for k in range(n):
            samples.append(Sample(id=f"f{fam}s{k:03d}", asm_path=f"/x/f{fam}s{k}.asm", label=fam))
    samples.sort(key=lambda s: s.id)
    return CorpusManifest(root="/x", samples=tuple(samples))


def test_split_exact_arithmetic_single_family():
    train, test = stratified_split(make_manifest({1: 10}), 0.8, seed=0)
    assert (len(train), len(test)) == (8, 2)


def test_split_nine_balanced_families():
    manifest = make_manifest({fam: 100 for fam in range(1, 10)})
    train, test = stratified_split(manifest, 0.8, seed=5)
    assert train.family_counts() == {fam: 80 for fam in range(1, 10)}
    assert test.family_counts() == {fam: 20 for fam in range(1, 10)}


def test_split_deterministic_and_disjoint():
    manifest = make_manifest({1: 13, 2: 7, 5: 29, 9: 4})
    a_train, a_test = stratified_split(manifest, 0.8, seed=123)
    b_train, b_test = stratified_split(manifest, 0.8, seed=123)
    assert a_train == b_train and a_test == b_test
    assert a_train.ids() | a_test.ids() == manifest.ids()
    assert a_train.ids() & a_test.ids() == set()
    # a different seed moves samples around but keeps the quotas
    c_train, _ = stratified_split(manifest, 0.8, seed=124)
    assert c_train.family_counts() == a_train.family_counts()
    assert c_train.ids() != a_train.ids()


def test_split_within_one_sample_of_target():
    rng = np.random.default_rng(8)
    for _ in range(25):
        counts = {fam: int(rng.integers(2, 40)) for fam in range(1, 10)}
        fraction = float(rng.uniform(0.3, 0.9))
        manifest = make_manifest(counts)
        train, _ = stratified_split(manifest, fraction, seed=int(rng.integers(0, 1000)))
        for fam, n in counts.items():
            got = train.family_counts().get(fam, 0)
            assert abs(got - fraction * n) <= 1.0


def test_split_errors():
    with pytest.raises(CorpusError, match="Simda"):
        stratified_split(make_manifest({5: 1, 1: 4}), 0.8, seed=0)
    unlabeled = CorpusManifest(root="/x", samples=(Sample(id="u", asm_path="/x/u.asm"),))
    with pytest.raises(CorpusError, match="no label"):
        stratified_split(unlabeled, 0.8, seed=0)


def test_manifest_json_round_trip(tmp_path):
    (tmp_path / "a.asm").write_text("")
    (tmp_path / "a.bytes").write_text("")
    (tmp_path / "b.exe").write_bytes(b"MZ")
    manifest = scan_corpus(tmp_path, {"a": 2})
    out = tmp_path / "manifest.json"
    save_manifest(manifest, out)
    loaded = load_manifest(out)
    assert loaded == manifest


def test_load_manifest_rejects_garbage(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorpusError, match="JSON"):
        load_manifest(bad)
    bad.write_text('{"version": 1, "samples": [{"id": "x"}]}', encoding="utf-8")
    with pytest.raises(CorpusError):
        load_manifest(bad)


@pytest.mark.parametrize("change", [
    {"version": 99},
    {"samples": [{"id": "x", "asm": "x.asm", "label": "3"}]},
    {"samples": [{"id": "x", "asm": "x.asm", "label": True}]},
    {"samples": [{"id": "x", "asm": "x.asm", "label": 10}]},
    {"samples": [{"id": "x", "asm": "x.asm", "label": 2.5}]},
    {"samples": [{"id": "", "asm": "x.asm", "label": 1}]},
    {"samples": [{"id": 7, "asm": "x.asm", "label": 1}]},
], ids=[
    "version-99", "label-string", "label-bool", "label-not-a-family", "label-fraction",
    "id-empty", "id-number",
])
def test_load_manifest_refuses_bad_fields(tmp_path, change):
    doc = {"version": 1, "root": str(tmp_path), "samples": [], **change}
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(str(bad))):
        load_manifest(bad)


def test_load_manifest_keeps_integral_and_missing_labels(tmp_path):
    doc = {"version": 1, "root": str(tmp_path), "samples": [
        {"id": "a", "asm": "a.asm", "label": 3.0},
        {"id": "b", "asm": "b.asm", "label": None},
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert [s.label for s in load_manifest(path).samples] == [3, None]


def test_sample_requires_some_artifact():
    with pytest.raises(ValueError, match="no artifact"):
        Sample(id="nothing")
