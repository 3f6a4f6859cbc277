"""Feature extractor tests: each of the seven groups against small oracles,
vocabulary ranking rules, schema arithmetic, and importance-based selection."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import zlib
from collections import Counter
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest

import malfam
from malfam.asm import ListingScan, load_listing
from malfam.corpus import CorpusManifest, Sample, scan_corpus
from malfam.errors import CorpusError, ExtractionError, TrainingError
from malfam.features import (
    FeatureMatrix,
    FeatureSchema,
    VocabCaps,
    Vocabulary,
    assemble,
    build_schema,
    build_vocab,
    digest_sample,
    extract_4grams,
    extract_matrix,
    feat_file_size,
    feat_import_lib,
    feat_ngrams,
    feat_section_perm,
    feat_section_size,
    load_matrix_csv,
    load_vocab,
    save_matrix_csv,
    save_vocab,
    select_by_importance,
)
from malfam.features import extract
from malfam.features import matrix as matrix_module
from malfam.features import vocab as vocab_module
from malfam.features.vocab import hold_digest
from malfam.features.extract import (
    SampleDigest,
    SectionStats,
    load_pe_summary,
    pick_source,
)
from malfam.features.schema import (
    GROUP_API_4GRAM,
    GROUP_COMPLEXITY,
    GROUP_FILE_SIZE,
    GROUP_IMPORT_LIB,
    GROUP_OPCODE_4GRAM,
    GROUP_ORDER,
    GROUP_SECTION_PERM,
    GROUP_SECTION_SIZE,
    group_dims,
    group_of_dim,
    section_dims,
)
from malfam.forest import ForestParams
from malfam.pe import PeSummary
from malfam.sparse import SparseMatrix
from oracles import assert_same_cells, feat_complexity, reference_scan


def sample_with(tmp_path, sample_id="s", asm: bytes | None = None, dump: bytes | None = None) -> Sample:
    asm_path = bytes_path = None
    if asm is not None:
        asm_path = tmp_path / f"{sample_id}.asm"
        asm_path.write_bytes(asm)
    if dump is not None:
        bytes_path = tmp_path / f"{sample_id}.bytes"
        bytes_path.write_bytes(dump)
    return Sample(id=sample_id, asm_path=asm_path, bytes_path=bytes_path)


# ---------------------------------------------------------------------------
# file size
# ---------------------------------------------------------------------------

def test_file_size_triple(tmp_path):
    sample = sample_with(tmp_path, asm=b"a" * 1000, dump=b"b" * 500)
    assert feat_file_size(sample).tolist() == [1000.0, 500.0, 0.5]


def test_file_size_missing_asm(tmp_path):
    sample = sample_with(tmp_path, dump=b"b" * 500)
    assert feat_file_size(sample).tolist() == [0.0, 500.0, 0.0]


def test_file_size_equal_gives_unit_ratio(tmp_path):
    sample = sample_with(tmp_path, asm=b"x" * 64, dump=b"y" * 64)
    assert feat_file_size(sample)[2] == 1.0


def test_file_size_unreadable_names_sample(tmp_path):
    sample = Sample(id="ghost", asm_path=tmp_path / "ghost.asm")
    with pytest.raises(ExtractionError, match="ghost"):
        feat_file_size(sample)


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def test_complexity_repetitive_vs_random():
    line = b".text:00401000 B8 01 00 00 00 mov eax, 1\n"
    repetitive = line * (1_048_576 // len(line) + 1)
    rng = np.random.default_rng(0)
    random_hex = rng.bytes(524_289).hex().upper().encode()[:1_048_576]

    rep = feat_complexity(repetitive, None)
    rnd = feat_complexity(random_hex, None)
    assert rep[2] > 20
    assert rnd[2] < 4
    assert rnd[2] < rep[2]


def test_complexity_matches_compressor_oracle():
    payload = b"some listing body\n" * 37
    expect_comp = len(zlib.compress(payload, 6))
    got = feat_complexity(payload, None)
    assert got[0] == len(payload)
    assert got[1] == expect_comp
    assert got[2] == len(payload) / expect_comp
    assert got[3:].tolist() == [0.0, 0.0, 0.0]  # no dump file


def test_complexity_empty_file():
    empty_stream = len(zlib.compress(b"", 6))
    assert feat_complexity(b"", None)[:3].tolist() == [0.0, float(empty_stream), 0.0]


@pytest.fixture(scope="module")
def large_sample(small_corpus, tmp_path_factory) -> Sample:
    """A listing of about 2.5 MB and its dump, joined from the small corpus's
    samples in a seeded order the way the benchmark's large samples are."""
    rng = random.Random(5)
    asm_parts, dump_parts, size = [], [], 0
    while size < 2_500_000:
        piece = rng.choice(small_corpus.samples)
        asm_parts.append(piece.asm_path.read_bytes())
        dump_parts.append(piece.bytes_path.read_bytes())
        size += len(asm_parts[-1])
    root = tmp_path_factory.mktemp("large")
    sample = Sample(id="large", asm_path=root / "large.asm", bytes_path=root / "large.bytes", label=1)
    sample.asm_path.write_bytes(b"".join(asm_parts))
    sample.bytes_path.write_bytes(b"".join(dump_parts))
    return sample


CHUNK = extract.COMPRESS_CHUNK


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, None])
def test_stream_complexity_equals_the_one_shot_oracle(tmp_path, large_sample, size):
    data = large_sample.asm_path.read_bytes()[:size]
    path = tmp_path / "part.asm"
    path.write_bytes(data)
    got = np.array(extract.stream_complexity(path, "s"), dtype=np.float64)
    assert got.tobytes() == feat_complexity(data, None)[:3].tobytes()


def test_stream_complexity_of_a_dump_and_of_no_file(large_sample):
    dump = large_sample.bytes_path
    got = np.array(extract.stream_complexity(dump, "s"), dtype=np.float64)
    assert got.tobytes() == feat_complexity(dump.read_bytes(), None)[:3].tobytes()
    assert extract.stream_complexity(None, "s") == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# section aggregation
# ---------------------------------------------------------------------------

def test_aggregate_two_text_segments_add_up(tmp_path):
    rows = [".text:00401000 " + " ".join(["90"] * 16) + " nop" for _ in range(16)]
    rows = [f".text:{0x401000 + 16 * i:08X} " + " ".join(["90"] * 16) + " nop"
            for i in range(16)]
    rows += [".data:00403000 ?? db ?"]
    rows += [f".text:{0x500000 + 16 * i:08X} " + " ".join(["90"] * 16) + " nop"
             for i in range(8)]
    asm = "\n".join(rows).encode()
    stats = digest_sample(sample_with(tmp_path, asm=asm), (GROUP_SECTION_SIZE,), "asm").sections
    assert stats["text"].virtual_size == 0x100 + 0x80
    assert stats["text"].raw_size == 0x180  # every text byte dumped


def test_aggregate_virtual_only_section_has_zero_ratio(tmp_path):
    rows = [f".bss:{0x600000 + 16 * i:08X} " + " ".join(["??"] * 16)
            for i in range(256)]
    sample = sample_with(tmp_path, asm="\n".join(rows).encode())
    stats = digest_sample(sample, (GROUP_SECTION_SIZE,), "asm").sections
    assert stats["bss"].virtual_size == 4096
    assert stats["bss"].raw_size == 0
    assert stats["bss"].ratio == 0.0


def test_aggregate_prefers_pe_summary(tmp_path):
    from pe_fixtures import SectionSpec, build_pe

    pe_path = tmp_path / "s.exe"
    pe_path.write_bytes(build_pe([SectionSpec(".text", 256, 512, executable=True)]))
    asm_path = tmp_path / "s.asm"
    asm_path.write_text(".text:00401000 90 nop\n")
    sample = Sample(id="s", asm_path=asm_path, pe_path=pe_path)

    stats = digest_sample(sample, (GROUP_SECTION_SIZE,), "pe").sections
    assert stats["text"].virtual_size == 256
    assert stats["text"].raw_size == 512
    assert stats["text"].ratio == 0.5
    # asm preference flips to the listing-derived numbers
    stats = digest_sample(sample, (GROUP_SECTION_SIZE,), "asm").sections
    assert stats["text"].virtual_size == 1


def test_section_size_vector_layout():
    stats = {"text": SectionStats(256, 512, True, False, True)}
    got = feat_section_size(stats, ["text", "data"])
    assert got.tolist() == [256.0, 512.0, 0.5, 0.0, 0.0, 0.0]
    assert feat_section_size({}, ["text", "data"]).tolist() == [0.0] * 6


def test_section_size_dimension_count():
    names = [f"s{i}" for i in range(282)]
    assert feat_section_size({}, names).shape == (846,)


def test_section_perm_overlap_counted_in_both():
    stats = {"text": SectionStats(100, 50, True, False, True)}
    got = feat_section_perm(stats)
    assert got.tolist() == [100.0, 50.0, 2.0, 0.0, 0.0, 0.0, 100.0, 50.0, 2.0]


def test_section_perm_write_hand_sum():
    stats = {
        "data": SectionStats(10, 10, True, True, False),
        "bss": SectionStats(20, 0, True, True, False),
    }
    got = feat_section_perm(stats)
    assert got[3:6].tolist() == [30.0, 10.0, 3.0]


def test_section_perm_empty():
    assert feat_section_perm({}).tolist() == [0.0] * 9


# ---------------------------------------------------------------------------
# import libraries
# ---------------------------------------------------------------------------

def test_import_lib_one_hot():
    vocab = ["KERNEL32", "CRYPT32"]
    assert feat_import_lib(frozenset({"CRYPT32"}), vocab).tolist() == [0.0, 1.0]
    assert feat_import_lib(frozenset(), vocab).tolist() == [0.0, 0.0]
    assert feat_import_lib(frozenset({"KERNEL32", "CRYPT32", "EXTRA"}), vocab).tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# 4-grams
# ---------------------------------------------------------------------------

def brute_force_4grams(tokens: list[str]) -> Counter:
    counts: Counter = Counter()
    for i in range(len(tokens)):
        window = tuple(tokens[i:i + 4])
        if len(window) == 4:
            counts[window] += 1
    return counts


def test_4gram_basic_windows():
    assert extract_4grams(["a", "b", "c", "d", "e"]) == Counter(
        {("a", "b", "c", "d"): 1, ("b", "c", "d", "e"): 1})
    assert extract_4grams(["a", "b", "c"]) == Counter()
    assert extract_4grams([]) == Counter()


def test_4gram_exhaustive_short_streams():
    alphabet = ["a", "b", "c", "d", "e"]
    for n in range(7):
        for tokens in itertools.product(alphabet, repeat=n):
            assert extract_4grams(list(tokens)) == brute_force_4grams(list(tokens))


def test_4gram_random_streams_match_oracle():
    rng = np.random.default_rng(21)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        tokens = [alphabet[int(i)] for i in rng.integers(0, 5, int(rng.integers(0, 51)))]
        counts = extract_4grams(tokens)
        oracle = brute_force_4grams(tokens)
        assert counts == oracle
        grams = sorted(set(oracle) | {("z", "z", "z", "z")})
        got = feat_ngrams(counts, grams)
        assert got.tolist() == [float(oracle.get(g, 0)) for g in grams]
        binary = feat_ngrams(counts, grams, binary=True)
        assert binary.tolist() == [1.0 if oracle.get(g) else 0.0 for g in grams]


def test_feat_ngrams_counts_and_absent():
    counts = extract_4grams(["a", "b", "c", "d", "b", "c", "d", "e"])
    assert feat_ngrams(counts, [("a", "b", "c", "d")]).tolist() == [1.0]
    assert feat_ngrams(counts, [("x", "x", "x", "x")]).tolist() == [0.0]


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def corpus_from_asm(tmp_path, texts: dict[str, str]):
    for stem, text in texts.items():
        (tmp_path / f"{stem}.asm").write_text(text)
    return scan_corpus(tmp_path)


def test_vocab_document_frequency_not_occurrences(tmp_path):
    # gram B repeats heavily inside one sample; gram A appears once in each
    a_line = ".text:00401000 90 mov eax, 1\n"
    stream_a = ".text:00401000 90 a1 x\n.text:00401001 90 a2 x\n.text:00401002 90 a3 x\n.text:00401003 90 a4 x\n"
    stream_b = (".text:00401000 90 b1 x\n.text:00401001 90 b2 x\n"
                ".text:00401002 90 b3 x\n.text:00401003 90 b4 x\n") * 50
    manifest = corpus_from_asm(tmp_path, {"s1": stream_a, "s2": stream_a, "s3": stream_b})
    vocab, _ = build_vocab(manifest, VocabCaps(1, 1, 1, 1), prefer="asm")
    # (a1..a4) is in two documents, (b1..b4) only in one despite 50 repeats
    assert vocab.opcode_grams == (("a1", "a2", "a3", "a4"),)


def test_vocab_tie_breaks_lexicographically(tmp_path):
    text_z = ".zz:00401000 90 nop\n"
    text_a = ".aa:00401000 90 nop\n"
    manifest = corpus_from_asm(tmp_path, {"s1": text_z + text_a})
    vocab, _ = build_vocab(manifest, VocabCaps(sections=1, libraries=1, api_grams=1, opcode_grams=1), prefer="asm")
    assert vocab.section_names == ("aa",)


def test_top_k_equals_ranking_by_count_then_token():
    """The two-sort ranking equals the (-count, token) key it replaced, on
    tie-heavy counts of string and tuple tokens, at every cap."""
    rng = random.Random(26)
    for trial in range(300):
        words = [f"t{rng.randrange(40)}" for _ in range(rng.randrange(0, 60))]
        if trial % 2:
            words = [tuple(w[i:i + 2] for i in range(0, 4, 2)) for w in words]
        freq = Counter({w: rng.randrange(1, 4) for w in words})
        want = [token for token, _ in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))]
        for cap in (0, 1, 5, len(freq), len(freq) + 3):
            assert vocab_module._top_k(freq, cap) == want[:cap]


def test_vocab_caps_respected(tmp_path):
    rows = []
    for k in range(6):
        rows.append(f".sec{k}:0040100{k} 90 nop")
    manifest = corpus_from_asm(tmp_path, {"s1": "\n".join(rows)})
    vocab, _ = build_vocab(manifest, VocabCaps(sections=4, libraries=1, api_grams=1, opcode_grams=1), prefer="asm")
    assert len(vocab.section_names) == 4
    assert vocab.section_names == ("sec0", "sec1", "sec2", "sec3")


def test_vocab_empty_corpus(tmp_path):
    manifest = scan_corpus(tmp_path)
    vocab, _ = build_vocab(manifest)
    assert vocab.section_names == () and vocab.libraries == ()
    assert vocab.api_grams == () and vocab.opcode_grams == ()


def test_vocab_missing_listing_names_sample(tmp_path):
    sample = Sample(id="gone", asm_path=tmp_path / "gone.asm")
    manifest = CorpusManifest(root=tmp_path, samples=(sample,))
    with pytest.raises(ExtractionError, match=r"sample gone: cannot read .*gone\.asm"):
        build_vocab(manifest, prefer="asm")


def test_vocab_round_trip(tmp_path):
    vocab = Vocabulary(
        section_names=("text", "data"),
        libraries=("KERNEL32",),
        api_grams=(("a", "b", "c", "d"),),
        opcode_grams=(("mov", "push", "call", "ret"), ("x", "y", "z", "w")),
    )
    save_vocab(vocab, tmp_path / "vocab.json")
    assert load_vocab(tmp_path / "vocab.json") == vocab


@pytest.mark.parametrize(
    "key, value",
    [
        ("section_names", [1]),
        ("section_names", "text"),
        ("libraries", [None]),
        ("api_grams", [[1, 2, 3, 4]]),
        ("api_grams", [["a", "b", "c"]]),
        ("opcode_grams", [["a", "b", "c", "d", "e"]]),
        ("opcode_grams", ["abcd"]),
        ("opcode_grams", {"a": 1}),
    ],
)
def test_load_vocab_rejects_wrongly_typed_entries(tmp_path, key, value):
    doc = {"version": 1, "section_names": [], "libraries": [], "api_grams": [], "opcode_grams": []}
    doc[key] = value
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"malformed vocabulary .*{key}"):
        load_vocab(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("section_names", ["text", "\ud800x"]),
        ("libraries", ["\udfff"]),
        ("api_grams", [["a", "b", "c", "\ud83d"]]),
        ("opcode_grams", [["\udc00", "p", "q", "r"]]),
    ],
)
def test_load_vocab_rejects_lone_surrogates(tmp_path, key, value):
    doc = {"version": 1, "section_names": [], "libraries": [], "api_grams": [], "opcode_grams": []}
    doc[key] = value
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII text with \uXXXX escapes
    with pytest.raises(CorpusError, match=f"malformed vocabulary .*{key} .*not valid UTF-8"):
        load_vocab(path)


def test_load_vocab_keeps_non_ascii_tokens(tmp_path):
    vocab = Vocabulary(section_names=("t\u00e9xt",), libraries=("\U0001f600",))
    save_vocab(vocab, tmp_path / "vocab.json")
    assert load_vocab(tmp_path / "vocab.json") == vocab


# ---------------------------------------------------------------------------
# schema arithmetic
# ---------------------------------------------------------------------------

def small_vocab(s=2, l=2, a=2, o=2) -> Vocabulary:
    return Vocabulary(
        section_names=tuple(f"s{i}" for i in range(s)),
        libraries=tuple(f"L{i}" for i in range(l)),
        api_grams=tuple((f"a{i}", "b", "c", "d") for i in range(a)),
        opcode_grams=tuple((f"o{i}", "p", "q", "r") for i in range(o)),
    )


def test_schema_size_formula_arbitrary_caps():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s, l, a, o = (int(x) for x in rng.integers(1, 30, 4))
        schema = build_schema(small_vocab(s, l, a, o))
        assert len(schema) == 3 + 6 + 9 + 3 * s + l + a + o
        sizes = schema.group_sizes()
        assert sizes[GROUP_FILE_SIZE] == 3
        assert sizes[GROUP_COMPLEXITY] == 6
        assert sizes[GROUP_SECTION_PERM] == 9
        assert sizes[GROUP_SECTION_SIZE] == 3 * s
        assert sizes[GROUP_IMPORT_LIB] == l
        assert sizes[GROUP_API_4GRAM] == a
        assert sizes[GROUP_OPCODE_4GRAM] == o


def test_schema_group_order_is_canonical():
    schema = build_schema(small_vocab(), groups=(GROUP_OPCODE_4GRAM, GROUP_FILE_SIZE))
    groups_seen = [group_of_dim(n) for n in schema.names]
    assert groups_seen == [GROUP_FILE_SIZE] * 3 + [GROUP_OPCODE_4GRAM] * 2


def test_schema_selection_keeps_importance_order():
    vocab = small_vocab(s=4)
    keep = [section_dims("s2")[1], section_dims("s0")[0]]
    schema = build_schema(vocab, selection={GROUP_SECTION_SIZE: keep})
    section_block = [schema.names[i] for i in schema.group_indices(GROUP_SECTION_SIZE)]
    assert section_block == keep


def test_schema_selection_rejects_unknown_dims():
    with pytest.raises(ValueError, match="unknown dims"):
        build_schema(small_vocab(), selection={GROUP_SECTION_SIZE: ["sec_nope_vsize"]})


def test_schema_single_group():
    schema = build_schema(small_vocab(), groups=(GROUP_FILE_SIZE,))
    assert len(schema) == 3
    assert schema.names == ("fsz_asm", "fsz_bytes", "fsz_ratio")


def test_schema_digest_tracks_names():
    a = build_schema(small_vocab())
    b = build_schema(small_vocab())
    c = build_schema(small_vocab(s=3))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


@pytest.mark.parametrize("names, groups", [
    ((), ()),
    (("fsz_asm",), (GROUP_FILE_SIZE,)),
    (("fsz_asm", "lib_K\u00dcRNEL", "opc_a|b|c|d"),
     (GROUP_FILE_SIZE, GROUP_IMPORT_LIB, GROUP_OPCODE_4GRAM)),
], ids=["empty", "one-name", "non-ascii"])
def test_schema_digest_is_blake2b_64_of_nul_terminated_names(names, groups):
    stream = b"".join(name.encode("utf-8") + b"\x00" for name in names)
    expected = hashlib.blake2b(stream, digest_size=8).hexdigest()
    assert FeatureSchema(names, groups).digest() == expected
    assert len(expected) == 16


@pytest.mark.skipif(importlib.util.find_spec("_blake2") is None,
                    reason="interpreter built without _blake2")
def test_importing_the_cli_leaves_openssl_hashlib_unloaded():
    # the digest takes blake2b from the built-in _blake2; `import hashlib`
    # would also load OpenSSL's _hashlib, a few MB of resident memory
    src = os.path.dirname(os.path.dirname(malfam.__file__))
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = "import sys, malfam.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FeatureSchema(names=("x", "x"), groups=(GROUP_FILE_SIZE, GROUP_FILE_SIZE))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def labeled_noise_with_perfect_dim(rng, n=120, d=8, perfect=3):
    X = rng.normal(size=(n, d))
    y = rng.integers(1, 4, size=n)
    X[:, perfect] = y * 10.0  # separates classes on its own
    return X, y


def test_selection_finds_perfect_splitter():
    rng = np.random.default_rng(0)
    X, y = labeled_noise_with_perfect_dim(rng)
    picked = select_by_importance(X, y, 3, ForestParams(n_trees=20, seed=1))
    assert picked[0] == 3


def test_selection_full_budget_is_a_ranking():
    rng = np.random.default_rng(1)
    X, y = labeled_noise_with_perfect_dim(rng, d=5)
    picked = select_by_importance(X, y, 5, ForestParams(n_trees=10, seed=2))
    assert sorted(picked) == [0, 1, 2, 3, 4]
    assert picked[0] == 3


def test_selection_deterministic():
    rng = np.random.default_rng(2)
    X, y = labeled_noise_with_perfect_dim(rng)
    a = select_by_importance(X, y, 4, ForestParams(n_trees=15, seed=7))
    b = select_by_importance(X, y, 4, ForestParams(n_trees=15, seed=7))
    assert a == b


def test_selection_rejects_single_class():
    X = np.zeros((10, 3))
    y = np.ones(10, dtype=int)
    with pytest.raises(TrainingError):
        select_by_importance(X, y, 2, ForestParams(n_trees=5, seed=0))


def test_selection_rejects_bad_k():
    X = np.zeros((4, 3))
    y = np.array([1, 1, 2, 2])
    with pytest.raises(ValueError):
        select_by_importance(X, y, 0)
    with pytest.raises(ValueError):
        select_by_importance(X, y, 4)


# ---------------------------------------------------------------------------
# assembly and matrices
# ---------------------------------------------------------------------------

def test_assemble_is_pure(small_corpus):
    vocab, _ = build_vocab(small_corpus, VocabCaps(8, 8, 32, 32), prefer="asm")
    schema = build_schema(vocab)
    sample = small_corpus.samples[0]
    first = assemble(sample, schema, vocab, prefer="asm")
    second = assemble(sample, schema, vocab, prefer="asm")
    assert np.array_equal(first.values, second.values)
    assert np.isfinite(first.values).all()
    assert len(first.values) == len(schema)


def test_assemble_missing_listing_names_sample(tmp_path):
    sample = Sample(id="gone", asm_path=tmp_path / "gone.asm")
    vocab = Vocabulary(opcode_grams=(("a", "b", "c", "d"),))
    for groups in (GROUP_ORDER, (GROUP_OPCODE_4GRAM,), (GROUP_SECTION_PERM,)):
        with pytest.raises(ExtractionError, match=r"sample gone: cannot read .*gone\.asm"):
            assemble(sample, build_schema(vocab, groups), vocab, prefer="asm")


def test_digest_counts_listing_parse_failures(tmp_path):
    asm = tmp_path / "s.asm"
    asm.write_bytes(b"\n".join([
        b".text:00401000 55 push ebp",
        b"garbage line",
        b"",
        b".text:00401001 8B EC mov ebp, esp",
        b"\xff\xfe more garbage",
    ]))
    dump = tmp_path / "s.bytes"
    dump.write_text("00401000 55 8B EC\n")
    sample = Sample(id="s", asm_path=asm)
    assert digest_sample(sample, GROUP_ORDER, prefer="asm").parse_failures == 2
    assert digest_sample(sample, (GROUP_OPCODE_4GRAM,)).parse_failures == 2
    # no listing read: the file-size group alone never opens it
    assert digest_sample(sample, (GROUP_FILE_SIZE,)).parse_failures == 0
    assert digest_sample(Sample(id="d", bytes_path=dump)).parse_failures == 0
    # assemble carries the digest's count on the vector
    vocab = Vocabulary(opcode_grams=(("a", "b", "c", "d"),))
    for groups, failures in (((GROUP_OPCODE_4GRAM,), 2), ((GROUP_FILE_SIZE,), 0)):
        vector = assemble(sample, build_schema(vocab, groups), vocab, prefer="asm")
        assert vector.parse_failures == failures


# thresholds that send every listing's complexity pass to the helper threads,
# and none of them
ALWAYS, NEVER = 0, 2**62


def assert_same_digest(a: SampleDigest, b: SampleDigest) -> None:
    for f in dataclasses.fields(SampleDigest):
        mine, theirs = getattr(a, f.name), getattr(b, f.name)
        if isinstance(mine, np.ndarray):
            assert mine.tobytes() == theirs.tobytes(), f.name
        else:
            assert mine == theirs, f.name


def test_overlap_digest_equals_inline(small_corpus, large_sample, monkeypatch):
    baseline = threading.active_count()
    for sample in (*small_corpus.samples, large_sample):
        digests = []
        for threshold in (ALWAYS, NEVER):
            monkeypatch.setattr(extract, "OVERLAP_MIN_BYTES", threshold)
            digests.append(digest_sample(sample, GROUP_ORDER, prefer="asm"))
            assert threading.active_count() == baseline
        assert_same_digest(*digests)
        assert digests[0].complexity[1] > 0


def test_overlap_matrix_equals_inline(small_corpus, large_sample, monkeypatch):
    manifest = CorpusManifest(small_corpus.root, (*small_corpus.samples[:4], large_sample))
    vocab, _ = build_vocab(manifest, VocabCaps(8, 8, 32, 32), prefer="asm")
    schema = build_schema(vocab)
    baseline = threading.active_count()
    matrices = []
    for threshold in (ALWAYS, NEVER):
        monkeypatch.setattr(extract, "OVERLAP_MIN_BYTES", threshold)
        matrices.append(extract_matrix(manifest, schema, vocab, prefer="asm"))
        assert threading.active_count() == baseline
    assert matrices[0].ids == matrices[1].ids
    assert matrices[0].values.tobytes() == matrices[1].values.tobytes()


@pytest.mark.parametrize("broken", ["missing", "directory"])
def test_overlap_unreadable_dump_raises_as_inline(tmp_path, small_corpus, monkeypatch, broken):
    dump = tmp_path / "x.bytes"
    if broken == "directory":
        dump.mkdir()
    sample = dataclasses.replace(small_corpus.samples[0], bytes_path=dump)
    baseline = threading.active_count()
    messages = []
    for threshold in (ALWAYS, NEVER):
        monkeypatch.setattr(extract, "OVERLAP_MIN_BYTES", threshold)
        with pytest.raises(ExtractionError, match=r"cannot read .*x\.bytes") as info:
            digest_sample(sample, GROUP_ORDER, prefer="asm")
        messages.append(str(info.value))
        assert threading.active_count() == baseline
    assert messages[0] == messages[1]


def test_overlap_scan_error_propagates(small_corpus, monkeypatch):
    def failing_scan(text):
        raise RuntimeError("scan failed")

    monkeypatch.setattr(extract, "scan_listing", failing_scan)
    baseline = threading.active_count()
    for threshold in (ALWAYS, NEVER):
        monkeypatch.setattr(extract, "OVERLAP_MIN_BYTES", threshold)
        with pytest.raises(RuntimeError, match="scan failed"):
            digest_sample(small_corpus.samples[0], GROUP_ORDER, prefer="asm")
        assert threading.active_count() == baseline


def test_only_a_large_listing_is_compressed_on_helpers(small_corpus, large_sample, monkeypatch):
    small = small_corpus.samples[0]
    assert small.asm_path.stat().st_size < extract.OVERLAP_MIN_BYTES
    assert large_sample.asm_path.stat().st_size >= extract.OVERLAP_MIN_BYTES
    calls = []
    real_stream = extract.stream_complexity

    def recorded(path, sample_id):
        calls.append((sample_id, threading.current_thread() is threading.main_thread()))
        return real_stream(path, sample_id)

    monkeypatch.setattr(extract, "stream_complexity", recorded)
    digest_sample(small, GROUP_ORDER, prefer="asm")
    digest_sample(large_sample, GROUP_ORDER, prefer="asm")
    assert calls == [(small.id, True), (small.id, True), ("large", False), ("large", False)]


# ---------------------------------------------------------------------------
# projection against the by-name oracle
# ---------------------------------------------------------------------------

def reference_assemble(
    sample: Sample,
    schema: FeatureSchema,
    vocab,
    *,
    prefer: str = "pe",
    binary_ngrams: bool = False,
) -> SimpleNamespace:
    """The by-name assemble body the column lookup replaced, kept as the oracle:
    every group's full vector over the vocabulary, matched to the schema by
    dimension name.  Returns the dense vector as `values`."""
    present = set(schema.groups)
    values = np.zeros(len(schema), dtype=np.float64)

    source = pick_source(sample, prefer)
    needs_sections = present & {GROUP_SECTION_SIZE, GROUP_SECTION_PERM}
    needs_grams = present & {GROUP_API_4GRAM, GROUP_OPCODE_4GRAM}

    scan: ListingScan | None = None
    if sample.asm_path is not None and (
        needs_grams or (source == "asm" and (needs_sections or GROUP_IMPORT_LIB in present))
    ):
        scan = reference_scan(load_listing(sample.asm_path))

    summary: PeSummary | None = None
    if source == "pe" and (needs_sections or GROUP_IMPORT_LIB in present):
        summary = load_pe_summary(sample)

    stats: Mapping[str, SectionStats] = {}
    if needs_sections:
        if summary is not None:
            stats = extract.section_stats(
                (s.name, s.virtual_size, s.raw_size, s.readable, s.writable, s.executable)
                for s in summary.sections
            )
        elif scan is not None:
            stats = extract.section_stats(itertools.chain(
                ((s.name, s.span, 0, s.readable, s.writable, s.executable) for s in scan.segments),
                ((name, 0, size, False, False, False) for name, size in scan.known_bytes.items()),
            ))

    for group in GROUP_ORDER:
        if group not in present:
            continue
        if group == GROUP_FILE_SIZE:
            full = feat_file_size(sample)
        elif group == GROUP_COMPLEXITY:
            full = feat_complexity(
                *(p.read_bytes() if p else None for p in (sample.asm_path, sample.bytes_path))
            )
        elif group == GROUP_SECTION_SIZE:
            full = feat_section_size(stats, vocab.section_names)
        elif group == GROUP_SECTION_PERM:
            full = feat_section_perm(stats)
        elif group == GROUP_IMPORT_LIB:
            if summary is not None:
                libs = summary.import_libraries
            elif scan is not None:
                libs = scan.imports.libraries
            else:
                libs = frozenset()
            full = feat_import_lib(libs, vocab.libraries)
        elif group == GROUP_API_4GRAM:
            counts: Mapping = {}
            if scan is not None:
                counts = extract_4grams(scan.api_calls)
            full = feat_ngrams(counts, vocab.api_grams, binary_ngrams)
        else:
            counts = {}
            if scan is not None:
                counts = extract_4grams(scan.opcodes)
            full = feat_ngrams(counts, vocab.opcode_grams, binary_ngrams)

        idx = schema.group_indices(group)
        full_names = group_dims(group, vocab)
        if tuple(schema.names[i] for i in idx) == full_names:
            values[idx] = full
        else:
            mapping = dict(zip(full_names, full))
            try:
                values[idx] = [mapping[schema.names[i]] for i in idx]
            except KeyError as exc:
                raise ValueError(
                    f"schema names dimension {exc.args[0]!r} absent from the vocabulary"
                ) from exc

    if not np.isfinite(values).all():
        bad = schema.names[int(np.flatnonzero(~np.isfinite(values))[0])]
        raise ExtractionError(f"sample {sample.id}: non-finite value in {bad}")
    return SimpleNamespace(values=values)


def shuffled_selection(vocab, groups, rng, keep=0.6) -> dict[str, list[str]]:
    """A seeded subset of each group's dims in a seeded (non-canonical) order."""
    out = {}
    for group in groups:
        dims = list(group_dims(group, vocab))
        if dims:
            chosen = rng.permutation(len(dims))[: max(1, int(keep * len(dims)))]
            out[group] = [dims[i] for i in chosen]
    return out


def assert_matches_oracle(samples, schema, vocab, **kwargs) -> None:
    for sample in samples:
        got = assemble(sample, schema, vocab, **kwargs).values
        want = reference_assemble(sample, schema, vocab, **kwargs).values
        assert got.tobytes() == want.tobytes(), (sample.id, kwargs)


@pytest.fixture(scope="module")
def oracle_vocab(small_corpus):
    return build_vocab(small_corpus, prefer="asm")[0]


def test_projection_matches_oracle_default_config(small_corpus, oracle_vocab):
    rng = np.random.default_rng(5)
    vocab = oracle_vocab
    assert vocab.api_grams and vocab.opcode_grams and vocab.libraries
    # the default config selects section dims in importance order
    sections = shuffled_selection(vocab, (GROUP_SECTION_SIZE,), rng, keep=0.5)
    schema = build_schema(vocab, GROUP_ORDER, sections)
    assert schema.names != build_schema(vocab).names
    assert_matches_oracle(small_corpus.samples, schema, vocab, prefer="asm")
    assert_matches_oracle(small_corpus.samples, build_schema(vocab), vocab, prefer="pe")


def test_projection_matches_oracle_selected_token_groups(small_corpus, oracle_vocab):
    rng = np.random.default_rng(6)
    selection = shuffled_selection(oracle_vocab, GROUP_ORDER, rng, keep=0.3)
    schema = build_schema(oracle_vocab, GROUP_ORDER, selection)
    assert_matches_oracle(small_corpus.samples, schema, oracle_vocab, prefer="asm")


@pytest.mark.parametrize("group", GROUP_ORDER)
def test_projection_matches_oracle_each_group_alone(small_corpus, oracle_vocab, group):
    schema = build_schema(oracle_vocab, (group,))
    assert_matches_oracle(small_corpus.samples, schema, oracle_vocab, prefer="asm")


def test_projection_matches_oracle_binary_ngrams(small_corpus, oracle_vocab):
    rng = np.random.default_rng(7)
    full = build_schema(oracle_vocab)
    selected = build_schema(
        oracle_vocab, GROUP_ORDER, shuffled_selection(oracle_vocab, GROUP_ORDER, rng)
    )
    for schema in (full, selected):
        assert_matches_oracle(small_corpus.samples, schema, oracle_vocab,
                              prefer="asm", binary_ngrams=True)
    values = assemble(small_corpus.samples[0], full, oracle_vocab,
                      prefer="asm", binary_ngrams=True).values
    grams = [i for i, g in enumerate(full.groups) if g in (GROUP_API_4GRAM, GROUP_OPCODE_4GRAM)]
    assert set(values[grams].tolist()) == {0.0, 1.0}


@pytest.fixture(scope="module")
def pe_manifest(small_corpus, tmp_path_factory):
    """Synthetic samples with PE images beside them: two whole PEs, a truncated
    one, a PE with no listing or dump, and samples with no PE at all."""
    from pe_fixtures import SectionSpec, build_pe

    root = tmp_path_factory.mktemp("pe_corpus")
    images = {
        "whole32": build_pe(
            [SectionSpec(".text", 0x300, 0x400, executable=True),
             SectionSpec(".data", 0x80, 0x200, writable=True),
             SectionSpec(".rsrc", 0x40, 0)],
            imports=("KERNEL32.dll", "WS2_32.dll"),
        ),
        "whole64": build_pe(
            [SectionSpec(".text", 0x100, 0x200, executable=True),
             SectionSpec("UPX0", 0x1000, 0, writable=True, executable=True)],
            imports=("ADVAPI32.dll",),
            pe32plus=True,
        ),
        # cut inside the third section header: two sections survive
        "truncated": build_pe(
            [SectionSpec(".text", 64, 128, executable=True),
             SectionSpec(".data", 32, 64, writable=True),
             SectionSpec(".rsrc", 16, 32)],
        )[: 88 + 224 + 2 * 40 + 10],
    }
    samples = []
    for i, (name, image) in enumerate(images.items()):
        path = root / f"{name}.exe"
        path.write_bytes(image)
        samples.append(dataclasses.replace(small_corpus.samples[i], pe_path=path))
    samples.append(Sample(id="pe_only", pe_path=root / "whole32.exe", label=1))
    samples.extend(small_corpus.samples[3:9])
    return CorpusManifest(root=root, samples=tuple(samples))


@pytest.mark.parametrize("prefer", ["pe", "asm"])
def test_projection_matches_oracle_with_pe_files(pe_manifest, prefer):
    vocab, _ = build_vocab(pe_manifest, prefer=prefer)
    rng = np.random.default_rng(8)
    schemas = [
        build_schema(vocab),
        build_schema(vocab, GROUP_ORDER, shuffled_selection(vocab, GROUP_ORDER, rng)),
    ]
    for schema in schemas:
        assert_matches_oracle(pe_manifest.samples, schema, vocab, prefer=prefer)
    if prefer == "pe":
        assert {"WS2_32", "ADVAPI32"} <= set(vocab.libraries)
        truncated = digest_sample(pe_manifest.samples[2], GROUP_ORDER, "pe")
        assert set(truncated.sections) == {"text", "data"}
        assert truncated.libraries == frozenset()
        assert truncated.imports_degraded
        assert not digest_sample(pe_manifest.samples[0], GROUP_ORDER, "pe").imports_degraded


def test_projection_ignores_sample_gram_whose_name_collides(tmp_path):
    # ("a|b", "c", "d", "e") and ("a", "b|c", "d", "e") share the dim name
    # opc_a|b|c|d|e; only the vocabulary's own gram may fill that column
    listing = "".join(
        f".text:{0x401000 + i:08X} 90 {m} x\n" for i, m in enumerate(["a|b", "c", "d", "e"])
    )
    sample = sample_with(tmp_path, asm=listing.encode())
    vocab = Vocabulary(opcode_grams=(("a", "b|c", "d", "e"),))
    schema = build_schema(vocab, (GROUP_OPCODE_4GRAM,))
    assert schema.names == ("opc_a|b|c|d|e",)
    digest = digest_sample(sample, (GROUP_OPCODE_4GRAM,), "asm")
    assert digest.opcode_grams == Counter({("a|b", "c", "d", "e"): 1})
    assert assemble(sample, schema, vocab, prefer="asm").values.tolist() == [0.0]
    assert reference_assemble(sample, schema, vocab, prefer="asm").values.tolist() == [0.0]
    # with both grams in the vocabulary the shared name reads the later one
    both = Vocabulary(opcode_grams=(("a|b", "c", "d", "e"), ("a", "b|c", "d", "e")))
    schema = build_schema(both, (GROUP_OPCODE_4GRAM,), {GROUP_OPCODE_4GRAM: ["opc_a|b|c|d|e"]})
    assert assemble(sample, schema, both, prefer="asm").values.tolist() == [0.0]
    assert reference_assemble(sample, schema, both, prefer="asm").values.tolist() == [0.0]


# ---------------------------------------------------------------------------
# the column lookup, cached on its vocabulary
# ---------------------------------------------------------------------------

@pytest.fixture
def compile_counter(monkeypatch):
    """Counts compile_columns calls made for `Vocabulary.lookup`."""
    calls = []
    original = vocab_module.compile_columns

    def counting(schema, vocab):
        calls.append((schema, vocab))
        return original(schema, vocab)

    monkeypatch.setattr(vocab_module, "compile_columns", counting)
    return calls


def fresh(vocab: Vocabulary) -> Vocabulary:
    """An equal vocabulary with no lookup compiled yet."""
    return dataclasses.replace(vocab)


def test_lookup_compiles_once_per_schema_and_vocab(small_corpus, oracle_vocab, compile_counter):
    vocab = fresh(oracle_vocab)
    schema = build_schema(vocab)
    for sample in small_corpus.samples[:4]:
        assemble(sample, schema, vocab, prefer="asm")
    for _ in range(2):
        extract_matrix(small_corpus, schema, vocab, prefer="asm")
    assert len(compile_counter) == 1
    assert compile_counter[0][0] is schema and compile_counter[0][1] is vocab
    # the slot compares by identity: an equal but distinct schema recompiles
    twin = FeatureSchema(schema.names, schema.groups)
    assemble(small_corpus.samples[0], twin, vocab, prefer="asm")
    assert len(compile_counter) == 2 and compile_counter[1][0] is twin
    # and an equal vocabulary keeps a lookup of its own
    other = fresh(oracle_vocab)
    assemble(small_corpus.samples[0], twin, other, prefer="asm")
    assert len(compile_counter) == 3 and compile_counter[2][1] is other


def test_lookup_alternating_schemas_never_goes_stale(small_corpus, oracle_vocab, compile_counter):
    # fit_pipeline extracts the full schema for its train samples, then the
    # selected one for its test samples, with one vocabulary; a classify
    # caller may switch between two such schemas on every sample
    vocab = fresh(oracle_vocab)
    rng = np.random.default_rng(9)
    full = build_schema(vocab)
    selected = build_schema(vocab, GROUP_ORDER, shuffled_selection(vocab, GROUP_ORDER, rng))
    for sample in small_corpus.samples[:6]:
        for schema in (full, selected, full):
            got = assemble(sample, schema, vocab, prefer="asm").values
            want = reference_assemble(sample, schema, vocab, prefer="asm").values
            assert got.tobytes() == want.tobytes()
    # every switch recompiles: three for the first sample, two for each later one
    assert len(compile_counter) == 3 + 2 * 5


def test_lookup_rejects_dim_absent_from_vocabulary(small_corpus, oracle_vocab, compile_counter):
    vocab = fresh(oracle_vocab)
    good = build_schema(vocab)
    assemble(small_corpus.samples[0], good, vocab, prefer="asm")
    bad = FeatureSchema(("fsz_asm", "api_x|y|z|w"), (GROUP_FILE_SIZE, GROUP_API_4GRAM))
    message = r"^schema names dimension 'api_x\|y\|z\|w' absent from the vocabulary$"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            assemble(small_corpus.samples[0], bad, vocab, prefer="asm")
    with pytest.raises(ValueError, match=message):
        extract_matrix(small_corpus, bad, vocab, prefer="asm")
    # each failure compiled afresh, and the good schema's lookup stayed
    assemble(small_corpus.samples[1], good, vocab, prefer="asm")
    assert [call[0] for call in compile_counter] == [good, bad, bad, bad]
    with pytest.raises(ValueError, match=message):
        reference_assemble(small_corpus.samples[0], bad, vocab, prefer="asm")


def test_lookup_slot_never_pairs_a_schema_with_another_schemas_lookup(oracle_vocab):
    vocab = fresh(oracle_vocab)
    schemas = [build_schema(vocab, (group,)) for group in GROUP_ORDER]
    wrong = []

    def worker(k: int) -> None:
        for i in range(60):
            schema = schemas[(i + k) % len(schemas)]
            lookup = vocab.lookup(schema)
            if (lookup.groups, len(lookup.names)) != (schema.groups[:1], len(schema)):
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_extract_matrix_projects_on_the_calling_thread(small_corpus, oracle_vocab, monkeypatch):
    projected, digested = [], []
    project, digest = extract.ColumnLookup.project, matrix_module.digest_sample

    def spy_project(self, *args, **kwargs):
        projected.append(threading.get_ident())
        return project(self, *args, **kwargs)

    def spy_digest(*args, **kwargs):
        digested.append(threading.get_ident())
        return digest(*args, **kwargs)

    monkeypatch.setattr(extract.ColumnLookup, "project", spy_project)
    monkeypatch.setattr(matrix_module, "digest_sample", spy_digest)
    rng = np.random.default_rng(10)
    selected = build_schema(
        oracle_vocab, GROUP_ORDER, shuffled_selection(oracle_vocab, GROUP_ORDER, rng)
    )
    caller = threading.get_ident()
    for schema in (build_schema(oracle_vocab), selected):
        projected.clear()
        digested.clear()
        got = extract_matrix(small_corpus, schema, oracle_vocab, prefer="asm")
        # every sample is digested and projected where the matrix is built
        assert projected == [caller] * len(small_corpus)
        assert digested == [caller] * len(small_corpus)
        want = np.vstack([
            reference_assemble(s, schema, oracle_vocab, prefer="asm").values
            for s in small_corpus.samples
        ])
        assert got.values.tobytes() == want.tobytes()


def test_matrix_csv_round_trip(tmp_path, small_corpus):
    vocab, _ = build_vocab(small_corpus, VocabCaps(4, 4, 8, 8), prefer="asm")
    schema = build_schema(vocab)
    matrix = extract_matrix(small_corpus, schema, vocab, prefer="asm")
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    loaded = load_matrix_csv(path)
    assert loaded.ids == matrix.ids
    assert loaded.labels == matrix.labels
    assert loaded.schema.names == matrix.schema.names
    assert np.array_equal(loaded.values, matrix.values)


def test_matrix_csv_round_trips_the_sparse_cells(tmp_path):
    """-0.0 keeps its sign and stays a held cell in every column."""
    names = ("fsz_a", "cpx_b", "lib_c", "lib_d", "api_e")
    schema = FeatureSchema(names, tuple(group_of_dim(n) for n in names))
    values = np.array([
        [-0.0, 1.5, -0.0, 0.0, 2.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0, -0.0, 7.0, -1e-300, -0.0],
    ])
    matrix = FeatureMatrix(schema, ("a", "b", "c"), (1, None, 2), values)
    assert matrix.cells.values.size == 9
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    loaded = load_matrix_csv(path)
    assert (loaded.ids, loaded.labels, loaded.schema) == (matrix.ids, matrix.labels, matrix.schema)
    assert_same_cells(loaded.cells, matrix.cells)
    assert loaded.values.tobytes() == values.tobytes()


def test_loading_a_mostly_zero_matrix_csv_builds_no_dense_copy(tmp_path):
    rows, width = 400, 3000
    names = ("fsz_a", "cpx_b", *(f"lib_{j}" for j in range(width)))
    schema = FeatureSchema(names, tuple(group_of_dim(n) for n in names))
    rng = np.random.default_rng(3)
    values = np.where(rng.random((rows, len(names))) < 0.01, rng.integers(1, 9, (rows, len(names))), 0.0)
    values[:, :2] = rng.random((rows, 2))
    matrix = FeatureMatrix(schema, tuple(map(str, range(rows))), (1,) * rows, values)
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    load_matrix_csv(path)  # first-call allocations stay out
    tracemalloc.start()
    try:
        loaded = load_matrix_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_same_cells(loaded.cells, matrix.cells)
    # Rows are parsed one at a time, so the peak is the header, one row's
    # cell strings and the sparse result with its build: 1.48 MB, 0.15x the
    # 9.6 MB of the dense matrix, on CPython 3.11 with numpy 2.4.  A list of
    # every cell's float and the dense array built from it took 5.4x.
    assert peak <= 0.25 * values.nbytes


def csv_writer_matrix_text(matrix: FeatureMatrix) -> str:
    """The matrix as a "\n"-terminated csv writer writes every cell of every row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "label", *matrix.schema.names])
    for sample_id, label, row in zip(matrix.ids, matrix.labels, matrix.values):
        writer.writerow([sample_id, label, *map(repr, row.tolist())])
    return out.getvalue()


def quoted_matrix_text(matrix: FeatureMatrix) -> str:
    """The matrix with a cell quoted exactly when it holds `,`, `"`, `\r` or `\n`."""
    def cell(text: str) -> str:
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(map(cell, ("id", "label", *matrix.schema.names)))]
    for sample_id, label, row in zip(matrix.ids, matrix.labels, matrix.values):
        label_cell = "" if label is None else str(label)
        lines.append(",".join([cell(sample_id), label_cell, *map(repr, row.tolist())]))
    return "".join(line + "\n" for line in lines)


def subset_rows(matrix: FeatureMatrix, keep: list[int]) -> FeatureMatrix:
    return FeatureMatrix(
        matrix.schema,
        tuple(matrix.ids[i] for i in keep),
        tuple(matrix.labels[i] for i in keep),
        matrix.values[keep],
    )


@pytest.mark.parametrize("width", [0, 1, 3])
def test_matrix_csv_rows_equal_the_csv_writer(tmp_path, width):
    names = ("plain", "odd,name", 'q"uote')[:width]
    schema = FeatureSchema(names, ("g",) * width)
    # ids with a newline and nothing else the writer quotes for ("c\nd",
    # "\n") must be quoted as the "\n"-terminated writer quotes them; an id
    # holding a lone "\r", which that writer leaves bare, is quoted too
    ids = ("plain", 'a,b"c\nd', "c\nd", "\n", "e\rf", " lead", "", '"', "\r")
    rng = np.random.default_rng(5)
    values = rng.normal(size=(len(ids), width)) * 10.0 ** rng.integers(-300, 300, size=(len(ids), width))
    if width:
        # special values down the first and last columns, and a row of zeros
        special = [-0.0, 0.0, 5e-324, -1.5, 1e300, np.inf, np.nan, -np.inf, -5e-324]
        values[:, 0] = special
        values[:, -1] = special[::-1]
        values[1] = 0.0
    matrix = FeatureMatrix(schema, ids, (3, None, 0, 5, None, 12, 7, None, 1), values)
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    assert path.read_bytes().decode("utf-8") == quoted_matrix_text(matrix)
    # every id without a "\r" is written as the csv writer writes it
    plain = subset_rows(matrix, [i for i, sample_id in enumerate(ids) if "\r" not in sample_id])
    save_matrix_csv(plain, path)
    assert path.read_bytes().decode("utf-8") == csv_writer_matrix_text(plain)
    # every id reads back whole (the names above carry no group prefix, so
    # the round trip drops the values)
    readable = FeatureMatrix(FeatureSchema((), ()), ids, matrix.labels, np.zeros((len(ids), 0)))
    save_matrix_csv(readable, path)
    loaded = load_matrix_csv(path)
    assert (loaded.ids, loaded.labels) == (readable.ids, readable.labels)


def test_matrix_csv_oversized_cell_is_a_corpus_error(tmp_path):
    # past the csv module's field size limit (131,072 characters), which is
    # process-wide and stays as it is; a 4-gram dimension name can be this long
    path = tmp_path / "m.csv"
    path.write_text(f"id,label,fsz_asm\na,1,{'1' * 200_000}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"m\.csv:2: malformed matrix: field larger than field limit"):
        load_matrix_csv(path)
    path.write_text(f"id,label,fsz_asm,{'x' * 200_000}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"m\.csv:1: malformed matrix: field larger"):
        load_matrix_csv(path)


@pytest.mark.parametrize("text, error", [
    ("id,label,fsz_asm\na,1,1.5\nb,2,0.0\nc,x1,2.0\n",
     r"m\.csv:4: malformed matrix: invalid literal for int\(\) with base 10: 'x1'"),
    ("id,label,fsz_asm\na,1,1.5\nb,2,zz\n",
     r"m\.csv:3: malformed matrix: could not convert string to float: 'zz'"),
    ('id,label,fsz_asm\n"a\nb",1,1.5\nc,x1,2.0\n',
     r"m\.csv:4: malformed matrix: invalid literal for int\(\) with base 10: 'x1'"),
    ('id,label,fsz_asm\n"a\nb",1,1.5\nc,1,2.0,3\n', r"m\.csv:4: expected 3 cells, found 4"),
    ("id,label,fsz_asm,bad_name\na,1,1.5,2.0\n",
     r"m\.csv:1: malformed matrix: dimension 'bad_name' carries no known group prefix"),
    ("id,label,fsz_asm,fsz_asm\na,1,1.5,2.0\n",
     r"m\.csv:1: malformed matrix: dimension names must be unique"),
], ids=["label", "cell", "label-after-a-two-line-id", "cells-after-a-two-line-id",
        "unknown-prefix", "duplicate-name"])
def test_matrix_csv_fault_names_its_line(tmp_path, text, error):
    """A label or cell that is not a number, or a row of the wrong length,
    names its row's line in the file, counting the newlines inside quoted
    ids; a header fault names line 1."""
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=error):
        load_matrix_csv(path)


@pytest.mark.parametrize("sample_id", ["a\rb", "\r", "a\r\nb", "a\n\rb", "\rlead", "trail\r"])
def test_matrix_csv_round_trips_an_id_with_a_carriage_return(tmp_path, sample_id):
    schema = FeatureSchema(("fsz_asm",), ("file_size",))
    matrix = FeatureMatrix(schema, (sample_id, "next"), (4, None), np.array([[1.5], [2.0]]))
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    loaded = load_matrix_csv(path)
    assert (loaded.ids, loaded.labels) == (matrix.ids, matrix.labels)
    assert np.array_equal(loaded.values, matrix.values)


def test_labeled_shares_the_values_exactly_when_every_row_is_labeled():
    schema = FeatureSchema(("fsz_asm", "lib_a", "lib_b"), ("file_size",) + ("import_lib",) * 2)
    values = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0], [4.0, 5.0, -0.0]])
    full = FeatureMatrix(schema, ("a", "b", "c"), (1, 2, 1), values)
    assert full.values.tobytes() == values.tobytes()
    got, labels = full.labeled()
    assert got is full.cells and labels.tolist() == [1, 2, 1]
    part = FeatureMatrix(schema, ("a", "b", "c"), (1, None, 1), values)
    got, labels = part.labeled()
    assert not np.shares_memory(got.values, part.cells.values)
    assert got.toarray().tobytes() == values[[0, 2]].tobytes() and labels.tolist() == [1, 1]


def test_every_constructor_holds_the_nonzero_and_negative_zero_cells():
    """Whatever builds the matrix, a +0.0 cell given to it is dropped and
    every other cell, -0.0 included, is held, so the result equals
    `from_dense` of the same values."""
    X = np.array([
        [5.0, 0.0, 1.0, -0.0, 2.0],
        [0.0, 3.0, 0.0, 0.0, 2.0],
        [-0.0, 0.0, -1.0, 0.0, 2.0],
    ])
    want = SparseMatrix.from_dense(X)
    assert want.values.size == 9
    rows, cols = np.indices(X.shape)  # every cell, +0.0 ones too
    assert_same_cells(SparseMatrix.from_csc(cols.ravel(), rows.ravel(), X.ravel(), X.shape), want)
    assert_same_cells(SparseMatrix.from_rows([np.arange(5)] * 3, list(X), 5), want)
    assert_same_cells(want.take([0, 1, 2]), want)


def test_from_dense_peaks_at_four_times_a_dense_matrix():
    """`from_dense` builds the CSC arrays straight from the held cells,
    which come in column order, without filtering or sorting them again."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(5000, 100))
    X[::7, 3] = -0.0
    X[::5, 4] = 0.0
    SparseMatrix.from_dense(X[:3])  # first-call allocations stay out
    tracemalloc.start()
    try:
        got = SparseMatrix.from_dense(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cols, rows = np.indices(X.shape[::-1])  # every cell, column after column
    assert_same_cells(got, SparseMatrix.from_csc(cols.ravel(), rows.ravel(), X.T.ravel(), X.shape))
    # A dense 5,000 x 100 array (4.0 MB) peaks at 16.0 MB, 4.0x, on CPython
    # 3.11 with numpy 2.4: the nonzero index pairs, the gathered values and
    # the result.  Passing the cells through `from_csc` took 8.1x.
    assert peak <= 5 * X.nbytes


def test_sparse_matrix_columns_in_any_order_equal_the_dense_columns():
    """Any order of a matrix's columns, repeats and fixed-size columns after
    token columns among them, selects what the dense matrix's columns hold."""
    names = ("fsz_a", "cpx_b", "sec_c", *(f"lib_{j}" for j in range(9)))
    schema = FeatureSchema(names, tuple(group_of_dim(n) for n in names))
    rng = np.random.default_rng(23)
    X = np.where(rng.random((30, 12)) < 0.3, rng.choice([-2.0, -0.0, 1.0, 4.5], size=(30, 12)), 0.0)
    X[:, :3] = rng.normal(size=(30, 3))  # fixed-size: nonzero on every row
    cells = FeatureMatrix(schema, tuple(map(str, range(30))), (1,) * 30, X).cells
    for idx in ([11, 0], [5, 2, 9, 1], list(range(12))[::-1], [3, 3, 0], [], rng.permutation(12)):
        got = cells.columns(idx)
        assert got.toarray().tobytes() == cells.toarray()[:, idx].tobytes()
        assert_same_cells(got, SparseMatrix.from_dense(X[:, idx]))


@pytest.mark.parametrize("binary", [False, True])
def test_projected_csc_equals_the_csc_of_the_dense_matrix(small_corpus, binary):
    """The matrix built from each sample's (column, value) pairs, read or
    held, equals the by-name oracle's dense matrix converted to CSC."""
    vocab, _ = build_vocab(small_corpus, VocabCaps(6, 6, 12, 12), prefer="asm")
    schema = build_schema(vocab)
    dense = np.array([
        reference_assemble(s, schema, vocab, prefer="asm", binary_ngrams=binary).values
        for s in small_corpus.samples
    ])
    want = SparseMatrix.from_dense(dense)
    token = np.isin(schema.groups, (GROUP_IMPORT_LIB, GROUP_API_4GRAM, GROUP_OPCODE_4GRAM))
    assert 0 < np.count_nonzero(dense[:, token]) < dense[:, token].size  # some token cells are zero
    held = [digest_sample(s, prefer="asm") for s in small_corpus.samples]
    for digests in (None, held):
        got = extract_matrix(
            small_corpus, schema, vocab, prefer="asm", binary_ngrams=binary, digests=digests
        ).cells
        assert_same_cells(got, want)


def test_projected_signed_zeros_in_fixed_size_columns_equal_the_dense_matrix(small_corpus, tmp_path):
    """Fixed-size values of +0.0 and -0.0 are projected into the matrix as
    `from_dense` of its dense form holds them (-0.0 held, +0.0 not), and the
    matrix round-trips through the CSV bit for bit."""
    vocab, _ = build_vocab(small_corpus, VocabCaps(6, 6, 12, 12), prefer="asm")
    schema = build_schema(vocab)
    held = []
    for i, sample in enumerate(small_corpus.samples):
        digest = digest_sample(sample, prefer="asm")
        signed = np.array([-0.0, 0.0, -0.0]) if i % 2 else np.array([0.0, -0.0, 4.0])
        held.append(dataclasses.replace(digest, file_size=signed, complexity=-0.0 * digest.complexity))
    matrix = extract_matrix(small_corpus, schema, vocab, prefer="asm", digests=held)
    dense = matrix.values
    fixed = np.isin(schema.groups, (GROUP_FILE_SIZE, GROUP_COMPLEXITY))
    assert np.signbit(dense[:, fixed]).any() and (~np.signbit(dense[:, fixed]) & (dense[:, fixed] == 0)).any()
    assert_same_cells(matrix.cells, SparseMatrix.from_dense(dense))
    path = tmp_path / "m.csv"
    save_matrix_csv(matrix, path)
    loaded = load_matrix_csv(path)
    assert_same_cells(loaded.cells, matrix.cells)
    assert loaded.values.tobytes() == dense.tobytes()


def test_projection_refuses_a_non_finite_value(small_corpus):
    vocab, _ = build_vocab(small_corpus, VocabCaps(6, 6, 12, 12), prefer="asm")
    schema = build_schema(vocab)
    held = [digest_sample(s, prefer="asm") for s in small_corpus.samples]
    held[2] = dataclasses.replace(held[2], complexity=held[2].complexity * [1, 1, np.inf, 1, np.nan, 1])
    sample_id = small_corpus.samples[2].id
    # the first non-finite value in schema order is named
    with pytest.raises(ExtractionError, match=f"^sample {sample_id}: non-finite value in cpx_asm_ratio$"):
        extract_matrix(small_corpus, schema, vocab, prefer="asm", digests=held)
    with pytest.raises(ExtractionError, match=f"^sample {sample_id}: non-finite value in cpx_asm_ratio$"):
        vocab.lookup(schema).project(held[2], sample_id)


@pytest.mark.parametrize("binary", [False, True])
def test_extract_matrix_projects_held_digests_without_reading_a_sample(
    small_corpus, monkeypatch, binary
):
    vocab, _ = build_vocab(small_corpus, VocabCaps(6, 6, 12, 12), prefer="asm")
    full = extract_matrix(small_corpus, build_schema(vocab), vocab, prefer="asm", binary_ngrams=binary)
    shared: dict = {}
    held = [hold_digest(digest_sample(s, prefer="asm"), shared) for s in small_corpus.samples]
    calls = Counter()
    real_digest = extract.digest_sample

    def counted(sample, *args, **kwargs):
        calls[sample.id] += 1
        return real_digest(sample, *args, **kwargs)

    monkeypatch.setattr(extract, "digest_sample", counted)
    narrow = build_schema(vocab, selection={
        GROUP_SECTION_SIZE: vocab.dims(GROUP_SECTION_SIZE)[::-2],
        GROUP_OPCODE_4GRAM: vocab.dims(GROUP_OPCODE_4GRAM)[3:5],
    })
    for schema in (narrow, build_schema(vocab, (GROUP_SECTION_SIZE, GROUP_API_4GRAM))):
        got = extract_matrix(
            small_corpus, schema, vocab, binary_ngrams=binary, digests=held
        )
        cols = [full.schema.names.index(name) for name in schema.names]
        assert np.array_equal(got.values, full.values[:, cols])
    assert not calls
    with pytest.raises(ValueError, match="digests must be parallel"):
        extract_matrix(small_corpus, narrow, vocab, digests=held[:2])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_matrix_csv_rejects_non_finite_cells(tmp_path, small_corpus, cell):
    vocab, _ = build_vocab(small_corpus, VocabCaps(4, 4, 8, 8), prefer="asm")
    schema = build_schema(vocab)
    path = tmp_path / "m.csv"
    save_matrix_csv(extract_matrix(small_corpus, schema, vocab, prefer="asm"), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[5] = cell  # second sample, fourth dimension
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"m\.csv:3: non-finite value .* in column {schema.names[3]}$"):
        load_matrix_csv(path)
