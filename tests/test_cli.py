"""Command-line surface: exit codes, printed summaries, and report formatting.

Everything drives malfam.cli.main(argv) in-process so capsys sees the exact
byte stream a user would.
"""
from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from malfam import cli as cli_mod
from malfam.cli import format_report, main
from malfam.config import RunConfig, save_config
from malfam.features import extract as extract_module
from malfam.features import matrix as matrix_module
from malfam.features import vocab as vocab_module
from malfam.forest import ForestParams
from malfam.features.schema import (
    GROUP_COMPLEXITY,
    GROUP_SECTION_PERM,
    GROUP_SECTION_SIZE,
)
from malfam.synth import gen_synthetic

from pe_fixtures import SectionSpec, build_pe


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory: pytest.TempPathFactory):
    """A corpus, a config file, and a trained model produced via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    config_path = root / "config.json"
    model = root / "model"
    save_config(
        RunConfig(
            groups=(GROUP_COMPLEXITY, GROUP_SECTION_SIZE, GROUP_SECTION_PERM),
            selection={GROUP_SECTION_SIZE: 25},
            folds=2,
            forest=ForestParams(n_trees=25, seed=0),
        ),
        config_path,
    )
    assert main(["gen", "--synthetic", "--per-family", "3", "--out", str(corpus)]) == 0
    code = main([
        "train", "--quiet", "--config", str(config_path),
        "--corpus", str(corpus), "--out", str(model),
    ])
    assert code == 0
    return {"root": root, "corpus": corpus, "config": config_path, "model": model}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_synthetic_reports_sample_count(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen", "--synthetic", "--per-family", "2", "--out", str(out)]) == 0
    assert "wrote 18 samples (2 per family)" in capsys.readouterr().out
    assert (out / "labels.csv").is_file()
    assert len(list(out.glob("*.asm"))) == 18


def test_gen_seed_override_changes_corpus(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert main(["gen", "--synthetic", "--per-family", "1",
                     "--seed", seed, "--out", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names != sorted(p.name for p in c.iterdir())


def test_gen_requires_exactly_one_mode(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "x")]) == 1
    assert main(["gen", "--synthetic", "--from-pe", "f.exe",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "exactly one of --synthetic or --from-pe" in err


def test_gen_from_pe_writes_dump(tmp_path, capsys):
    pe_path = tmp_path / "hello.exe"
    data = build_pe([SectionSpec("text", 64, 64, executable=True, payload=b"\x90" * 64)])
    pe_path.write_bytes(data)
    out = tmp_path / "dumps"

    assert main(["gen", "--from-pe", str(pe_path), "--out", str(out)]) == 0
    assert "wrote 1 dump(s)" in capsys.readouterr().out
    full = (out / "hello.bytes").read_text(encoding="ascii")
    assert full.splitlines()[0].startswith("00000000 4D 5A")  # MZ header kept

    assert main(["gen", "--from-pe", str(pe_path), "--strip-headers",
                 "--out", str(tmp_path / "stripped")]) == 0
    stripped = (tmp_path / "stripped" / "hello.bytes").read_text(encoding="ascii")
    # headers gone: the dump restarts at offset 0 with section payload
    assert stripped.splitlines()[0].startswith("00000000 90 90")
    assert len(stripped.splitlines()) < len(full.splitlines())


def test_gen_from_pe_refuses_a_second_input_with_the_same_stem(tmp_path, capsys):
    first, second = tmp_path / "a" / "x.exe", tmp_path / "b" / "x.exe"
    for path, payload in ((first, b"\x90" * 64), (second, b"\xcc" * 64)):
        path.parent.mkdir()
        path.write_bytes(build_pe([SectionSpec("text", 64, 64, executable=True, payload=payload)]))
    out = tmp_path / "dumps"
    assert main(["gen", "--from-pe", str(first), str(second), "--strip-headers",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote 1 dump(s)" in captured.out
    assert f"error: {second}: " in captured.err and "x.bytes" in captured.err
    # the first input's dump stays
    assert [p.name for p in out.iterdir()] == ["x.bytes"]
    assert (out / "x.bytes").read_text(encoding="ascii").startswith("00000000 90 90")


def test_gen_from_pe_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.exe"
    bad.write_bytes(b"not a pe at all")
    assert main(["gen", "--from-pe", str(bad), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert "wrote 0 dump(s)" in captured.out


# ---------------------------------------------------------------------------
# extract / select
# ---------------------------------------------------------------------------

def test_extract_refuses_to_build_vocab_silently(cli_env, capsys):
    code = main([
        "extract", "--corpus", str(cli_env["corpus"]),
        "--out", str(cli_env["root"] / "m.csv"),
    ])
    assert code == 1
    assert "leaks it into the features" in capsys.readouterr().err


def test_extract_builds_vocab_and_prints_group_sizes(cli_env, tmp_path, capsys):
    code = main([
        "extract", "--quiet", "--config", str(cli_env["config"]),
        "--corpus", str(cli_env["corpus"]),
        "--build-vocab", str(tmp_path / "vocab.json"),
        "--out", str(tmp_path / "train.csv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "complexity: 6" in out
    assert "section_perm: 9" in out
    assert out.strip().endswith("total: 42")  # 6 + 9 sections x 3 + 9
    assert (tmp_path / "vocab.json").is_file()


def test_extract_build_vocab_digests_each_sample_once(tmp_path, monkeypatch):
    corpus = gen_synthetic(4, 5, tmp_path / "corpus")
    calls: Counter = Counter()
    original = extract_module.digest_sample

    def counted(sample, *args, **kwargs):
        calls[sample.id] += 1
        return original(sample, *args, **kwargs)

    for module in (vocab_module, matrix_module, extract_module):
        monkeypatch.setattr(module, "digest_sample", counted)

    def extract(out: str, *vocab_args: str) -> bytes:
        assert main(["extract", "--quiet", "--corpus", str(corpus.root), *vocab_args,
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    built = extract("built.csv", "--build-vocab", str(tmp_path / "vocab.json"))
    assert len(corpus) == 36
    assert calls == Counter({s.id: 1 for s in corpus.samples})
    # the digests build_vocab held project to the matrix that reading every
    # sample again under the saved vocabulary gives
    assert extract("again.csv", "--build-vocab", str(tmp_path / "v2.json")) == built
    assert (tmp_path / "v2.json").read_bytes() == (tmp_path / "vocab.json").read_bytes()
    assert extract("reread.csv", "--vocab", str(tmp_path / "vocab.json")) == built
    assert calls == Counter({s.id: 3 for s in corpus.samples})


def test_extract_config_controls_groups(cli_env, tmp_path, capsys):
    narrow = tmp_path / "narrow.json"
    save_config(RunConfig(groups=(GROUP_COMPLEXITY,)), narrow)
    code = main([
        "extract", "--quiet", "--config", str(narrow),
        "--corpus", str(cli_env["corpus"]),
        "--build-vocab", str(tmp_path / "v.json"),
        "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("total: 6")


def test_select_reports_kept_counts(cli_env, tmp_path, capsys):
    matrix = tmp_path / "train.csv"
    assert main([
        "extract", "--quiet", "--config", str(cli_env["config"]),
        "--corpus", str(cli_env["corpus"]),
        "--build-vocab", str(tmp_path / "vocab.json"),
        "--out", str(matrix),
    ]) == 0
    capsys.readouterr()
    code = main([
        "select", "--quiet", "--config", str(cli_env["config"]),
        "--matrix", str(matrix),
        "--budget", "section_size=5",
        "--out", str(tmp_path / "sel.json"),
    ])
    assert code == 0
    assert "section_size: kept 5 of 27" in capsys.readouterr().out


def test_select_rejects_non_finite_matrix(cli_env, tmp_path, capsys):
    matrix = tmp_path / "train.csv"
    assert main([
        "extract", "--quiet", "--config", str(cli_env["config"]),
        "--corpus", str(cli_env["corpus"]),
        "--build-vocab", str(tmp_path / "vocab.json"),
        "--out", str(matrix),
    ]) == 0
    lines = matrix.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = "nan"
    lines[1] = ",".join(cells)
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "select", "--quiet", "--config", str(cli_env["config"]),
        "--matrix", str(matrix),
        "--out", str(tmp_path / "sel.json"),
    ])
    assert code == 2  # a data error, not an endless fit
    assert "train.csv:2: non-finite value" in capsys.readouterr().err


def test_select_rejects_a_matrix_with_an_oversized_cell(cli_env, tmp_path, capsys):
    matrix = tmp_path / "train.csv"
    matrix.write_text(f"id,label,fsz_asm\na,1,{'1' * 200_000}\n", encoding="utf-8")
    code = main([
        "select", "--quiet", "--config", str(cli_env["config"]),
        "--matrix", str(matrix),
        "--out", str(tmp_path / "sel.json"),
    ])
    assert code == 2  # a data error, not a traceback
    assert "train.csv:2: malformed matrix: field larger than field limit" in capsys.readouterr().err


def test_select_rejects_bad_budgets(cli_env, tmp_path, capsys):
    for budget in ("section_size=zero", "bogus=3", "section_size=0"):
        code = main([
            "select", "--matrix", str(tmp_path / "whatever.csv"),
            "--budget", budget, "--out", str(tmp_path / "s.json"),
        ])
        assert code in (1, 2)  # budget errors beat the missing matrix
    capsys.readouterr()


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def test_train_prints_run_summary(cli_env, tmp_path, capsys):
    code = main([
        "train", "--quiet", "--config", str(cli_env["config"]),
        "--corpus", str(cli_env["corpus"]), "--out", str(tmp_path / "run"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "train samples: " in out
    assert "feature dimensions: 40" in out
    assert "cv mean accuracy: " in out
    assert "holdout accuracy: " in out
    assert f"model directory: {tmp_path / 'run'}" in out


def test_train_requires_labels(tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "aa.asm").write_text(".text:00401000 90 nop\n", encoding="ascii")
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m")]) == 2
    assert "no label file" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "undecodable"])
def test_train_unreadable_labels_is_a_data_error(tmp_path, capsys, case):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "aa.asm").write_text(".text:00401000 90 nop\n", encoding="ascii")
    labels = tmp_path / "labels.csv"
    if case == "undecodable":
        labels.write_bytes(b"\xffId,Class\naa,1\n")
    code = main(["train", "--corpus", str(corpus), "--labels", str(labels),
                 "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: cannot read labels {labels}" in err
    assert "Traceback" not in err


def test_eval_on_matching_matrix(cli_env, tmp_path, capsys):
    matrix = tmp_path / "holdout.csv"
    assert main([
        "extract", "--quiet", "--config", str(cli_env["model"] / "config.json"),
        "--corpus", str(cli_env["corpus"]),
        "--vocab", str(cli_env["model"] / "vocab.json"),
        "--selection", str(cli_env["model"] / "selection.json"),
        "--out", str(matrix),
    ]) == 0
    capsys.readouterr()
    code = main(["eval", "--quiet", "--model-dir", str(cli_env["model"]),
                 "--matrix", str(matrix)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy: ")
    assert "confusion (rows true, cols predicted):" in out


def test_eval_rejects_matrix_from_other_schema(cli_env, tmp_path, capsys):
    matrix = tmp_path / "other.csv"
    assert main([
        "extract", "--quiet", "--config", str(cli_env["config"]),
        "--corpus", str(cli_env["corpus"]),
        "--build-vocab", str(tmp_path / "v.json"),
        "--out", str(matrix),
    ]) == 0
    capsys.readouterr()
    code = main(["eval", "--model-dir", str(cli_env["model"]), "--matrix", str(matrix)])
    assert code == 2
    assert "digest" in capsys.readouterr().err


def test_eval_on_corpus(cli_env, capsys):
    code = main(["eval", "--quiet", "--model-dir", str(cli_env["model"]),
                 "--corpus", str(cli_env["corpus"])])
    assert code == 0
    assert "accuracy: " in capsys.readouterr().out


def test_eval_requires_exactly_one_source(cli_env, capsys):
    assert main(["eval", "--model-dir", str(cli_env["model"])]) == 1
    assert "exactly one of --matrix or --corpus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_single_sample(cli_env, capsys):
    asm = sorted(cli_env["corpus"].glob("*.asm"))[0]
    code = main(["classify", "--quiet", "--model-dir", str(cli_env["model"]), str(asm)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert all(" -> " in line for line in lines)
    probs = [float(line.split(" -> ")[0]) for line in lines]
    assert probs == sorted(probs, reverse=True)
    assert not lines[0].startswith("#")  # single sample: no id header


def test_classify_directory_uses_id_headers(cli_env, capsys):
    code = main(["classify", "--quiet", "--model-dir", str(cli_env["model"]),
                 str(cli_env["corpus"])])
    assert code == 0
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.startswith("# ")]
    assert len(headers) == 27
    assert headers == sorted(headers)  # directory scan is id-sorted


def test_classify_json_shape(cli_env, capsys):
    asm = sorted(cli_env["corpus"].glob("*.asm"))[0]
    code = main(["classify", "--quiet", "--json",
                 "--model-dir", str(cli_env["model"]), str(asm)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    entry = doc[0]
    assert entry["id"] == asm.stem
    assert set(entry) == {
        "id", "prediction", "family", "probabilities", "parse_failures", "imports_degraded",
    }
    assert set(entry["probabilities"]) == {str(c) for c in range(1, 10)}
    assert abs(sum(entry["probabilities"].values()) - 1.0) < 1e-9
    assert str(entry["prediction"]) in entry["probabilities"]
    assert entry["parse_failures"] == 0  # the synthetic listings parse cleanly
    assert entry["imports_degraded"] is False  # no PE was read


def test_classify_json_reports_parse_failures(cli_env, tmp_path, capsys):
    good = sorted(cli_env["corpus"].glob("*.asm"))[0]
    noisy = tmp_path / "noisy.asm"
    noisy.write_bytes(good.read_bytes() + b"garbage line\n\xff\xfe not a listing\n.text:zz nop\n")
    code = main(["classify", "--quiet", "--json",
                 "--model-dir", str(cli_env["model"]), str(good), str(noisy)])
    assert code == 0
    doc = {entry["id"]: entry for entry in json.loads(capsys.readouterr().out)}
    assert doc[good.stem]["parse_failures"] == 0
    assert doc["noisy"]["parse_failures"] == 3


def test_classify_json_reports_degraded_imports(cli_env, tmp_path, capsys):
    spec = [SectionSpec(".text", 64, 128, executable=True), SectionSpec(".data", 32, 64),
            SectionSpec(".rsrc", 16, 32)]
    (tmp_path / "whole.exe").write_bytes(build_pe(spec, imports=("KERNEL32.dll",)))
    # cut inside the third section header: the parse stops, two sections survive
    (tmp_path / "cut.exe").write_bytes(build_pe(spec)[: 88 + 224 + 2 * 40 + 10])
    code = main(["classify", "--quiet", "--json", "--model-dir", str(cli_env["model"]),
                 str(tmp_path / "whole.exe"), str(tmp_path / "cut.exe")])
    assert code == 0
    doc = {entry["id"]: entry for entry in json.loads(capsys.readouterr().out)}
    assert doc["whole"]["imports_degraded"] is False
    assert doc["cut"]["imports_degraded"] is True


def test_classify_warns_on_an_all_zero_vector(cli_env, tmp_path, capsys):
    # a model of the section groups alone: an empty listing has no segments,
    # so every one of its dims reads zero
    config = tmp_path / "config.json"
    save_config(RunConfig(groups=(GROUP_SECTION_SIZE, GROUP_SECTION_PERM), folds=2,
                          forest=ForestParams(n_trees=5, seed=0)), config)
    model = tmp_path / "model"
    assert main(["train", "--quiet", "--config", str(config),
                 "--corpus", str(cli_env["corpus"]), "--out", str(model)]) == 0
    good = sorted(cli_env["corpus"].glob("*.asm"))[0]
    (tmp_path / "empty.asm").write_bytes(b"")
    capsys.readouterr()
    code = main(["classify", "--quiet", "--json", "--model-dir", str(model),
                 str(good), str(tmp_path / "empty.asm")])
    assert code == 0
    captured = capsys.readouterr()
    assert [entry["id"] for entry in json.loads(captured.out)] == [good.stem, "empty"]
    assert captured.err.splitlines() == ["warning: empty: all-zero feature vector"]
    assert main(["classify", "--quiet", "--model-dir", str(model),
                 str(tmp_path / "empty.asm")]) == 0
    assert "all-zero" in capsys.readouterr().err


def test_classify_missing_file_fails(cli_env, capsys):
    code = main(["classify", "--model-dir", str(cli_env["model"]),
                 str(cli_env["root"] / "ghost.asm")])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_classify_partial_failure_keeps_good_results(cli_env, tmp_path, capsys):
    good = sorted(cli_env["corpus"].glob("*.asm"))[0]
    bad = tmp_path / "broken.exe"
    bad.write_bytes(b"MZ but nothing else")
    code = main(["classify", "--quiet", "--model-dir", str(cli_env["model"]),
                 str(good), str(bad)])
    assert code == 0
    captured = capsys.readouterr()
    assert "error: broken: " in captured.err
    assert f"# {good.stem}" in captured.out


def test_classify_rejects_malformed_vocabulary(cli_env, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(cli_env["model"], model)
    doc = json.loads((model / "vocab.json").read_text(encoding="utf-8"))
    doc["api_grams"] = [[1, 2, 3, 4]]
    (model / "vocab.json").write_text(json.dumps(doc), encoding="utf-8")
    asm = sorted(cli_env["corpus"].glob("*.asm"))[0]
    code = main(["classify", "--model-dir", str(model), str(asm)])
    assert code == 2
    assert "error: malformed vocabulary" in capsys.readouterr().err


def test_classify_rejects_vocabulary_token_that_is_not_utf8(cli_env, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(cli_env["model"], model)
    doc = json.loads((model / "vocab.json").read_text(encoding="utf-8"))
    doc["section_names"].append("\ud800x")  # a lone surrogate, written as an escape
    (model / "vocab.json").write_text(json.dumps(doc), encoding="utf-8")
    asm = sorted(cli_env["corpus"].glob("*.asm"))[0]
    code = main(["classify", "--quiet", "--model-dir", str(model), str(asm)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed vocabulary")
    assert "not valid UTF-8" in err


@pytest.mark.parametrize("name", ["vocab.json", "config.json", "model.json", "selection.json"])
def test_classify_undecodable_model_file_is_a_data_error(cli_env, tmp_path, capsys, name):
    model = tmp_path / "model"
    shutil.copytree(cli_env["model"], model)
    (model / name).write_bytes(b"\xff" + (model / name).read_bytes())
    asm = sorted(cli_env["corpus"].glob("*.asm"))[0]
    code = main(["classify", "--quiet", "--model-dir", str(model), str(asm)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert str(model / name) in err


def test_classify_counts_vanished_listing_as_failed(cli_env, tmp_path, capsys, monkeypatch):
    good = sorted(cli_env["corpus"].glob("*.asm"))[0]
    doomed = tmp_path / "doomed.asm"
    doomed.write_bytes(good.read_bytes())
    real_scan = cli_mod.scan_corpus

    def scan_then_vanish(root):
        manifest = real_scan(root)
        doomed.unlink()  # gone between the scan and the read
        return manifest

    shutil.copy(good, tmp_path / good.name)
    monkeypatch.setattr(cli_mod, "scan_corpus", scan_then_vanish)
    code = main(["classify", "--quiet", "--model-dir", str(cli_env["model"]), str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "error: doomed: sample doomed: cannot read" in captured.err
    assert f"# {good.stem}" in captured.out


def test_classify_rejects_duplicate_artifact(cli_env, tmp_path, capsys):
    a = tmp_path / "twin.exe"
    b = tmp_path / "twin.dll"
    a.write_bytes(b"x")
    b.write_bytes(b"y")
    code = main(["classify", "--model-dir", str(cli_env["model"]), str(a), str(b)])
    assert code == 2
    assert "more than one pe artifact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report formatting and parser behaviour
# ---------------------------------------------------------------------------

def test_format_report_orders_and_rounds():
    lines = format_report([0.2, 0.5, 0.3], (1, 2, 3))
    assert lines == ["0.50 -> Lollipop", "0.30 -> Kelihos_ver3", "0.20 -> Ramnit"]


def test_format_report_breaks_ties_by_class_id():
    lines = format_report([1 / 9] * 9, tuple(range(1, 10)))
    assert lines[0] == "0.11 -> Ramnit"
    assert lines[1] == "0.11 -> Lollipop"
    assert lines[-1] == "0.11 -> Gatak"


def test_parser_reserves_exit_code_two_for_data_errors(tmp_path):
    # argparse-level problems exit 1, leaving 2 to mean "input data was bad"
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--synthetic", "--seed", "x", "--out", str(tmp_path / "x")])
    assert exc.value.code == 1


def test_unreadable_config_is_a_data_error(tmp_path, capsys):
    code = main(["gen", "--synthetic", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "c")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"selection": []}, {"caps": []}, {"forest": 3}, {"forest": {"n_trees": 7.9}},
    {"train_fraction": "0.5"}, {"groups": {"file_size": 1, "complexity": 2}},
    {"prefer": ["pe"]},
])
def test_config_of_wrong_shape_is_a_data_error(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["gen", "--synthetic", "--config", str(path), "--out", str(tmp_path / "c")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid config")


def test_config_with_an_unknown_key_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"forest": {"n_tress": 10}}), encoding="utf-8")
    code = main(["gen", "--synthetic", "--config", str(path), "--out", str(tmp_path / "c")])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid config value: unknown key forest.n_tress\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_config_version_must_be_an_exact_integer(tmp_path, capsys, version):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": version}), encoding="utf-8")
    code = main(["gen", "--synthetic", "--config", str(path), "--out", str(tmp_path / "c")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unsupported config version")
