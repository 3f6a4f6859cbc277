"""PE parser tests: header decoding, import walking, truncation safety, dumps."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from malfam.errors import NotAPeError, TruncatedPeError
from malfam.pe import dump_bytes, parse_pe, read_dump

from pe_fixtures import SectionSpec, build_pe


def canonical(name: str) -> str:
    # independent mirror of the parser's naming rule
    return name.lstrip(".").lower()


def test_minimal_pe32_round_trip():
    data = build_pe([SectionSpec(".text", 0x100, 0x200, executable=True)])
    summary = parse_pe(data)
    assert len(summary.sections) == 1
    sec = summary.sections[0]
    assert sec.name == "text"
    assert sec.virtual_size == 256
    assert sec.raw_size == 512
    assert (sec.readable, sec.writable, sec.executable) == (True, False, True)
    assert not summary.pe32plus
    assert summary.file_size == len(data)
    assert summary.import_libraries == frozenset()
    assert not summary.imports_degraded


def test_not_a_pe_errors():
    with pytest.raises(NotAPeError):
        parse_pe(b"ZZ" + bytes(200))
    with pytest.raises(NotAPeError):
        parse_pe(b"MZ")  # far below the DOS header minimum
    bad_sig = bytearray(build_pe([SectionSpec(".text", 16, 16)]))
    bad_sig[64:68] = b"XX\x00\x00"
    with pytest.raises(NotAPeError):
        parse_pe(bytes(bad_sig))
    bad_magic = bytearray(build_pe([SectionSpec(".text", 16, 16)]))
    struct.pack_into("<H", bad_magic, 88, 0x999)
    with pytest.raises(NotAPeError):
        parse_pe(bytes(bad_magic))


def test_import_libraries_round_trip():
    data = build_pe(
        [SectionSpec(".text", 64, 128, executable=True),
         SectionSpec(".idata", 256, 512)],
        imports=("KERNEL32.dll", "USER32.dll"),
    )
    summary = parse_pe(data)
    assert summary.import_libraries == frozenset({"KERNEL32", "USER32"})
    assert not summary.imports_degraded


def test_pe32plus_round_trip():
    data = build_pe(
        [SectionSpec(".text", 64, 128, executable=True)],
        imports=("ntdll.dll",),
        pe32plus=True,
    )
    summary = parse_pe(data)
    assert summary.pe32plus
    assert summary.import_libraries == frozenset({"NTDLL"})


def test_degraded_imports_when_directory_points_nowhere():
    image = bytearray(build_pe(
        [SectionSpec(".text", 64, 128), SectionSpec(".idata", 256, 512)],
        imports=("KERNEL32.dll",),
    ))
    entry = 88 + 96 + 8  # PE32 import directory entry
    struct.pack_into("<II", image, entry, 0x00FF0000, 40)
    summary = parse_pe(bytes(image))
    assert summary.imports_degraded
    assert summary.import_libraries == frozenset()
    assert len(summary.sections) == 2  # headers still decoded


def test_randomized_round_trips():
    rng = np.random.default_rng(42)
    library_pool = ("KERNEL32.dll", "USER32.dll", "ADVAPI32.dll", "ws2_32.dll",
                    "GDI32.dll", "SHELL32.dll", "ole32.dll", "MSVCRT.dll")
    for _ in range(40):
        n = int(rng.integers(1, 21))
        specs = []
        for k in range(n):
            prefix = "." if rng.random() < 0.5 else ""
            mixed = f"Se{k}c" if rng.random() < 0.5 else f"s{k}"
            specs.append(SectionSpec(
                name=prefix + mixed,
                virtual_size=int(rng.integers(0, 0x4000)),
                raw_size=int(rng.integers(0, 0x2000)),
                readable=bool(rng.integers(0, 2)),
                writable=bool(rng.integers(0, 2)),
                executable=bool(rng.integers(0, 2)),
            ))
        n_imports = int(rng.integers(0, 5))
        chosen = tuple(library_pool[int(i)] for i in rng.choice(len(library_pool), n_imports, replace=False))
        plus = bool(rng.integers(0, 2))
        data = build_pe(specs, imports=chosen, pe32plus=plus)
        summary = parse_pe(data)

        assert summary.pe32plus is plus
        assert len(summary.sections) == n
        for spec, sec in zip(specs, summary.sections):
            assert sec.name == canonical(spec.name)
            assert sec.virtual_size >= spec.virtual_size
            assert sec.raw_size >= spec.raw_size
            assert (sec.readable, sec.writable, sec.executable) == (
                spec.readable, spec.writable, spec.executable)
        expected = frozenset(lib.rsplit(".", 1)[0].upper() for lib in chosen)
        assert summary.import_libraries == expected


def test_truncation_fuzz_every_offset():
    data = build_pe(
        [SectionSpec(".text", 64, 128, executable=True),
         SectionSpec(".data", 32, 64, writable=True),
         SectionSpec(".idata", 256, 512)],
        imports=("KERNEL32.dll", "USER32.dll"),
    )
    full = parse_pe(data)
    assert full.import_libraries  # the fixture itself must be healthy
    for cut in range(len(data)):
        try:
            parse_pe(data[:cut])
        except (NotAPeError, TruncatedPeError):
            continue
        # prefixes long enough to hold all declared structures may succeed


def test_truncated_error_carries_partial_sections():
    data = build_pe([
        SectionSpec(".text", 64, 128),
        SectionSpec(".data", 32, 64),
        SectionSpec(".rsrc", 16, 32),
    ])
    table = 88 + 224
    # cut inside the third section header: two full headers survive
    cut = table + 2 * 40 + 10
    with pytest.raises(TruncatedPeError) as info:
        parse_pe(data[:cut])
    assert [s.name for s in info.value.sections] == ["text", "data"]


def test_load_pe_reads_from_disk(tmp_path):
    data = build_pe([SectionSpec(".text", 16, 32, executable=True)])
    path = tmp_path / "sample.exe"
    path.write_bytes(data)
    assert parse_pe(path.read_bytes()).sections[0].name == "text"


def test_dump_bytes_reference_line():
    payload = bytes.fromhex("C40174ACD9EED9C0DDEADFE0F6C4447A")
    assert dump_bytes(payload, base_address=0x10001100) == (
        "10001100 C4 01 74 AC D9 EE D9 C0 DD EA DF E0 F6 C4 44 7A\n"
    )


def test_dump_bytes_empty():
    assert dump_bytes(b"") == ""


def test_dump_bytes_pads_final_line():
    text = dump_bytes(bytes(range(17)))
    lines = text.splitlines()
    assert len(lines) == 2
    tokens = lines[1].split()
    assert tokens[0] == "00000010"
    assert tokens[1] == "10"
    assert tokens[2:] == ["??"] * 15


def test_dump_round_trip_random_payloads():
    rng = np.random.default_rng(5)
    for _ in range(50):
        payload = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200))))
        base = int(rng.integers(0, 2**31))
        assert read_dump(dump_bytes(payload, base)) == payload


def test_read_dump_skips_non_dump_lines():
    text = "not a dump line\n00000000 41 42\n"
    assert read_dump(text) == b"AB"
