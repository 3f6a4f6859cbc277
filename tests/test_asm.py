"""Disassembly-listing parser tests: line grammar, segments, imports, streams,
and the one-pass scanner against the by-line oracle."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from malfam import asm
from malfam.asm import (
    PARSE_FAILURE,
    AsmLine,
    parse_line,
    parse_listing,
    scan_buffer,
    scan_listing,
)
from oracles import reference_scan

HEX_PAIR = re.compile(r"^[0-9A-F]{2}$")


def test_parse_line_full_instruction():
    line = parse_line(".text:1000110C F6 C4 44 test    ah, 44h")
    assert isinstance(line, AsmLine)
    assert line.section == "text"
    assert line.address == 0x1000110C
    assert line.byte_tokens == (0xF6, 0xC4, 0x44)
    assert line.mnemonic == "test"
    assert line.operands == "ah, 44h"
    assert line.comment is None


def test_parse_line_data_directive_is_not_a_byte():
    # lowercase db must land in the mnemonic slot, not the byte column
    line = parse_line(".text:00401000 db      10")
    assert line.byte_tokens == ()
    assert line.mnemonic == "db"
    assert line.operands == "10"


def test_parse_line_comment_only():
    line = parse_line(".idata:0040F000 ; Imports from KERNEL32.dll")
    assert line.mnemonic is None
    assert line.operands is None
    assert line.comment == "Imports from KERNEL32.dll"


def test_parse_line_blank_and_failure():
    assert parse_line("") is None
    assert parse_line("   \t  ") is None
    assert parse_line("no prefix here") is PARSE_FAILURE
    assert parse_line("; top-of-file banner") is PARSE_FAILURE


def test_parse_line_unknown_byte_placeholders():
    line = parse_line(".data:00403000 ?? ?? 41 ??")
    assert line.byte_tokens == (None, None, 0x41, None)
    assert line.known_bytes == 1
    assert line.span == 4


def test_parse_line_uppercase_db_is_a_byte_value():
    # the same two letters flip meaning with case: DB dumped byte, db directive
    line = parse_line(".text:00401000 DB db 0")
    assert line.byte_tokens == (0xDB,)
    assert line.mnemonic == "db"


def test_parse_line_never_yields_lowercase_bytes_or_hex_mnemonic():
    rng = np.random.default_rng(7)
    pieces = ["AB", "??", "db", "dd", "mov", "eax,", "loc_401000", ";", "x", "0F", "f6"]
    for _ in range(500):
        n = int(rng.integers(0, 8))
        body = " ".join(pieces[int(i)] for i in rng.integers(0, len(pieces), n))
        line = parse_line(f".text:{int(rng.integers(0, 2**32)):08X} {body}")
        if not isinstance(line, AsmLine):
            continue
        if line.mnemonic is not None:
            assert not HEX_PAIR.match(line.mnemonic)
        assert all(b is None or 0 <= b <= 255 for b in line.byte_tokens)


def test_parse_line_is_total_under_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))))
        text = raw.decode("utf-8", errors="replace")
        result = parse_line(text)
        assert result is None or result is PARSE_FAILURE or isinstance(result, AsmLine)


def test_parse_listing_counts_failures_and_keeps_order():
    text = "\n".join([
        ".text:00401000 55 push ebp",
        "garbage line",
        "",
        ".text:00401001 8B EC mov ebp, esp",
        "HEADER banner",
    ])
    listing = parse_listing(text)
    assert listing.parse_failures == 2
    assert [l.mnemonic for l in listing.lines] == ["push", "mov"]


SIX_LINE_LISTING = "\n".join([
    ".text:00401000 55 push ebp          ; Segment permissions: Read/Execute",
    ".text:00401001 8B EC mov ebp, esp",
    ".data:00403000 ?? ?? ?? ?? dd 4 dup(?)",
    ".data:00403004 01 00 dw 1",
    ".text:00405000 C3 retn",
    ".text:00405010 CC align 10h",
])


def test_parse_segments_two_text_runs_hand_counted():
    segments = scan_listing(SIX_LINE_LISTING).segments
    assert [s.name for s in segments] == ["text", "data", "text"]

    first, data, second = segments
    # run 1: 0x401000 + 1 byte, 0x401001 + 2 bytes -> [0x401000, 0x401003)
    assert (first.start, first.end, first.span) == (0x401000, 0x401003, 3)
    assert (first.readable, first.writable, first.executable) == (True, False, True)
    assert first.declared_perms
    # data run: 4 placeholders then 2 bytes -> [0x403000, 0x403006)
    assert (data.start, data.end, data.span) == (0x403000, 0x403006, 6)
    assert not data.declared_perms
    # run 2: retn at 0x405000 (1 byte), align at 0x405010 (1 byte)
    assert (second.start, second.end, second.span) == (0x405000, 0x405011, 17)


def test_parse_segments_declared_permissions_win():
    (seg,) = scan_listing("\n".join([
        ".rsrc:00407000 00 db 0 ; Segment permissions: Read/Write",
        ".rsrc:00407001 00 db 0 ; Segment permissions: Execute",
    ])).segments
    # first banner in the run wins
    assert (seg.readable, seg.writable, seg.executable) == (True, True, False)
    assert seg.declared_perms


def test_parse_segments_default_rule():
    data, text = scan_listing("\n".join([
        ".data:00403000 00 db 0",
        ".text:00401000 C3 retn",
    ])).segments
    assert (data.readable, data.writable, data.executable) == (True, False, False)
    assert (text.readable, text.writable, text.executable) == (True, False, True)
    assert not data.declared_perms and not text.declared_perms


def test_parse_segments_spans_well_formed():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = []
        addr = 0x1000
        for _ in range(int(rng.integers(1, 30))):
            section = (".text", ".data")[int(rng.integers(0, 2))]
            n = int(rng.integers(0, 4))
            byte_part = " ".join("90" for _ in range(n))
            rows.append(f"{section}:{addr:08X} {byte_part} nop")
            addr += max(n, 1) + int(rng.integers(0, 3))
        segments = scan_listing("\n".join(rows)).segments
        for seg in segments:
            assert seg.end >= seg.start


def test_parse_imports_libraries_and_symbols():
    info = scan_listing("\n".join([
        ".idata:0040F000 ; Imports from KERNEL32.dll",
        ".idata:0040F0A4 extrn GetProcAddress:dword",
        ".idata:0040F0A8 extrn __imp_WriteFile:dword",
    ])).imports
    assert "KERNEL32" in info.libraries
    assert "GetProcAddress" in info.api_symbols
    assert "WriteFile" in info.api_symbols
    assert "__imp_WriteFile" not in info.api_symbols


def test_parse_imports_empty_listing_is_valid():
    info = scan_listing("").imports
    assert info.libraries == frozenset()
    assert info.api_symbols == frozenset()


def test_opcode_stream_includes_data_directives():
    opcodes = scan_listing("\n".join([
        ".text:00401000 EB 08 jmp short loc_40100A",
        ".text:00401002 db      10",
        ".text:00401003 B8 00 00 00 00 mov eax, 0",
        ".text:00401008 03 C3 add eax, ebx",
    ])).opcodes
    assert opcodes == ["jmp", "db", "mov", "add"]


def test_opcode_stream_comment_only_lines_yield_nothing():
    opcodes = scan_listing("\n".join([
        ".text:00401000 ; a banner",
        ".text:00401001 ; another",
    ])).opcodes
    assert opcodes == []


def test_opcode_stream_length_matches_independent_recount():
    rng = np.random.default_rng(17)
    mnemonics = ["mov", "push", "pop", "db", "dd", "call", "jmp", "add"]
    for _ in range(30):
        rows = []
        expected = 0
        for k in range(int(rng.integers(1, 40))):
            if rng.random() < 0.25:
                rows.append(f".text:{0x1000 + k:08X} ; noise")
            else:
                op = mnemonics[int(rng.integers(0, len(mnemonics)))]
                rows.append(f".text:{0x1000 + k:08X} 90 {op} eax")
                expected += 1
        assert len(scan_listing("\n".join(rows)).opcodes) == expected


THUNK_LISTING = "\n".join([
    ".idata:0040F000 extrn ReadFile:dword",
    ".idata:0040F004 extrn WriteFile:dword",
    ".text:00401000 j_write_file proc near",
    ".text:00401000 FF 25 04 F0 40 00 jmp ds:WriteFile",
    ".text:00401006 j_write_file endp",
    ".text:00401006 j_read_file proc near",
    ".text:00401006 FF 25 00 F0 40 00 jmp ds:ReadFile",
    ".text:0040100C j_read_file endp",
    ".text:00401010 E8 F1 FF FF FF call j_read_file",
    ".text:00401015 E8 EC FF FF FF call j_write_file",
    ".text:0040101A E8 E7 FF FF FF call j_read_file",
])


def test_api_stream_sees_thunks_not_true_call_order():
    # the calls go read, write, read; a linear scan only sees the two
    # thunk-definition jmps, in their definition order
    assert scan_listing(THUNK_LISTING).api_calls == ["WriteFile", "ReadFile"]


def test_api_stream_direct_match_and_non_import():
    api_calls = scan_listing("\n".join([
        ".idata:0040F000 extrn WriteFile:dword",
        ".text:00401000 FF 15 00 F0 40 00 call ds:WriteFile",
        ".text:00401006 E8 00 10 00 00 call sub_401000",
    ])).api_calls
    assert api_calls == ["WriteFile"]


def test_api_stream_whole_token_only():
    api_calls = scan_listing("\n".join([
        ".idata:0040F000 extrn ReadFile:dword",
        ".text:00401000 FF 15 00 F0 40 00 call ds:ReadFileEx",
    ])).api_calls
    # ReadFileEx is a different symbol; substring matching would be wrong
    assert api_calls == []


def test_api_stream_without_externs_is_empty():
    assert scan_listing(".text:00401000 FF 15 00 F0 40 00 call ds:WriteFile").api_calls == []


# ---------------------------------------------------------------------------
# scan_listing against the by-line oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

HAND_LISTINGS = [
    SIX_LINE_LISTING,
    THUNK_LISTING,
    "",
    "\n".join([
        ".text:00401000 55 push ebp",
        "garbage line",
        "",
        ".text:00401001 8B EC mov ebp, esp",
        "HEADER banner",
    ]),
    "\n".join([
        ".rsrc:00407000 00 db 0 ; Segment permissions: Read/Write",
        ".rsrc:00407001 00 db 0 ; Segment permissions: Execute",
    ]),
    ".data:00403000 00 db 0\n.text:00401000 C3 retn",
    "\n".join([
        ".idata:0040F000 ; Imports from KERNEL32.dll",
        ".idata:0040F0A4 extrn GetProcAddress:dword",
        ".idata:0040F0A8 extrn __imp_WriteFile:dword",
    ]),
    "\n".join([
        ".text:00401000 EB 08 jmp short loc_40100A",
        ".text:00401002 db      10",
        ".text:00401003 B8 00 00 00 00 mov eax, 0",
        ".text:00401008 03 C3 add eax, ebx",
    ]),
    ".text:00401000 ; a banner\n.text:00401001 ; another",
    "\n".join([
        ".idata:0040F000 extrn WriteFile:dword",
        ".text:00401000 FF 15 00 F0 40 00 call ds:WriteFile",
        ".text:00401006 E8 00 10 00 00 call sub_401000",
    ]),
    ".idata:0040F000 extrn ReadFile:dword\n.text:00401000 FF 15 00 F0 40 00 call ds:ReadFileEx",
    ".text:00401000 FF 15 00 F0 40 00 call ds:WriteFile",
    # the extern is declared after the call that names it
    ".text:00401000 FF 15 00 F0 40 00 call ds:WriteFile\n.idata:0040F000 extrn WriteFile:dword",
    ".text:1000110C F6 C4 44 test    ah, 44h",
    ".data:00403000 ?? ?? 41 ??",
    ".text:00401000 DB db 0",
]


@pytest.mark.parametrize("text", HAND_LISTINGS)
def test_scan_listing_matches_oracle_on_hand_listings(text):
    assert scan_listing(text) == reference_scan(parse_listing(text))


def test_scan_listing_hand_counted():
    scan = scan_listing(SIX_LINE_LISTING)
    assert [(s.name, s.start, s.end) for s in scan.segments] == [
        ("text", 0x401000, 0x401003), ("data", 0x403000, 0x403006), ("text", 0x405000, 0x405011),
    ]
    assert scan.known_bytes == {"text": 5, "data": 2}
    assert scan.opcodes == ["push", "mov", "dd", "dw", "retn", "align"]
    assert scan.parse_failures == 0


# pieces the fuzzed lines are drawn from: line breaks splitlines() honours,
# whitespace that str.split() and the regex \s treat alike, and tokens near
# every branch of the grammar (bytes next to ';', lowercase hex, placeholders,
# dot-only and empty sections, 16- and 17-digit addresses, call/extrn shapes)
FUZZ_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
FUZZ_SPACES = [" ", " ", " ", "  ", "\t", "\xa0", "\u3000", "\x1f", ""]
FUZZ_SECTIONS = [".text", ".text", ".data", "text", ".TEXT", ".idata", "...", ".", "", "a.b", "CODE:x"]
FUZZ_ADDRESSES = [
    "00401000", "00401001", "0040100a", "00401010", "1", "FFFFFFFFFFFFFFFF",
    "12345678901234567", "", "zz", "0040;",
]
FUZZ_BYTES = ["AB", "C3", "00", "??", "DB"]
FUZZ_NEAR_BYTES = ["ab", "AB;", "??;", "?", "???", "ABC", "F", "0F0", "A\u0660"]
FUZZ_STATEMENTS = [
    "extrn WriteFile:dword", "extrn __imp_ReadFile:dword", "EXTRN ReadFile:dword x",
    "extrn :dword", "extrn __imp_:dword", "extrn WriteFile", "call ds:WriteFile",
    "jmp ReadFile", "CALL [WriteFile+4]", "call sub_401000 ; WriteFile", "jmp x;ReadFile",
    "call\tds:ReadFile\xa0", "jmp", "call ;", "mov eax, WriteFile",
]
FUZZ_TOKENS = [
    "db", "dd", "mov", "MOV", "call", "CALL", "jmp", "Jmp", "extrn", "EXTRN",
    "ds:WriteFile", "WriteFile", "ReadFile", "__imp_ReadFile:dword", "WriteFile:dword",
    ":dword", "eax,", ";", "x;y",
    "; Imports from KERNEL32.dll", "; Segment permissions: Read/Write", ";Segment permissions:",
    "Imports", "from", "x.dll", "Read/Execute", "\u0130mports", "\x85", "\r", "\xe9",
]


def fuzz_listing(rng: np.random.Generator) -> str:
    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    parts = []
    for _ in range(int(rng.integers(0, 12))):
        line = pick(FUZZ_SPACES) if rng.random() < 0.2 else ""
        if rng.random() < 0.5:
            line += f".text:{int(rng.integers(0x401000, 0x401040)):08X}"
        elif rng.random() < 0.7:
            line += f"{pick(FUZZ_SECTIONS)}:{pick(FUZZ_ADDRESSES)}"
        for _ in range(int(rng.integers(0, 5))):
            line += pick(FUZZ_SPACES) + pick(FUZZ_BYTES if rng.random() < 0.8 else FUZZ_NEAR_BYTES)
        if rng.random() < 0.6:
            line += pick(FUZZ_SPACES) + pick(FUZZ_STATEMENTS)
        for _ in range(int(rng.integers(0, 5))):
            line += pick(FUZZ_SPACES) + pick(FUZZ_TOKENS)
        if rng.random() < 0.2:
            line += pick(FUZZ_SPACES)
        parts.append(line + pick(FUZZ_BREAKS))
    return "".join(parts)


def test_scan_listing_matches_oracle_under_fuzz():
    rng = np.random.default_rng(2024)
    for _ in range(5000):
        text = fuzz_listing(rng)
        assert scan_listing(text) == reference_scan(parse_listing(text))


def test_scan_listing_matches_oracle_on_random_bytes():
    rng = np.random.default_rng(5)
    for _ in range(500):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200))))
        text = raw.decode("utf-8", errors="replace")
        assert scan_listing(text) == reference_scan(parse_listing(text))


# the body memo: a line's body (after its first space) is parsed once and
# reused behind any head that passes the prefix check; these heads sit on
# every side of that check, and the bodies repeat so most lines look one up
MEMO_BODIES = [
    "", " ", "55 push ebp", "AB ?? C3", "?? ?? ??", "?? db ?", "00 00 00 00 dd      0",
    "DB db 0", "AB;x", "ab mov eax, 1", "AB C3 ; Segment permissions: Read/Write",
    "; Imports from KERNEL32.dll", "; Segment permissions: Execute", ";", "\tpush ebp",
    ".text:00401000 nop", "00401000 C3 retn", *FUZZ_STATEMENTS,
]
MEMO_LEADS = ["", "", "", "", " ", "\t", "\xa0", "\x1f"]
MEMO_SECTIONS = [
    ".text", ".text", ".text", ".data", ".idata", "text", ".TEXT", "", "...", ".", "a.b",
    "CODE:x", "\xe9", "a\tb",
]
MEMO_ADDRESSES = [
    "00401000", "00401004", "0040100a", "1", "f", "FFFFFFFFFFFFFFFF", "ffffffffffffffff",
    "12345678901234567", "A\u0660", "0x1F", "0X1F", "1_0", "", "zz", "0040 ", "00:01",
]
MEMO_SEPARATORS = [" ", " ", " ", " ", "  ", "\t", "\xa0", "\x1f", " \t", "\t "]


def memo_listing(rng: np.random.Generator) -> str:
    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    bodies = [pick(MEMO_BODIES) for _ in range(4)]
    lines = []
    for _ in range(int(rng.integers(1, 40))):
        if rng.random() < 0.6:
            head = f".text:{int(rng.integers(0x401000, 0x401040)):08X}"
        else:
            head = pick(MEMO_LEADS) + f"{pick(MEMO_SECTIONS)}:{pick(MEMO_ADDRESSES)}"
        sep = " " if rng.random() < 0.6 else pick(MEMO_SEPARATORS)
        lines.append(head + sep + pick(bodies))
    return pick(FUZZ_BREAKS).join(lines)


def test_scan_listing_body_memo_matches_oracle_under_fuzz():
    rng = np.random.default_rng(4096)
    for _ in range(3000):
        text = memo_listing(rng)
        assert scan_listing(text) == reference_scan(parse_listing(text))


class CountingPattern:
    """Stands in for asm._LINE_RE and counts the lines it is asked to match."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, line):
        self.calls += 1
        return self.pattern.match(line)


def scan_counting_matches(monkeypatch, text: str) -> int:
    counting = CountingPattern(asm._LINE_RE)
    monkeypatch.setattr(asm, "_LINE_RE", counting)
    try:
        assert scan_listing(text) == reference_scan(parse_listing(text))
    finally:
        monkeypatch.undo()
    return counting.calls


def test_scan_listing_matches_each_distinct_body_once(monkeypatch):
    bodies = ["55 push ebp", "8B EC mov ebp, esp", "?? ?? db ?", "; Imports from KERNEL32.dll",
              "FF 15 00 F0 40 00 call ds:WriteFile", "extrn WriteFile:dword", "C3 retn"]
    sections = [".text", ".data", ".idata"]
    text = "\n".join(
        f"{sections[i // 50]}:{0x401000 + i:08X} {bodies[i % len(bodies)]}" for i in range(150)
    )
    assert scan_counting_matches(monkeypatch, text) == len(bodies)
    # a head the check refuses goes to the regex even when its body is known
    refused = text + "\n\t.text:00401000 55 push ebp\n.text:0x1F 55 push ebp"
    assert scan_counting_matches(monkeypatch, refused) == len(bodies) + 2


HEAD_NAME_PIECES = [
    ".text", "CODE", "", "_", "g", ".", "\u0660", "\xe9", "\t", "\xa0", "\x1f", ":",
]
HEAD_ADDRESS_PIECES = [
    "", "0", "00401000", "f", "FFFF", "ab", "0x", "_", "g", "123456789", "\u0660", "\t", "\x1f",
    ":",
]


def test_scan_listing_reuses_a_body_exactly_behind_a_head_of_the_grammar(monkeypatch):
    # the memo's str-method head check against the one definition of the
    # head, asm._HEAD: a known body behind a head it matches whole is a hit
    # (no second regex match), behind any other head the line goes to the
    # regex
    rng = np.random.default_rng(16)

    def pieces(options):
        return "".join(options[i] for i in rng.choice(len(options), size=int(rng.integers(0, 4))))

    hits = 0
    for _ in range(1500):
        head = pieces(HEAD_NAME_PIECES) + ":" + pieces(HEAD_ADDRESS_PIECES)
        text = f".text:00401000 55 push ebp\n{head} 55 push ebp"
        hit = re.fullmatch(asm._HEAD, head) is not None
        hits += hit
        assert scan_counting_matches(monkeypatch, text) == (1 if hit else 2), repr(head)
    assert hits >= 50


def test_scan_listing_body_memo_is_capped(monkeypatch):
    cap = asm._BODY_MEMO_CAP
    # each body three times in a row: the memo fills answering two lines in
    # three, so it is kept, and the bodies past the cap are matched every time
    rows = [f".text:{i:08X} dd {i:X}h" for i in range(cap + 300) for _ in range(3)]
    rows += [f".data:{i:08X} dd {i:X}h" for i in range(0, cap + 300, 7)]
    text = "\n".join(rows)
    past_cap = sum(1 for i in range(cap, cap + 300) for _ in range(4 if i % 7 == 0 else 3))
    assert scan_counting_matches(monkeypatch, text) == cap + past_cap
    # distinct bodies only: the memo fills without one hit and is dropped,
    # so a body repeated after that is matched on every line
    rows = [f".text:{i:08X} dd {i:X}h" for i in range(cap)] + [".text:00000000 dd 0h"] * 50
    assert scan_counting_matches(monkeypatch, "\n".join(rows)) == cap + 50


# scan_buffer decodes and splits the bytes SCAN_PIECE at a time; these put a
# piece boundary inside and around every line break str.splitlines honours
# ("\r\n" split between pieces, a file ending in "\r"), inside multibyte
# UTF-8 sequences, and in invalid and truncated UTF-8, at the end of the
# file too
BREAK_BYTES = [brk.encode() for brk in asm._LINE_BREAKS] + [b"\r\n", b"\n\r", b"\r\r\n"]
PIECE_EDGES = [
    b"", b"\r", b"\n", b"\r\n", b"a\r", b"\r\r", b"\xff", b"\xe2\x82", b"\xf0\x9f\x98",
    b"\xc3\x28", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80\x80",
    "\xe9\u20ac\U0001f600".encode(), b"x\xe2\x82\xacy\xe2\x82",
    *(b"ab" * k + brk + b"cd" + brk for brk in BREAK_BYTES for k in range(4)),
    *(b".text:00401000 55 push ebp" + brk + b"\xc3\xa9 \xe2\x82" + brk for brk in BREAK_BYTES),
    # lines longer than several pieces, closed by a "\r\n" and by a "\r"
    b"x" * 40 + b"\r\n" + b"y" * 40 + b"\r", b"z" * 40 + b"\r" + b"\xe2\x82" * 20,
]


def test_line_breaks_are_every_break_splitlines_honours():
    breaks = {chr(c) for c in range(0x10000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == set(asm._LINE_BREAKS)


def noisy_bytes(text: str, rng: np.random.Generator) -> bytes:
    """The text's UTF-8, with a few random bytes written in at random offsets."""
    data = bytearray(text.encode())
    for _ in range(int(rng.integers(0, 4))):
        at = int(rng.integers(0, len(data) + 1))
        data[at:at] = bytes(rng.integers(0x80, 0x100, size=int(rng.integers(1, 4))))
    return bytes(data)


@pytest.mark.parametrize("piece", [1, 2, 3, 7, asm.SCAN_PIECE])
def test_scan_buffer_matches_scan_listing_of_the_decoded_text(monkeypatch, piece):
    monkeypatch.setattr(asm, "SCAN_PIECE", piece)
    rng = np.random.default_rng(piece)
    cases = list(PIECE_EDGES)
    cases += [fuzz_listing(rng).encode() for _ in range(150)]
    cases += [noisy_bytes(fuzz_listing(rng), rng) for _ in range(150)]
    cases += [noisy_bytes(memo_listing(rng), rng) for _ in range(100)]
    cases += [bytes(rng.integers(0, 256, size=int(rng.integers(0, 100)))) for _ in range(100)]
    for data in cases:
        text = data.decode("utf-8", errors="replace")
        lines = [line for lines in asm._pieces(data) for line in lines]
        assert lines == text.splitlines(), data
        assert scan_buffer(data) == scan_listing(text), data


@pytest.fixture(scope="module")
def joined_listing(small_corpus) -> str:
    """About 540 KB: every synthetic listing of the session corpus, end to end."""
    return "".join(
        s.asm_path.read_bytes().decode("utf-8", errors="replace") for s in small_corpus.samples
    )


def test_scan_listing_matches_oracle_on_joined_synthetic_listing(joined_listing):
    assert len(joined_listing) >= 250_000
    assert scan_listing(joined_listing) == reference_scan(parse_listing(joined_listing))


def scan_peak_over_size(text: str) -> float:
    """The scan's tracemalloc peak as a multiple of the text's UTF-8 size."""
    size = len(text.encode("utf-8"))
    assert size >= 250_000
    tracemalloc.start()
    try:
        scan_listing(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / size


def test_scan_listing_peak_memory_is_a_small_multiple_of_the_text(joined_listing):
    # the per-line AsmLine objects of parse_listing peak near 11x the text;
    # the scanner keeps only the line list and the streams
    assert scan_peak_over_size(joined_listing) <= 8


# listings of about 280 KB whose bodies never repeat.  Short lines past the
# cap: a memo holding every body would peak near 11x the text; the cap keeps
# it near 6x.  4,000 long lines under the cap: the memo keys each entry by a
# copy of its body (the cap counts entries, not bytes) and keeps what the
# comment declares, not its text, which takes the peak from about 1.9x to
# about 4.3x the text.
DISTINCT_BODY_LISTINGS = {
    "short-past-cap": "\n".join(f".text:{0x401000 + i:08X} dd {i:X}h" for i in range(12_000)),
    "long-under-cap": "\n".join(
        f".text:{0x401000 + 4 * i:08X} 8B 45 08 mov eax, [ebp+arg_0]"
        f" ; CODE XREF: sub_{0x402000 + 16 * i:X}+1Cj"
        for i in range(4_000)
    ),
}


@pytest.mark.parametrize("name", sorted(DISTINCT_BODY_LISTINGS))
def test_scan_listing_peak_memory_stays_bounded_when_every_body_is_distinct(name):
    assert scan_peak_over_size(DISTINCT_BODY_LISTINGS[name]) <= 8
