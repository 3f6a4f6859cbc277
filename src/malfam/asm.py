"""Parser for IDA-style disassembly listings (.asm files).

Each content line looks like

    .text:1000110C F6 C4 44     test    ah, 44h   ; maybe a comment

i.e. a ``section:address`` prefix, an optional run of dumped byte pairs, an
optional mnemonic with operands, and an optional ``;`` comment.  The parser is
total: any line maps to exactly one of {AsmLine, blank, parse failure} and a
whole-file pass never raises, whatever bytes are thrown at it.

Disambiguation rule for the byte column: a token is a dumped byte only if it
is an uppercase hex pair or ``??``.  Data directives are printed lowercase
(``db``, ``dd``), so they always land in the mnemonic slot even though "DB"
and "DD" would be valid hex pairs.

One fold reads a listing for the feature pipeline, in a single pass that
takes each line straight into the aggregates the features need (segments,
dumped bytes per section, imports, the opcode and API streams, the failure
count), so no per-line object is built.  It has two entry points.
`scan_buffer` takes the listing's bytes, as `digest_sample` holds them, and
decodes and splits them `SCAN_PIECE` bytes at a time, so the text is never
held whole and memory stays near the size of the file.  `scan_listing`
takes the decoded text and splits it at once; the tests and their oracle
use it, and both give the same `ListingScan` for the same bytes.  Listings
repeat the same line body (the text after the first space) over and over,
with only the ``section:address`` head changing, so the scan parses each
distinct body once: it matches a line against the one line regex, and when
the matched address ends at the first space it remembers what the body
gives the fold.  The rest of the match depends only on the text after the
address, so a later line with that body and a head of the same shape (a
section name without whitespace or ':', then 1-16 hex digits) takes the
remembered entry and parses only its head.  Any other line goes through the
regex.  The memo holds at most 4,096 bodies per call and is dropped when it
fills while rarely answering, so a listing of distinct bodies costs little
more than matching every line.  An entry keeps what a comment declares (a
segment's permissions, an imported library), not the comment's text.  The
cap counts entries, not bytes: each entry is keyed by its own copy of the
body, so a listing of up to 4,096 long distinct lines holds about one
extra copy of its text while it is scanned.  The memo keeps the first
bodies it sees and never evicts one.  The line reader -- `parse_line`, and
`parse_listing`/`load_listing` producing `AsmLine` objects -- parses the same
grammar one line at a time; the tests fold its lines into a `ListingScan` of
their own and require it to equal the scanner's.
"""
from __future__ import annotations

import codecs
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .util import canonical_library, canonical_section

# A line's section:address head, the one definition of it: section names
# never contain whitespace or ':', addresses are 1-16 hex digits.
# _PREFIX_RE, _LINE_RE and scan_listing's memo check are built from these.
_SECTION_NAME = r"[^\s:]+"
_HEX_DIGITS = "0123456789ABCDEFabcdef"
_MAX_ADDRESS_DIGITS = 16
_HEAD = rf"({_SECTION_NAME}):([{_HEX_DIGITS}]{{1,{_MAX_ADDRESS_DIGITS}}})"
# the head, after any leading whitespace and before whitespace or the end
_PREFIX_RE = re.compile(r"\s*" + _HEAD + r"(?=\s|$)")
_BYTE_TOKEN_RE = re.compile(r"^(?:[0-9A-F]{2}|\?\?)$")
_TOKEN_RE = re.compile(r"\S+")
_SEG_PERMS_RE = re.compile(r"^Segment permissions:\s*(.+?)\s*$", re.IGNORECASE)
_IMPORTS_FROM_RE = re.compile(r"^Imports from\s+(\S+)", re.IGNORECASE)
# identifier charset for operand tokens; covers IDA names incl. VC++ mangling
_NAME_TOKEN_RE = re.compile(r"[A-Za-z0-9_@?$]+")
# The whole line grammar in one pattern: the prefix, then the dumped-byte run
# (tokens that are a hex pair or ?? up to whitespace, ';' or the end), the
# mnemonic and operands (the rest of the code before the first ';') and the
# comment.  Everything after the prefix can match empty, so a line matches
# exactly when _PREFIX_RE does and the greedy byte run never gives a byte
# back to the mnemonic: the groups are what parse_line would take apart.
_LINE_RE = re.compile(
    _PREFIX_RE.pattern
    + r"((?:\s+(?:[0-9A-F][0-9A-F]|\?\?)(?![^\s;]))*)"
    r"(?:\s+([^\s;]+)([^;]*))?"
    r"[^;]*(?:;(.*))?",
    re.DOTALL,
)
# scan_listing checks a section name against this before it reuses a
# memoised body behind it
_SECTION_NAME_RE = re.compile(_SECTION_NAME)
# distinct line bodies scan_listing remembers per call, so the memo's size
# is bounded in entries (each is keyed by a copy of its body, so not in
# bytes): bodies past the cap are parsed, not remembered.  A memo that fills
# having answered fewer than a quarter as many lines as it holds (a hit rate
# under a fifth, about where the lookups cost what the hits save) is dropped
# for the rest of the call.
_BODY_MEMO_CAP = 4096

_CALL_MNEMONICS = frozenset({"call", "jmp"})

# bytes scan_buffer decodes and splits at a time: a piece of text and its
# line list are all of the listing held as text during the scan
SCAN_PIECE = 256 * 1024
# every character str.splitlines breaks a line at
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(f"[{_LINE_BREAKS}]")


class ParseFailure:
    """Singleton marker for lines that are neither blank nor parseable."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "PARSE_FAILURE"


PARSE_FAILURE = ParseFailure()


@dataclass(frozen=True)
class AsmLine:
    """One parsed listing line.

    byte_tokens holds dumped byte values; None marks a ``??`` placeholder
    (allocated but undumped, e.g. uninitialized data).
    """

    section: str
    address: int
    byte_tokens: tuple[int | None, ...]
    mnemonic: str | None = None
    operands: str | None = None
    comment: str | None = None

    @property
    def known_bytes(self) -> int:
        return sum(1 for b in self.byte_tokens if b is not None)

    @property
    def span(self) -> int:
        """Address range the line occupies: its byte count, at least 1."""
        return max(len(self.byte_tokens), 1)


@dataclass(frozen=True)
class SegmentInfo:
    """A maximal run of consecutive lines sharing one section name."""

    name: str
    start: int
    end: int  # exclusive
    readable: bool
    writable: bool
    executable: bool
    declared_perms: bool  # True when taken from a 'Segment permissions:' comment

    @property
    def span(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ImportInfo:
    libraries: frozenset[str]
    api_symbols: frozenset[str]


@dataclass(frozen=True)
class Listing:
    lines: tuple[AsmLine, ...]
    parse_failures: int


def parse_line(text: str) -> AsmLine | None | ParseFailure:
    """Parse one listing line.

    Returns None for blank lines and PARSE_FAILURE for anything without a
    valid ``section:address`` prefix.  Never raises.
    """
    if not text.strip():
        return None
    m = _PREFIX_RE.match(text)
    if m is None:
        return PARSE_FAILURE
    section = canonical_section(m.group(1))
    if not section:
        return PARSE_FAILURE
    address = int(m.group(2), 16)

    payload = text[m.end():]
    code, semi, comment_text = payload.partition(";")
    comment = comment_text.strip() if semi else None
    if comment == "":
        comment = None

    byte_tokens: list[int | None] = []
    mnemonic: str | None = None
    operands: str | None = None
    for tok_match in _TOKEN_RE.finditer(code):
        tok = tok_match.group()
        if _BYTE_TOKEN_RE.match(tok):
            byte_tokens.append(None if tok == "??" else int(tok, 16))
            continue
        mnemonic = tok.lower()
        rest = code[tok_match.end():].strip()
        operands = rest if rest else None
        break
    return AsmLine(section, address, tuple(byte_tokens), mnemonic, operands, comment)


def parse_listing(text: str) -> Listing:
    """Parse a whole listing; counts failed lines instead of raising."""
    lines: list[AsmLine] = []
    failures = 0
    for raw in text.splitlines():
        parsed = parse_line(raw)
        if parsed is None:
            continue
        if parsed is PARSE_FAILURE:
            failures += 1
            continue
        lines.append(parsed)
    return Listing(tuple(lines), failures)


def load_listing(path: str | Path) -> Listing:
    """Read a listing file; undecodable bytes are replaced, never fatal."""
    data = Path(path).read_bytes()
    return parse_listing(data.decode("utf-8", errors="replace"))


def _declared_perms(comment: str) -> tuple[bool, bool, bool] | None:
    """(read, write, execute) from a 'Segment permissions:' comment, else None."""
    m = _SEG_PERMS_RE.match(comment)
    if m is None:
        return None
    tokens = {t.strip().lower() for t in m.group(1).split("/")}
    return ("read" in tokens, "write" in tokens, "execute" in tokens)


def _segment(name: str, start: int, end: int, perms: tuple[bool, bool, bool] | None) -> SegmentInfo:
    if perms is None:
        return SegmentInfo(name, start, end, True, False, name == "text", False)
    return SegmentInfo(name, start, end, *perms, True)


def _import_library(comment: str) -> str:
    """Canonical library named by an 'Imports from' comment, else ""."""
    m = _IMPORTS_FROM_RE.match(comment)
    return canonical_library(m.group(1)) if m is not None else ""


def _extern_symbol(operands: str) -> str:
    """Symbol of an ``extrn <symbol>:<type>`` line's operands, else ""."""
    sym, colon, _type = operands.split()[0].rpartition(":")
    return sym.removeprefix("__imp_") if colon else ""


def _api_names(call_operands: Iterable[str], symbols: frozenset[str]) -> list[str]:
    """For each call/jmp operand string, the first name token that is an extern symbol."""
    stream: list[str] = []
    if not symbols:
        return stream
    for operands in call_operands:
        for token in _NAME_TOKEN_RE.findall(operands):
            if token in symbols:
                stream.append(token)
                break
    return stream


@dataclass(frozen=True)
class ListingScan:
    """What one pass of `scan_listing` keeps of a listing.

    `segments` are the maximal runs of lines sharing a section name, in file
    order; `known_bytes` counts the dumped (non-``??``) bytes per section;
    `imports` holds the libraries and extern symbols; `opcodes` and
    `api_calls` are the two token streams; `parse_failures` counts the lines
    that are neither blank nor parseable.
    """

    segments: list[SegmentInfo]
    known_bytes: dict[str, int]
    imports: ImportInfo
    opcodes: list[str]
    api_calls: list[str]
    parse_failures: int


def _pieces(data: bytes) -> Iterator[list[str]]:
    """The lines of ``data.decode("utf-8", "replace").splitlines()``, in
    lists, decoding and splitting `SCAN_PIECE` bytes at a time.

    The text after a piece's last line break is carried into the next
    piece, and so is a closing ``\\r``, since a ``\\n`` at the start of the
    next piece makes the pair one break.  A piece with no break is only
    added to the carry, so a line longer than a piece is copied about once.
    """
    decode = codecs.getincrementaldecoder("utf-8")("replace").decode
    carry: list[str] = []
    for start in range(0, len(data), SCAN_PIECE):
        text = decode(data[start:start + SCAN_PIECE])
        if _LINE_BREAK_RE.search(text) is None:
            carry.append(text)
            continue
        text = "".join(carry) + text
        lines = text.splitlines()
        last = text[-1]
        if last == "\r":
            carry = [lines.pop(), last]
        elif last not in _LINE_BREAKS:
            carry = [lines.pop()]
        else:
            carry = []
        yield lines
    carry.append(decode(b"", final=True))
    yield "".join(carry).splitlines()


def scan_buffer(data: bytes) -> ListingScan:
    """`scan_listing` of a listing's bytes, undecodable bytes replaced,
    decoded and folded `SCAN_PIECE` bytes at a time; `data` is any object
    that slices to bytes (bytes, an mmap)."""
    return _fold(_pieces(data))


def scan_listing(text: str) -> ListingScan:
    """Read a whole listing in one pass, keeping only the aggregates.

    Splits lines exactly as `parse_listing` does and parses each distinct
    line body once.  A line is split at its first space into head and body.
    A body seen before, behind a head that is a section name without
    whitespace or ':' and 1-16 hex digits, reuses the remembered entry: the
    groups `_LINE_RE` takes after the address depend only on the text after
    it, so the entry is the same whatever the head.  Every other line is
    matched against `_LINE_RE`, and its entry is remembered when the
    address ended at the first space, up to `_BODY_MEMO_CAP` bodies (a
    bound on entries; each is keyed by a copy of its body, and keeps what
    its comment declares rather than the comment).  Never
    raises.  The rules of the fold:

    - A segment spans its lowest address to the end of its farthest line (a
      line covers its byte count, at least 1).  Its permissions come from the
      first 'Segment permissions: Read/Write/Execute' comment in the run;
      without one it is readable only, and a 'text' segment is also
      executable, the convention the listings follow when the banner is
      omitted.
    - Libraries come from 'Imports from <name>' comments, canonicalized
      (uppercase, extension stripped).  Extern symbols come from
      ``extrn <symbol>:<type>`` lines with any ``__imp_`` prefix removed;
      mangled names pass through verbatim.
    - The opcode stream is the mnemonic of every line that has one, data
      directives (db, dd, ...) included: it mirrors what the listing prints,
      not what a CPU would execute.
    - The API stream holds, for each call/jmp line, the first operand token
      that equals an extern symbol as a whole token (``ReadFileEx`` is not
      ``ReadFile``).  Operand strings are kept and resolved after the pass,
      since an extern may be declared after its first call.  Thunks are not
      resolved, so calls through local jump stubs are invisible, a known
      blind spot of this kind of static extraction.
    """
    return _fold((text.splitlines(),))


def _fold(pieces: Iterable[list[str]]) -> ListingScan:
    """The `ListingScan` of the lines in `pieces`, taken in order."""
    segments: list[SegmentInfo] = []
    known_bytes: dict[str, int] = {}
    libraries: set[str] = set()
    symbols: set[str] = set()
    opcodes: list[str] = []
    call_operands: list[str] = []
    failures = 0
    # raw mnemonic -> lowercase, so every repeat shares one string object
    lowered: dict[str, str] = {}
    # line body (the text after the first space) -> what the fold takes from
    # it: span, known bytes, lowercase mnemonic, call/jmp/extrn operands
    # (stripped), and what its comment declares: the permissions of a
    # 'Segment permissions:' banner (or None) and the canonical library of an
    # 'Imports from' comment (or ""); None once dropped (see _BODY_MEMO_CAP)
    memo: dict[
        str, tuple[int, int, str | None, str | None, tuple[bool, bool, bool] | None, str]
    ] | None = {}
    hits = 0  # lines the memo answered
    # the last section name seen and its canonical form; only names that
    # match [^\s:]+ are ever kept here
    raw_section = section = None
    # the segment being folded: name, start, end, declared perms, dumped bytes
    run_name: str | None = None
    run_start = run_end = run_known = 0
    run_perms: tuple[bool, bool, bool] | None = None

    match = _LINE_RE.match
    for piece in pieces:
        for line in piece:
            entry = None
            if memo is not None:
                head, _, body = line.partition(" ")
                entry = memo.get(body)
                if entry is not None:
                    # a hit stands only if the whole head is _HEAD, so _LINE_RE
                    # would end the address at the first space.  Checked with str
                    # methods, since a regex fullmatch of _HEAD here made the scan
                    # of large listings about 10% slower; raw_section only ever
                    # holds a name that matched _SECTION_NAME.
                    name, _, address = head.partition(":")
                    if (
                        0 < len(address) <= _MAX_ADDRESS_DIGITS
                        and not address.strip(_HEX_DIGITS)
                        and (name == raw_section or _SECTION_NAME_RE.fullmatch(name))
                    ):
                        hits += 1
                        span, known, low, operands, perms, library = entry
                        comment = None
                    else:
                        entry = None
            if entry is None:
                m = match(line)
                if m is None:
                    if line and not line.isspace():
                        failures += 1
                    continue
                name, address, byte_run, mnemonic, operands, comment = m.groups()
                if byte_run:
                    span = len(byte_run.split())
                    known = span - byte_run.count("??")
                else:
                    span, known = 1, 0
                low = None
                if mnemonic is not None:
                    low = lowered.get(mnemonic)
                    if low is None:
                        low = lowered[mnemonic] = mnemonic.lower()
                    kept = low == "extrn" or low in _CALL_MNEMONICS
                    operands = operands.strip() if kept else None
                if comment is not None:
                    comment = comment.strip() or None
                perms, library = None, ""
                # the groups after the prefix depend only on the text after it,
                # so a body whose prefix ended at the first space parses alike
                # behind any head that passes the check above
                if memo is not None and len(memo) < _BODY_MEMO_CAP and m.end(2) == len(head):
                    # a comment feeds the fold only through these two; any
                    # other comment declares nothing, so its text is not kept
                    if comment is not None:
                        perms, library = _declared_perms(comment), _import_library(comment)
                        comment = None
                    memo[body] = (span, known, low, operands, perms, library)
                    if len(memo) == _BODY_MEMO_CAP and 4 * hits < _BODY_MEMO_CAP:
                        memo = None
            if name != raw_section:
                raw_section, section = name, canonical_section(name)
            if not section:
                failures += 1
                continue

            address = int(address, 16)
            end = address + span
            if section != run_name:
                if run_name is not None:
                    segments.append(_segment(run_name, run_start, run_end, run_perms))
                    known_bytes[run_name] = known_bytes.get(run_name, 0) + run_known
                run_name, run_start, run_end, run_known = section, address, end, known
                run_perms = None
            else:
                if address < run_start:
                    run_start = address
                if end > run_end:
                    run_end = end
                run_known += known

            if comment is not None:
                # a line parsed and not remembered: its comment is read here,
                # and for permissions only while the segment has none
                if run_perms is None:
                    perms = _declared_perms(comment)
                library = _import_library(comment)
            if run_perms is None:
                run_perms = perms
            if library:
                libraries.add(library)

            if low is not None:
                opcodes.append(low)
                if operands:
                    if low == "extrn":
                        symbols.add(_extern_symbol(operands))
                    else:
                        call_operands.append(operands)

    if run_name is not None:
        segments.append(_segment(run_name, run_start, run_end, run_perms))
        known_bytes[run_name] = known_bytes.get(run_name, 0) + run_known
    symbols.discard("")
    api_symbols = frozenset(symbols)
    return ListingScan(
        segments=segments,
        known_bytes=known_bytes,
        imports=ImportInfo(frozenset(libraries), api_symbols),
        opcodes=opcodes,
        api_calls=_api_names(call_operands, api_symbols),
        parse_failures=failures,
    )
