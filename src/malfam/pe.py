"""Hand-rolled PE image parser plus the hex-dump (.bytes) writer/reader.

Only what the feature pipeline needs is decoded: section table with sizes and
R/W/X characteristics, import-table library names, and a couple of header
fields.  Every multi-byte read is bounds-checked against the input, so
truncated or hostile images raise typed errors instead of crashing; packed
files whose import data does not resolve degrade to an empty import set.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import NotAPeError, TruncatedPeError
from .util import canonical_library, canonical_section

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
PE32_MAGIC = 0x10B
PE32PLUS_MAGIC = 0x20B

IMAGE_SCN_MEM_EXECUTE = 0x20000000
IMAGE_SCN_MEM_READ = 0x40000000
IMAGE_SCN_MEM_WRITE = 0x80000000

COFF_HEADER_SIZE = 20
SECTION_HEADER_SIZE = 40
IMPORT_DESCRIPTOR_SIZE = 20
IMPORT_DIRECTORY_INDEX = 1

# hard caps against malformed structures that loop or run away
MAX_IMPORT_DESCRIPTORS = 4096
MAX_LIBRARY_NAME = 512

BYTES_PER_DUMP_LINE = 16


@dataclass(frozen=True)
class SectionRecord:
    """One section-table entry, name canonicalized for matching."""

    name: str
    virtual_size: int
    raw_size: int
    virtual_address: int
    raw_offset: int
    readable: bool
    writable: bool
    executable: bool


@dataclass(frozen=True)
class PeSummary:
    sections: tuple[SectionRecord, ...]
    import_libraries: frozenset[str]
    file_size: int
    pe32plus: bool
    size_of_headers: int
    imports_degraded: bool  # import data declared but unresolvable


def _u16(data: bytes, offset: int) -> int:
    return struct.unpack_from("<H", data, offset)[0]


def _u32(data: bytes, offset: int) -> int:
    return struct.unpack_from("<I", data, offset)[0]


def _need(data: bytes, offset: int, size: int, what: str, sections: tuple = ()) -> None:
    if offset < 0 or offset + size > len(data):
        raise TruncatedPeError(f"{what} at offset 0x{offset:X} runs past end of file", sections)


def _rva_to_offset(rva: int, sections: tuple[SectionRecord, ...], size_of_headers: int) -> int | None:
    """Map an RVA onto a file offset; None when not file-backed."""
    if 0 <= rva < size_of_headers:
        return rva
    for sec in sections:
        span = max(sec.virtual_size, sec.raw_size)
        if sec.virtual_address <= rva < sec.virtual_address + span:
            delta = rva - sec.virtual_address
            if delta < sec.raw_size:
                return sec.raw_offset + delta
            return None  # virtual-only tail
    return None


def parse_pe(data: bytes) -> PeSummary:
    """Parse a PE image from raw bytes.

    Raises NotAPeError on wrong magics and TruncatedPeError (carrying the
    sections parsed so far) when a declared structure extends past the end
    of the input.  Unresolvable import data is not fatal: the summary comes
    back with an empty, degraded import set.
    """
    if len(data) < 64:
        raise NotAPeError(f"file too small for a DOS header ({len(data)} bytes)")
    if data[:2] != DOS_MAGIC:
        raise NotAPeError("missing MZ signature")
    e_lfanew = _u32(data, 0x3C)
    _need(data, e_lfanew, 4, "PE signature")
    if data[e_lfanew:e_lfanew + 4] != PE_SIGNATURE:
        raise NotAPeError("missing PE signature")

    coff = e_lfanew + 4
    _need(data, coff, COFF_HEADER_SIZE, "COFF header")
    n_sections = _u16(data, coff + 2)
    opt_size = _u16(data, coff + 16)

    opt = coff + COFF_HEADER_SIZE
    if opt_size < 2:
        raise NotAPeError("optional header too small to carry a magic")
    _need(data, opt, 2, "optional header magic")
    magic = _u16(data, opt)
    if magic not in (PE32_MAGIC, PE32PLUS_MAGIC):
        raise NotAPeError(f"unknown optional header magic 0x{magic:04X}")
    pe32plus = magic == PE32PLUS_MAGIC
    _need(data, opt, opt_size, "optional header")

    size_of_headers = _u32(data, opt + 60) if opt_size >= 64 else 0

    # data directories live at the end of the optional header
    dir_count_off = opt + (108 if pe32plus else 92)
    dir_base = opt + (112 if pe32plus else 96)
    import_rva = import_size = 0
    if opt + opt_size >= dir_count_off + 4:
        n_dirs = _u32(data, dir_count_off)
        entry = dir_base + IMPORT_DIRECTORY_INDEX * 8
        if n_dirs > IMPORT_DIRECTORY_INDEX and opt + opt_size >= entry + 8:
            import_rva = _u32(data, entry)
            import_size = _u32(data, entry + 4)

    sections: list[SectionRecord] = []
    table = opt + opt_size
    for index in range(n_sections):
        off = table + index * SECTION_HEADER_SIZE
        _need(data, off, SECTION_HEADER_SIZE, f"section header {index}", tuple(sections))
        raw_name = data[off:off + 8].split(b"\x00", 1)[0]
        name = canonical_section(raw_name.decode("latin-1"))
        if not name:
            name = f"unnamed{index}"
        characteristics = _u32(data, off + 36)
        sections.append(SectionRecord(
            name=name,
            virtual_size=_u32(data, off + 8),
            virtual_address=_u32(data, off + 12),
            raw_size=_u32(data, off + 16),
            raw_offset=_u32(data, off + 20),
            readable=bool(characteristics & IMAGE_SCN_MEM_READ),
            writable=bool(characteristics & IMAGE_SCN_MEM_WRITE),
            executable=bool(characteristics & IMAGE_SCN_MEM_EXECUTE),
        ))
    section_tuple = tuple(sections)

    libraries: set[str] = set()
    degraded = False
    if import_rva and import_size:
        degraded = not _read_import_libraries(data, import_rva, section_tuple, size_of_headers, libraries)
        if degraded:
            libraries.clear()

    return PeSummary(
        sections=section_tuple,
        import_libraries=frozenset(libraries),
        file_size=len(data),
        pe32plus=pe32plus,
        size_of_headers=size_of_headers,
        imports_degraded=degraded,
    )


def _read_import_libraries(
    data: bytes,
    import_rva: int,
    sections: tuple[SectionRecord, ...],
    size_of_headers: int,
    out: set[str],
) -> bool:
    """Walk the import descriptor array; False when the walk cannot finish."""
    for index in range(MAX_IMPORT_DESCRIPTORS):
        off = _rva_to_offset(import_rva + index * IMPORT_DESCRIPTOR_SIZE, sections, size_of_headers)
        if off is None or off + IMPORT_DESCRIPTOR_SIZE > len(data):
            return False
        original_first_thunk = _u32(data, off)
        name_rva = _u32(data, off + 12)
        first_thunk = _u32(data, off + 16)
        if original_first_thunk == 0 and name_rva == 0 and first_thunk == 0:
            return True
        if name_rva == 0:
            return False
        name_off = _rva_to_offset(name_rva, sections, size_of_headers)
        if name_off is None:
            return False
        terminator = data.find(b"\x00", name_off, min(len(data), name_off + MAX_LIBRARY_NAME))
        if terminator < 0:
            return False
        library = canonical_library(data[name_off:terminator].decode("latin-1"))
        if library:
            out.add(library)
    return False  # descriptor array never terminated


def dump_bytes(data: bytes, base_address: int = 0) -> str:
    """Render bytes in the hex-dump exchange format.

    One line per 16 bytes: an 8-hex-digit uppercase address, then 16
    space-separated uppercase byte pairs; the final line is padded with
    ``??``.  Empty input yields empty text.
    """
    if not data:
        return ""
    lines: list[str] = []
    for offset in range(0, len(data), BYTES_PER_DUMP_LINE):
        chunk = data[offset:offset + BYTES_PER_DUMP_LINE]
        pairs = [f"{b:02X}" for b in chunk]
        pairs.extend(["??"] * (BYTES_PER_DUMP_LINE - len(chunk)))
        lines.append(f"{base_address + offset:08X} " + " ".join(pairs))
    return "\n".join(lines) + "\n"


_HEX_ADDRESS = frozenset("0123456789ABCDEFabcdef")


def read_dump(text: str) -> bytes:
    """Parse hex-dump text back into bytes; ``??`` placeholders are dropped."""
    out = bytearray()
    for raw in text.splitlines():
        tokens = raw.split()
        if len(tokens) < 2:
            continue
        address = tokens[0]
        if not (8 <= len(address) <= 16 and all(c in _HEX_ADDRESS for c in address)):
            continue
        for token in tokens[1:]:
            if token == "??":
                continue
            if len(token) == 2 and all(c in _HEX_ADDRESS for c in token):
                out.append(int(token, 16))
    return bytes(out)
