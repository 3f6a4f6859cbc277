"""The by-line reference the one-pass listing scanner is checked against.

`reference_scan` folds the line reader's `AsmLine`s into the `ListingScan`
that `scan_listing` builds in one pass, one aggregate at a time over the
whole line list.  Only the comment and operand rules (`_declared_perms`,
`_segment`, `_import_library`, `_extern_symbol`, `_api_names`) are shared
with the scanner; the hand-counted tests in `test_asm.py` pin those.
"""
from __future__ import annotations

from itertools import groupby

from malfam.asm import (
    ImportInfo,
    Listing,
    ListingScan,
    _api_names,
    _declared_perms,
    _extern_symbol,
    _import_library,
    _segment,
)


def reference_scan(listing: Listing) -> ListingScan:
    """The `ListingScan` of a parsed listing, folded line object by line object."""
    lines = listing.lines
    segments = []
    for section, group in groupby(lines, key=lambda line: line.section):
        run = list(group)
        banners = (_declared_perms(line.comment) for line in run if line.comment is not None)
        segments.append(_segment(
            section,
            min(line.address for line in run),
            max(line.address + line.span for line in run),
            next((perms for perms in banners if perms is not None), None),
        ))
    known_bytes: dict[str, int] = {}
    for line in lines:
        known_bytes[line.section] = known_bytes.get(line.section, 0) + line.known_bytes
    libraries = {_import_library(line.comment) for line in lines if line.comment is not None}
    externs = [line.operands for line in lines if line.mnemonic == "extrn" and line.operands]
    api_symbols = frozenset(map(_extern_symbol, externs)) - {""}
    calls = [line.operands for line in lines if line.mnemonic in ("call", "jmp") and line.operands]
    return ListingScan(
        segments=segments,
        known_bytes=known_bytes,
        imports=ImportInfo(frozenset(libraries - {""}), api_symbols),
        opcodes=[line.mnemonic for line in lines if line.mnemonic is not None],
        api_calls=_api_names(calls, api_symbols),
        parse_failures=listing.parse_failures,
    )
