"""Small shared helpers: seed derivation, canonical names, and the one JSON
codec every artifact is read and written through."""
from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(parts: Iterable[str | int]) -> int:
    """64-bit FNV-1a over the UTF-8 bytes of each part, NUL-separated.

    The seed derivation behind `mix_seed`: every tree, fold, split and
    synthetic id hangs off it, so it must stay platform-stable (no salted
    hash()) and must not change.
    """
    h = _FNV_OFFSET
    for part in parts:
        for byte in str(part).encode("utf-8") + b"\x00":
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


def mix_seed(*parts: str | int) -> int:
    """Derive an independent 64-bit seed from a base seed plus context tags."""
    return fnv1a64(parts)


def canonical_section(name: str) -> str:
    """Canonical section name: leading dots stripped, lowercased."""
    return name.lstrip(".").lower()


def canonical_library(name: str) -> str:
    """Canonical import-library name: basename, extension stripped, uppercased."""
    base = name.replace("\\", "/").rsplit("/", 1)[-1]
    if "." in base:
        base = base.rsplit(".", 1)[0]
    return base.upper()


def read_json(path: str | Path, what: str, error: type[Exception], version: int | None) -> dict:
    """The JSON object in `path`, carrying `version` unless that is None; else raise `error`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"cannot read {what} {path}: not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"malformed {what} {path}: not a JSON object")
    found = doc.get("version")
    if version is not None and (type(found) is not int or found != version):
        raise error(
            f"unsupported {what} format in {path}: version {found!r}, this build reads {version}"
        )
    return doc


def write_json(path: str | Path, doc, indent: int | None = 1) -> None:
    """Write `doc` plus a newline; `indent=None` gives the compact form."""
    separators = (",", ":") if indent is None else None
    text = json.dumps(doc, indent=indent, separators=separators)
    Path(path).write_text(text + "\n", encoding="utf-8")


def json_int(value, what: str) -> int:
    """An integer JSON field: an int or an integral float, never a boolean."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{what} must be an integer, not {value!r}")
