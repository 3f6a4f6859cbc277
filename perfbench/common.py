"""Helpers shared by the benchmark's parent and measuring processes."""
from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# build outputs, the cached model and traces; listed in the root .gitignore
BUILD = ROOT / ".bench_build" / "perfbench"


def import_malfam() -> None:
    """Import malfam from this checkout's ``src`` and nowhere else.

    Exits with code 2 when the checkout holds no sources, so a directory
    with only the benchmark never reports a result.
    """
    if not (SRC / "malfam" / "__init__.py").is_file():
        _fail(f"no malfam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    malfam = importlib.import_module("malfam")
    if Path(malfam.__file__).resolve().parent != (SRC / "malfam").resolve():
        _fail(f"imported malfam from {malfam.__file__}, not {SRC}")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    """sha256 over the package sources: names the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "malfam").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one input set, independent of every other tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") >> 1
