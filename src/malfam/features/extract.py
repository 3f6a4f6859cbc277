"""Per-sample feature computation for the seven groups: digest, then project.

`digest_sample` reads one sample and returns a `SampleDigest`: what the
groups need from its artifacts, with no reference to any vocabulary.  Sizes
and compression stats come straight off the artifact files.  Section
geometry and import libraries prefer the PE when one is on disk (exact
header values) and fall back to the listing, where virtual size is the
address span and raw size is the count of listed bytes.  The two 4-gram
groups always come from the listing; a dump alone carries no token stream.
`digest_sample` is the only place that makes the PE/listing choice, and it
parses each artifact at most once: a listing is folded by
`asm.scan_listing` in a single pass, with no per-line objects, and the
digest carries that pass's parse-failure count.  The compression stats are
streamed from the files in fixed chunks, so the listing is read twice (once
whole for the scan, once in chunks for zlib) and the dump is never held
whole.  For a listing of at least `OVERLAP_MIN_BYTES` the two artifacts
stream through zlib on two helper threads while the calling thread scans the
listing: zlib releases the interpreter lock and the scan does not, so the two
overlap.  The helpers live only for that call, and they are the only threads
malfam starts: every other step, here and in the callers, runs on the
calling thread.

A digest is projected into one schema's columns through a `ColumnLookup`,
which `compile_columns` builds from a (schema, vocabulary) pair: token ->
column dicts for the library and 4-gram groups, keyed by the token itself (a
library name, a gram tuple) rather than by its dimension name, and (schema
columns, source positions) index arrays for the fixed-size groups.  A
projection visits only the tokens the sample has, not the whole vocabulary,
and gives (column, value) pairs: every fixed-size column, and the token
columns it hits; no dense row of the token columns is built.
The vocabulary keeps the last lookup it compiled (`Vocabulary.lookup`, one
slot compared by identity of the schema), so every caller that scores many
samples against one model compiles once, and the lookup dies with its
vocabulary.

There is one projection path, `ColumnLookup.project`, which refuses a
non-finite value.  `assemble` runs it on one `digest_sample` call and
returns a `FeatureVector`; `extract_matrix` runs it on every sample of a
manifest, and a train pass on each held train digest once, into every
enabled group's columns, before it drops the digests and selects.
`feat_ngrams`, `feat_import_lib` and `group_dims` stay as the by-name
reference for the projection.  The listing half is checked in the
tests against one oracle, which folds the line reader's `AsmLine`s into the
same `ListingScan` the scanner returns.
"""
from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ..asm import scan_listing
from ..corpus import Sample
from ..errors import ExtractionError, TruncatedPeError
from ..pe import PeSummary, parse_pe
from .schema import (
    FeatureSchema,
    FeatureVector,
    GROUP_API_4GRAM,
    GROUP_COMPLEXITY,
    GROUP_FILE_SIZE,
    GROUP_IMPORT_LIB,
    GROUP_OPCODE_4GRAM,
    GROUP_ORDER,
    GROUP_SECTION_PERM,
    GROUP_SECTION_SIZE,
    PERM_ORDER,
    TOKEN_GROUPS,
)

N_GRAM = 4

# zlib level is part of the feature definition; changing it shifts every
# complexity value.
COMPRESSION_LEVEL = 6

# bytes read and compressed at a time; the chunking never changes the
# compressed length
COMPRESS_CHUNK = 256 * 1024

# a listing this large has its complexity stats taken on helper threads
# during its scan.  Below it the overlap does not pay: each time a helper
# returns from zlib it waits for the scanning thread to give up the
# interpreter lock, and on a small listing those waits cost more than the
# overlap saves (ROADMAP.md records the measurement).
OVERLAP_MIN_BYTES = 1 << 20


@dataclass(frozen=True)
class SectionStats:
    """Aggregate geometry and permissions for one canonical section name."""

    virtual_size: int
    raw_size: int
    readable: bool
    writable: bool
    executable: bool

    @property
    def ratio(self) -> float:
        if self.raw_size == 0:
            return 0.0
        return self.virtual_size / self.raw_size


def _unreadable(path: Path, sample_id: str, exc: OSError) -> ExtractionError:
    return ExtractionError(f"sample {sample_id}: cannot read {path}: {exc}")


def _read_file(path: Path, sample_id: str) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _unreadable(path, sample_id, exc) from exc


def _file_size(path: Path, sample_id: str) -> int:
    try:
        return path.stat().st_size
    except OSError as exc:
        raise ExtractionError(f"sample {sample_id}: cannot stat {path}: {exc}") from exc


def pick_source(sample: Sample, prefer: str = "pe") -> str:
    """Choose the section/import source: "pe", "asm", or "" when neither exists."""
    if prefer not in ("pe", "asm"):
        raise ValueError(f"prefer must be 'pe' or 'asm', not {prefer!r}")
    order = ("pe", "asm") if prefer == "pe" else ("asm", "pe")
    for kind in order:
        if kind == "pe" and sample.pe_path is not None:
            return "pe"
        if kind == "asm" and sample.asm_path is not None:
            return "asm"
    return ""


def load_pe_summary(sample: Sample) -> PeSummary:
    """Parse the sample's PE; a truncated image degrades to its partial sections."""
    data = _read_file(sample.pe_path, sample.id)
    try:
        return parse_pe(data)
    except TruncatedPeError as exc:
        return PeSummary(
            sections=exc.sections,
            import_libraries=frozenset(),
            file_size=len(data),
            pe32plus=False,
            size_of_headers=0,
            imports_degraded=True,
        )


# ---------------------------------------------------------------------------
# group computations
# ---------------------------------------------------------------------------

def feat_file_size(sample: Sample) -> np.ndarray:
    """(asm size, dump size, dump/asm ratio); a missing file contributes 0."""
    asm = _file_size(sample.asm_path, sample.id) if sample.asm_path else 0
    dump = _file_size(sample.bytes_path, sample.id) if sample.bytes_path else 0
    ratio = dump / asm if asm else 0.0
    return np.array([asm, dump, ratio], dtype=np.float64)


def stream_complexity(path: Path | None, sample_id: str) -> tuple[float, float, float]:
    """Size, zlib size and ratio of one artifact, read from its file in chunks
    of `COMPRESS_CHUNK`; zeros when `path` is None."""
    if path is None:
        return (0.0, 0.0, 0.0)
    compressor = zlib.compressobj(COMPRESSION_LEVEL)
    size = comp = 0
    try:
        with path.open("rb") as fh:
            while chunk := fh.read(COMPRESS_CHUNK):
                size += len(chunk)
                comp += len(compressor.compress(chunk))
    except OSError as exc:
        raise _unreadable(path, sample_id, exc) from exc
    comp += len(compressor.flush())
    return (float(size), float(comp), size / comp)


def section_stats(
    parts: Iterable[tuple[str, int, int, bool, bool, bool]]
) -> dict[str, SectionStats]:
    """Fold (name, virtual size, raw size, readable, writable, executable)
    parts by name: sizes add up, and each permission is set when any part of
    the name has it."""
    folded: dict[str, list] = {}
    for name, virtual, raw, readable, writable, executable in parts:
        acc = folded.setdefault(name, [0, 0, False, False, False])
        acc[0] += virtual
        acc[1] += raw
        acc[2] |= readable
        acc[3] |= writable
        acc[4] |= executable
    return {name: SectionStats(*acc) for name, acc in folded.items()}


def feat_section_size(
    stats: Mapping[str, SectionStats], section_names: Sequence[str]
) -> np.ndarray:
    out = np.zeros(3 * len(section_names), dtype=np.float64)
    for i, name in enumerate(section_names):
        found = stats.get(name)
        if found is not None:
            out[3 * i : 3 * i + 3] = (found.virtual_size, found.raw_size, found.ratio)
    return out


def feat_section_perm(stats: Mapping[str, SectionStats]) -> np.ndarray:
    out = np.zeros(9, dtype=np.float64)
    for p, perm in enumerate(PERM_ORDER):
        attr = {"read": "readable", "write": "writable", "execute": "executable"}[perm]
        vsize = sum(s.virtual_size for s in stats.values() if getattr(s, attr))
        rsize = sum(s.raw_size for s in stats.values() if getattr(s, attr))
        out[3 * p : 3 * p + 3] = (vsize, rsize, vsize / rsize if rsize else 0.0)
    return out


def feat_import_lib(libraries: frozenset[str], vocab_libraries: Sequence[str]) -> np.ndarray:
    return np.array([1.0 if name in libraries else 0.0 for name in vocab_libraries])


def extract_4grams(stream: Iterable[str]) -> Counter:
    """Count contiguous 4-token windows; streams shorter than 4 yield nothing."""
    tokens = list(stream)
    return Counter(zip(*(tokens[i:] for i in range(N_GRAM))))


def feat_ngrams(
    counts: Mapping[tuple[str, ...], int],
    grams: Sequence[tuple[str, ...]],
    binary: bool = False,
) -> np.ndarray:
    if binary:
        return np.array([1.0 if counts.get(g) else 0.0 for g in grams])
    return np.array([float(counts.get(g, 0)) for g in grams])


# ---------------------------------------------------------------------------
# per-sample digest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleDigest:
    """What the feature groups read off one sample, independent of any vocabulary.

    Only the groups asked of `digest_sample` are filled; the rest keep their
    empty defaults.
    """

    file_size: np.ndarray | None = None   # feat_file_size
    complexity: np.ndarray | None = None  # stream_complexity of the listing, then the dump
    sections: dict[str, SectionStats] = field(default_factory=dict)
    libraries: frozenset[str] = frozenset()
    # gram counts: a Counter, or `vocab.HeldGrams` in a digest `build_vocab` holds
    api_grams: Counter = field(default_factory=Counter)
    opcode_grams: Counter = field(default_factory=Counter)
    parse_failures: int = 0  # listing lines that failed to parse; 0 when none was read
    imports_degraded: bool = False  # the PE's imports were unreadable; False when none was read


def digest_sample(
    sample: Sample, groups: Sequence[str] = GROUP_ORDER, prefer: str = "pe"
) -> SampleDigest:
    """Parse the sample's artifacts once and return what `groups` need from them."""
    wanted = set(groups)
    source = pick_source(sample, prefer)
    want_sections = bool(wanted & {GROUP_SECTION_SIZE, GROUP_SECTION_PERM})
    want_libs = GROUP_IMPORT_LIB in wanted
    want_api = GROUP_API_4GRAM in wanted
    want_opcodes = GROUP_OPCODE_4GRAM in wanted
    from_pe = source == "pe" and (want_sections or want_libs)
    from_asm = source == "asm" and (want_sections or want_libs)
    want_complexity = GROUP_COMPLEXITY in wanted
    want_scan = sample.asm_path is not None and (want_api or want_opcodes or from_asm)

    found: dict = {}
    # the listing's bytes are dropped once decoded; zlib streams both files
    text = None
    overlap = False
    if want_scan:
        listing = _read_file(sample.asm_path, sample.id)
        overlap = want_complexity and len(listing) >= OVERLAP_MIN_BYTES
        text = listing.decode("utf-8", errors="replace")
        del listing
    artifacts = (sample.asm_path, sample.bytes_path) if want_complexity else ()
    if overlap:
        with ThreadPoolExecutor(max_workers=2) as helpers:
            pending = [helpers.submit(stream_complexity, p, sample.id) for p in artifacts]
            try:
                scan = scan_listing(text)
            finally:
                # read both results even when the scan fails, so an unreadable
                # artifact raises first, as on the inline path
                triples = [job.result() for job in pending]
    else:
        triples = [stream_complexity(p, sample.id) for p in artifacts]
        scan = scan_listing(text) if text is not None else None
    del text
    if want_complexity:
        found["complexity"] = np.array(triples[0] + triples[1], dtype=np.float64)
    summary = load_pe_summary(sample) if from_pe else None

    if scan is not None:
        found["parse_failures"] = scan.parse_failures
    if summary is not None:
        found["imports_degraded"] = summary.imports_degraded
    if want_sections and summary is not None:
        found["sections"] = section_stats(
            (s.name, s.virtual_size, s.raw_size, s.readable, s.writable, s.executable)
            for s in summary.sections
        )
    elif want_sections and from_asm:
        # a listing counts its dumped bytes per section name, under the same
        # names as its segments, not per segment
        found["sections"] = section_stats(chain(
            ((s.name, s.span, 0, s.readable, s.writable, s.executable) for s in scan.segments),
            ((name, 0, size, False, False, False) for name, size in scan.known_bytes.items()),
        ))
    if GROUP_FILE_SIZE in wanted:
        found["file_size"] = feat_file_size(sample)
    if want_libs and summary is not None:
        found["libraries"] = summary.import_libraries
    elif want_libs and from_asm:
        found["libraries"] = scan.imports.libraries
    if want_api and scan is not None:
        found["api_grams"] = extract_4grams(scan.api_calls)
    if want_opcodes and scan is not None:
        found["opcode_grams"] = extract_4grams(scan.opcodes)
    return SampleDigest(**found)


# ---------------------------------------------------------------------------
# projection into schema columns
# ---------------------------------------------------------------------------

# the field that holds each of TOKEN_GROUPS' tokens, in its order, in
# Vocabulary, SampleDigest and ColumnLookup alike; every other group is a
# fixed-size vector projected by position
_TOKEN_FIELDS = dict(zip(TOKEN_GROUPS, ("libraries", "api_grams", "opcode_grams"), strict=True))


@dataclass(frozen=True)
class ColumnLookup:
    """Where each digest value lands in one schema's vector under one vocabulary."""

    names: tuple[str, ...]  # the schema's dimension names
    groups: tuple[str, ...]  # the schema's groups, in canonical order
    section_names: tuple[str, ...]
    fixed: tuple[tuple[str, np.ndarray, np.ndarray], ...]  # (group, schema cols, source positions)
    libraries: dict[str, int] = field(default_factory=dict)
    api_grams: dict[tuple[str, ...], int] = field(default_factory=dict)
    opcode_grams: dict[tuple[str, ...], int] = field(default_factory=dict)

    def project(
        self, digest: SampleDigest, sample_id: str, binary_ngrams: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The digest's fixed-size columns and the token columns it hits,
        with their values; a non-finite value raises ExtractionError.

        The digest must hold every group of the schema; it may hold more.
        """
        cols, vals = [], []
        for group, columns, positions in self.fixed:
            if group == GROUP_FILE_SIZE:
                full = digest.file_size
            elif group == GROUP_COMPLEXITY:
                full = digest.complexity
            elif group == GROUP_SECTION_SIZE:
                full = feat_section_size(digest.sections, self.section_names)
            else:
                full = feat_section_perm(digest.sections)
            cols.append(columns)
            vals.append(full[positions])
        libs = np.array([c for c in map(self.libraries.get, digest.libraries) if c is not None],
                        dtype=np.intp)
        cols.append(libs)
        vals.append(np.ones(libs.size))
        for counts, columns in (
            (digest.api_grams, self.api_grams),
            (digest.opcode_grams, self.opcode_grams),
        ):
            if not columns:  # the schema has none of this group's columns
                continue
            keys = counts.keys()
            found = np.fromiter(map(columns.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
            hit = np.flatnonzero(found >= 0)
            cols.append(found[hit])
            if binary_ngrams:
                vals.append(np.ones(hit.size))
            else:
                vals.append(np.fromiter(counts.values(), dtype=np.float64, count=found.size)[hit])
        cols, vals = np.concatenate(cols), np.concatenate(vals)
        if not np.isfinite(vals).all():
            at = int(cols[~np.isfinite(vals)].min())
            raise ExtractionError(f"sample {sample_id}: non-finite value in {self.names[at]}")
        return cols, vals


def compile_columns(schema: FeatureSchema, vocab) -> ColumnLookup:
    """Map every schema column to the vocabulary token or group position it reads.

    A column is matched through its dimension name, read from the same
    `Vocabulary.dims` tuple the schema was built from; when two tokens share
    a name the later one wins.  Raises ValueError for a column that no token
    of the vocabulary names.
    """
    cols_of: dict[str, list[int]] = {}
    for col, group in enumerate(schema.groups):
        cols_of.setdefault(group, []).append(col)
    groups = tuple(g for g in GROUP_ORDER if g in cols_of)
    fixed = []
    token_cols: dict[str, dict] = {}
    for group in groups:
        names = vocab.dims(group)
        token_field = _TOKEN_FIELDS.get(group)
        by_name = dict(zip(names, getattr(vocab, token_field) if token_field else range(len(names))))
        cols = cols_of[group]
        try:
            tokens = [by_name[schema.names[c]] for c in cols]
        except KeyError as exc:
            raise ValueError(
                f"schema names dimension {exc.args[0]!r} absent from the vocabulary"
            ) from exc
        if token_field:
            token_cols[token_field] = dict(zip(tokens, cols))
        else:
            fixed.append((group, np.array(cols, dtype=np.intp), np.array(tokens, dtype=np.intp)))
    return ColumnLookup(schema.names, groups, tuple(vocab.section_names), tuple(fixed), **token_cols)


# ---------------------------------------------------------------------------
# full vector
# ---------------------------------------------------------------------------

def assemble(
    sample: Sample,
    schema: FeatureSchema,
    vocab,
    *,
    prefer: str = "pe",
    binary_ngrams: bool = False,
) -> FeatureVector:
    """Compute the sample's full feature vector in schema order.

    Artifacts are parsed once even when several groups draw on them.
    """
    lookup = vocab.lookup(schema)
    digest = digest_sample(sample, lookup.groups, prefer)
    cols, vals = lookup.project(digest, sample.id, binary_ngrams)
    return FeatureVector(
        cols=cols,
        vals=vals,
        width=len(schema),
        parse_failures=digest.parse_failures,
        imports_degraded=digest.imports_degraded,
    )
