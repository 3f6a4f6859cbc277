"""Train-split vocabularies for the open-ended feature groups.

Section names, import libraries, and both 4-gram alphabets are ranked by
document frequency (how many samples mention the token at least once) and
capped.  Ties break lexicographically so the cut is reproducible.

`build_vocab` is the one place a corpus is digested for a vocabulary: it
digests each sample once, for every group asked, through `fork_map` (or
takes a caller's stream of those digests), folds them in manifest order on
the calling thread, and returns them with the vocabulary, so the caller
projects them without reading a sample again.  It holds each digest's gram
counts as `HeldGrams`: one shared tuple per distinct gram and one int32
count per entry, where a fresh `Counter` entry keeps a tuple of its own.
"""
from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..errors import CorpusError
from ..forkmap import fork_map
from ..util import read_json, write_json
from .extract import N_GRAM, ColumnLookup, SampleDigest, compile_columns, digest_sample
from .schema import GROUP_ORDER, GROUP_SECTION_SIZE, FeatureSchema, group_dims

VOCAB_VERSION = 1


@dataclass(frozen=True)
class VocabCaps:
    """Document-frequency top-k caps, one per open-ended group."""

    sections: int = 282
    libraries: int = 300
    api_grams: int = 5000
    opcode_grams: int = 5000

    def __post_init__(self) -> None:
        for name in ("sections", "libraries", "api_grams", "opcode_grams"):
            if getattr(self, name) < 1:
                raise ValueError(f"cap {name} must be >= 1")


@dataclass(frozen=True)
class Vocabulary:
    section_names: tuple[str, ...] = ()
    libraries: tuple[str, ...] = ()
    api_grams: tuple[tuple[str, ...], ...] = ()
    opcode_grams: tuple[tuple[str, ...], ...] = ()
    # group -> its full dimension names, filled by `dims`.  malfam itself
    # reads a vocabulary from one thread; callers that share one across
    # threads and miss together build equal tuples, and either may stay
    _dims: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # [(schema, its lookup)] of the last compile, filled by `lookup`.  Read
    # once per call, so a caller that shares the vocabulary across threads
    # never pairs one schema with another's lookup; two callers that miss
    # together compile equal lookups, and either may stay
    _lookup: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    def dims(self, group: str) -> tuple[str, ...]:
        """The group's full (pre-selection) dimension names, built on first use."""
        names = self._dims.get(group)
        if names is None:
            names = self._dims[group] = group_dims(group, self)
        return names

    def lookup(self, schema: FeatureSchema) -> ColumnLookup:
        """The schema's column lookup under this vocabulary.

        One slot, compared by identity of the schema, so a caller that scores
        many samples against one model compiles once; the lookup lives as
        long as the vocabulary.
        """
        memo = self._lookup[0]
        if memo is None or memo[0] is not schema:
            memo = self._lookup[0] = (schema, compile_columns(schema, self))
        return memo[1]


class HeldGrams:
    """One sample's gram counts, held compactly; read like the `Counter` they
    came from, in its order, through `keys`, `values` and `items`.

    Each key is the tuple `shared` keeps for its gram, so a gram that many
    samples have is one tuple, and the counts sit in one int32 array: an entry
    costs a pointer and 4 bytes.  A count past int32 raises OverflowError.
    """

    __slots__ = ("_grams", "_counts")

    def __init__(self, counts: Mapping[tuple[str, ...], int], shared: dict) -> None:
        self._grams = tuple([shared.setdefault(gram, gram) for gram in counts])
        self._counts = np.fromiter(counts.values(), dtype=np.int32, count=len(self._grams))

    def keys(self) -> tuple[tuple[str, ...], ...]:
        return self._grams

    def values(self) -> list[int]:
        return self._counts.tolist()

    def items(self) -> Iterable[tuple[tuple[str, ...], int]]:
        return zip(self._grams, self.values())


def hold_digest(digest: SampleDigest, shared: dict) -> SampleDigest:
    """The digest with both its gram maps as `HeldGrams` over `shared`."""
    return replace(
        digest,
        api_grams=HeldGrams(digest.api_grams, shared),
        opcode_grams=HeldGrams(digest.opcode_grams, shared),
    )


def _top_k(freq: Counter, cap: int) -> list:
    """The `cap` most frequent tokens, ties in token order.

    Two sorts with C-level keys: tokens in order, then by count, falling.
    A reverse sort is stable, so tied tokens keep their order.
    """
    return sorted(sorted(freq), key=freq.__getitem__, reverse=True)[:cap]


def build_vocab(
    manifest,
    caps: VocabCaps = VocabCaps(),
    groups: Sequence[str] = GROUP_ORDER,
    prefer: str = "pe",
    digests: Iterable[SampleDigest] | None = None,
) -> tuple[Vocabulary, list[SampleDigest]]:
    """Digest a manifest (the train split) and rank tokens by document frequency.

    Each sample is digested once, for every group in `groups`, through
    `fork_map`; `digests`, when given, yields those digests in manifest
    order instead, and no sample is read here.  Each digest is held with
    `hold_digest` and folded as it comes, in manifest order.  Section names
    are counted only when `groups` asks for section sizes.  Returns the
    vocabulary and the held digests, in manifest order.
    """
    want_sections = GROUP_SECTION_SIZE in groups
    shared: dict = {}  # one tuple per distinct gram, for every held digest
    held: list[SampleDigest] = []
    section_freq: Counter = Counter()
    library_freq: Counter = Counter()
    api_freq: Counter = Counter()
    opcode_freq: Counter = Counter()
    with ExitStack() as stack:
        if digests is None:
            digests = stack.enter_context(closing(fork_map(
                lambda sample: digest_sample(sample, groups, prefer), manifest.samples)))
        for digest in digests:
            digest = hold_digest(digest, shared)
            held.append(digest)
            if want_sections:
                section_freq.update(digest.sections.keys())
            library_freq.update(digest.libraries)
            api_freq.update(digest.api_grams.keys())
            opcode_freq.update(digest.opcode_grams.keys())
    vocab = Vocabulary(
        section_names=tuple(_top_k(section_freq, caps.sections)),
        libraries=tuple(_top_k(library_freq, caps.libraries)),
        api_grams=tuple(_top_k(api_freq, caps.api_grams)),
        opcode_grams=tuple(_top_k(opcode_freq, caps.opcode_grams)),
    )
    return vocab, held


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    doc = {
        "version": VOCAB_VERSION,
        "section_names": list(vocab.section_names),
        "libraries": list(vocab.libraries),
        "api_grams": [list(g) for g in vocab.api_grams],
        "opcode_grams": [list(g) for g in vocab.opcode_grams],
    }
    write_json(path, doc)


# json.loads yields exact lists and strs; the type sets and the one join keep
# these checks out of the interpreter loop, since a default vocabulary holds
# 40k gram tokens
def _utf8(tokens, key: str, path) -> None:
    """Refuse a token UTF-8 cannot encode (a lone surrogate such as "\\ud800")."""
    try:
        "".join(tokens).encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(
            f"malformed vocabulary {path}: {key} holds a token that is not valid UTF-8"
        ) from None


def _strings(doc: dict, key: str, path) -> tuple[str, ...]:
    items = doc[key]
    if not (isinstance(items, list) and set(map(type, items)) <= {str}):
        raise CorpusError(f"malformed vocabulary {path}: {key} must be a list of strings")
    _utf8(items, key, path)
    return tuple(items)


def _grams(doc: dict, key: str, path) -> tuple[tuple[str, ...], ...]:
    items = doc[key]
    if not (
        isinstance(items, list)
        and set(map(type, items)) <= {list}
        and set(map(len, items)) <= {N_GRAM}
        and set(map(type, chain.from_iterable(items))) <= {str}
    ):
        raise CorpusError(
            f"malformed vocabulary {path}: {key} must be a list of {N_GRAM}-string lists"
        )
    _utf8(chain.from_iterable(items), key, path)
    return tuple(map(tuple, items))


def load_vocab(path: str | Path) -> Vocabulary:
    doc = read_json(path, "vocabulary", CorpusError, VOCAB_VERSION)
    try:
        return Vocabulary(
            section_names=_strings(doc, "section_names", path),
            libraries=_strings(doc, "libraries", path),
            api_grams=_grams(doc, "api_grams", path),
            opcode_grams=_grams(doc, "opcode_grams", path),
        )
    except KeyError as exc:
        raise CorpusError(f"malformed vocabulary {path}: {exc}") from exc
