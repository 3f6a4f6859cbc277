"""Train-split vocabularies for the open-ended feature groups.

Section names, import libraries, and both 4-gram alphabets are ranked by
document frequency (how many samples mention the token at least once) and
capped.  Ties break lexicographically so the cut is reproducible.

A training run holds every train digest from the vocabulary to the train
matrix, with its gram counts as `HeldGrams`: one shared tuple per distinct
gram and one int32 count per entry, where a fresh `Counter` entry keeps a
tuple of its own.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..errors import CorpusError
from ..util import read_json, write_json
from .extract import N_GRAM, SampleDigest, digest_sample
from .schema import (
    GROUP_API_4GRAM,
    GROUP_IMPORT_LIB,
    GROUP_OPCODE_4GRAM,
    GROUP_ORDER,
    GROUP_SECTION_SIZE,
    group_dims,
)

# the groups whose dimensions a vocabulary names
OPEN_GROUPS = (GROUP_SECTION_SIZE, GROUP_IMPORT_LIB, GROUP_API_4GRAM, GROUP_OPCODE_4GRAM)

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
    version: int = VOCAB_VERSION
    # group -> its full dimension names, filled by `dims`; two threads that
    # miss together build equal tuples, and either may stay
    _dims: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def dims(self, group: str) -> tuple[str, ...]:
        """The group's full (pre-selection) dimension names, built on first use."""
        names = self._dims.get(group)
        if names is None:
            names = self._dims[group] = group_dims(group, self)
        return names


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
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return [token for token, _ in ranked[:cap]]


def build_vocab(
    manifest,
    caps: VocabCaps = VocabCaps(),
    groups: Sequence[str] = GROUP_ORDER,
    prefer: str = "pe",
    *,
    digests: Iterable[SampleDigest] | None = None,
) -> Vocabulary:
    """Scan a manifest (the train split) and rank tokens by document frequency.

    `digests`, when given, holds one digest per manifest sample, taken for at
    least the open groups among `groups`; it is folded in place of digesting
    the samples.  A digest may hold more groups: section names are counted
    only when `groups` asks for section sizes.
    """
    asked = tuple(g for g in OPEN_GROUPS if g in groups)
    if digests is None:
        digests = (digest_sample(sample, asked, prefer) for sample in manifest.samples)
    want_sections = GROUP_SECTION_SIZE in asked
    section_freq: Counter = Counter()
    library_freq: Counter = Counter()
    api_freq: Counter = Counter()
    opcode_freq: Counter = Counter()
    for digest in digests:
        if want_sections:
            section_freq.update(digest.sections.keys())
        library_freq.update(digest.libraries)
        api_freq.update(digest.api_grams.keys())
        opcode_freq.update(digest.opcode_grams.keys())
    return Vocabulary(
        section_names=tuple(_top_k(section_freq, caps.sections)),
        libraries=tuple(_top_k(library_freq, caps.libraries)),
        api_grams=tuple(_top_k(api_freq, caps.api_grams)),
        opcode_grams=tuple(_top_k(opcode_freq, caps.opcode_grams)),
    )


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    doc = {
        "version": vocab.version,
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
