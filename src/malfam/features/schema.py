"""Feature schema: dimension names, group layout, digest.

Seven groups in a fixed order; every dimension name carries a group prefix so
a matrix column maps back to its group without side tables.  `group_dims`
spells a group's full names under a vocabulary; `Vocabulary.dims` keeps what
it built, so a schema and the column lookup compiled for it read one tuple.
The digest binds a model to its schema: BLAKE2b-64 over the names.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

try:
    # the built-in module hashlib takes blake2b from; importing hashlib
    # itself would also load OpenSSL's _hashlib, a few MB of resident memory
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - interpreters built without _blake2
    from hashlib import blake2b

SCHEMA_VERSION = 1

GROUP_FILE_SIZE = "file_size"
GROUP_COMPLEXITY = "complexity"
GROUP_SECTION_SIZE = "section_size"
GROUP_SECTION_PERM = "section_perm"
GROUP_IMPORT_LIB = "import_lib"
GROUP_API_4GRAM = "api_4gram"
GROUP_OPCODE_4GRAM = "opcode_4gram"

GROUP_ORDER: tuple[str, ...] = (
    GROUP_FILE_SIZE,
    GROUP_COMPLEXITY,
    GROUP_SECTION_SIZE,
    GROUP_SECTION_PERM,
    GROUP_IMPORT_LIB,
    GROUP_API_4GRAM,
    GROUP_OPCODE_4GRAM,
)

# groups whose columns are vocabulary tokens, mostly zeros; every other group
# is a fixed-size vector, and all of those come first in GROUP_ORDER
TOKEN_GROUPS = (GROUP_IMPORT_LIB, GROUP_API_4GRAM, GROUP_OPCODE_4GRAM)

FILE_SIZE_DIMS = ("fsz_asm", "fsz_bytes", "fsz_ratio")
COMPLEXITY_DIMS = (
    "cpx_asm_orig", "cpx_asm_comp", "cpx_asm_ratio",
    "cpx_bytes_orig", "cpx_bytes_comp", "cpx_bytes_ratio",
)
PERM_ORDER = ("read", "write", "execute")
SECTION_PERM_DIMS = tuple(
    f"prm_{perm}_{kind}" for perm in PERM_ORDER for kind in ("vsize", "rsize", "ratio")
)

_PREFIX_TO_GROUP = {
    "fsz_": GROUP_FILE_SIZE,
    "cpx_": GROUP_COMPLEXITY,
    "sec_": GROUP_SECTION_SIZE,
    "prm_": GROUP_SECTION_PERM,
    "lib_": GROUP_IMPORT_LIB,
    "api_": GROUP_API_4GRAM,
    "opc_": GROUP_OPCODE_4GRAM,
}


def section_dims(name: str) -> tuple[str, str, str]:
    return (f"sec_{name}_vsize", f"sec_{name}_rsize", f"sec_{name}_ratio")


def library_dim(name: str) -> str:
    return f"lib_{name}"


def api_gram_dim(gram: tuple[str, ...]) -> str:
    return "api_" + "|".join(gram)


def opcode_gram_dim(gram: tuple[str, ...]) -> str:
    return "opc_" + "|".join(gram)


def group_of_dim(name: str) -> str:
    """Map a dimension name back to its feature group via the prefix."""
    group = _PREFIX_TO_GROUP.get(name[:4])
    if group is None:
        raise ValueError(f"dimension {name!r} carries no known group prefix")
    return group


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered dimension names with their groups (parallel tuples)."""

    names: tuple[str, ...]
    groups: tuple[str, ...]
    version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if len(self.names) != len(self.groups):
            raise ValueError("names and groups must be parallel")
        if len(set(self.names)) != len(self.names):
            raise ValueError("dimension names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    def digest(self) -> str:
        """BLAKE2b-64 over each name's UTF-8 bytes followed by a NUL, as 16 hex chars."""
        data = "\0".join((*self.names, "")).encode("utf-8")
        return blake2b(data, digest_size=8).hexdigest()

    def group_indices(self, group: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.groups, dtype=object) == group)

    def group_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for group in self.groups:
            sizes[group] = sizes.get(group, 0) + 1
        return sizes

    def dense_width(self) -> int:
        """The columns before the first token-group column: those a matrix
        holds in its dense block."""
        return next((i for i, g in enumerate(self.groups) if g in TOKEN_GROUPS), len(self.groups))


@dataclass(frozen=True)
class FeatureVector:
    """One sample's values: the schema's dense-block columns, then the other
    columns that are nonzero, as (column, value) pairs."""

    lead: np.ndarray  # float64, the schema's first dense_width() columns
    cols: np.ndarray  # intp, later columns, distinct, in any order
    vals: np.ndarray  # float64, parallel to cols
    width: int
    parse_failures: int = 0  # listing lines that failed to parse; 0 when none was read
    imports_degraded: bool = False  # the PE's imports were unreadable; False when none was read

    @property
    def values(self) -> np.ndarray:
        """The dense vector, in schema order."""
        out = np.zeros(self.width)
        out[:self.lead.size] = self.lead
        out[self.cols] = self.vals
        return out


def group_dims(group: str, vocab) -> tuple[str, ...]:
    """Full (pre-selection) dimension names of one group under a vocabulary."""
    if group == GROUP_FILE_SIZE:
        return FILE_SIZE_DIMS
    if group == GROUP_COMPLEXITY:
        return COMPLEXITY_DIMS
    if group == GROUP_SECTION_SIZE:
        return tuple(d for name in vocab.section_names for d in section_dims(name))
    if group == GROUP_SECTION_PERM:
        return SECTION_PERM_DIMS
    if group == GROUP_IMPORT_LIB:
        return tuple(library_dim(name) for name in vocab.libraries)
    if group == GROUP_API_4GRAM:
        return tuple(api_gram_dim(g) for g in vocab.api_grams)
    if group == GROUP_OPCODE_4GRAM:
        return tuple(opcode_gram_dim(g) for g in vocab.opcode_grams)
    raise ValueError(f"unknown feature group {group!r}")


def build_schema(
    vocab,
    groups: Sequence[str] = GROUP_ORDER,
    selection: Mapping[str, Sequence[str]] | None = None,
) -> FeatureSchema:
    """Assemble the schema for enabled groups, applying per-group selections.

    Groups always appear in canonical order whatever order the caller lists
    them in.  A selection replaces a group's dims with the given subset in the
    given (importance) order; selection entries for disabled groups are
    ignored.
    """
    enabled = set(groups)
    unknown = enabled - set(GROUP_ORDER)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    names: list[str] = []
    group_tags: list[str] = []
    for group in GROUP_ORDER:
        if group not in enabled:
            continue
        dims = vocab.dims(group)
        if selection and group in selection:
            chosen = tuple(selection[group])
            bad = set(chosen) - set(dims)
            if bad:
                raise ValueError(f"selection for {group} names unknown dims: {sorted(bad)[:3]}")
            dims = chosen
        names.extend(dims)
        group_tags.extend([group] * len(dims))
    return FeatureSchema(tuple(names), tuple(group_tags))
