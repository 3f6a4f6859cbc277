"""Run configuration: one JSON-serializable object drives every pipeline stage."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Mapping

from .errors import MalfamError
from .features.schema import GROUP_ORDER, GROUP_SECTION_SIZE
from .features.vocab import VocabCaps
from .forest import ForestParams, params_from_dict, params_to_dict

CONFIG_VERSION = 1

# the open-ended group worth shrinking by default: section sizes carry a lot
# of redundant columns
DEFAULT_SELECTION: dict[str, int] = {GROUP_SECTION_SIZE: 25}


@dataclass(frozen=True)
class RunConfig:
    groups: tuple[str, ...] = GROUP_ORDER
    caps: VocabCaps = field(default_factory=VocabCaps)
    selection: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_SELECTION))
    train_fraction: float = 0.8
    folds: int = 5
    forest: ForestParams = field(default_factory=ForestParams)
    seed: int = 0
    threads: int = 1
    prefer: str = "pe"
    binary_ngrams: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.groups) - set(GROUP_ORDER)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if not self.groups:
            raise ValueError("at least one feature group must be enabled")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be strictly between 0 and 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.prefer not in ("pe", "asm"):
            raise ValueError("prefer must be 'pe' or 'asm'")
        bad = set(self.selection) - set(GROUP_ORDER)
        if bad:
            raise ValueError(f"selection budgets for unknown groups: {sorted(bad)}")
        for group, k in self.selection.items():
            if k < 1:
                raise ValueError(f"selection budget for {group} must be >= 1")

    def active_selection(self) -> dict[str, int]:
        """Budgets restricted to enabled groups; entries for disabled groups are inert."""
        return {g: k for g, k in self.selection.items() if g in self.groups}


def config_to_dict(config: RunConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "groups": list(config.groups),
        "caps": {
            "sections": config.caps.sections,
            "libraries": config.caps.libraries,
            "api_grams": config.caps.api_grams,
            "opcode_grams": config.caps.opcode_grams,
        },
        "selection": dict(config.selection),
        "train_fraction": config.train_fraction,
        "folds": config.folds,
        "forest": params_to_dict(config.forest),
        "seed": config.seed,
        "threads": config.threads,
        "prefer": config.prefer,
        "binary_ngrams": config.binary_ngrams,
    }


def _object(doc: Mapping, key: str, default: Mapping) -> Mapping:
    value = doc.get(key, default)
    if not isinstance(value, Mapping):
        raise TypeError(f"{key} must be a JSON object")
    return value


def config_from_dict(doc: Mapping) -> RunConfig:
    if not isinstance(doc, Mapping):
        raise MalfamError("config must be a JSON object")
    if doc.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise MalfamError(f"unsupported config version {doc.get('version')!r}")
    defaults = RunConfig()
    try:
        caps_doc = _object(doc, "caps", {})
        caps = VocabCaps(
            sections=int(caps_doc.get("sections", defaults.caps.sections)),
            libraries=int(caps_doc.get("libraries", defaults.caps.libraries)),
            api_grams=int(caps_doc.get("api_grams", defaults.caps.api_grams)),
            opcode_grams=int(caps_doc.get("opcode_grams", defaults.caps.opcode_grams)),
        )
        forest = params_from_dict({**params_to_dict(defaults.forest), **_object(doc, "forest", {})})
        selection_doc = _object(doc, "selection", DEFAULT_SELECTION)
        selection = {str(g): int(k) for g, k in selection_doc.items()}
        binary_ngrams = doc.get("binary_ngrams", defaults.binary_ngrams)
        if not isinstance(binary_ngrams, bool):
            raise TypeError("binary_ngrams must be true or false")
        return RunConfig(
            groups=tuple(doc.get("groups", defaults.groups)),
            caps=caps,
            selection=selection,
            train_fraction=float(doc.get("train_fraction", defaults.train_fraction)),
            folds=int(doc.get("folds", defaults.folds)),
            forest=forest,
            seed=int(doc.get("seed", defaults.seed)),
            threads=int(doc.get("threads", defaults.threads)),
            prefer=str(doc.get("prefer", defaults.prefer)),
            binary_ngrams=binary_ngrams,
        )
    except (TypeError, ValueError) as exc:
        raise MalfamError(f"invalid config value: {exc}") from exc


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=1) + "\n", encoding="utf-8"
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MalfamError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


def with_overrides(
    config: RunConfig, *, seed: int | None = None, threads: int | None = None
) -> RunConfig:
    if seed is not None:
        config = replace(config, seed=seed, forest=replace(config.forest, seed=seed))
    if threads is not None:
        config = replace(config, threads=threads)
    return config
