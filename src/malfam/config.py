"""Run configuration: one JSON-serializable object drives every pipeline stage."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Mapping

from .errors import MalfamError
from .features.schema import GROUP_ORDER, GROUP_SECTION_SIZE
from .features.vocab import VocabCaps
from .forest import ForestParams, params_from_dict, params_to_dict
from .util import json_int, read_json, write_json

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
    # read from and written to config files, so that older ones still load;
    # it starts no thread and changes no result, so no integer is refused
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
    """The file's keys in field order; caps and forest nest as objects."""
    return {"version": CONFIG_VERSION, **asdict(config)}


def _object(doc: Mapping, key: str, default: Mapping) -> Mapping:
    value = doc.get(key, default)
    if not isinstance(value, Mapping):
        raise TypeError(f"{key} must be a JSON object")
    return value


def _known(doc: Mapping, keys, where: str = "") -> None:
    """Refuse a key outside `keys`, so a misspelt one is not read as its default."""
    unknown = sorted(set(doc) - set(keys), key=str)
    if unknown:
        raise ValueError(f"unknown key {where}{unknown[0]}")


def _number(value, what: str) -> float:
    """A JSON number field, never a boolean or a string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{what} must be a number, not {value!r}")


def _string(value, what: str) -> str:
    if isinstance(value, str):
        return value
    raise TypeError(f"{what} must be a string, not {value!r}")


def _strings(value, what: str) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise TypeError(f"{what} must be a list of strings, not {value!r}")


def config_from_dict(doc: Mapping) -> RunConfig:
    if not isinstance(doc, Mapping):
        raise MalfamError("config must be a JSON object")
    version = doc.get("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise MalfamError(f"unsupported config version {version!r}")
    defaults = RunConfig()
    try:
        _known(doc, config_to_dict(defaults))
        caps_doc = _object(doc, "caps", {})
        _known(caps_doc, asdict(defaults.caps), "caps.")
        caps = VocabCaps(**{
            name: json_int(caps_doc.get(name, default), f"caps.{name}")
            for name, default in asdict(defaults.caps).items()
        })
        forest_doc = _object(doc, "forest", {})
        _known(forest_doc, params_to_dict(defaults.forest), "forest.")
        forest = params_from_dict({**params_to_dict(defaults.forest), **forest_doc})
        selection_doc = _object(doc, "selection", DEFAULT_SELECTION)
        selection = {str(g): json_int(k, f"selection.{g}") for g, k in selection_doc.items()}
        binary_ngrams = doc.get("binary_ngrams", defaults.binary_ngrams)
        if not isinstance(binary_ngrams, bool):
            raise TypeError("binary_ngrams must be true or false")
        return RunConfig(
            groups=_strings(doc.get("groups", defaults.groups), "groups"),
            caps=caps,
            selection=selection,
            train_fraction=_number(doc.get("train_fraction", defaults.train_fraction),
                                   "train_fraction"),
            folds=json_int(doc.get("folds", defaults.folds), "folds"),
            forest=forest,
            seed=json_int(doc.get("seed", defaults.seed), "seed"),
            threads=json_int(doc.get("threads", defaults.threads), "threads"),
            prefer=_string(doc.get("prefer", defaults.prefer), "prefer"),
            binary_ngrams=binary_ngrams,
        )
    except (TypeError, ValueError) as exc:
        raise MalfamError(f"invalid config value: {exc}") from exc


def save_config(config: RunConfig, path: str | Path) -> None:
    write_json(path, config_to_dict(config))


def load_config(path: str | Path) -> RunConfig:
    # a config may omit its version; config_from_dict checks it when present
    return config_from_dict(read_json(path, "config", MalfamError, None))


def with_overrides(config: RunConfig, *, seed: int | None = None) -> RunConfig:
    if seed is not None:
        config = replace(config, seed=seed, forest=replace(config.forest, seed=seed))
    return config
