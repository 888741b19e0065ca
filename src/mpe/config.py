"""Pipeline configuration and its one JSON codec.

The codec is derived from the config dataclasses' fields and type hints,
so every default lives only in its dataclass.
"""

from __future__ import annotations

import enum
import json
import types
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import date
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .baselines import GbdtParams
from .decomposition import BaselineConfig
from .errors import ConfigError
from .gateway import BackendConfig
from .geo import GeoPoint
from .ioutil import read_text
from .prompts import (
    DEFAULT_DESCRIPTION_WORD_CAP,
    DEFAULT_MODEL,
    DEFAULT_TEMPLATES,
    AblationConfig,
    PromptTemplates,
    load_templates,
)
from .trips import DateRange, VenueConfig

BACKEND_KINDS = ("live", "mock", "heuristic")
LLM_MODEL_NAME = "llm"


@dataclass(frozen=True)
class PipelineConfig:
    venue: VenueConfig
    trip_source: Path
    event_source: Path
    train_range: DateRange
    test_range: DateRange
    output_dir: Path = Path("out")
    history_days: int = 28
    baseline: BaselineConfig = BaselineConfig()
    model: str = DEFAULT_MODEL
    temperature: float = 0.0
    max_tokens: int | None = None
    backend_kind: str = "mock"
    backend: BackendConfig = BackendConfig()
    mock_script: Path | None = None
    cache_dir: Path | None = None
    ablation: AblationConfig = AblationConfig()
    concurrency: int = 4
    fallback_budget: float = 1.0
    max_description_words: int = DEFAULT_DESCRIPTION_WORD_CAP
    template_dir: Path | None = None
    linear_ridge_lambda: float = 1.0
    gbdt: GbdtParams = GbdtParams()
    time_bins: int = 24
    text_dim: int = 32
    ablate_models: tuple[str, ...] = (LLM_MODEL_NAME,)

    def __post_init__(self):
        if self.history_days < 1:
            raise ConfigError("history_days must be positive")
        if self.train_range.end >= self.test_range.start:
            raise ConfigError("train_range must end before test_range begins")
        if self.backend_kind not in BACKEND_KINDS:
            raise ConfigError(f"backend kind must be one of {BACKEND_KINDS}, not "
                              f"{self.backend_kind!r}; 'live' keeps its replies under cache_dir")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if not (0.0 <= self.fallback_budget <= 1.0):
            raise ConfigError("fallback_budget must be in [0, 1]")
        if not (0.0 <= self.temperature <= 2.0):
            raise ConfigError("temperature must be in [0, 2]")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        for name in ("time_bins", "text_dim", "max_description_words"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 <= self.linear_ridge_lambda < float("inf")):
            raise ConfigError("linear_ridge_lambda must be finite and >= 0")
        for name in self.ablate_models:
            if name not in (LLM_MODEL_NAME, "gbdt"):
                raise ConfigError(f"ablate_models must be {LLM_MODEL_NAME} or gbdt, not {name!r}")

    @property
    def full_range(self) -> DateRange:
        return DateRange(self.train_range.start, self.test_range.end)

    def templates(self) -> PromptTemplates:
        if self.template_dir is None:
            return DEFAULT_TEMPLATES
        return load_templates(self.template_dir)

    def to_dict(self) -> dict:
        """The config as a JSON document; `api_key` is never included."""
        return encode(self)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "PipelineConfig":
        """Read a config document; a missing field takes its dataclass default.

        Relative paths resolve against `base_dir`. `backend.kind` and
        `backend.mock_script` are read in place of, and win over, the
        top-level `backend_kind` and `mock_script`. An unknown field, at
        any depth, is an error, not silently ignored.
        """
        try:
            doc = dict(doc)
            if isinstance(doc.get("backend"), dict):
                nested = doc["backend"] = dict(doc["backend"])
                for key, field in (("kind", "backend_kind"), ("mock_script", "mock_script")):
                    if key in nested:
                        doc[field] = nested.pop(key)
            return _decode_fields(cls, doc, base_dir)
        except ConfigError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pipeline config: {exc}") from exc

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        path = Path(path)
        try:
            doc = json.loads(read_text(path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc, base_dir=path.absolute().parent)


# One codec for every config dataclass, driven by its fields and type hints.
# Date ranges are [start, end], ablations are their names, enums their
# values, and a GeoPoint is inlined into its parent as lat/lon.
_SECRET_FIELDS = frozenset({"api_key"})  # never serialised, never digested
# The JSON values a scalar field accepts: an int where a float is declared,
# but never a bool where a number is.
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def encode(value):
    """A config value as JSON."""
    if isinstance(value, DateRange):
        return [value.start.isoformat(), value.end.isoformat()]
    if isinstance(value, AblationConfig):
        return value.name
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if isinstance(item, GeoPoint):
                doc.update(encode(item))
            elif f.name not in _SECRET_FIELDS:
                doc[f.name] = encode(item)
        return doc
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return [encode(item) for item in value]
    return value


def _decode_fields(cls, doc: dict, base_dir: Path | None, name: str | None = None):
    if not isinstance(doc, dict):
        raise ConfigError(f"config field {name} must be an object")
    prefix = f"{name}." if name else ""
    hints = get_type_hints(cls)
    keys = {
        key for f in fields(cls)
        for key in (("lat", "lon") if hints[f.name] is GeoPoint else (f.name,))
    }
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown config field: {prefix}{key}")
    kwargs = {}
    for f in fields(cls):
        hint = hints[f.name]
        if hint is GeoPoint:
            kwargs[f.name] = GeoPoint(
                *(_decode(float, doc[k], base_dir, prefix + k) for k in ("lat", "lon"))
            )
        elif f.name in _SECRET_FIELDS:
            continue
        elif f.name in doc:
            kwargs[f.name] = _decode(hint, doc[f.name], base_dir, prefix + f.name)
        elif f.default is not MISSING:
            kwargs[f.name] = _decode(hint, encode(f.default), base_dir, prefix + f.name)
        else:
            raise ConfigError(f"config missing required field: {f.name}")
    return cls(**kwargs)


def _decode(hint, raw, base_dir: Path | None, name: str):
    if isinstance(hint, types.UnionType):  # `X | None`
        if raw is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(f"config field {name} must be an array")
        return tuple(_decode(get_args(hint)[0], item, base_dir, name) for item in raw)
    if hint is Path:
        path = Path(raw)
        return base_dir / path if base_dir is not None and not path.is_absolute() else path
    if hint is DateRange:
        return DateRange(date.fromisoformat(raw[0]), date.fromisoformat(raw[1]))
    if hint is AblationConfig:
        return AblationConfig.parse(raw)
    if is_dataclass(hint):
        return _decode_fields(hint, raw, base_dir, name)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(raw)
    accepted, described = _SCALARS[hint]
    if not isinstance(raw, accepted) or (isinstance(raw, bool) and hint is not bool):
        raise ConfigError(f"config field {name} must be {described}")
    return raw
