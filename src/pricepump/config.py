"""Experiment configuration: JSON ingestion, validation, serialization.

A configuration is a single JSON document with one block per subsystem.
Every key is optional and falls back to the reference defaults (the
standard 500-agent market, daily trading, the reference factor
distribution and hazard scales); unknown keys are rejected by name.
The ``kind`` key selects the experiment.  Every block is one class,
parsed and serialized by walking its fields, and checked at load
whatever the kind: ``market`` (with its ``greed_fear`` and ``signal``
sub-blocks), ``hazard``, ``schedule``, ``cycle``, ``aspp``
(``FlowBlock``) and ``regimes`` (``RegimesBlock``) are the library's
parameter classes, and ``ponzi`` is ``PonziParams`` plus the solver's
own fields.  Only the CLI's own blocks are declared here.
"""
from __future__ import annotations

import hashlib
import json
import math
import types
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from inspect import signature
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .errors import ConfigurationError, check_finite
from .market import MarketParams
from .cycle import CycleConfig, FlowBlock, RegimesBlock, fit_market_impact
from .ponzi import DEFAULT_STEP, PonziParams, SpeculativePonziParams
from .risk import HazardParams
from .schedules import ScheduleSpec

EXPERIMENT_KINDS = (
    "aspp", "regimes", "cycle", "ponzi-classical", "ponzi-speculative", "fit-c0", "stats",
)

# Ponzi runs are scale-free; unit first-year mass keeps their default
# rate response O(1).  Market experiments keep ScheduleSpec's default, a
# first-year mass matching the population's initial cash reserve.
_PONZI_SCHEDULE = ScheduleSpec(first_year_total=1.0)

@dataclass(frozen=True)
class PonziBlock(PonziParams):
    """The classical scheme's ``PonziParams``, the speculative scheme's
    own fields, and the solvers' horizon, step and steady-state window."""

    market_impact: float = 1.0
    external_rate: float = SpeculativePonziParams.external_rate
    horizon: float = 20.0
    step: float = DEFAULT_STEP
    steady_window: float = 5.0

    def __post_init__(self):
        super().__post_init__()
        check_finite(market_impact=self.market_impact, external_rate=self.external_rate,
                     steady_window=self.steady_window)


@dataclass(frozen=True)
class FitBlock:
    """Bracket and tolerance (in log coefficient) of the golden-section
    fit, and the stored ensemble to fit instead of running one."""

    bracket_low: float = 1e-5
    bracket_high: float = 1e-2
    tol: float = signature(fit_market_impact).parameters["tol"].default
    source_csv: Optional[str] = None

    def __post_init__(self):
        low, high = self.bracket_low, self.bracket_high
        check_finite(bracket_low=low, bracket_high=high, tol=self.tol)
        if not 0.0 < low < high:
            raise ConfigurationError(f"bracket must satisfy 0 < low < high, got ({low}, {high})")
        if not self.tol > 0.0:
            raise ConfigurationError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class StatsBlock:
    input_csv: Optional[str] = None
    price_column: str = "price"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 12345
    out: Optional[str] = None
    market: MarketParams = field(default_factory=MarketParams)
    hazard: HazardParams = field(default_factory=HazardParams)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    aspp: FlowBlock = field(default_factory=FlowBlock)
    regimes: RegimesBlock = field(default_factory=RegimesBlock)
    cycle: CycleConfig = field(default_factory=CycleConfig)
    ponzi: PonziBlock = field(default_factory=PonziBlock)
    fit: FitBlock = field(default_factory=FitBlock)
    stats: StatsBlock = field(default_factory=StatsBlock)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def _key(context: str, name: str) -> str:
    return f"{context}.{name}" if context else name


def _check_keys(data: dict, allowed, context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown configuration key '{_key(context, unknown[0])}'")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(value) -> int:
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _as_float(value) -> float:
    # Infinity stays valid: a window signal's default end serializes as it.
    # NaN does not: a NaN config is unequal to itself and to its reload.
    if not _is_number(value) or math.isnan(value):
        raise ValueError(value)
    return float(value)


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(value)
    return value


def _as_floats(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(value)
    return tuple(_as_float(v) for v in value)


_CASTS = {int: _as_int, float: _as_float, str: _as_str, tuple[float, ...]: _as_floats}
_hints = cache(get_type_hints)  # resolving the string annotations dominates a parse


def _value(hint, raw: Any, default: Any, key: str) -> Any:
    """JSON value ``raw`` cast to the type ``hint``; null keeps ``default``."""
    if raw is None:
        return default
    if get_origin(hint) in (Union, types.UnionType) and type(None) in get_args(hint):
        hint = next(arg for arg in get_args(hint) if arg is not type(None))  # Optional[T]
    if is_dataclass(hint):
        if not isinstance(raw, dict):
            raise ConfigurationError(f"'{key}' must be a JSON object, got {raw!r}")
        return _parse(default, raw, key)
    try:
        return _CASTS[hint](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid value for '{key}': {raw!r}") from exc


def _parse(default, data: dict, context: str):
    """Copy of the dataclass instance ``default`` with the fields set in ``data``."""
    hints = _hints(type(default))
    _check_keys(data, hints, context)
    return replace(default, **{
        name: _value(hints[name], raw, getattr(default, name), _key(context, name))
        for name, raw in data.items()
    })


def load_config_data(data: dict, default_kind: Optional[str] = None) -> ExperimentConfig:
    """Build a validated configuration from a parsed JSON document;
    ``default_kind`` fills a missing ``kind``."""
    if not isinstance(data, dict):
        raise ConfigurationError("configuration must be a JSON object")
    kind = data.get("kind", default_kind)
    if kind is None:
        raise ConfigurationError("missing configuration key 'kind'")
    kind = str(kind)
    schedule = _PONZI_SCHEDULE if kind.startswith("ponzi") else ScheduleSpec()
    return _parse(ExperimentConfig(kind=kind, schedule=schedule), data, "")


def parse_config(path: str | Path, default_kind: Optional[str] = None) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read configuration file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    return load_config_data(data, default_kind)


def config_to_dict(cfg) -> dict:
    """Complete, explicit dictionary form (every default spelled out) of an
    ``ExperimentConfig`` or of one of its blocks."""
    body = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        body[f.name] = value
    return body


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
