"""Exception types shared across the package, and the checks parameter
blocks run: every value finite, every duration a whole number of steps,
every search interval in order."""
from __future__ import annotations

import math
from typing import Optional


class PricePumpError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(PricePumpError, ValueError):
    """A parameter or configuration file violates a documented constraint."""


def check_finite(**values: Optional[float]) -> None:
    """Raise ``ConfigurationError`` for the first value that is not finite
    (``None``, a default resolved later, passes).  JSON ``1e400`` parses
    as infinity, so every float field without a two-sided bound runs this."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def step_slack(value: float) -> float:
    """How far ``value`` may miss a whole number of grid steps."""
    return 1e-9 * max(1.0, value)


def whole_steps(value: float, step: float, message: str) -> int:
    """``value / step`` rounded; raises ``ConfigurationError(message)``
    unless that many steps come within ``step_slack`` of ``value``."""
    n = round(value / step)
    if abs(n * step - value) > step_slack(value):
        raise ConfigurationError(message)
    return n


def check_search(low: float, high: float, tol: float) -> None:
    """Raise ``ConfigurationError`` unless ``0 < low < high`` and ``tol > 0``:
    the interval and tolerance of a bracketing search."""
    if not 0.0 < low < high:
        raise ConfigurationError(f"bracket must satisfy 0 < low < high, got ({low}, {high})")
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol}")


class NoSupplyError(PricePumpError):
    """Price clearing is impossible because no active agent holds any stock."""


class LiquidityExhaustedError(PricePumpError):
    """The requested external flow would drive the clearing price to zero or below."""


class DivergenceError(PricePumpError):
    """An integration produced a non-finite state."""

    def __init__(self, last_time: float, message: str | None = None):
        self.last_time = last_time
        super().__init__(message or f"solution became non-finite after t={last_time:.6g}")


class BracketError(PricePumpError):
    """A bracketing search was started on an interval that does not bracket the target."""


class EnsembleFailedError(PricePumpError):
    """Every path of an ensemble failed; ``failure_messages`` holds one
    ``'path i: error'`` line per path."""

    def __init__(self, failure_messages: tuple[str, ...], message: str):
        self.failure_messages = failure_messages
        super().__init__(message)
