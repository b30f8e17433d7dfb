"""Exogenous investment schedules: dollars per year as a function of time.

A schedule is normalized by its first-year mass: the integral over
[0, 1] equals ``first_year_total`` exactly, which makes schedules of
different shapes directly comparable.  Flow is zero for t < 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_finite

SCHEDULE_KINDS = ("constant", "linear", "exponential")


@dataclass(frozen=True)
class ScheduleSpec:
    """Shape and mass of an investment schedule.

    ``growth`` is the exponential rate per year, at most about 709.78
    (where ``expm1(growth)`` in the normalization overflows); it is
    ignored for the constant and linear kinds (the linear slope is pinned
    to 2x the first-year total by the normalization, with zero intercept).
    """

    kind: str = "exponential"
    first_year_total: float = 5000.0
    growth: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(
                f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}"
            )
        check_finite(first_year_total=self.first_year_total)
        if self.first_year_total < 0.0:
            raise ConfigurationError(
                f"first_year_total must be >= 0, got {self.first_year_total}"
            )
        if self.kind == "exponential":
            # the normalization divides by expm1(growth), which overflows
            # above log(float max), about 709.78
            try:
                normalizer = math.expm1(self.growth)
            except OverflowError:
                normalizer = math.inf
            if not (math.isfinite(normalizer) and math.isfinite(self.growth)):
                raise ConfigurationError(
                    f"exponential growth must be finite and at most about 709.78, "
                    f"got {self.growth}"
                )


def schedule_amplitude(spec: ScheduleSpec) -> float:
    """Leading coefficient implied by the first-year normalization."""
    total = spec.first_year_total
    if spec.kind == "constant":
        return total
    if spec.kind == "linear":
        return 2.0 * total
    if spec.growth == 0.0:
        return total
    return spec.growth * total / math.expm1(spec.growth)


def schedule_eval(spec: ScheduleSpec, t):
    """Flow rate at time ``t`` (scalar or array), in dollars per year."""
    arr = np.asarray(t, dtype=float)
    amplitude = schedule_amplitude(spec)
    if amplitude == 0.0:
        # no mass: exp(growth * t) may overflow, and 0 * inf would be NaN
        values = np.zeros(arr.shape)
    elif spec.kind == "constant":
        values = np.full(arr.shape, amplitude)
    elif spec.kind == "linear":
        values = amplitude * arr
    else:
        values = amplitude * np.exp(spec.growth * arr)
    values = np.where(arr < 0.0, 0.0, values)
    if arr.ndim == 0:
        return float(values)
    return values
