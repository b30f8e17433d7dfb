"""Risk metrics and return statistics.

Two independent hazards are tracked.  The crash hazard is endogenous:
it grows as cash concentrates in a low-cash group of agents, measured by
a Gaussian-kernel concentration of the cash distribution.  The investor
hazard accumulates while the realized market rate runs below the rate
investors were targeting.  Neither feeds back into trading, so a day loop
derives both once per path from its daily series: ``crash_hazard``
elementwise over the concentrations, ``investor_hazard`` from the prices.
Total risk is their sum, the ``H`` column of every run
(``cycle.PathRecord.hazard_total``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, check_finite


@dataclass(frozen=True)
class HazardParams:
    """Scales for the hazard metrics.

    cash_scale: dollars^2 kernel width of the cash-concentration measure.
    crash_scale: multiplier of the concentration-driven crash hazard.
    shortfall_scale: per-year multiplier of the investor hazard.
    cap: finite ceiling for the crash hazard (the formula diverges as the
        concentration approaches 1).
    """

    cash_scale: float = 70.0
    crash_scale: float = 5.0
    shortfall_scale: float = 1.0
    cap: float = 1e6

    def __post_init__(self):
        check_finite(cash_scale=self.cash_scale, crash_scale=self.crash_scale,
                     shortfall_scale=self.shortfall_scale, cap=self.cap)
        for name in ("cash_scale", "crash_scale", "shortfall_scale", "cap"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")


def cash_kernel(cash: np.ndarray, cash_scale: float) -> np.ndarray:
    """Per-agent low-cash weight exp(-cash^2 / scale), elementwise.

    Each entry depends on its own agent's cash only, so a day loop can
    keep this array and recompute just the agents whose cash changed.
    """
    return np.exp(-(cash * cash) / cash_scale)


def cash_concentration(
    cash_values: Sequence[float] | np.ndarray, cash_scale: float = HazardParams.cash_scale
) -> float:
    """Concentration of agents at low cash: mean of ``cash_kernel``.

    Lies in [0, 1]; equals 1 exactly when every agent holds zero cash and
    vanishes as all agents become cash-rich (it underflows to exactly 0
    once every agent holds more than about sqrt(745 * cash_scale)).
    """
    if not cash_scale > 0.0:
        raise ValueError(f"cash_scale must be positive, got {cash_scale}")
    values = np.asarray(cash_values, dtype=float)
    if values.size == 0:
        raise ValueError("cash_concentration needs at least one agent")
    return float(np.mean(cash_kernel(values, cash_scale)))


def crash_hazard(concentration: float | np.ndarray, params: HazardParams) -> float | np.ndarray:
    """Crash hazard from cash concentration: scale * sqrt(h) / (1 - sqrt(h)).

    Elementwise, rounding as the scalar formula does.  Strictly increasing
    in the concentration, zero at zero concentration (no agent short of
    cash), and capped at ``params.cap`` where the expression diverges.
    """
    h = np.asarray(concentration, dtype=float)
    outside = ~((h >= 0.0) & (h <= 1.0))
    if outside.any():
        raise ValueError(f"concentration must lie in [0, 1], got {h[outside][0]}")
    root = np.sqrt(h)
    with np.errstate(divide="ignore"):
        return np.minimum(params.crash_scale * root / (1.0 - root), params.cap)


def investor_hazard(
    price: np.ndarray, start_day: int, target_rate: float, period: float,
    scale: float = HazardParams.shortfall_scale,
) -> np.ndarray:
    """Investor-side hazard on a daily price path, accumulated from
    ``start_day`` (the first day of withdrawals) on.

    The realized rate of day i is the annualized simple return
    (price[i] / price[i-1] - 1) / period.  The hazard integrates
    ``scale * exp(target_rate - rate)`` with the trapezoid rule, one step
    per day: zero up to ``start_day`` and non-decreasing after it.  Day 0
    has no realized rate, so a start at day 0 reuses day 1's integrand
    as its left endpoint.  Each integrand is a scalar ``math.exp`` and the
    sum runs day by day: ``np.exp`` differs from ``math.exp`` in the last
    bit on some inputs, and a pairwise sum rounds differently.  Raises
    ``DivergenceError`` at the first day whose integrand or running sum
    is not finite.
    """
    if start_day < 0:
        raise ValueError(f"start_day must be >= 0, got {start_day}")
    price = np.asarray(price, dtype=float)
    hazard = np.zeros(price.size)
    if start_day >= price.size - 1:
        return hazard
    first = max(start_day, 1)
    # elementwise + - * / round exactly as Python floats do
    exponent = target_rate - (price[first:] / price[first - 1 : -1] - 1.0) / period
    integrand = []
    for day, x in enumerate(exponent.tolist(), start=first):
        try:
            integrand.append(math.exp(x))
        except OverflowError:
            message = f"investor hazard overflows on day {day}"
            raise DivergenceError(day * period, message) from None
    integrand = np.array(integrand)
    if start_day == 0:
        integrand = np.concatenate([integrand[:1], integrand])
    steps = scale * 0.5 * (integrand[:-1] + integrand[1:]) * period
    hazard[start_day + 1 :] = list(accumulate(steps.tolist()))
    if not math.isfinite(hazard[-1]):  # the sum is non-decreasing
        day = int(np.argmax(~np.isfinite(hazard)))
        raise DivergenceError(day * period, f"investor hazard overflows on day {day}")
    return hazard


class TheoreticalReturn(NamedTuple):
    daily_factor: float  # geometric-mean gross return per trading day
    volatility: float


def theoretical_return(
    greed: float, fear: float, n_agents: int, n_active: int
) -> TheoreticalReturn:
    """Predicted per-day return of a homogeneous zero-flow market.

    The daily geometric-mean factor is (greed/fear)**(m/(2N)): each day a
    fraction m/N of agents updates its target, and on average half move
    with greed, half with fear.  The volatility scale is
    ``greed*fear - 1`` up to an undetermined positive coefficient (taken
    as 1); it is reported but never drives control flow.
    """
    if not (greed >= 1.0 and fear >= 1.0):
        raise ValueError(f"factors greed and fear must be >= 1, got {greed} and {fear}")
    if not 1 <= n_active <= n_agents:
        raise ValueError(f"n_active must be in [1, {n_agents}], got {n_active}")
    exponent = n_active / (2.0 * n_agents)
    return TheoreticalReturn(
        daily_factor=(greed / fear) ** exponent,
        volatility=greed * fear - 1.0,
    )


@dataclass(frozen=True)
class ReturnStats:
    """Per-day moments of a log-return sample."""

    mean_log_return: float
    std_log_return: float
    geometric_mean_return: float
    skewness: float
    excess_kurtosis: float
    n_returns: int


def stats_from_log_returns(log_returns: Sequence[float] | np.ndarray) -> ReturnStats:
    """Moments of a pooled log-return sample (population conventions).

    Degenerate samples (one return, or zero variance) report zero shape
    statistics.
    """
    returns = np.asarray(log_returns, dtype=float)
    if returns.size < 1:
        raise ValueError("need at least 1 return, got none")
    mean = float(returns.mean())
    centered = returns - mean
    variance = float(np.mean(centered * centered))
    std = math.sqrt(variance)
    if std > 0.0:
        skewness = float(np.mean(centered**3)) / std**3
        kurtosis = float(np.mean(centered**4)) / std**4 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0
    return ReturnStats(
        mean_log_return=mean,
        std_log_return=std,
        geometric_mean_return=math.exp(mean),
        skewness=skewness,
        excess_kurtosis=kurtosis,
        n_returns=int(returns.size),
    )


def return_stats(price_series: Sequence[float] | np.ndarray) -> ReturnStats:
    """Daily log-return statistics of a price series (>= 3 finite,
    positive prices)."""
    prices = np.asarray(price_series, dtype=float)
    if prices.size < 3:
        raise ValueError(f"need at least 3 prices, got {prices.size}")
    if not np.all(np.isfinite(prices) & (prices > 0.0)):
        raise ValueError("prices must be finite and positive")
    return stats_from_log_returns(np.diff(np.log(prices)))
