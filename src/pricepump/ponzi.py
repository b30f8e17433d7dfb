"""Ponzi-scheme dynamics: a promised-rate (classical) scheme and a
self-organized speculative scheme whose rate responds to net flow.

Both are integrated with fixed-step classical Runge-Kutta.  The
maturing-inflow forcing switches on discontinuously at the maturity lag,
which the grid is required to hit exactly (maturity must be an integer
multiple of the step); stage evaluations at a switch point use one-sided
values so the integrator keeps full order across it.  The speculative
scheme is a delay system: the growth of maturing money is read from the
stored running integral of the nominal rate, linearly interpolated at
half-steps.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import BracketError, ConfigurationError, DivergenceError, check_finite, whole_steps
from .market import MarketParams
from .schedules import ScheduleSpec, schedule_eval

DEFAULT_STEP = 1.0 / MarketParams.days_per_year  # one trading day


def _check_scheme(maturity: float, initial_capital: float) -> None:
    """The checks both schemes' parameters share."""
    check_finite(maturity=maturity, initial_capital=initial_capital)
    if maturity < 0.0:
        raise ConfigurationError(f"maturity must be >= 0, got {maturity}")
    if initial_capital < 0.0:
        raise ConfigurationError(f"initial_capital must be >= 0, got {initial_capital}")


@dataclass(frozen=True)
class PonziParams:
    """Classical scheme rates (per year) and timing.

    nominal_rate: growth of money already inside the scheme.
    promised_rate: return promised to investors over the maturity period.
    withdrawal_rate: rate at which matured value is withdrawn.
    maturity: years between investing and withdrawal eligibility.
    initial_capital: money in the scheme at t = 0.
    """

    nominal_rate: float = 0.0
    promised_rate: float = 0.41
    withdrawal_rate: float = 0.41
    maturity: float = 3.0
    initial_capital: float = 0.0

    def __post_init__(self):
        check_finite(nominal_rate=self.nominal_rate, promised_rate=self.promised_rate,
                     withdrawal_rate=self.withdrawal_rate)
        _check_scheme(self.maturity, self.initial_capital)


@dataclass(frozen=True)
class SpeculativePonziParams:
    """Self-organized scheme: the nominal rate is market_impact times the
    net dollar flow (inflow minus withdrawals, the flow term that drives
    capital growth), plus an optional external baseline rate."""

    market_impact: float
    withdrawal_rate: float = PonziParams.withdrawal_rate
    maturity: float = 3.0
    initial_capital: float = 0.0
    external_rate: float = 0.0

    def __post_init__(self):
        check_finite(market_impact=self.market_impact, withdrawal_rate=self.withdrawal_rate,
                     external_rate=self.external_rate)
        if self.market_impact <= 0.0:
            raise ConfigurationError(f"market_impact must be positive, got {self.market_impact}")
        _check_scheme(self.maturity, self.initial_capital)


@dataclass(frozen=True)
class OdeSolution:
    """Uniform-grid solution: capital S(t), withdrawable value R(t), and,
    for the speculative scheme, the nominal rate and its running integral."""

    grid: np.ndarray
    capital: np.ndarray
    withdrawable: np.ndarray
    nominal_rate: Optional[np.ndarray] = None
    log_growth: Optional[np.ndarray] = None


def _grid_steps(horizon: float, step: float) -> int:
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigurationError(f"step must be positive and finite, got {step}")
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    message = f"horizon {horizon} must be an integer multiple of the step {step}"
    n = whole_steps(horizon, step, message)
    if n < 1:
        raise ConfigurationError(message)
    return n


def _delay_steps(maturity: float, step: float) -> int:
    return whole_steps(
        maturity, step, f"maturity {maturity} must be an integer multiple of the step {step}"
    )


def _schedule_stage_values(spec: ScheduleSpec, nodes: np.ndarray, step: float, shift: float):
    """Schedule samples at nodes (both one-sided limits) and midpoints.

    ``shift`` displaces the argument, so the same helper serves the direct
    term r(t) and the delayed term r(t - maturity), shifted by ``lag *
    step`` (which is ``nodes[lag]``, even for a step a few ulps off the
    maturity).  The left-limit array is zero at the exact switch-on
    point; midpoints never hit it.
    Returned as plain lists: the integration loops run on Python floats.
    """
    args = nodes - shift
    right = schedule_eval(spec, args)
    left = np.where(args > 0.0, right, 0.0)
    mid = schedule_eval(spec, args[:-1] + 0.5 * step)
    return right.tolist(), left.tolist(), mid.tolist()


def classical_ponzi_solve(
    params: PonziParams,
    schedule: ScheduleSpec,
    horizon: float,
    step: float = DEFAULT_STEP,
) -> OdeSolution:
    """Integrate the classical scheme.

    Capital grows at the nominal rate plus the net flow (schedule inflow
    minus withdrawals); the withdrawable value compounds at the promised
    rate net of withdrawals and is fed by inflows made one maturity ago,
    grown by the promised rate over the maturity period.  The system is
    linear, so no blow-up occurs at practical horizons; a state that does
    overflow stays non-finite and raises ``DivergenceError``.
    """
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    nodes = step * np.arange(n + 1)
    direct_r, _, direct_m = _schedule_stage_values(schedule, nodes, step, 0.0)
    delayed_r, delayed_l, delayed_m = _schedule_stage_values(schedule, nodes, step, lag * step)

    rn, rw = params.nominal_rate, params.withdrawal_rate
    drift = params.promised_rate - rw
    try:
        matured_gain = math.exp(params.promised_rate * params.maturity)
    except OverflowError:
        matured_gain = math.inf  # the withdrawable value diverges at the first step

    capital = np.empty(n + 1)
    withdrawable = np.empty(n + 1)
    s = params.initial_capital
    r = 0.0
    capital[0] = s
    withdrawable[0] = r
    half = 0.5 * step
    sixth = step / 6.0
    for i in range(n):
        f1s = rn * s + direct_r[i] - rw * r
        f1r = drift * r + matured_gain * delayed_r[i]
        s2 = s + half * f1s
        r2 = r + half * f1r
        f2s = rn * s2 + direct_m[i] - rw * r2
        f2r = drift * r2 + matured_gain * delayed_m[i]
        s3 = s + half * f2s
        r3 = r + half * f2r
        f3s = rn * s3 + direct_m[i] - rw * r3
        f3r = drift * r3 + matured_gain * delayed_m[i]
        s4 = s + step * f3s
        r4 = r + step * f3r
        f4s = rn * s4 + direct_r[i + 1] - rw * r4
        f4r = drift * r4 + matured_gain * delayed_l[i + 1]
        s += sixth * (f1s + 2.0 * (f2s + f3s) + f4s)
        r += sixth * (f1r + 2.0 * (f2r + f3r) + f4r)
        capital[i + 1] = s
        withdrawable[i + 1] = r
    # checked once, after the loop: the system is linear, so a state that
    # overflowed stays inf or NaN up to the horizon
    finite = np.isfinite(capital) & np.isfinite(withdrawable)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DivergenceError(float(nodes[max(first, 1) - 1]))
    return OdeSolution(grid=nodes, capital=capital, withdrawable=withdrawable)


def speculative_ponzi_solve(
    params: SpeculativePonziParams,
    schedule: ScheduleSpec,
    horizon: float,
    step: float = DEFAULT_STEP,
) -> OdeSolution:
    """Integrate the speculative scheme with state (S, R, J).

    J is the running integral of the nominal rate; money invested one
    maturity ago matures grown by exp(J(t) - J(t - maturity)), with the
    past J read at the grid nodes one maturity back (linear interpolation
    at half-steps; J = 0 for t <= 0).  Those nodes come from a buffer of
    the last maturity's J values as Python floats, one entry per node
    from t - maturity to t, seeded with the zeros of the nodes at or
    before 0.  The four RK4 stages are written out in the loop, each as
    flow = inflow - rw*R, rate = c0*flow + ext, dS = flow*(c0*S + 1) and
    dR = (rate - rw)*R + matured inflow * growth, with dJ = rate.
    """
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    nodes = step * np.arange(n + 1)
    direct_r, _, direct_m = _schedule_stage_values(schedule, nodes, step, 0.0)
    delayed_r, delayed_l, delayed_m = _schedule_stage_values(schedule, nodes, step, lag * step)

    c0 = params.market_impact
    rw = params.withdrawal_rate
    ext = params.external_rate
    # with no delay, money matures as it arrives: its growth factor is 1
    growth = math.exp if lag else (lambda _: 1.0)
    isfinite = math.isfinite

    capital = np.empty(n + 1)
    withdrawable = np.empty(n + 1)
    log_growth = np.zeros(n + 1)
    s = params.initial_capital
    r = 0.0
    j = 0.0
    capital[0] = s
    withdrawable[0] = r
    # J at nodes i - lag .. i: past[0] and past[1] are J one maturity
    # before the step's two ends (when lag is 0, two zeros never used)
    size = max(lag, 1) + 1
    past = deque([0.0] * size, maxlen=size)

    half = 0.5 * step
    sixth = step / 6.0
    for i in range(n):
        j_start = past[0]
        j_end = past[1]
        j_mid = 0.5 * (j_start + j_end)
        try:
            flow = direct_r[i] - rw * r
            f1j = c0 * flow + ext
            f1s = flow * (c0 * s + 1.0)
            f1r = (f1j - rw) * r + delayed_r[i] * growth(j - j_start)

            inflow = direct_m[i]
            matured = delayed_m[i]
            s2 = s + half * f1s
            r2 = r + half * f1r
            j2 = j + half * f1j
            flow = inflow - rw * r2
            f2j = c0 * flow + ext
            f2s = flow * (c0 * s2 + 1.0)
            f2r = (f2j - rw) * r2 + matured * growth(j2 - j_mid)

            s3 = s + half * f2s
            r3 = r + half * f2r
            j3 = j + half * f2j
            flow = inflow - rw * r3
            f3j = c0 * flow + ext
            f3s = flow * (c0 * s3 + 1.0)
            f3r = (f3j - rw) * r3 + matured * growth(j3 - j_mid)

            s4 = s + step * f3s
            r4 = r + step * f3r
            j4 = j + step * f3j
            flow = direct_r[i + 1] - rw * r4
            f4j = c0 * flow + ext
            f4s = flow * (c0 * s4 + 1.0)
            f4r = (f4j - rw) * r4 + delayed_l[i + 1] * growth(j4 - j_end)
        except OverflowError:
            raise DivergenceError(float(nodes[i])) from None
        s += sixth * (f1s + 2.0 * (f2s + f3s) + f4s)
        r += sixth * (f1r + 2.0 * (f2r + f3r) + f4r)
        j += sixth * (f1j + 2.0 * (f2j + f3j) + f4j)
        if not (isfinite(s) and isfinite(r) and isfinite(j)):
            raise DivergenceError(float(nodes[i]))
        capital[i + 1] = s
        withdrawable[i + 1] = r
        log_growth[i + 1] = j
        past.append(j)

    return OdeSolution(
        grid=nodes,
        capital=capital,
        withdrawable=withdrawable,
        nominal_rate=c0 * (np.asarray(direct_r) - rw * withdrawable) + ext,
        log_growth=log_growth,
    )


def collapse_time(sol: OdeSolution) -> Optional[float]:
    """First time the capital crosses zero from above, linearly interpolated.

    Returns None when capital stays positive on the whole grid.  A run
    whose capital starts at zero counts as collapsed only after it has
    been positive, except in the degenerate case where it never is.
    """
    capital = sol.capital
    if not np.any(capital <= 0.0):
        return None
    crossings = np.flatnonzero((capital[1:] <= 0.0) & (capital[:-1] > 0.0))
    if crossings.size == 0:
        if capital[0] <= 0.0 and np.max(capital) <= 0.0:
            return float(sol.grid[0])
        return None
    i = int(crossings[0]) + 1
    before, after = capital[i - 1], capital[i]
    t0, t1 = sol.grid[i - 1], sol.grid[i]
    return float(t0 + (t1 - t0) * before / (before - after))


def critical_exponent(
    params: PonziParams,
    horizon: float,
    tol: float,
    bracket: tuple[float, float] | None = None,
    step: float = DEFAULT_STEP,
) -> float:
    """Smallest exponential-schedule growth rate that keeps the scheme solvent.

    Valid for the flat-market regime (zero nominal rate, withdrawal rate
    equal to the promised rate), where viability flips at a single growth
    rate: the schedule exp(a*t) is run through the classical solver and
    the rate is bisected to within ``tol`` or to the resolution of a
    float, whichever is coarser.  A rate whose solve overflows
    raises ``DivergenceError``; narrow the bracket or the horizon.
    """
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if params.nominal_rate != 0.0 or params.promised_rate != params.withdrawal_rate:
        raise ConfigurationError(
            "critical exponent search requires zero nominal rate and "
            "withdrawal rate equal to the promised rate"
        )
    promised = params.promised_rate
    if promised <= 0.0:
        raise ConfigurationError(f"promised_rate must be positive, got {promised}")
    low, high = bracket if bracket is not None else (0.25 * promised, 2.0 * promised)
    if not 0.0 < low < high:
        raise ConfigurationError(f"invalid bracket ({low}, {high})")

    def survives(a: float) -> bool:
        # first_year_total chosen so the schedule is exactly exp(a*t)
        spec = ScheduleSpec(
            kind="exponential",
            first_year_total=math.expm1(a) / a if a != 0.0 else 1.0,
            growth=a,
        )
        return collapse_time(classical_ponzi_solve(params, spec, horizon, step)) is None

    low_ok = survives(low)
    high_ok = survives(high)
    if low_ok or not high_ok:
        raise BracketError(
            f"bracket ({low}, {high}) does not straddle the critical growth rate: "
            f"low endpoint {'survives' if low_ok else 'collapses'}, "
            f"high endpoint {'survives' if high_ok else 'collapses'}"
        )
    mid = 0.5 * (low + high)
    while high - low > tol and low < mid < high:  # a midpoint at an end is float resolution
        if survives(mid):
            high = mid
        else:
            low = mid
        mid = 0.5 * (low + high)
    return mid


class SteadyStateRate(NamedTuple):
    rate: float
    spread: float  # max - min over the window; convergence diagnostic


def steady_state_rate(sol: OdeSolution, window: float) -> SteadyStateRate:
    """Mean nominal rate over the final ``window`` years, with its spread."""
    if sol.nominal_rate is None:
        raise ValueError("solution carries no nominal-rate series")
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    span = float(sol.grid[-1] - sol.grid[0])
    if span < 2.0 * window:
        raise ValueError(f"horizon {span} must be at least twice the window {window}")
    tail = sol.nominal_rate[sol.grid >= sol.grid[-1] - window - 1e-12]
    return SteadyStateRate(rate=float(tail.mean()), spread=float(tail.max() - tail.min()))
