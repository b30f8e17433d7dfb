"""Ponzi-scheme dynamics: a promised-rate (classical) scheme and a
self-organized speculative scheme whose rate responds to net flow.

Both are integrated with fixed-step classical Runge-Kutta.  The
maturing-inflow forcing switches on discontinuously at the maturity lag,
which the grid is required to hit exactly (maturity must be an integer
multiple of the step); stage evaluations at a switch point use one-sided
values so the integrator keeps full order across it.

One scan, ``_scan``, fills a first-order recurrence x[i+1] = a[i]*x[i] +
c[i] in chunks of numpy arrays, and both solvers end in it.  The
classical scheme is linear with constant coefficients, so its RK4 step
is one affine map: its withdrawable value and then its capital are
scanned with a constant coefficient.  The speculative scheme is a delay
system: its withdrawable value and the running integral of its nominal
rate, from which the growth of maturing money is read (linearly
interpolated at half-steps), are stepped over Python floats.  Before the
first maturity nothing has matured, so the withdrawable value is exactly
0 and the integral's steps, which then read the schedule alone, are
taken in numpy, up to the first step whose growth factor could overflow;
the float loop starts there.  Its capital feeds neither, and given their
stage values its RK4 step is affine, with a coefficient per step read
off its stage formula.

Both solvers refuse steps outside RK4's stability interval on the
negative real axis: the classical one checks its constant rates before
any step, the speculative one each step's stage flows.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BracketError,
    ConfigurationError,
    DivergenceError,
    check_finite,
    check_search,
    whole_steps,
)
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
    maturity: float = PonziParams.maturity
    initial_capital: float = PonziParams.initial_capital
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


def _schedule_stage_values(spec: ScheduleSpec, nodes: np.ndarray, step: float, lag: int):
    """The schedule samples both solvers step with.

    Returns the direct term r(t) at the nodes and midpoints, and the
    delayed term r(t - maturity) at the nodes, midpoints and as the
    left limit at the nodes.  The delayed argument is shifted by ``lag *
    step`` (which is ``nodes[lag]``, even for a step a few ulps off the
    maturity), so its left limit is zero at the exact switch-on point;
    midpoints never hit it.
    """

    def sample(shift):
        args = nodes - shift
        return args, schedule_eval(spec, args), schedule_eval(spec, args[:-1] + 0.5 * step)

    _, direct_r, direct_m = sample(0.0)
    args, delayed_r, delayed_m = sample(lag * step)
    delayed_l = np.where(args > 0.0, delayed_r, 0.0)
    return direct_r, direct_m, delayed_r, delayed_m, delayed_l


# Both solvers take their numpy stages in blocks of at most this many
# steps, so their temporaries stay small; within a block, a scan chunk keeps
# the running products of its recurrence coefficients within
# exp(+-_POWER_SPAN).
_BLOCK_STEPS = 2048
_POWER_SPAN = 30.0


def _classical_increment(s, r, inflow, matured, rates, step):
    """The classical scheme's RK4 increment of (S, R) over one step.

    ``inflow`` and ``matured`` hold the schedule forcing at the step's
    start, midpoint and end (the matured inflow already grown by the
    promised rate); ``rates`` is (nominal, withdrawal, promised net of
    withdrawal).  Works on floats and on arrays alike.
    """
    rn, rw, drift = rates
    u1, um, u4 = inflow
    v1, vm, v4 = matured
    half = 0.5 * step
    f1s = rn * s + u1 - rw * r
    f1r = drift * r + v1
    s2 = s + half * f1s
    r2 = r + half * f1r
    f2s = rn * s2 + um - rw * r2
    f2r = drift * r2 + vm
    s3 = s + half * f2s
    r3 = r + half * f2r
    f3s = rn * s3 + um - rw * r3
    f3r = drift * r3 + vm
    s4 = s + step * f3s
    r4 = r + step * f3r
    f4s = rn * s4 + u4 - rw * r4
    f4r = drift * r4 + v4
    sixth = step / 6.0
    return sixth * (f1s + 2.0 * (f2s + f3s) + f4s), sixth * (f1r + 2.0 * (f2r + f3r) + f4r)


_SCALE_LOW, _SCALE_HIGH = math.exp(-_POWER_SPAN), math.exp(_POWER_SPAN)

# RK4's stability interval on the negative real axis ends at the real root
# of 1 + z/2 + z**2/6 + z**3/24 = 0: below it, a decaying mode grows
_RK4_REAL_LIMIT = -2.785293563405282


def _scan(a: np.ndarray, x: np.ndarray, c: np.ndarray) -> int:
    """Fill x[1:] by x[i+1] = a[i]*x[i] + c[i] from x[0]; return the index
    of the first non-finite node, or x.size when every node is finite.

    Each chunk runs while the running product of a stays within
    exp(+-_POWER_SPAN); from its first node x0 and those running products
    scale, its nodes are scale * (x0 + cumsum(c / scale)).  A step whose
    own coefficient lies outside (zero and non-finite included) is taken
    alone.  ``a`` may be longer than ``c``.  The scan stops at the first
    chunk that holds a non-finite node and leaves the later nodes unfilled.
    """
    k = 0
    while k < c.size:
        scale = np.cumprod(a[k:c.size])
        magnitude = np.abs(scale)
        inside = (magnitude >= _SCALE_LOW) & (magnitude <= _SCALE_HIGH)
        m = inside.size if inside.all() else int(np.argmin(inside))
        if m:
            np.multiply(scale[:m], x[k] + np.cumsum(c[k:k + m] / scale[:m]),
                        out=x[k + 1:k + 1 + m])
        else:
            x[k + 1] = a[k] * x[k] + c[k]
            m = 1
        finite = np.isfinite(x[k + 1:k + 1 + m])
        if not finite.all():
            return k + 1 + int(np.argmin(finite))
        k += m
    return x.size


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
    linear with constant coefficients, so an RK4 step is the affine map
    y[i+1] = y[i] + D y[i] + q[i]: ``_classical_increment`` gives D from
    the unit states with no forcing and q from the zero state under each
    step's forcing.  D is upper triangular (R does not read S), so R and
    then S follow first-order recurrences, scanned in chunks, block by
    block of the grid.  A state that overflows raises ``DivergenceError``
    naming the last node whose state is finite.

    Both rates are constants, so RK4's stability is checked before any
    step: ``ConfigurationError`` is raised when step * nominal rate or
    step * (promised rate - withdrawal rate) lies below RK4's limit on the
    negative real axis, about -2.7853, where a decaying mode would grow.
    """
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    rates = (params.nominal_rate, params.withdrawal_rate,
             params.promised_rate - params.withdrawal_rate)
    for name, rate in (("nominal_rate", rates[0]),
                       ("promised_rate - withdrawal_rate", rates[2])):
        if step * rate < _RK4_REAL_LIMIT:
            raise ConfigurationError(
                f"step {step} times {name} {rate} is {step * rate}, below RK4's stability "
                f"limit {_RK4_REAL_LIMIT:.4f} on the negative real axis"
            )
    nodes = step * np.arange(n + 1)
    direct_r, direct_m, delayed_r, delayed_m, delayed_l = (
        _schedule_stage_values(schedule, nodes, step, lag)
    )

    try:
        matured_gain = math.exp(params.promised_rate * params.maturity)
    except OverflowError:
        matured_gain = math.inf  # the withdrawable value diverges at the first step

    unforced = (0.0, 0.0, 0.0)
    d_ss, _ = _classical_increment(1.0, 0.0, unforced, unforced, rates, step)
    d_sr, d_rr = _classical_increment(0.0, 1.0, unforced, unforced, rates, step)
    a_s, a_r = np.full(_BLOCK_STEPS, 1.0 + d_ss), np.full(_BLOCK_STEPS, 1.0 + d_rr)
    capital = np.empty(n + 1)
    withdrawable = np.empty(n + 1)
    capital[0] = params.initial_capital
    withdrawable[0] = 0.0
    # inf * 0 before maturity is NaN: an overflowing gain diverges at once
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n, _BLOCK_STEPS):
            stop = min(k + _BLOCK_STEPS, n)
            q_s, q_r = _classical_increment(
                0.0, 0.0,
                (direct_r[k:stop], direct_m[k:stop], direct_r[k + 1:stop + 1]),
                (matured_gain * delayed_r[k:stop], matured_gain * delayed_m[k:stop],
                 matured_gain * delayed_l[k + 1:stop + 1]),
                rates, step,
            )
            finite_r = _scan(a_r, withdrawable[k:stop + 1], q_r)
            # S runs only over the nodes whose R is finite
            finite = _scan(a_s, capital[k:k + finite_r],
                           d_sr * withdrawable[k:k + finite_r - 1] + q_s[:finite_r - 1])
            if finite <= stop - k:
                raise DivergenceError(float(nodes[k + finite - 1]))
    return OdeSolution(grid=nodes, capital=capital, withdrawable=withdrawable)


def _withdrawable_and_growth(params: SpeculativePonziParams, forcing, lag: int, step: float):
    """Step the speculative scheme's R and J, in numpy up to the first
    maturity and over Python floats from there.

    Returns R at the nodes reached and J at those nodes behind max(lag, 1)
    zeros, so that entries i and i + 1 are J one maturity before step i's
    two ends.  The loop stops early at a step whose growth factor
    overflows or whose R or J is not finite.

    Before step ``lag`` nothing has matured: every delayed forcing term is
    exactly 0.0 (the schedule is 0 for t < 0), so R stays +0.0 and J's
    increments read the schedule alone.  They are taken elementwise, with
    the loop's expressions in its order, and summed sequentially from 0.0,
    which gives the loop's bits.  Numpy keeps the steps before the first
    one whose J at its end is not finite, or whose growth factors'
    arguments do not all stay below 700 (``math.exp`` overflows past
    709.78); the loop starts there.
    """
    # Python floats: numpy scalars would make every stage numpy arithmetic
    c0, rw, ext, step = map(float, (params.market_impact, params.withdrawal_rate,
                                    params.external_rate, step))
    half = 0.5 * step
    sixth = step / 6.0
    before = min(lag, forcing[1].size)
    # the loop's flows with R = +0.0; its third stage repeats the second
    with np.errstate(over="ignore", invalid="ignore"):
        f1j, f2j, f4j = (c0 * (u - rw * 0.0) + ext for u in (
            forcing[0][:before], forcing[1][:before], forcing[0][1:before + 1]))
        increments = sixth * (f1j + 2.0 * (f2j + f2j) + f4j)
        j_nodes = np.add.accumulate(np.concatenate(([0.0], increments)))
        j0 = j_nodes[:-1]  # J at each step's start
        arguments = np.array((j0, j0 + half * f1j, j0 + half * f2j, j0 + step * f2j))
        kept = np.isfinite(j_nodes[1:]) & (arguments < 700.0).all(axis=0)
    start = kept.size if kept.all() else int(np.argmin(kept))
    direct_r, direct_m, delayed_r, delayed_m, delayed_l = (v[start:].tolist() for v in forcing)
    # with no delay, money matures as it arrives: its growth factor is 1
    growth = math.exp if lag else (lambda _: 1.0)
    isfinite = math.isfinite

    r = 0.0
    j = float(j_nodes[start])
    # R and J are stored as raw doubles: a list of float objects takes four
    # times the memory
    withdrawable = array("d", [r]) * (start + 1)
    # J at nodes at or before 0 is zero (when lag is 0, the past is never read)
    past = array("d", np.concatenate((np.zeros(max(lag, 1)), j_nodes[:start + 1])).tobytes())
    # inflow and matured inflow at the step's start, midpoint and end, and J
    # one maturity before its two ends: the loop appends to past as it goes,
    # and both iterators over it see each entry
    for u1, um, u4, v1, vm, v4, j_start, j_end in zip(
        direct_r, direct_m, islice(direct_r, 1, None),
        delayed_r, delayed_m, islice(delayed_l, 1, None),
        islice(past, start, None), islice(past, start + 1, None),
    ):
        j_mid = 0.5 * (j_start + j_end)
        try:
            flow = u1 - rw * r
            f1j = c0 * flow + ext
            f1r = (f1j - rw) * r + v1 * growth(j - j_start)

            r2 = r + half * f1r
            j2 = j + half * f1j
            flow = um - rw * r2
            f2j = c0 * flow + ext
            f2r = (f2j - rw) * r2 + vm * growth(j2 - j_mid)

            r3 = r + half * f2r
            j3 = j + half * f2j
            flow = um - rw * r3
            f3j = c0 * flow + ext
            f3r = (f3j - rw) * r3 + vm * growth(j3 - j_mid)

            r4 = r + step * f3r
            j4 = j + step * f3j
            flow = u4 - rw * r4
            f4j = c0 * flow + ext
            f4r = (f4j - rw) * r4 + v4 * growth(j4 - j_end)
        except OverflowError:
            break
        r += sixth * (f1r + 2.0 * (f2r + f3r) + f4r)
        j += sixth * (f1j + 2.0 * (f2j + f3j) + f4j)
        if not (isfinite(r) and isfinite(j)):
            break
        withdrawable.append(r)
        past.append(j)
    return np.array(withdrawable), np.array(past)


def _capital_increment(s, forced, flows, c0: float, step: float):
    """The RK4 increment of S over one step, stage by stage, given the four
    stage flows: dS = flow * (c0*S + forced), where the scheme has forced = 1.

    The step is affine in S, S + increment = alpha*S + beta: alpha - 1 is
    the increment from S = 1 with forced = 0, beta the one from S = 0 with
    forced = 1.
    """
    flow1, flow2, flow3, flow4 = flows
    half = 0.5 * step
    f1s = flow1 * (c0 * s + forced)
    f2s = flow2 * (c0 * (s + half * f1s) + forced)
    f3s = flow3 * (c0 * (s + half * f2s) + forced)
    f4s = flow4 * (c0 * (s + step * f3s) + forced)
    return step / 6.0 * (f1s + 2.0 * (f2s + f3s) + f4s)


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
    at half-steps; J = 0 for t <= 0).  Each RK4 stage has flow = inflow -
    rw*R, rate = c0*flow + ext, dS = flow*(c0*S + 1) and dR = (rate -
    rw)*R + matured inflow * growth, with dJ = rate.

    S feeds neither R nor J, so the solve has two phases.  R and J are
    stepped first.  Until the first maturity every matured inflow is 0,
    so R is exactly 0 and J's steps read the schedule alone: they are
    taken in numpy up to the first step whose J at its end is not finite
    or whose growth factor's argument reaches 700, and the float loop
    takes the rest (``_withdrawable_and_growth``).  Then, block by block,
    the four stage flows are rebuilt from the stored R, J and past J
    (growth factors by ``np.exp``); given them, an RK4 step of S is the
    affine map S[i+1] = alpha[i]*S[i] + beta[i], with alpha and beta read
    off the stage formula, ``_capital_increment``; it is scanned in
    chunks.

    A step fails when its growth factor overflows, its R, J or S is not
    finite, the increment of S taken stage by stage from the scanned S[i]
    is not finite, or a stage's step * c0 * flow (the step times the
    stage's derivative of dS in S) lies below RK4's stability limit on the
    negative real axis, about -2.7853, where a decaying capital would
    grow.  ``DivergenceError`` names the start node of the earliest
    failing step; for an unstable stage its message names that product
    and the limit.  Growth, step * c0 * flow above 0, is not bounded.
    """
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    nodes = step * np.arange(n + 1)
    forcing = _schedule_stage_values(schedule, nodes, step, lag)
    withdrawable, past = _withdrawable_and_growth(params, forcing, lag, step)
    taken = withdrawable.size - 1
    log_growth = past[max(lag, 1):]

    c0 = params.market_impact
    rw = params.withdrawal_rate
    ext = params.external_rate
    direct_r, direct_m, delayed_r, delayed_m, _ = forcing
    growth = np.exp if lag else (lambda _: 1.0)
    half = 0.5 * step
    capital = np.empty(taken + 1)
    capital[0] = params.initial_capital
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, taken, _BLOCK_STEPS):
            stop = min(k + _BLOCK_STEPS, taken)
            # the loop's stage flows, from the stored R, J and past J
            r, j = withdrawable[k:stop], log_growth[k:stop]
            j_start, j_end = past[k:stop], past[k + 1:stop + 1]
            j_mid = 0.5 * (j_start + j_end)
            inflow, matured = direct_m[k:stop], delayed_m[k:stop]
            flow1 = direct_r[k:stop] - rw * r
            f1j = c0 * flow1 + ext
            r2 = r + half * ((f1j - rw) * r + delayed_r[k:stop] * growth(j - j_start))
            flow2 = inflow - rw * r2
            f2j = c0 * flow2 + ext
            r3 = r + half * ((f2j - rw) * r2 + matured * growth(j + half * f1j - j_mid))
            flow3 = inflow - rw * r3
            f3r = (c0 * flow3 + ext - rw) * r3 + matured * growth(j + half * f2j - j_mid)
            flows = (flow1, flow2, flow3, direct_r[k + 1:stop + 1] - rw * (r + step * f3r))
            alpha = 1.0 + _capital_increment(1.0, 0.0, flows, c0, step)
            beta = _capital_increment(0.0, 1.0, flows, c0, step)
            # the block's first `filled` steps end on a finite node; the
            # earliest of them whose stages overflow fails, else the next one
            filled = _scan(alpha, capital[k:stop + 1], beta) - 1
            staged = np.isfinite(_capital_increment(
                capital[k:k + filled], 1.0, tuple(f[:filled] for f in flows), c0, step))
            failed = filled if staged.all() else int(np.argmin(staged))
            # so does one with a stage outside RK4's stability region, which
            # is named first when both fall on the same step
            lowest = step * c0 * np.minimum.reduce(flows)
            unstable = lowest[:failed + 1] < _RK4_REAL_LIMIT
            if unstable.any():
                i = int(np.argmax(unstable))
                raise DivergenceError(float(nodes[k + i]), (
                    f"step {step} times market_impact times a stage's flow is {lowest[i]} "
                    f"at t={nodes[k + i]:.6g}, below RK4's stability limit "
                    f"{_RK4_REAL_LIMIT:.4f} on the negative real axis"))
            if failed < stop - k:
                raise DivergenceError(float(nodes[k + failed]))
    if taken < n:
        raise DivergenceError(float(nodes[taken]))

    return OdeSolution(
        grid=nodes,
        capital=capital,
        withdrawable=withdrawable,
        nominal_rate=c0 * (direct_r - rw * withdrawable) + ext,
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
    float, whichever is coarser.  A bracket whose top growth has no
    normalization raises ``ConfigurationError`` before any solve; a rate
    whose solve overflows raises ``DivergenceError``; narrow the bracket
    or the horizon.
    """
    if params.nominal_rate != 0.0 or params.promised_rate != params.withdrawal_rate:
        raise ConfigurationError(
            "critical exponent search requires zero nominal rate and "
            "withdrawal rate equal to the promised rate"
        )
    promised = params.promised_rate
    if promised <= 0.0:
        raise ConfigurationError(f"promised_rate must be positive, got {promised}")
    low, high = bracket if bracket is not None else (0.25 * promised, 2.0 * promised)
    check_search(low, high, tol)
    # every growth searched is at most high, so one check covers them all:
    # above the normalization's limit, expm1(a) / a below overflows
    ScheduleSpec(kind="exponential", first_year_total=0.0, growth=high)

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
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    span = float(sol.grid[-1] - sol.grid[0])
    if span < 2.0 * window:
        raise ValueError(f"horizon {span} must be at least twice the window {window}")
    tail = sol.nominal_rate[sol.grid >= sol.grid[-1] - window - 1e-12]
    return SteadyStateRate(rate=float(tail.mean()), spread=float(tail.max() - tail.min()))
