import hashlib
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pricepump.ponzi as ponzi
from pricepump import (
    BracketError,
    ConfigurationError,
    DivergenceError,
    OdeSolution,
    PonziParams,
    ScheduleSpec,
    SpeculativePonziParams,
    classical_ponzi_solve,
    collapse_time,
    critical_exponent,
    schedule_eval,
    speculative_ponzi_solve,
    steady_state_rate,
)
from pricepump.ponzi import _delay_steps, _grid_steps, _scan, _schedule_stage_values

DT = 1.0 / 360.0

# rates shared by the qualitative scenarios
WITHDRAWAL = 0.41
MATURITY = 3.0


def closed_form_withdrawable(params, spec, grid):
    """Analytic solution of the withdrawable-value equation for constant
    and exponential schedules (independent oracle)."""
    rp, rw, tm = params.promised_rate, params.withdrawal_rate, params.maturity
    q = rp - rw
    gain = math.exp(rp * tm)
    amp = spec.amplitude
    u = grid - tm
    if spec.kind == "constant":
        if q == 0.0:
            values = amp * gain * u
        else:
            values = amp * gain * (np.exp(q * u) - 1.0) / q
    elif spec.kind == "exponential":
        a = spec.growth
        values = amp * gain * np.exp(q * u) * np.expm1((a - q) * u) / (a - q)
    else:
        raise NotImplementedError(spec.kind)
    return np.where(u > 0.0, values, 0.0)


class TestSchedules:
    def test_zero_before_start(self):
        spec = ScheduleSpec("exponential", 5000.0, 0.1)
        assert schedule_eval(spec, -0.5) == 0.0
        assert schedule_eval(spec, -1e-12) == 0.0

    def test_constant(self):
        spec = ScheduleSpec("constant", 5000.0)
        assert schedule_eval(spec, 0.0) == 5000.0
        assert schedule_eval(spec, 7.3) == 5000.0

    def test_exponential_amplitude(self):
        spec = ScheduleSpec("exponential", 5000.0, 0.1)
        amp = spec.amplitude
        assert amp == pytest.approx(0.1 * 5000.0 / math.expm1(0.1), rel=1e-12)
        assert amp == pytest.approx(4754.17, abs=0.01)
        assert schedule_eval(spec, 0.0) == pytest.approx(amp)

    def test_linear_slope(self):
        spec = ScheduleSpec("linear", 5000.0)
        assert schedule_eval(spec, 1.0) == pytest.approx(10000.0)
        assert schedule_eval(spec, 0.5) == pytest.approx(5000.0)

    @pytest.mark.parametrize("kind,growth", [("constant", 0.0), ("linear", 0.0),
                                             ("exponential", 0.1), ("exponential", -0.3)])
    def test_first_year_normalization(self, kind, growth):
        quad = pytest.importorskip("scipy.integrate").quad
        spec = ScheduleSpec(kind, 123.0, growth)
        mass, _ = quad(lambda s: schedule_eval(spec, s), 0.0, 1.0)
        assert mass == pytest.approx(123.0, rel=1e-10)

    def test_zero_growth_exponential_is_constant(self):
        spec = ScheduleSpec("exponential", 42.0, 0.0)
        assert schedule_eval(spec, 3.0) == pytest.approx(42.0)

    def test_vectorized(self):
        spec = ScheduleSpec("linear", 10.0)
        values = schedule_eval(spec, np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(values, [0.0, 0.0, 20.0])

    @pytest.mark.parametrize("growth", [700.0, -700.0, 0.1, -sys.float_info.max, -1e308,
                                        math.log(sys.float_info.max)])
    def test_zero_mass_exponential_is_exactly_zero(self, growth):
        # exp(700 t) overflows past t = 1.014; no mass means no flow there
        # too, and a zero mass loads at any finite growth up to the limit
        spec = ScheduleSpec("exponential", 0.0, growth)
        values = schedule_eval(spec, np.array([-1.0, 0.0, 1.0, 2.0, 40.0]))
        assert values.tobytes() == np.zeros(5).tobytes()
        assert schedule_eval(spec, 6.0) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec("quadratic", 1.0)

    def test_growth_up_to_the_normalization_limit(self):
        # expm1(growth) in the normalization overflows above log(float max)
        limit = math.log(sys.float_info.max)
        assert ScheduleSpec("exponential", 1.0, limit).amplitude > 0.0
        for growth in (math.nextafter(limit, math.inf), 800.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="exponential growth"):
                ScheduleSpec("exponential", 1.0, growth)
        # the other kinds ignore the growth
        assert schedule_eval(ScheduleSpec("linear", 1.0, 800.0), 1.0) == 2.0

    @pytest.mark.parametrize("kind,total,growth", [
        ("exponential", 1e4, -1e308),  # growth * total overflows; expm1 is -1
        ("exponential", 1e308, 10.0),  # growth * total overflows; expm1 does not
        ("linear", 1e308, 0.1),  # the slope 2 * total overflows
    ])
    def test_overflowing_normalization_is_rejected(self, kind, total, growth):
        # these used to load, and then fail every path or solve
        with pytest.raises(ConfigurationError, match="no finite first-year normalization"):
            ScheduleSpec(kind, total, growth)


class TestSolverInputs:
    @pytest.mark.parametrize("solve,params", [
        (classical_ponzi_solve, PonziParams()),
        (speculative_ponzi_solve, SpeculativePonziParams(1.0, WITHDRAWAL, MATURITY)),
    ])
    def test_zero_mass_overflowing_schedule_is_no_flow(self, solve, params):
        sol = solve(params, ScheduleSpec("exponential", 0.0, 700.0), 6.0, DT)
        assert np.all(sol.capital == 0.0)
        assert np.all(sol.withdrawable == 0.0)

    @pytest.mark.parametrize("solve,params", [
        (classical_ponzi_solve, PonziParams),
        (speculative_ponzi_solve, lambda **kw: SpeculativePonziParams(1.0, **kw)),
    ])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_horizon_or_maturity_rejected(self, solve, params, value):
        spec = ScheduleSpec("constant", 1.0)
        with pytest.raises(ConfigurationError, match="horizon must be positive and finite"):
            solve(params(), spec, value, DT)
        with pytest.raises(ConfigurationError, match="maturity must be finite"):
            solve(params(maturity=value), spec, 5.0, DT)
        with pytest.raises(ConfigurationError, match="step must be positive and finite"):
            solve(params(), spec, 5.0, value)


def assert_within_rounding(got, want, scale=None):
    """got equals want to within 1e-12 of ``scale``, by default want's
    largest magnitude: the scanned solvers against their step-by-step
    oracles."""
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@st.composite
def affine_recurrences(draw):
    """(a, x0, c) of x[i+1] = a[i]*x[i] + c[i].

    |log a| spans up to 45, so the running products leave e^+-30 after
    anything from hundreds of steps to one (a step outside is taken
    alone); signs are mixed, some coefficients are zero, and one
    coefficient or offset may be non-finite."""
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 5.0, 45.0]))
    a = np.exp(rng.uniform(-span, span, n)) * rng.choice([1.0, -1.0], n)
    a[rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.2]))] = 0.0
    c = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
    if n and draw(st.booleans()):
        poisoned = draw(st.sampled_from([a, c]))
        poisoned[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                      -math.inf]))
    return a, draw(st.floats(-1e3, 1e3, allow_subnormal=False)), c


class TestScan:
    @settings(deadline=None, max_examples=200)
    # the running products from nodes 0 and 2 would overflow and underflow;
    # each of those steps is taken alone, so every node stays finite
    @example((np.array([1e300, 1e10, 1e-200, 1e-200, 1e10]), 0.0, np.ones(5)))
    @given(affine_recurrences())
    def test_matches_sequential_recurrence(self, recurrence):
        a, x0, c = recurrence
        want, magnitude = [x0], [abs(x0)]
        for ai, ci in zip(a.tolist(), c.tolist()):
            want.append(ai * want[-1] + ci)
            magnitude.append(abs(ai) * magnitude[-1] + abs(ci))
        x = np.empty(c.size + 1)
        x[0] = x0
        with np.errstate(all="ignore"):
            end = _scan(a, x, c)
        assert 1 <= end <= x.size
        assert np.isfinite(x[:end]).all()
        assert end == x.size or not np.isfinite(x[end])
        if np.isfinite(a).all() and np.isfinite(c).all() and max(magnitude) < 1e250:
            # a chunk's partial sums stay within e^60 (n + 1) of the magnitudes
            assert end == x.size
        # rounding bound: a sequential step rounds twice, and within a chunk
        # node t's running products and partial sums carry about 3t + 3
        # roundings, each relative to the magnitude recurrence y[i+1] =
        # |a[i]|*y[i] + |c[i]|; 8 (i + 1) eps of y[i] covers both sides
        # (3,000 random recurrences measured at most 0.63 (i + 1) eps)
        i = np.arange(end)
        tolerance = 8.0 * (i + 1) * np.finfo(float).eps * np.array(magnitude[:end])
        with np.errstate(invalid="ignore"):
            assert np.all(np.abs(x[:end] - np.array(want[:end])) <= tolerance)


# (nominal, promised, withdrawal): flat market, positive and negative
# net drift, a shrinking capital, a fast-growing one, a high promise
STAGEWISE_RATES = [
    (0.0, 0.41, 0.41),
    (0.02, 0.41, 0.3),
    (0.02, 0.3, 0.41),
    (-0.5, 0.2, 0.6),
    (20.0, 0.41, 0.3),
    (0.0, 8.0, 0.41),
]


class TestClassicalSolver:
    def test_overflowing_schedule_raises_divergence(self):
        # exp(700 t) overflows beyond t = 709.78 / 700, in the step after
        # node 365 (its midpoint is the first sample past the limit)
        spec = ScheduleSpec("exponential", 1.0, 700.0)
        with pytest.raises(DivergenceError) as diverged:
            classical_ponzi_solve(PonziParams(), spec, 20.0, DT)
        assert diverged.value.last_time == DT * 365

    def test_overflowing_matured_gain_raises_divergence(self):
        params = PonziParams(0.0, 1000.0, 1000.0, 3.0, 0.0)
        with pytest.raises(DivergenceError) as diverged:
            classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 5.0, DT)
        assert diverged.value.last_time == 0.0

    @pytest.mark.parametrize("nominal_rate,last_node", [(50.0, 5110), (200.0, 1278),
                                                        (5000.0, 92)])
    def test_overflowing_state_names_its_last_finite_node(self, nominal_rate, last_node):
        # capital grows by the RK4 factor a per step and overflows once a^i
        # passes the float limit; the stagewise loop raised a few nodes
        # earlier, when a stage's rn * S overflowed (14.0806, 3.51389 and
        # 0.252778 years)
        params = PonziParams(nominal_rate, 0.41, 0.3, 3.0, 1.0)
        with pytest.raises(DivergenceError) as diverged:
            classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 20.0, DT)
        assert diverged.value.last_time == DT * last_node

    @pytest.mark.parametrize("kind", ["constant", "linear", "exponential"])
    @pytest.mark.parametrize("rates", STAGEWISE_RATES)
    @pytest.mark.parametrize("maturity", [0.0, DT, 3.0])
    def test_equals_stagewise_oracle(self, kind, rates, maturity):
        params = PonziParams(*rates, maturity, 1.0)
        spec = ScheduleSpec(kind, 1.0, 0.1)
        # 2,160 steps: the solve crosses one block boundary
        sol = classical_ponzi_solve(params, spec, 6.0, DT)
        oracle = stagewise_classical_solve(params, spec, 6.0, DT)
        assert np.array_equal(sol.grid, oracle.grid)
        for name in ("capital", "withdrawable"):
            assert_within_rounding(getattr(sol, name), getattr(oracle, name))

    def test_no_inflow_pure_exponential(self):
        params = PonziParams(0.05, 0.41, 0.41, 3.0, 2.0)
        sol = classical_ponzi_solve(params, ScheduleSpec("constant", 0.0), 10.0, DT)
        exact = 2.0 * np.exp(0.05 * sol.grid)
        assert np.max(np.abs(sol.capital - exact)) < 1e-8
        assert np.all(sol.withdrawable == 0.0)

    @pytest.mark.parametrize("kind,growth", [("constant", 0.0), ("exponential", 0.1)])
    def test_withdrawable_matches_closed_form(self, kind, growth):
        params = PonziParams(0.02, 0.41, 0.3, 3.0, 1.0)
        spec = ScheduleSpec(kind, 1.0, growth)
        sol = classical_ponzi_solve(params, spec, 20.0, DT)
        oracle = closed_form_withdrawable(params, spec, sol.grid)
        past = sol.grid > params.maturity + 1e-12
        rel = np.abs(sol.withdrawable[past] - oracle[past]) / np.abs(oracle[past])
        assert np.max(rel) < 1e-6

    def test_closed_form_agrees_with_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        params = PonziParams(0.02, 0.41, 0.3, 3.0, 1.0)
        spec = ScheduleSpec("exponential", 1.0, 0.1)
        grid = np.array([5.0, 12.0, 20.0])
        oracle = closed_form_withdrawable(params, spec, grid)
        for t, expected in zip(grid, oracle):
            integrand = lambda s: math.exp(
                (params.promised_rate - params.withdrawal_rate) * (t - params.maturity - s)
                + params.promised_rate * params.maturity
            ) * schedule_eval(spec, s)
            value, _ = quad(integrand, 0.0, t - params.maturity, limit=200)
            assert value == pytest.approx(expected, rel=1e-9)

    def test_withdrawable_zero_through_maturity(self):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        sol = classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 10.0, DT)
        through = sol.grid <= params.maturity + 1e-12
        assert np.all(sol.withdrawable[through] == 0.0)

    @pytest.mark.parametrize("kind", ["constant", "linear"])
    def test_flat_market_schedules_collapse(self, kind):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        sol = classical_ponzi_solve(params, ScheduleSpec(kind, 1.0), 20.0, DT)
        maturity_node = int(round(params.maturity / DT))
        assert sol.capital[maturity_node] > sol.capital[0]
        assert collapse_time(sol) is not None

    def test_maturity_grid_alignment_required(self):
        params = PonziParams(0.0, 0.4, 0.4, 0.0015, 0.0)
        with pytest.raises(ConfigurationError):
            classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 5.0, DT)

    def test_horizon_must_be_grid_multiple(self):
        params = PonziParams(0.0, 0.4, 0.4, 3.0, 0.0)
        with pytest.raises(ConfigurationError):
            classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 5.0007, DT)

    def test_linearity_in_schedule_mass(self):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        for kind in ("constant", "linear", "exponential"):
            base = classical_ponzi_solve(params, ScheduleSpec(kind, 1.0, 0.1), 15.0, DT)
            doubled = classical_ponzi_solve(params, ScheduleSpec(kind, 2.0, 0.1), 15.0, DT)
            assert np.array_equal(doubled.withdrawable, 2.0 * base.withdrawable)

    def test_fourth_order_convergence(self):
        params = PonziParams(0.02, 0.41, 0.3, 3.0, 1.0)
        spec = ScheduleSpec("exponential", 1.0, 0.1)
        ends = [
            classical_ponzi_solve(params, spec, 20.0, dt).withdrawable[-1]
            for dt in (1 / 45, 1 / 90, 1 / 180)
        ]
        ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
        assert 10.0 < ratio < 30.0


class TestCollapseTime:
    def test_positive_capital_never_collapses(self):
        sol = OdeSolution(np.linspace(0, 5, 100), np.full(100, 2.0), np.zeros(100))
        assert collapse_time(sol) is None

    def test_linear_crossing_interpolated(self):
        grid = np.linspace(0.0, 2.0, 21)
        sol = OdeSolution(grid, 1.0 - grid, np.zeros_like(grid))
        assert collapse_time(sol) == pytest.approx(1.0, abs=1e-12)

    def test_flat_market_constant_schedule_analytic_root(self):
        # capital solves S = t - rp*exp(rp*tm)*(t-tm)^2/2 in this regime;
        # the positive quadratic root is the exact collapse time
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        sol = classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 20.0, DT)
        c = 0.41 * math.exp(0.41 * 3.0) / 2.0
        root = 3.0 + (1.0 + math.sqrt(1.0 + 4.0 * c * 3.0)) / (2.0 * c)
        assert collapse_time(sol) == pytest.approx(root, abs=2 * DT)

    def test_start_at_zero_needs_crossing(self):
        grid = np.linspace(0.0, 1.0, 11)
        rising = OdeSolution(grid, grid.copy(), np.zeros_like(grid))
        assert collapse_time(rising) is None


class TestCriticalExponent:
    def test_reference_rate(self):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        value = critical_exponent(params, horizon=60.0, tol=0.005)
        assert value == pytest.approx(0.41, abs=0.02)

    def test_second_rate(self):
        params = PonziParams(0.0, 0.2, 0.2, 3.0, 0.0)
        value = critical_exponent(params, horizon=60.0, tol=0.005)
        assert value == pytest.approx(0.2, abs=0.02)

    @pytest.mark.parametrize("rate", [0.41, 0.2])
    def test_same_rate_as_stagewise_oracle(self, rate, monkeypatch):
        params = PonziParams(0.0, rate, rate, 3.0, 0.0)
        scanned = critical_exponent(params, horizon=60.0, tol=0.005)
        monkeypatch.setattr(ponzi, "classical_ponzi_solve", stagewise_classical_solve)
        assert critical_exponent(params, horizon=60.0, tol=0.005) == scanned

    def test_supercritical_schedule_survives(self):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        a = 0.51
        spec = ScheduleSpec("exponential", math.expm1(a) / a, a)
        sol = classical_ponzi_solve(params, spec, 60.0, DT)
        assert collapse_time(sol) is None

    def test_bracket_failure_reports_endpoints(self):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
        with pytest.raises(BracketError) as err:
            critical_exponent(params, horizon=60.0, tol=0.01, bracket=(0.6, 0.9))
        assert "0.6" in str(err.value) and "0.9" in str(err.value)

    def test_tiny_tol_stops_at_float_resolution(self, run_isolated):
        # a tol below the float resolution of the bracket used to never stop:
        # the midpoint of a one-ulp bracket is one of its ends
        code = """
import json
from pricepump import PonziParams, critical_exponent
params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
print(json.dumps([critical_exponent(params, 20.0, tol) for tol in (0.005, 1e-300)]))
"""
        coarse, fine = run_isolated(code, timeout=60.0)
        # inside the bracket the default search ended on: at most tol wide,
        # centred on its result
        assert abs(fine - coarse) <= 0.5 * 0.005

    def test_bracket_above_the_growth_limit_is_rejected(self):
        # expm1(800) / 800, the first-year mass of exp(800 t), used to raise
        # a bare OverflowError
        with pytest.raises(ConfigurationError, match="exponential growth"):
            critical_exponent(PonziParams(), 10.0, 0.01, bracket=(0.1, 800.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        # a NaN tol used to return the bracket's midpoint without a search
        with pytest.raises(ConfigurationError, match="tol must be positive"):
            critical_exponent(PonziParams(0.0, 0.41, 0.41, 3.0, 0.0), 60.0, tol)

    def test_regime_preconditions(self):
        with pytest.raises(ConfigurationError):
            critical_exponent(PonziParams(0.1, 0.4, 0.4, 3.0, 0.0), 60.0, 0.01)
        with pytest.raises(ConfigurationError):
            critical_exponent(PonziParams(0.0, 0.4, 0.3, 3.0, 0.0), 60.0, 0.01)


def canonical_speculative(kind, horizon=40.0, impact=1.0, growth=0.1, **kwargs):
    params = SpeculativePonziParams(
        market_impact=impact, withdrawal_rate=WITHDRAWAL, maturity=MATURITY,
        initial_capital=0.0, **kwargs,
    )
    return speculative_ponzi_solve(params, ScheduleSpec(kind, 1.0, growth), horizon, DT)


def first_local_peak(sol):
    d = np.diff(sol.capital)
    turns = np.flatnonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))
    assert turns.size > 0, "capital has no local maximum"
    i = int(turns[0]) + 1
    return float(sol.grid[i]), float(sol.capital[i]), i


class TestSpeculativeSolver:
    def test_no_flow_is_static(self):
        params = SpeculativePonziParams(1.0, WITHDRAWAL, MATURITY, 5.0)
        sol = speculative_ponzi_solve(params, ScheduleSpec("constant", 0.0), 10.0, DT)
        assert np.all(sol.capital == 5.0)
        assert np.all(sol.withdrawable == 0.0)
        assert np.all(sol.nominal_rate == 0.0)

    def test_capital_growth_identity(self):
        # with zero external rate, capital relates to the integrated nominal
        # rate exactly: S = S0*exp(J) + (exp(J) - 1)/c0
        params = SpeculativePonziParams(0.7, WITHDRAWAL, MATURITY, 2.0)
        sol = speculative_ponzi_solve(params, ScheduleSpec("exponential", 1.0, 0.1), 40.0, DT)
        growth = np.exp(sol.log_growth)
        expected = 2.0 * growth + (growth - 1.0) / 0.7
        rel = np.abs(sol.capital - expected) / np.maximum(np.abs(expected), 1e-12)
        assert np.max(rel) < 1e-8

    def test_exponential_bubble_shape(self):
        sol = canonical_speculative("exponential")
        peak_time, peak, i = first_local_peak(sol)
        assert MATURITY < peak_time < MATURITY + 5.0
        trough = sol.capital[i:].min()
        assert trough <= 0.7 * peak
        assert sol.nominal_rate[sol.grid > MATURITY].min() < 0.0

    def test_steady_state_constant(self):
        sol = canonical_speculative("constant")
        assert abs(steady_state_rate(sol, 5.0).rate) < 0.01

    def test_steady_state_exponential_positive_below_target(self):
        sol = canonical_speculative("exponential")
        steady = steady_state_rate(sol, 5.0)
        assert 0.0 < steady.rate < WITHDRAWAL
        # limiting rate matches the schedule growth; stationary payoff
        # target/(target - rate) is finite and positive
        assert steady.rate == pytest.approx(0.1, abs=0.01)
        payoff = WITHDRAWAL / (WITHDRAWAL - steady.rate)
        assert payoff > 0.0 and math.isfinite(payoff)

    def test_linear_rate_decays_like_inverse_time(self):
        sol = canonical_speculative("linear", horizon=120.0)
        for horizon in (40.0, 80.0, 120.0):
            i = int(round(horizon / DT))
            assert sol.nominal_rate[i] * horizon == pytest.approx(1.0, abs=0.1)

    def test_delay_consistency(self):
        sol = canonical_speculative("exponential")
        lag = int(round(MATURITY / DT))
        rate, growth = sol.nominal_rate, sol.log_growth
        worst_smooth = 0.0
        worst_global = 0.0
        for i in range(lag, len(sol.grid), 180):
            stored = math.exp(growth[i] - growth[i - lag])
            direct = math.exp(np.trapezoid(rate[i - lag : i + 1], dx=DT))
            err = abs(stored - direct) / direct
            worst_global = max(worst_global, err)
            if sol.grid[i] >= 8.0:  # windows clear of the crash transient
                worst_smooth = max(worst_smooth, err)
        assert worst_smooth < 1e-6
        assert worst_global < 2e-5  # trapezoid-limited through the crash

    def test_divergence_reported_with_time(self):
        params = SpeculativePonziParams(0.001, WITHDRAWAL, MATURITY, 0.0)
        with pytest.raises(DivergenceError) as err:
            speculative_ponzi_solve(params, ScheduleSpec("exponential", 5000.0, 0.1), 17.0, DT)
        assert err.value.last_time > 0.0

    def test_external_rate_enters_nominal_rate_only(self):
        shifted = canonical_speculative("constant", horizon=5.0, external_rate=0.05)
        base = canonical_speculative("constant", horizon=5.0)
        # before money matures the withdrawable value is zero in both runs,
        # so the rate offset is exactly the external baseline and capital
        # (driven by the dollar flow alone) is unchanged
        before = base.grid < MATURITY
        assert np.allclose(shifted.nominal_rate[before], base.nominal_rate[before] + 0.05)
        assert np.allclose(shifted.capital[before], base.capital[before], rtol=1e-12)
        # the faster-compounding withdrawable value is larger afterwards
        assert shifted.withdrawable[-1] > base.withdrawable[-1]

    def test_step_halving(self):
        params = SpeculativePonziParams(1.0, WITHDRAWAL, MATURITY, 0.0)
        spec = ScheduleSpec("exponential", 1.0, 0.1)
        coarse = speculative_ponzi_solve(params, spec, 40.0, DT)
        fine = speculative_ponzi_solve(params, spec, 40.0, DT / 2.0)
        for name in ("capital", "withdrawable"):
            a, b = getattr(coarse, name)[-1], getattr(fine, name)[-1]
            assert abs(a - b) / abs(b) < 1e-4


def stagewise_classical_solve(params, schedule, horizon, step=DT):
    """Reference classical solver: the four RK4 stages taken one step at a
    time over Python floats.  ``classical_ponzi_solve`` evaluates the same
    step as an affine map and must agree with it to rounding."""
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    nodes = step * np.arange(n + 1)
    direct_r, direct_m, delayed_r, delayed_m, delayed_l = (
        v.tolist() for v in _schedule_stage_values(schedule, nodes, step, lag)
    )
    rn, rw = params.nominal_rate, params.withdrawal_rate
    drift = params.promised_rate - rw
    try:
        matured_gain = math.exp(params.promised_rate * params.maturity)
    except OverflowError:
        matured_gain = math.inf
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
    finite = np.isfinite(capital) & np.isfinite(withdrawable)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DivergenceError(float(nodes[max(first, 1) - 1]))
    return OdeSolution(grid=nodes, capital=capital, withdrawable=withdrawable)


def closure_speculative_solve(params, schedule, horizon, step=DT, capital_scale=None):
    """Reference speculative solver: the loop that built a stage closure
    every step and read the delayed J from the stored numpy array.
    ``speculative_ponzi_solve`` must equal its R, J and nominal rate bit
    for bit, and its capital to rounding.

    When ``capital_scale`` is a list, a solve that completes appends to it
    the largest magnitude a capital step's rounding is relative to: its
    stage terms step * dS, and S times the step's derivative in S, by which
    a rounding of S[i] reaches S[i+1]."""
    n = _grid_steps(horizon, step)
    lag = _delay_steps(params.maturity, step)
    nodes = step * np.arange(n + 1)
    direct_r, direct_m, delayed_r, delayed_m, delayed_l = (
        v.tolist() for v in _schedule_stage_values(schedule, nodes, step, lag)
    )
    c0 = params.market_impact
    rw = params.withdrawal_rate
    ext = params.external_rate
    capital = np.empty(n + 1)
    withdrawable = np.empty(n + 1)
    log_growth = np.zeros(n + 1)
    s = params.initial_capital
    r = 0.0
    j = 0.0
    capital[0] = s
    withdrawable[0] = r

    def past(idx):
        return log_growth[idx] if idx > 0 else 0.0

    largest = 0.0
    half = 0.5 * step
    sixth = step / 6.0
    for i in range(n):
        if lag == 0:
            j1 = jm = j4 = None
        else:
            j1 = past(i - lag)
            jm = 0.5 * (past(i - lag) + past(i - lag + 1))
            j4 = past(i + 1 - lag)

        def rhs(flow_rate, matured_rate, j_past, s_, r_, j_):
            flow = flow_rate - rw * r_
            rate = c0 * flow + ext
            growth = 1.0 if j_past is None else math.exp(j_ - j_past)
            ds = flow * (c0 * s_ + 1.0)
            dr = (rate - rw) * r_ + matured_rate * growth
            return ds, dr, rate, flow

        try:
            f1s, f1r, f1j, g1 = rhs(direct_r[i], delayed_r[i], j1, s, r, j)
            f2s, f2r, f2j, g2 = rhs(
                direct_m[i], delayed_m[i], jm, s + half * f1s, r + half * f1r, j + half * f1j
            )
            f3s, f3r, f3j, g3 = rhs(
                direct_m[i], delayed_m[i], jm, s + half * f2s, r + half * f2r, j + half * f2j
            )
            f4s, f4r, f4j, g4 = rhs(
                direct_r[i + 1], delayed_l[i + 1], j4,
                s + step * f3s, r + step * f3r, j + step * f3j,
            )
        except OverflowError:
            raise DivergenceError(float(nodes[i])) from None
        d1 = c0 * g1
        d2 = c0 * g2 * (1.0 + half * d1)
        d3 = c0 * g3 * (1.0 + half * d2)
        d4 = c0 * g4 * (1.0 + step * d3)
        derivative = 1.0 + sixth * (d1 + 2.0 * (d2 + d3) + d4)
        largest = max(largest, abs(derivative * s),
                      step * max(abs(f1s), abs(f2s), abs(f3s), abs(f4s)))
        s += sixth * (f1s + 2.0 * (f2s + f3s) + f4s)
        r += sixth * (f1r + 2.0 * (f2r + f3r) + f4r)
        j += sixth * (f1j + 2.0 * (f2j + f3j) + f4j)
        if not (math.isfinite(s) and math.isfinite(r) and math.isfinite(j)):
            raise DivergenceError(float(nodes[i]))
        capital[i + 1] = s
        withdrawable[i + 1] = r
        log_growth[i + 1] = j

    if capital_scale is not None:
        capital_scale.append(largest)
    rate_series = c0 * (np.asarray(direct_r) - rw * withdrawable) + ext
    return OdeSolution(nodes, capital, withdrawable, rate_series, log_growth)


# The grid and the series the R/J loop gives, held bit for bit; the
# capital, scanned from them, is held to rounding.
LOOP_FIELDS = ("grid", "withdrawable", "nominal_rate", "log_growth")


def solution_digest(sol, names=LOOP_FIELDS):
    """sha256 over the named solution series, by name."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update(getattr(sol, name).tobytes())
    return digest.hexdigest()


def speculative_case(kind="exponential", mass=1.0, growth=0.1, horizon=8.0, **params):
    params = {"market_impact": 1.0, "withdrawal_rate": WITHDRAWAL, "maturity": MATURITY,
              **params}
    return SpeculativePonziParams(**params), ScheduleSpec(kind, mass, growth), horizon


# Two digests per case.  The first covers the grid and the series of the
# R/J loop; it was recorded from the speculative solver that built a stage
# closure every step (``closure_speculative_solve``), and any change to a
# single bit of those series changes it.  The second covers the capital
# as the scan gives it.  Schedules and growth factors are sampled with
# ``np.exp``, which follows numpy's CPU dispatch, so the capital digests
# (and the exponential schedule's loop digest) hold for the machine type
# that recorded them (x86-64 with AVX-512); the property test below holds
# on any machine.
PINNED_SPECULATIVE = {
    "exponential": (
        speculative_case(),
        "d13e8d3e3ac4da1c4b6c8de3b4d2f3c22d0fdbe40e1da9fe8ea38e375fe94785",
        "4f0ad9d5fb9bf902057666a56ee397d4d83df02dc72c43cf71f012b3cae3d0e1",
    ),
    "constant": (
        speculative_case("constant"),
        "56e4c4aa08d0625b41b8a9ad17507ca4e7dedec5f33d2a19bf99486fc1dbf097",
        "5b8254fec037a61ce44fe4a3005d37a6c0a77e6b79df0fe3afba5093e508714f",
    ),
    "linear": (
        speculative_case("linear"),
        "c34d66d14bffc5723d6825fe4f0b2ca05e49ccbd4a1093a1a96f8681179d7dbe",
        "5849becb937b530df36ab232f192929036235f8450984fb8edd6fac726759334",
    ),
    "no-delay": (
        speculative_case(maturity=0.0),
        "ee9ad2b30c5772093fec5fc224cf56e3777eb65723be585361ce0996af02d2ac",
        "d05ef1becae0de650dcc3bd6f40f36087d40ef6a146aa8cb827fab91192cde5f",
    ),
    "one-step-delay": (
        speculative_case(maturity=DT),
        "f0b5284cb6fcba2194ef438ee90860ebe6a11ad3e76454ed98d4440680e261a8",
        "d92de20f191cf13b6d5338dd6b2dedb9f0afbec3447018b5c68eb9bf1fc68147",
    ),
    "external-rate-initial-capital": (
        speculative_case(market_impact=0.7, external_rate=0.05, initial_capital=2.0),
        "be0a7218b1bbd171cad4c589aa27f7545fa848320f90f48af0cb1c50f4d1ef17",
        "31bd6d66b7bd7e9d1812f86f5d1967e0a66d94b83aaa1cbb76a9ac8ea96df02f",
    ),
}

# last_time of the node before the failing step: an overflowing growth
# factor (math.exp raises) and a state that turns non-finite
PINNED_SPECULATIVE_DIVERGENCE = {
    "overflowing-growth-factor": (
        speculative_case(mass=5000.0, horizon=17.0, market_impact=0.001), 3.0,
    ),
    "non-finite-state": (
        speculative_case(growth=3.0, horizon=10.0, withdrawal_rate=5.0), 3.0,
    ),
}


def solve_outcome(solve, params, spec, horizon, step=DT):
    """The solution, or the divergence type and time."""
    try:
        return solve(params, spec, horizon, step)
    except DivergenceError as diverged:
        return type(diverged), diverged.last_time


class TestSpeculativeBitIdentity:
    @pytest.mark.parametrize("name", sorted(PINNED_SPECULATIVE))
    def test_solution_bits_are_pinned(self, name):
        (params, spec, horizon), loop, capital = PINNED_SPECULATIVE[name]
        sol = speculative_ponzi_solve(params, spec, horizon, DT)
        assert solution_digest(sol) == loop
        assert solution_digest(sol, ("capital",)) == capital

    @pytest.mark.parametrize("name", sorted(PINNED_SPECULATIVE_DIVERGENCE))
    def test_divergence_is_pinned(self, name):
        (params, spec, horizon), last_time = PINNED_SPECULATIVE_DIVERGENCE[name]
        with pytest.raises(DivergenceError) as diverged:
            speculative_ponzi_solve(params, spec, horizon, DT)
        assert type(diverged.value) is DivergenceError
        assert diverged.value.last_time == last_time

    def test_oracle_matches_pins(self):
        (params, spec, horizon), loop, _ = PINNED_SPECULATIVE["exponential"]
        assert solution_digest(closure_speculative_solve(params, spec, horizon)) == loop

    @pytest.mark.parametrize("maturity,last_time", [(0.0, 5.5), (0.5, 0.25)])
    def test_overflowing_capital_stage_diverges(self, maturity, last_time):
        # the capital's stage slopes overflow while its scanned node stays
        # finite: the step fails as it does stage by stage
        params = SpeculativePonziParams(1.484375, 0.0, maturity, 1.0)
        spec = ScheduleSpec("linear", 3141.0, 0.0)
        for solve in (speculative_ponzi_solve, closure_speculative_solve):
            with pytest.raises(DivergenceError) as diverged:
                solve(params, spec, 23 * 0.25, 0.25)
            assert diverged.value.last_time == last_time

    def test_capital_overflows_before_withdrawable_and_growth(self):
        # nothing matures within the horizon, so R stays 0 and J = c0 * 1000 t
        # stays finite, while S grows from 1e300 like exp(1000 t)
        params = SpeculativePonziParams(1.0, WITHDRAWAL, 10.0, 1e300)
        spec = ScheduleSpec("constant", 1000.0)
        nodes = DT * np.arange(181)
        lag = _delay_steps(10.0, DT)
        forcing = _schedule_stage_values(spec, nodes, DT, lag)
        withdrawable, _ = ponzi._withdrawable_and_growth(params, forcing, lag, DT)
        assert withdrawable.size == nodes.size
        for solve in (speculative_ponzi_solve, closure_speculative_solve):
            with pytest.raises(DivergenceError) as diverged:
                solve(params, spec, 0.5, DT)
            assert diverged.value.last_time == nodes[4]

    @settings(deadline=None, max_examples=60)
    @example(kind="linear", mass=1.5601046135207723, growth=0.0,
             market_impact=1.5601046135207723, withdrawal_rate=1.5601046135207723, lag=5,
             initial_capital=0.0, external_rate=0.0, step=1.0 / 12.0, n_steps=132)
    # Three solves longer than two blocks whose |log alpha|, about |step *
    # c0 * flow|, exceeds 30 / 2,048 at every step (at least 0.022, 0.018
    # and 0.17), so scan chunks end inside blocks as well as at their ends:
    # one where nothing matures, one where nothing is withdrawn, and one
    # whose S overflows in the third block (at node 4,170).
    @example(kind="constant", mass=8.0, growth=0.0, market_impact=1.0, withdrawal_rate=0.41,
             lag=5400, initial_capital=0.0, external_rate=0.0, step=DT, n_steps=4320)
    @example(kind="exponential", mass=10.0, growth=0.1, market_impact=0.7, withdrawal_rate=0.0,
             lag=360, initial_capital=2.0, external_rate=0.05, step=DT, n_steps=4320)
    @example(kind="constant", mass=62.0, growth=0.0, market_impact=0.98, withdrawal_rate=0.41,
             lag=5400, initial_capital=0.0, external_rate=0.0, step=DT, n_steps=4320)
    @given(
        kind=st.sampled_from(["constant", "linear", "exponential"]),
        mass=st.floats(0.0, 1e4),
        growth=st.floats(-2.0, 60.0),
        market_impact=st.floats(1e-4, 5.0),
        withdrawal_rate=st.floats(0.0, 3.0),
        lag=st.sampled_from([0, 1, 2, 5, 30]),
        initial_capital=st.floats(0.0, 10.0),
        external_rate=st.floats(-0.5, 0.5),
        step=st.sampled_from([DT, 1.0 / 12.0, 0.25]),
        n_steps=st.integers(1, 240),
    )
    def test_solver_equals_closure_oracle(
        self, kind, mass, growth, market_impact, withdrawal_rate, lag, initial_capital,
        external_rate, step, n_steps,
    ):
        params = SpeculativePonziParams(
            market_impact, withdrawal_rate, lag * step, initial_capital, external_rate
        )
        spec = ScheduleSpec(kind, mass, growth)
        horizon = n_steps * step
        capital_scale = []
        got = solve_outcome(speculative_ponzi_solve, params, spec, horizon, step)
        want = solve_outcome(partial(closure_speculative_solve, capital_scale=capital_scale),
                             params, spec, horizon, step)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
            return
        for name in LOOP_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        # in the linear example, S sits at the fixed point -1/c0 when a step
        # whose derivative in S is -1.9e10 turns it into 356
        scale = max(np.max(np.abs(want.capital)), capital_scale[0])
        assert_within_rounding(got.capital, want.capital, scale)


class TestSteadyStateRate:
    def test_constant_rate(self):
        grid = np.arange(0, 40.0 + 1e-9, DT)
        sol = OdeSolution(grid, np.ones_like(grid), np.zeros_like(grid),
                          nominal_rate=np.full_like(grid, 0.05))
        steady = steady_state_rate(sol, 5.0)
        assert steady.rate == pytest.approx(0.05, rel=1e-15)
        assert steady.spread == 0.0

    def test_window_validation(self):
        grid = np.arange(0, 8.0 + 1e-9, DT)
        sol = OdeSolution(grid, np.ones_like(grid), np.zeros_like(grid),
                          nominal_rate=np.zeros_like(grid))
        with pytest.raises(ValueError):
            steady_state_rate(sol, 5.0)

    def test_requires_rate_series(self):
        grid = np.arange(0, 40.0 + 1e-9, DT)
        sol = OdeSolution(grid, np.ones_like(grid), np.zeros_like(grid))
        with pytest.raises(ValueError):
            steady_state_rate(sol, 5.0)
