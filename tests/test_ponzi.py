import math
import sys

import numpy as np
import pytest

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
    schedule_amplitude,
    schedule_eval,
    speculative_ponzi_solve,
    steady_state_rate,
)

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
    amp = schedule_amplitude(spec)
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
        amp = schedule_amplitude(spec)
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

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec("quadratic", 1.0)

    def test_growth_up_to_the_normalization_limit(self):
        # expm1(growth) in the normalization overflows above log(float max)
        limit = math.log(sys.float_info.max)
        assert schedule_amplitude(ScheduleSpec("exponential", 1.0, limit)) > 0.0
        for growth in (math.nextafter(limit, math.inf), 800.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="exponential growth"):
                ScheduleSpec("exponential", 1.0, growth)
        # the other kinds ignore the growth
        assert schedule_eval(ScheduleSpec("linear", 1.0, 800.0), 1.0) == 2.0


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

    def test_literal_coupling_variant_differs(self):
        base = canonical_speculative("exponential", horizon=5.0)
        literal = canonical_speculative("exponential", horizon=5.0, literal_rate_coupling=True)
        assert not np.array_equal(base.capital, literal.capital)

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
