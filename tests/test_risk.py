import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricepump import (
    DivergenceError,
    HazardParams,
    PathRecord,
    cash_concentration,
    crash_hazard,
    investor_hazard,
    return_stats,
    stats_from_log_returns,
    theoretical_return,
)


class TestCashConcentration:
    def test_all_zero_cash(self):
        assert cash_concentration(np.zeros(50), 70.0) == 1.0

    def test_cash_rich_population(self):
        assert cash_concentration(np.full(20, 1000.0), 70.0) < 1e-300

    def test_closed_form_reference_point(self):
        value = cash_concentration(np.full(500, 10.0), 70.0)
        assert value == pytest.approx(math.exp(-100.0 / 70.0), rel=1e-12)
        assert value == pytest.approx(0.23965, abs=5e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cash_concentration([], 70.0)

    @pytest.mark.parametrize("scale", [math.nan, 0.0, -70.0, math.inf])
    def test_scale_must_be_positive(self, scale):
        # a NaN scale used to return a NaN concentration, an infinite one 1.0
        with pytest.raises(ValueError, match="cash_scale must be positive"):
            cash_concentration(np.full(4, 10.0), scale)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        cash = rng.uniform(0, 30, 64)
        assert cash_concentration(cash, 70.0) == pytest.approx(
            cash_concentration(cash[::-1], 70.0), rel=1e-15
        )

    def test_strictly_decreasing_in_any_cash(self):
        cash = np.array([1.0, 5.0, 12.0])
        base = cash_concentration(cash, 70.0)
        for i in range(3):
            bumped = cash.copy()
            bumped[i] += 0.5
            assert cash_concentration(bumped, 70.0) < base


class TestCrashHazard:
    def test_vanishes_in_diffuse_limit(self):
        assert crash_hazard(1e-12, HazardParams()) < 1e-5

    def test_saturated_concentration_hits_cap(self):
        params = HazardParams(cap=1e6)
        assert crash_hazard(1.0, params) == 1e6

    def test_closed_form_value(self):
        params = HazardParams(crash_scale=5.0)
        h = math.exp(-100.0 / 70.0)
        expected = 5.0 * math.sqrt(h) / (1.0 - math.sqrt(h))
        assert crash_hazard(h, params) == pytest.approx(expected, rel=1e-12)
        assert crash_hazard(h, params) == pytest.approx(4.795, abs=1e-3)

    def test_monotone_below_cap(self):
        params = HazardParams()
        grid = np.linspace(0.01, 0.99, 50)
        values = [crash_hazard(h, params) for h in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            crash_hazard(-1e-3, HazardParams())
        with pytest.raises(ValueError):
            crash_hazard(1.1, HazardParams())

    def test_underflowed_concentration_is_zero_hazard(self):
        # every agent above ~sqrt(745 * cash_scale) dollars underflows the kernel
        concentration = cash_concentration(np.full(20, 1000.0), 70.0)
        assert concentration == 0.0
        assert crash_hazard(concentration, HazardParams()) == 0.0

    def test_cap_applies_near_one(self):
        params = HazardParams(cap=10.0)
        assert crash_hazard(0.9999999, params) == 10.0

    @settings(deadline=None, max_examples=200)
    @given(
        concentrations=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        crash_scale=st.floats(1e-3, 1e3),
        cap=st.floats(1e-3, 1e12),
    )
    def test_array_equals_scalar_bits(self, concentrations, crash_scale, cap):
        # the day loop applies crash_hazard once, to every day's
        # concentration; each entry must be the scalar formula's bits
        params = HazardParams(crash_scale=crash_scale, cap=cap)
        concentrations = [0.0, 1.0, *concentrations]
        values = crash_hazard(np.array(concentrations), params)
        for h, value in zip(concentrations, values.tolist()):
            root = math.sqrt(h)
            expected = cap if root >= 1.0 else min(crash_scale * root / (1.0 - root), cap)
            assert value == expected
            assert crash_hazard(h, params) == expected


DAY = 1.0 / 360.0


def price_path(rates):
    """Daily prices whose realized annualized simple returns are ``rates``."""
    return np.cumprod(np.concatenate([[1.0], 1.0 + np.asarray(rates) * DAY]))


def reference_investor_hazard(price, start_day, target_rate, period, scale):
    """The day loop's original form: one scalar exp and one trapezoid step
    per day, summed in day order."""
    hazard = np.zeros(len(price))
    previous = None
    for i in range(start_day + 1, len(price)):
        integrand = math.exp(target_rate - (price[i] / price[i - 1] - 1.0) / period)
        if previous is None:
            previous = integrand if start_day == 0 else math.exp(
                target_rate - (price[start_day] / price[start_day - 1] - 1.0) / period
            )
        hazard[i] = hazard[i - 1] + scale * 0.5 * (previous + integrand) * period
        previous = integrand
    return hazard


class TestUnderperformanceHazard:
    """``investor_hazard``: the investor-side (underperformance) hazard."""

    def test_negative_start_day_is_rejected(self):
        # it used to fail with numpy's broadcast error
        with pytest.raises(ValueError, match="start_day must be >= 0, got -1"):
            investor_hazard(price_path(np.full(10, 0.3)), -1, 0.3, DAY)

    def test_zero_before_maturity(self):
        hazard = investor_hazard(price_path(np.full(5 * 360, 0.3)), 3 * 360, 0.3, DAY)
        assert np.all(hazard[: 3 * 360 + 1] == 0.0)
        assert hazard[3 * 360 + 1] > 0.0

    def test_rate_matching_target(self):
        hazard = investor_hazard(price_path(np.full(5 * 360, 0.3)), 3 * 360, 0.3, DAY, 2.0)
        assert hazard[-1] == pytest.approx(2.0 * 2.0, rel=1e-9)

    def test_unit_shortfall_closed_form(self):
        target = 0.41
        hazard = investor_hazard(price_path(np.full(5 * 360, target - 1.0)), 3 * 360, target, DAY)
        assert hazard[-1] == pytest.approx(2.0 * math.e, rel=1e-9)
        assert hazard[-1] == pytest.approx(5.43656, abs=1e-5)

    def test_nondecreasing_in_time(self):
        rng = np.random.default_rng(8)
        days = np.arange(1, 8 * 360 + 1) * DAY
        rates = 0.3 + 0.5 * np.sin(days) + rng.normal(0, 0.05, days.size)
        hazard = investor_hazard(price_path(rates), 3 * 360, 0.3, DAY)
        assert np.all(np.diff(hazard) >= 0.0)

    def test_growth_rate_brackets_linear(self):
        # rates above the target accumulate slower than the elapsed time,
        # rates below accumulate faster
        span = 3.0
        above = investor_hazard(price_path(np.full(6 * 360, 0.5)), 3 * 360, 0.3, DAY)
        below = investor_hazard(price_path(np.full(6 * 360, 0.1)), 3 * 360, 0.3, DAY)
        assert above[-1] < span
        assert below[-1] > span

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_matches_day_by_day_reference_bit_for_bit(self, scale):
        # np.exp differs from math.exp in the last bit on a few percent of
        # inputs and one ulp of a step is lost in a long running sum, so
        # every start day is compared, each exposing its first step
        rng = np.random.default_rng(3)
        price = price_path(rng.normal(0.3, 5.0, 200))
        for start in range(price.size):
            expected = reference_investor_hazard(price, start, 0.25, DAY, scale)
            assert investor_hazard(price, start, 0.25, DAY, scale).tobytes() == expected.tobytes()

    def test_start_at_day_zero_reuses_first_integrand(self):
        # day 0 has no realized rate: the left endpoint is day 1's integrand
        price = price_path([0.1, 0.2])
        first = math.exp(0.25 - (price[1] / price[0] - 1.0) / DAY)
        hazard = investor_hazard(price, 0, 0.25, DAY)
        assert hazard[0] == 0.0
        assert hazard[1] == first * DAY

    def test_start_at_or_after_last_day_is_zero(self):
        price = price_path([0.1, 0.2])
        assert investor_hazard(price, 2, 0.25, DAY).tolist() == [0.0, 0.0, 0.0]
        assert investor_hazard(price[:1], 0, 0.25, DAY).tolist() == [0.0]

    def test_integrand_overflow_is_typed(self):
        # at 100,000 days a year, a 1% fall on day 3 puts exp(1000) in the integrand
        price = np.array([1.0, 1.0, 1.0, 0.99, 0.99])
        with pytest.raises(DivergenceError, match="overflows on day 3") as err:
            investor_hazard(price, 1, 0.0, 1e-5)
        assert err.value.last_time == pytest.approx(3e-5)

    def test_running_sum_overflow_is_typed(self):
        # each integrand exp(709) is finite; the third day's sum is not
        with pytest.raises(DivergenceError, match="overflows on day 3") as err:
            investor_hazard(np.ones(6), 0, 709.0, 1.0)
        assert err.value.last_time == 3.0


def h_column(crash: float, investor: float) -> float:
    """The ``H`` column of a one-day path record with these hazards."""
    zero = np.zeros(1)
    record = PathRecord(np.ones(1), np.array([crash]), np.array([investor]),
                        zero, zero, zero, zero)
    return float(record.columns()["H"][0])


class TestTotalRisk:
    """Total risk is the ``H`` column: crash plus investor hazard."""

    def test_zero(self):
        assert h_column(0.0, 0.0) == 0.0

    def test_additive_identity(self):
        assert h_column(4.795, 0.0) == 4.795

    def test_sum(self):
        assert h_column(4.795, 5.43656) == pytest.approx(10.23156)


class TestTheoreticalReturn:
    def test_symmetric_factors_flat(self):
        assert theoretical_return(1.05, 1.05, 500, 125).daily_factor == 1.0

    def test_reference_point(self):
        result = theoretical_return(1.12, 1.11, 500, 125)
        # activity exponent m/(2N) = 1/8 at the reference population
        assert result.daily_factor == pytest.approx((1.12 / 1.11) ** 0.125, rel=1e-12)
        assert result.daily_factor == pytest.approx(1.0011217, abs=1e-7)

    def test_ratio_only_dependence(self):
        base = theoretical_return(1.04, 1.02, 200, 50).daily_factor
        scaled = theoretical_return(1.04 * 1.3, 1.02 * 1.3, 200, 50).daily_factor
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_volatility_scale(self):
        result = theoretical_return(1.12, 1.11, 500, 125)
        assert result.volatility == pytest.approx(1.12 * 1.11 - 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_return(0.9, 1.0, 10, 5)
        with pytest.raises(ValueError):
            theoretical_return(1.1, 1.0, 10, 11)

    @pytest.mark.parametrize("greed,fear", [(math.nan, 1.1), (1.1, math.nan), (0.9, 1.1),
                                            (math.inf, math.inf), (math.inf, 1.1)])
    def test_factors_must_be_at_least_one(self, greed, fear):
        # a NaN factor, or two infinite ones, used to give a NaN daily
        # factor, and one infinite factor an infinite one
        with pytest.raises(ValueError, match="factors greed and fear must be >= 1"):
            theoretical_return(greed, fear, 500, 125)


class TestReturnStats:
    def test_constant_series(self):
        stats = return_stats(np.full(100, 3.0))
        assert stats.mean_log_return == 0.0
        assert stats.std_log_return == 0.0
        assert stats.geometric_mean_return == 1.0

    def test_geometric_growth(self):
        g = 1.0025
        prices = 2.0 * g ** np.arange(300)
        stats = return_stats(prices)
        assert stats.mean_log_return == pytest.approx(math.log(g), rel=1e-12)
        assert stats.std_log_return == pytest.approx(0.0, abs=1e-14)
        assert stats.geometric_mean_return == pytest.approx(g, rel=1e-12)

    def test_geometric_mean_is_exp_of_mean(self):
        rng = np.random.default_rng(2)
        returns = rng.normal(1e-3, 0.01, 5000)
        stats = stats_from_log_returns(returns)
        assert stats.geometric_mean_return == pytest.approx(
            math.exp(stats.mean_log_return), rel=1e-15
        )

    def test_moment_conventions_match_reference(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        returns = rng.gamma(2.0, 0.01, 20000) - 0.02
        stats = stats_from_log_returns(returns)
        assert stats.skewness == pytest.approx(scipy_stats.skew(returns), rel=1e-9)
        assert stats.excess_kurtosis == pytest.approx(
            scipy_stats.kurtosis(returns), rel=1e-9
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            return_stats([1.0, 2.0])
        with pytest.raises(ValueError):
            return_stats([1.0, -2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_prices(self, bad):
        # a NaN passed the positivity check and came out as NaN statistics
        with pytest.raises(ValueError, match="prices must be finite and positive"):
            return_stats([1.0, bad, 1.2])
