import math

import numpy as np
import pytest

from pricepump import (
    ConfigurationError,
    GreedFearSpec,
    MarketParams,
    MarketState,
    NoSupplyError,
    WindowSignal,
    init_population,
    sample_greed_fear,
    trading_session,
)
from tests.test_engine import market, population, session_all


class TestGreedFearSpec:
    def test_correlation_out_of_range(self):
        with pytest.raises(ConfigurationError) as err:
            GreedFearSpec(0.1, 0.1, 0.0, 1.5)
        assert "correlation" in str(err.value) and "[-1, 1]" in str(err.value)

    def test_three_sigma_margin_enforced(self):
        # sd = 0.04 -> margin 0.12 > 0.1
        with pytest.raises(ConfigurationError):
            GreedFearSpec(0.1, 0.1, 0.0016, 0.5)

    def test_negative_variance(self):
        with pytest.raises(ConfigurationError):
            GreedFearSpec(0.1, 0.1, -1e-4, 0.5)

    def test_default_is_valid(self):
        spec = GreedFearSpec()
        assert MarketParams().greed_fear == spec
        assert spec.mean_log_greed == pytest.approx(math.log(1.12))
        assert spec.mean_log_fear == pytest.approx(math.log(1.11))
        assert spec.log_variance == 12e-4
        assert spec.correlation == 0.95


class TestSampleGreedFear:
    def test_degenerate_variance(self):
        spec = GreedFearSpec(math.log(1.12), math.log(1.11), 0.0, 0.0)
        pairs = sample_greed_fear(spec, 50, np.random.default_rng(1))
        assert np.allclose(pairs[:, 0], 1.12) and np.allclose(pairs[:, 1], 1.11)

    def test_perfect_correlation_is_exact(self):
        # the same normal draw drives both coordinates; recovering the logs
        # from the returned factors costs one exp/log round trip
        spec = GreedFearSpec(0.2, 0.15, 1e-3, 1.0)
        pairs = sample_greed_fear(spec, 2000, np.random.default_rng(2))
        logs = np.log(pairs)
        assert np.allclose(logs[:, 0] - 0.2, logs[:, 1] - 0.15, rtol=0.0, atol=1e-12)

    def test_moments_converge(self):
        pairs = sample_greed_fear(GreedFearSpec(), 100_000, np.random.default_rng(123))
        logs = np.log(pairs)
        corr = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
        assert abs(corr - 0.95) < 0.01
        for column in (0, 1):
            assert logs[:, column].var() == pytest.approx(12e-4, rel=0.10)

    def test_factors_at_least_one(self):
        pairs = sample_greed_fear(GreedFearSpec(), 100_000, np.random.default_rng(5))
        assert (pairs >= 1.0).all()

    def test_rejection_rate_is_small(self):
        # raw draw at the reference moments lands outside the admissible
        # quadrant with probability well under the 0.5% design bound
        rng = np.random.default_rng(9)
        z = rng.standard_normal((200_000, 2))
        sd = math.sqrt(12e-4)
        rho = 0.95
        lg = math.log(1.12) + sd * z[:, 0]
        lf = math.log(1.11) + sd * (rho * z[:, 0] + math.sqrt(1 - rho**2) * z[:, 1])
        assert ((lg < 0) | (lf < 0)).mean() < 0.005

    def test_deterministic_given_seed(self):
        a = sample_greed_fear(GreedFearSpec(), 1000, np.random.default_rng(77))
        b = sample_greed_fear(GreedFearSpec(), 1000, np.random.default_rng(77))
        assert np.array_equal(a, b)


class TestEffectiveFactors:
    """The signal scales each factor to 1 + (factor - 1) * signal(t)."""

    def targets(self, signal, t=0.0):
        state = market([10.0, 10.0], 10.0, [2.0, 1.0], greed=1.12, fear=1.11)
        state, _, _ = session_all(state, level=signal(t))
        return state.target_ratio.tolist()

    def test_signal_off(self):
        assert self.targets(WindowSignal(level=0.0)) == [2.0, 1.0]

    def test_signal_identity(self):
        assert self.targets(WindowSignal(level=1.0)) == [2.0 / 1.11, 1.12]

    def test_signal_interpolates(self):
        buyer, seller = self.targets(WindowSignal(level=0.5))
        assert seller == pytest.approx(1.06)
        assert buyer == pytest.approx(2.0 / 1.055)

    def test_monotone_in_signal(self):
        levels = np.linspace(0.0, 1.0, 11)
        buyers, sellers = zip(*(self.targets(WindowSignal(level=level)) for level in levels))
        assert all(b > a for a, b in zip(sellers, sellers[1:]))
        assert all(b < a for a, b in zip(buyers, buyers[1:]))

    def test_window_signal(self):
        window = WindowSignal(start=1.0, end=2.0)
        assert self.targets(window, t=0.5) == [2.0, 1.0]
        assert self.targets(window, t=1.5) == [2.0 / 1.11, 1.12]


class TestInitPopulation:
    def test_reference_population(self):
        state = init_population(MarketParams(), seed=42)
        assert state.n_agents == 500
        assert np.all(state.cash == 10.0)
        assert np.all(state.stock_value >= 10.0) and np.all(state.stock_value <= 10.1)
        assert state.price == 1.0
        assert state.external_shares == 0.0 and state.day == 0

    def test_zero_noise_single_agent(self):
        state = population(1, 1, initial_ratio=2.0, stock_noise_range=0.0)
        assert state.stock_value[0] == 20.0

    def test_state_requires_a_generator(self):
        # no market state falls back to an unseeded stream
        column = np.ones(3)
        with pytest.raises(TypeError, match="rng"):
            MarketState(column, column, column, column, column)
        state = MarketState(column, column, column, column, column,
                            rng=np.random.default_rng(0))
        assert "rng" not in repr(state)

    def test_stream_is_default_rng_of_the_seed(self):
        # path i of seed s draws from default_rng((s, i)): factor pairs,
        # then stock perturbations, then the daily choices
        spec = MarketParams(n_agents=30, n_active=7)
        state = init_population(spec, (12345, 3))
        reference = np.random.default_rng((12345, 3))
        pairs = sample_greed_fear(spec.greed_fear, 30, reference)
        noise = reference.uniform(0.0, spec.stock_noise_range, 30)
        assert np.array_equal(state.greed, pairs[:, 0])
        assert np.array_equal(state.fear, pairs[:, 1])
        assert np.array_equal(state.stock_value, 10.0 + noise)
        assert np.array_equal(state.rng.choice(30, size=7, replace=False),
                              reference.choice(30, size=7, replace=False))

    def test_generator_is_used_as_it_is(self):
        rng = np.random.default_rng(5)
        assert init_population(MarketParams(n_agents=4, n_active=2), rng).rng is rng

    def test_seed_determinism(self):
        a = population(100, 42)
        b = population(100, 42)
        c = population(100, 43)
        assert np.array_equal(a.stock_value, b.stock_value)
        assert np.array_equal(a.greed, b.greed)
        assert not np.array_equal(a.stock_value, c.stock_value)

    def test_invalid_inputs(self):
        # the population's parameters are checked once, by MarketParams
        with pytest.raises(ConfigurationError):
            MarketParams(n_agents=0)
        with pytest.raises(ConfigurationError):
            MarketParams(n_agents=10, n_active=10, initial_cash=0.0)


class TestMarketState:
    def test_totals_of_array_state(self):
        state = market([10.0, 3.0], [5.0, 7.0], [2.0, 0.5], price=2.0)
        assert state.n_agents == 2
        assert state.total_cash() == 12.0
        assert state.total_shares() == pytest.approx(6.5)

    def test_empty_rejected(self):
        # no agent can be active, so no stock sets a price
        with pytest.raises(NoSupplyError):
            trading_session(market([], [], []), np.arange(0))
