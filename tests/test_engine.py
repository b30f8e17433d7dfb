import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricepump import (
    AgentPortfolio,
    ConfigurationError,
    ConstantSignal,
    GreedFearSpec,
    LiquidityExhaustedError,
    MarketState,
    NoSupplyError,
    PRICE_RATIO_FLOOR,
    SignalSchedule,
    clear_price,
    default_greed_fear,
    init_population,
    rebalance,
    trading_session,
    update_ratio,
)


def balanced(stock, cash, k, greed=1.0, fear=1.0):
    return AgentPortfolio(stock, cash, k, greed, fear)


class TestClearPrice:
    def test_balanced_single_agent(self):
        assert clear_price([balanced(10, 10, 1)], 1.0, 0.0) == pytest.approx(1.0)

    def test_two_agent_example(self):
        agents = [balanced(10, 10, 2), balanced(10, 10, 1)]
        ratio = clear_price(agents, 1.0, 0.0)
        assert ratio == pytest.approx(1.4)
        # implied trades clear exactly
        _, x1 = rebalance(agents[0], ratio)
        _, x2 = rebalance(agents[1], ratio)
        assert x1 == pytest.approx(2.0)
        assert x2 == pytest.approx(-2.0)
        assert x1 + x2 == pytest.approx(0.0, abs=1e-12)

    def test_external_buyer(self):
        agent = balanced(10, 10, 1)
        ratio = clear_price([agent], 1.0, 5.0)
        assert ratio == pytest.approx(2.0)
        updated, x = rebalance(agent, ratio)
        assert x == pytest.approx(-5.0)
        assert updated.stock_value / updated.cash == pytest.approx(1.0)

    def test_no_supply(self):
        with pytest.raises(NoSupplyError):
            clear_price([balanced(0.0, 10.0, 1.0)], 1.0, 0.0)
        with pytest.raises(NoSupplyError):
            clear_price([], 1.0, 0.0)

    def test_liquidity_exhausted_carries_flow(self):
        with pytest.raises(LiquidityExhaustedError) as err:
            clear_price([balanced(10, 10, 1)], 1.0, -20.0)
        assert err.value.flow == -20.0


class TestRebalance:
    def test_already_balanced(self):
        agent = balanced(10, 10, 1)
        updated, x = rebalance(agent, 1.0)
        assert x == 0.0
        assert updated == agent

    def test_worked_example(self):
        updated, x = rebalance(balanced(10, 10, 2), 1.4)
        assert x == pytest.approx(2.0)
        assert updated.cash == pytest.approx(8.0)
        assert updated.stock_value == pytest.approx(16.0)
        assert updated.stock_value / updated.cash == pytest.approx(2.0)

    def test_seller(self):
        updated, x = rebalance(balanced(10, 10, 1), 2.0)
        assert x == pytest.approx(-5.0)
        assert updated.cash == pytest.approx(15.0)
        assert updated.stock_value == pytest.approx(15.0)

    def test_posttrade_ratio_exact_random(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            agent = AgentPortfolio(
                float(rng.uniform(0.0, 100.0)),
                float(rng.uniform(0.01, 100.0)),
                float(np.exp(rng.uniform(np.log(0.05), np.log(20.0)))),
            )
            ratio = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            updated, x = rebalance(agent, ratio)
            assert updated.cash > 0.0
            assert updated.stock_value >= 0.0
            k = agent.target_ratio
            assert abs(updated.stock_value / updated.cash - k) <= 1e-12 * k
            # the two algebraic forms of the new stock value agree
            assert ratio * agent.stock_value + x == pytest.approx(
                k * (agent.cash - x), rel=1e-9, abs=1e-9
            )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            rebalance(balanced(10, 10, 1), 0.0)


class TestUpdateRatio:
    def test_buyer_divides_by_fear(self):
        agent = AgentPortfolio(10, 10, 2, 1.12, 1.11)
        assert update_ratio(agent, 1.4, 1.12, 1.11) == pytest.approx(2.0 / 1.11)

    def test_tie_keeps_ratio(self):
        agent = AgentPortfolio(10, 10, 1, 1.12, 1.11)
        assert update_ratio(agent, 1.0, 1.12, 1.11) == 1.0

    def test_seller_multiplies_by_greed(self):
        agent = AgentPortfolio(10, 10, 1, 1.12, 1.11)
        assert update_ratio(agent, 2.0, 1.12, 1.11) == pytest.approx(1.12)

    def test_zero_cash_counts_as_seller(self):
        agent = AgentPortfolio(10, 0.0, 1, 1.12, 1.11)
        assert update_ratio(agent, 0.5, 1.12, 1.11) == pytest.approx(1.12)

    def test_tie_tolerance(self):
        # a relative perturbation below 1e-12 is treated as on-target
        agent = AgentPortfolio(10, 10, 1, 1.5, 1.5)
        assert update_ratio(agent, 1.0 + 1e-14, 1.5, 1.5) == 1.0
        assert update_ratio(agent, 1.0 + 1e-9, 1.5, 1.5) == pytest.approx(1.5)

    def test_factor_validation(self):
        agent = AgentPortfolio(10, 10, 1)
        with pytest.raises(ValueError):
            update_ratio(agent, 1.0, 0.99, 1.0)


def one_agent_state(seed=0):
    return MarketState.from_agents([balanced(10, 10, 1, 1.05, 1.02)], seed=seed)


class TestTradingSession:
    def test_single_balanced_agent_fixed_point(self):
        state = one_agent_state()
        state, outcome = trading_session(state, 1, 0.0)
        assert state.price == 1.0
        assert outcome.trade_amounts[0] == 0.0
        assert state.day == 1
        assert outcome.trades[0].side == "neutral"

    def test_unit_factors_balanced_price_constant(self):
        gf = GreedFearSpec(0.0, 0.0, 0.0, 0.0)
        state = init_population(100, gf, stock_noise_range=0.0, seed=3)
        for _ in range(300):
            state, _ = trading_session(state, 25)
        assert state.price == 1.0
        assert np.all(state.target_ratio == 1.0)

    def test_two_agent_worked_example(self):
        agents = [balanced(10, 10, 2, 1.12, 1.11), balanced(10, 10, 1, 1.12, 1.11)]
        state = MarketState.from_agents(agents, seed=5)
        cash_before = state.total_cash()
        state, outcome = trading_session(state, 2, 0.0)
        assert state.price == pytest.approx(1.4)
        assert outcome.external_share_delta == 0.0
        assert state.total_cash() == pytest.approx(cash_before)
        traded = dict(zip(outcome.active_indices.tolist(), outcome.trade_amounts.tolist()))
        assert traded[0] == pytest.approx(2.0)
        assert traded[1] == pytest.approx(-2.0)

    def test_conservation_and_clearance_random_sessions(self):
        rng = np.random.default_rng(11)
        state = init_population(80, default_greed_fear(), seed=21)
        shares0 = state.total_shares()
        for _ in range(400):
            flow = float(rng.uniform(-1.0, 3.0))
            cash_before = state.total_cash()
            state, outcome = trading_session(state, int(rng.integers(1, 81)), flow)
            executed = outcome.cash_flow_in
            scale = max(1.0, abs(executed), float(np.abs(outcome.trade_amounts).sum()))
            assert abs(outcome.trade_amounts.sum() + executed) <= 1e-9 * scale
            assert state.total_cash() - cash_before == pytest.approx(executed, rel=1e-9, abs=1e-9)
            assert np.all(state.cash >= 0.0)
            assert np.all(state.stock_value >= 0.0)
        assert state.total_shares() == pytest.approx(shares0, rel=1e-9)

    def test_withdrawal_clamp(self):
        state = one_agent_state()
        state, outcome = trading_session(state, 1, -50.0)
        assert outcome.clamped
        assert state.price == pytest.approx(PRICE_RATIO_FLOOR)
        assert outcome.cash_flow_in > -50.0
        # executed flow is exactly the one producing the floor ratio
        assert outcome.cash_flow_in == pytest.approx(PRICE_RATIO_FLOOR * 5.0 - 5.0)

    def test_price_underflow_raises_typed_error(self):
        state = one_agent_state()
        state.price = 1e-322  # one more clamp at the floor ratio rounds it to zero
        cash, stock = state.cash.copy(), state.stock_value.copy()
        with pytest.raises(LiquidityExhaustedError, match="price underflowed to 0.0 on day 1"):
            trading_session(state, 1, -50.0)
        assert state.price == 1e-322
        assert state.day == 0
        assert np.array_equal(state.cash, cash)
        assert np.array_equal(state.stock_value, stock)

    def test_session_determinism(self):
        a = init_population(50, default_greed_fear(), seed=9)
        b = init_population(50, default_greed_fear(), seed=9)
        for _ in range(50):
            a, oa = trading_session(a, 10, 0.5)
            b, ob = trading_session(b, 10, 0.5)
            assert oa.new_price == ob.new_price
            assert np.array_equal(oa.active_indices, ob.active_indices)
        assert np.array_equal(a.target_ratio, b.target_ratio)

    def test_prev_price_tracks_session_base(self):
        state = init_population(50, default_greed_fear(), seed=1)
        p0 = state.price
        state, _ = trading_session(state, 10)
        assert state.prev_price == p0

    def test_stationary_state_unstable(self):
        gf = GreedFearSpec(math.log(1.05), math.log(1.05), 0.0, 1.0)
        baseline = init_population(500, gf, stock_noise_range=0.0, seed=7)
        perturbed = init_population(500, gf, stock_noise_range=0.0, seed=7)
        perturbed.target_ratio[0] += 1e-6
        diverged = False
        for _ in range(720):
            baseline, _ = trading_session(baseline, 125)
            perturbed, _ = trading_session(perturbed, 125)
            if abs(math.log(perturbed.price) - math.log(baseline.price)) > 0.01:
                diverged = True
                break
        assert baseline.price == 1.0
        assert diverged

    def test_invalid_active_count(self):
        state = one_agent_state()
        with pytest.raises(ConfigurationError):
            trading_session(state, 2)

    def test_scalar_and_session_clearing_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            agents = [
                AgentPortfolio(
                    float(rng.uniform(0.1, 50)),
                    float(rng.uniform(0.1, 50)),
                    float(rng.uniform(0.1, 8)),
                    1.05,
                    1.03,
                )
                for _ in range(n)
            ]
            flow = float(rng.uniform(-1, 10))
            expected = clear_price(agents, 1.0, flow)
            state = MarketState.from_agents(agents, seed=int(rng.integers(0, 2**31)))
            state, outcome = trading_session(state, n, flow)
            assert outcome.new_price == pytest.approx(expected, rel=1e-12)


class TestSessionProperties:
    """Facts the day loop's shortcuts rely on."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_agents=st.integers(2, 60),
        active_share=st.floats(0.0, 1.0),
        flow=st.floats(-20.0, 20.0),
        level=st.none() | st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_session_changes_only_active_agents(self, seed, n_agents, active_share, flow, level):
        n_active = max(1, round(active_share * n_agents))
        signal = None if level is None else SignalSchedule(signal=ConstantSignal(level))
        state = init_population(n_agents, default_greed_fear(), seed=seed)
        for _ in range(5):
            cash, target = state.cash.copy(), state.target_ratio.copy()
            state, outcome = trading_session(state, n_active, flow, signal)
            untouched = np.ones(n_agents, dtype=bool)
            untouched[outcome.active_indices] = False
            assert state.cash[untouched].tobytes() == cash[untouched].tobytes()
            assert state.target_ratio[untouched].tobytes() == target[untouched].tobytes()

    @given(st.floats(min_value=1.0, max_value=2.0**53))
    def test_unit_signal_rescale_is_identity(self, factor):
        assert 1.0 + (factor - 1.0) * 1.0 == factor
