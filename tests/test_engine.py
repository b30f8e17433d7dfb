import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricepump import (
    ConfigurationError,
    GreedFearSpec,
    LiquidityExhaustedError,
    MarketParams,
    MarketState,
    NoSupplyError,
    PRICE_RATIO_FLOOR,
    WindowSignal,
    init_population,
    trading_session,
)
from pricepump.engine import RATIO_TIE_RTOL


def market(stock, cash, target, greed=1.0, fear=1.0, price=1.0):
    """A market built directly from per-agent values (scalars broadcast)."""
    n = len(stock)

    def column(values):
        return np.array(values, dtype=float) * np.ones(n)

    return MarketState(
        stock_value=column(stock),
        cash=column(cash),
        target_ratio=column(target),
        greed=column(greed),
        fear=column(fear),
        price=price,
    )


def population(n_agents, seed, **market):
    """``init_population`` of an ``n_agents`` market, other fields at their
    defaults, and the path stream it drew from, which goes on with the
    daily draws."""
    rng = np.random.default_rng(seed)
    return init_population(MarketParams(n_agents=n_agents, n_active=n_agents, **market), rng), rng


def draw(state, n_active, rng=0):
    """The day loop's draw of ``n_active`` distinct agents of ``state`` from
    ``rng``, a path stream or a seed for a new one."""
    return np.random.default_rng(rng).choice(state.cash.size, n_active, replace=False)


def session_all(state, flow=0.0, level=1.0, seed=0):
    """One session with every agent active, in the order a stream of
    ``seed`` draws them; the dollars each agent moved into stock (the
    cash it spent) come back in agent order."""
    cash_before = state.cash.copy()
    state, outcome = trading_session(state, draw(state, state.cash.size, seed), flow, level)
    return state, outcome, cash_before - state.cash


# Reference oracle: the clearing ratio and the per-agent rule in plain
# Python, one agent at a time, as the model states them.


def oracle_ratio(stock, cash, target, flow):
    """Price ratio at which the active agents' target-restoring trades
    absorb ``flow``: (flow + sum k*cash/(1+k)) / (sum stock/(1+k))."""
    demand = sum(k * c / (1.0 + k) for k, c in zip(target, cash))
    supply = sum(s / (1.0 + k) for s, k in zip(stock, target))
    return (flow + demand) / supply


def oracle_agent(stock, cash, k, greed, fear, ratio):
    """One active agent at price ratio ``ratio``: (dollars moved into
    stock, new cash, new stock, new target)."""
    x = (k * cash - ratio * stock) / (1.0 + k)
    lhs, rhs = ratio * stock, k * cash
    tolerance = RATIO_TIE_RTOL * rhs
    if cash == 0.0 or lhs > rhs + tolerance:
        new_k = k * greed
    elif lhs < rhs - tolerance:
        new_k = k / fear
    else:
        new_k = k
    return x, cash - x, k * (cash - x), new_k


class TestClearPrice:
    def test_balanced_single_agent(self):
        state, outcome, _ = session_all(market([10.0], 10.0, 1.0))
        assert state.price == pytest.approx(1.0)

    def test_two_agent_example(self):
        state, outcome, trades = session_all(market([10.0, 10.0], 10.0, [2.0, 1.0]))
        assert state.price == pytest.approx(1.4)
        # the trades clear exactly
        assert trades[0] == pytest.approx(2.0)
        assert trades[1] == pytest.approx(-2.0)
        assert trades.sum() == pytest.approx(0.0, abs=1e-12)

    def test_external_buyer(self):
        state, outcome, trades = session_all(market([10.0], 10.0, 1.0), flow=5.0)
        assert state.price == pytest.approx(2.0)
        assert trades[0] == pytest.approx(-5.0)
        assert state.stock_value[0] / state.cash[0] == pytest.approx(1.0)

    def test_no_supply(self):
        with pytest.raises(NoSupplyError):
            session_all(market([0.0], 10.0, 1.0))

    def test_liquidity_exhausted_carries_flow(self):
        state = market([10.0], 10.0, 1.0, price=1e-322)
        with pytest.raises(LiquidityExhaustedError) as err:
            session_all(state, flow=-20.0)
        # the message is the error's one argument and field, and names the
        # flow the clamp executes: the one that clears at the floor ratio
        message = str(err.value)
        assert err.value.args == (message,) and vars(err.value) == {}
        flow = float(re.search(r"external flow (\S+) ", message).group(1))
        assert flow == pytest.approx(PRICE_RATIO_FLOOR * 5.0 - 5.0)


class TestRebalance:
    def test_already_balanced(self):
        state, outcome, trades = session_all(market([10.0], 10.0, 1.0))
        assert trades[0] == 0.0
        assert (state.stock_value[0], state.cash[0], state.target_ratio[0]) == (10.0, 10.0, 1.0)

    def test_worked_example(self):
        state, _, trades = session_all(market([10.0, 10.0], 10.0, [2.0, 1.0]))
        assert trades[0] == pytest.approx(2.0)
        assert state.cash[0] == pytest.approx(8.0)
        assert state.stock_value[0] == pytest.approx(16.0)
        assert state.stock_value[0] / state.cash[0] == pytest.approx(2.0)

    def test_seller(self):
        state, _, trades = session_all(market([10.0], 10.0, 1.0), flow=5.0)
        assert trades[0] == pytest.approx(-5.0)
        assert state.cash[0] == pytest.approx(15.0)
        assert state.stock_value[0] == pytest.approx(15.0)

    def test_invalid_ratio(self):
        # a flow that would clear at a non-positive ratio never reaches the
        # rebalance: it is clamped to the floor ratio
        state, outcome, trades = session_all(market([10.0], 10.0, 1.0), flow=-5.0)
        assert outcome.clamped
        assert state.price == PRICE_RATIO_FLOOR
        assert state.cash[0] > 0.0 and state.stock_value[0] > 0.0


class TestUpdateRatio:
    def two_agents(self):
        state = market([10.0, 10.0], 10.0, [2.0, 1.0], greed=1.12, fear=1.11)
        state, _, _ = session_all(state)
        return state.target_ratio

    def test_buyer_divides_by_fear(self):
        assert self.two_agents()[0] == pytest.approx(2.0 / 1.11)

    def test_tie_keeps_ratio(self):
        state, _, _ = session_all(market([10.0], 10.0, 1.0, greed=1.12, fear=1.11))
        assert state.target_ratio[0] == 1.0

    def test_seller_multiplies_by_greed(self):
        assert self.two_agents()[1] == pytest.approx(1.12)

    def test_zero_cash_counts_as_seller(self):
        # the empty agent sits exactly on target (0 == 0) yet counts as a seller
        state = market([0.0, 10.0], [0.0, 10.0], 1.0, greed=1.12, fear=1.11)
        state, outcome, _ = session_all(state)
        assert state.price == 1.0
        assert state.target_ratio[0] == pytest.approx(1.12)
        assert state.target_ratio[1] == 1.0

    def test_tie_tolerance(self):
        # one agent at (10, 10, 1) clears at ratio 1 + flow / 5; a relative
        # perturbation below 1e-12 is treated as on-target
        state, outcome, _ = session_all(market([10.0], 10.0, 1.0, 1.5, 1.5), flow=5e-14)
        assert state.price == pytest.approx(1.0 + 1e-14, rel=1e-15)
        assert state.target_ratio[0] == 1.0
        state, outcome, _ = session_all(market([10.0], 10.0, 1.0, 1.5, 1.5), flow=5e-9)
        assert state.target_ratio[0] == pytest.approx(1.5)

    def test_factor_validation(self):
        # signal levels are confined to [0, 1], so the effective factors
        # 1 + (factor - 1) * level never drop below 1
        with pytest.raises(ConfigurationError):
            WindowSignal(level=1.5)
        with pytest.raises(ConfigurationError):
            WindowSignal(0.0, 1.0, -0.1)


def one_agent_state():
    return market([10.0], 10.0, 1.0, greed=1.05, fear=1.02)


class TestTradingSession:
    @pytest.mark.parametrize("level", [math.nan, 2.0, -1.0])
    def test_level_outside_unit_interval_is_rejected(self, level):
        # such levels used to write NaN or out-of-range targets
        state = market([10.0, 10.0], 10.0, [2.0, 1.0], greed=1.12, fear=1.11)
        before = (state.stock_value.copy(), state.cash.copy(), state.target_ratio.copy())
        with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
            trading_session(state, draw(state, 2, 5), 0.0, level)
        after = (state.stock_value, state.cash, state.target_ratio)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert state.price == 1.0 and state.day == 0
        # on a no-trade day (the one active agent holds no cash) too, where
        # the level used to go unchecked and the day advanced
        state = market([1.0] * 8, [0.0] * 7 + [1.0], [1.0] * 8, 1.0, 1.0, 0.375)
        before = (state.stock_value.copy(), state.cash.copy(), state.target_ratio.copy())
        with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
            trading_session(state, draw(state, 1), 0.0, level)
        after = (state.stock_value, state.cash, state.target_ratio)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        assert state.price == 0.375 and state.day == 0

    def test_single_balanced_agent_fixed_point(self):
        state = one_agent_state()
        state, outcome = trading_session(state, draw(state, 1), 0.0)
        assert state.price == 1.0
        assert state.cash[0] == 10.0 and state.stock_value[0] == 10.0
        assert state.day == 1

    def test_unit_factors_balanced_price_constant(self):
        gf = GreedFearSpec(0.0, 0.0, 0.0, 0.0)
        state, stream = population(100, 3, greed_fear=gf, stock_noise_range=0.0)
        for _ in range(300):
            state, _ = trading_session(state, draw(state, 25, stream))
        assert state.price == 1.0
        assert np.all(state.target_ratio == 1.0)

    def test_two_agent_worked_example(self):
        state = market([10.0, 10.0], 10.0, [2.0, 1.0], greed=1.12, fear=1.11)
        cash_before = state.cash.copy()
        state, outcome = trading_session(state, draw(state, 2, 5), 0.0)
        assert state.price == pytest.approx(1.4)
        assert state.external_shares == 0.0
        assert state.total_cash() == pytest.approx(cash_before.sum())
        traded = cash_before - state.cash
        assert traded[0] == pytest.approx(2.0)
        assert traded[1] == pytest.approx(-2.0)

    def test_conservation_and_clearance_random_sessions(self):
        rng = np.random.default_rng(11)
        state, stream = population(80, 21)
        shares0 = state.total_shares()
        for _ in range(400):
            flow = float(rng.uniform(-1.0, 3.0))
            cash_before = state.cash.copy()
            state, outcome = trading_session(state, draw(state, int(rng.integers(1, 81)), stream),
                                             flow)
            executed = outcome.cash_flow_in
            trades = cash_before - state.cash  # zero for the inactive agents
            scale = max(1.0, abs(executed), float(np.abs(trades).sum()))
            assert abs(trades.sum() + executed) <= 1e-9 * scale
            assert state.total_cash() - cash_before.sum() == pytest.approx(
                executed, rel=1e-9, abs=1e-9
            )
            assert np.all(state.cash >= 0.0)
            assert np.all(state.stock_value >= 0.0)
        assert state.total_shares() == pytest.approx(shares0, rel=1e-9)

    def test_withdrawal_clamp(self):
        state = one_agent_state()
        state, outcome = trading_session(state, draw(state, 1), -50.0)
        assert outcome.clamped
        assert state.price == pytest.approx(PRICE_RATIO_FLOOR)
        assert outcome.cash_flow_in > -50.0
        # executed flow is exactly the one producing the floor ratio
        assert outcome.cash_flow_in == pytest.approx(PRICE_RATIO_FLOOR * 5.0 - 5.0)

    @pytest.mark.parametrize("flow", [0.0, 1e-6, 2.2250738585e-313, -1e-6])
    def test_small_inflow_without_demand_clamps_at_floor(self, flow):
        # the one active agent (agent 6) holds no cash, so the flow alone
        # would set the price, below the floor; the flow that clears at the
        # floor is an inflow of 0.005 that no investor sent (nor the -1e-6
        # withdrawal), so the floor makes the day a no-trade day
        state = market([1.0] * 8, [0.0] * 7 + [1.0], [1.0] * 8, 1.0, 1.0, 0.375)
        before = (state.stock_value.copy(), state.cash.copy(), state.target_ratio.copy())
        shares_before = state.total_shares()
        price_before = state.price
        active = draw(state, 1)
        state, outcome = trading_session(state, active, flow)
        assert active.tolist() == [6]
        assert outcome.clamped and outcome.cash_flow_in == 0.0
        assert (price_before, state.price, state.day) == (0.375, 0.375, 1)
        for now, then in zip((state.stock_value, state.cash, state.target_ratio), before):
            assert now.tobytes() == then.tobytes()
        assert state.external_shares == 0.0
        assert state.total_shares() == shares_before

    def test_price_underflow_raises_typed_error(self):
        state = one_agent_state()
        state.price = 1e-322  # one more clamp at the floor ratio rounds it to zero
        cash, stock = state.cash.copy(), state.stock_value.copy()
        with pytest.raises(LiquidityExhaustedError, match="price underflowed to 0.0 on day 1"):
            trading_session(state, draw(state, 1), -50.0)
        assert state.price == 1e-322
        assert state.day == 0
        assert np.array_equal(state.cash, cash)
        assert np.array_equal(state.stock_value, stock)

    def test_share_pool_overflow_raises_typed_error(self):
        # a subnormal price is still positive, but the clamped flow's share
        # count, -4.95 / 1e-312, is not a finite float
        state = one_agent_state()
        state.price = 1e-310
        cash, stock = state.cash.copy(), state.stock_value.copy()
        with pytest.raises(LiquidityExhaustedError, match="external share count overflowed"):
            trading_session(state, draw(state, 1), -50.0)
        assert state.price == 1e-310
        assert state.external_shares == 0.0 and state.day == 0
        assert np.array_equal(state.cash, cash)
        assert np.array_equal(state.stock_value, stock)

    def test_session_determinism(self):
        a, stream_a = population(50, 9)
        b, stream_b = population(50, 9)
        for _ in range(50):
            active_a, active_b = draw(a, 10, stream_a), draw(b, 10, stream_b)
            a, oa = trading_session(a, active_a, 0.5)
            b, ob = trading_session(b, active_b, 0.5)
            assert a.price == b.price and oa == ob
            assert np.array_equal(active_a, active_b)
        assert np.array_equal(a.target_ratio, b.target_ratio)

    def test_stationary_state_unstable(self):
        gf = GreedFearSpec(math.log(1.05), math.log(1.05), 0.0, 1.0)
        baseline, baseline_stream = population(500, 7, greed_fear=gf, stock_noise_range=0.0)
        perturbed, perturbed_stream = population(500, 7, greed_fear=gf, stock_noise_range=0.0)
        perturbed.target_ratio[0] += 1e-6
        diverged = False
        for _ in range(720):
            baseline, _ = trading_session(baseline, draw(baseline, 125, baseline_stream))
            perturbed, _ = trading_session(perturbed, draw(perturbed, 125, perturbed_stream))
            if abs(math.log(perturbed.price) - math.log(baseline.price)) > 0.01:
                diverged = True
                break
        assert baseline.price == 1.0
        assert diverged

    def test_invalid_active_count(self):
        # the session takes the drawn agents; the count is checked where
        # it is given, so no day loop draws more agents than the market has
        with pytest.raises(ConfigurationError, match=r"n_active must be in \[1, 1\], got 2"):
            MarketParams(n_agents=1, n_active=2)

    def test_scalar_and_session_clearing_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            stock = rng.uniform(0.1, 50, n).tolist()
            cash = rng.uniform(0.1, 50, n).tolist()
            target = rng.uniform(0.1, 8, n).tolist()
            flow = float(rng.uniform(-1, 10))
            expected = oracle_ratio(stock, cash, target, flow)
            state = market(stock, cash, target, 1.05, 1.03)
            state, outcome, trades = session_all(state, flow, seed=int(rng.integers(0, 2**31)))
            assert state.price == pytest.approx(expected, rel=1e-12)
            for i in range(n):
                x, new_cash, new_stock, new_k = oracle_agent(
                    stock[i], cash[i], target[i], 1.05, 1.03, expected
                )
                assert trades[i] == pytest.approx(x, rel=1e-9, abs=1e-9)
                assert state.cash[i] == pytest.approx(new_cash, rel=1e-12)
                assert state.stock_value[i] == pytest.approx(new_stock, rel=1e-12)
                assert state.target_ratio[i] == pytest.approx(new_k, rel=1e-12)


class TestSessionProperties:
    """Facts the day loop's shortcuts rely on."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_agents=st.integers(2, 60),
        active_share=st.floats(0.0, 1.0),
        flow=st.floats(-20.0, 20.0),
        level=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_session_changes_only_active_agents(self, seed, n_agents, active_share, flow, level):
        n_active = max(1, round(active_share * n_agents))
        state, stream = population(n_agents, seed)
        for _ in range(5):
            cash, target = state.cash.copy(), state.target_ratio.copy()
            active = draw(state, n_active, stream)
            state, outcome = trading_session(state, active, flow, level)
            untouched = np.ones(n_agents, dtype=bool)
            untouched[active] = False
            assert state.cash[untouched].tobytes() == cash[untouched].tobytes()
            assert state.target_ratio[untouched].tobytes() == target[untouched].tobytes()

    @given(st.floats(min_value=1.0, max_value=2.0**53))
    def test_unit_signal_rescale_is_identity(self, factor):
        assert 1.0 + (factor - 1.0) * 1.0 == factor

    @settings(deadline=None, max_examples=200)
    @given(
        data=st.data(),
        n_agents=st.integers(1, 40),
        price=st.floats(1e-3, 1e3),
        flow_share=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_session_invariants_are_exact(self, data, n_agents, price, flow_share, seed):
        """Cash changes by the executed flow, shares are conserved, no
        inflow is executed beyond the request, and every active agent ends
        exactly on its pre-session target, unless the day is a no-trade
        day, on which no holding moves."""
        values = st.floats(0.01, 100.0)
        stock = data.draw(st.lists(values, min_size=n_agents, max_size=n_agents))
        cash = data.draw(st.lists(st.just(0.0) | values, min_size=n_agents, max_size=n_agents))
        target = data.draw(st.lists(st.floats(0.05, 20.0), min_size=n_agents, max_size=n_agents))
        factors = st.lists(st.floats(1.0, 1.5), min_size=n_agents, max_size=n_agents)
        state = market(stock, cash, target, data.draw(factors), data.draw(factors), price)
        n_active = data.draw(st.integers(1, n_agents))
        # flows up to twice the total cash, either sign (withdrawals may clamp)
        flow = flow_share * sum(cash)
        old_target, old_stock = state.target_ratio.copy(), state.stock_value.copy()
        cash_before, shares_before = state.total_cash(), state.total_shares()
        price_before = state.price

        active = draw(state, n_active, seed)
        state, outcome = trading_session(state, active, flow)
        # no inflow beyond the request, and no withdrawal turned into one
        assert outcome.cash_flow_in <= max(flow, 0.0)
        if outcome.clamped and state.price == price_before:  # a no-trade day
            assert outcome.cash_flow_in == 0.0
            assert state.stock_value.tobytes() == old_stock.tobytes()
        else:
            assert np.all(state.stock_value[active] == old_target[active] * state.cash[active])
        # rounding bounds scale with the magnitudes summed: a clamped
        # withdrawal moves far more shares than the total it conserves
        cash_scale = cash_before + abs(outcome.cash_flow_in)
        assert abs(state.total_cash() - cash_before - outcome.cash_flow_in) <= 1e-13 * cash_scale
        share_scale = state.stock_value.sum() / state.price + abs(state.external_shares)
        assert abs(state.total_shares() - shares_before) <= 1e-13 * share_scale
        assert np.all(state.cash >= 0.0) and np.all(state.stock_value >= 0.0)
