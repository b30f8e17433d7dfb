import dataclasses
import hashlib
import math
import os
import re
import sys
import time
import tracemalloc
from concurrent.futures import BrokenExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pricepump import (
    BracketError,
    CashSnapshot,
    ConfigurationError,
    CycleConfig,
    DivergenceError,
    EnsembleFailedError,
    EnsembleStats,
    FlowBlock,
    HazardParams,
    InvestorLedger,
    LiquidityExhaustedError,
    GreedFearSpec,
    MarketParams,
    PathRecord,
    PricePumpError,
    RegimesBlock,
    ScheduleSpec,
    SeriesSummary,
    SpeculativePonziParams,
    WindowSignal,
    cash_concentration,
    crash_hazard,
    fit_market_impact,
    investment_phase_series,
    run_ensembles,
    run_flow_path,
    run_path,
    speculative_ponzi_solve,
    stats_from_log_returns,
)
from pricepump import cli
from pricepump import cycle as cycle_module
from pricepump.engine import SessionOutcome
from pricepump.cycle import BANDED, cash_histogram

SMALL_MARKET = MarketParams(n_agents=60, n_active=15)
HAZARD = HazardParams()
SMALL_SCHEDULE = ScheduleSpec("exponential", 600.0, 0.1)
SMALL_SEED = 99
MAX_GROWTH = math.log(sys.float_info.max)  # largest exponential growth ScheduleSpec accepts


def small_cycle(**overrides):
    defaults = dict(pre_phase=0.5, maturity=0.5, horizon=2.0, n_paths=3)
    defaults.update(overrides)
    return CycleConfig(**defaults)


def small_path(cycle, path_index, hazard=HAZARD, schedule=SMALL_SCHEDULE, base_seed=SMALL_SEED):
    return run_path(SMALL_MARKET, hazard, schedule, cycle, base_seed, path_index)


def one_ensemble(market, block, base_seed, n_workers=1, hazard=HAZARD, schedule=SMALL_SCHEDULE):
    """The one ensemble of ``block``: its stats, or its EnsembleFailedError."""
    return run_ensembles(market, hazard, schedule, block, base_seed, n_workers)[""]


def small_ensemble(cycle, n_workers=1):
    return one_ensemble(SMALL_MARKET, cycle, SMALL_SEED, n_workers)


def assert_failed(result, pattern):
    """``result`` is an EnsembleFailedError whose message matches ``pattern``."""
    assert isinstance(result, EnsembleFailedError), result
    assert re.search(pattern, str(result)), str(result)


def reference_path(path_index, market=MarketParams(), hazard=HazardParams(),
                   schedule=ScheduleSpec(), **cycle):
    """A path of the reference configuration at the default seed 12345."""
    return run_path(market, hazard, schedule, CycleConfig(**cycle), 12345, path_index)


@st.composite
def small_experiments(draw):
    """A small valid market with hazard scales, a schedule, a short cycle
    of two paths, and a short constant flow of two paths."""
    n_agents = draw(st.integers(2, 60))
    log_variance = draw(st.floats(0.0, 1e-3))
    means = st.floats(0.1, 1.0)  # >= 3 sd at any drawn variance
    level = st.floats(0.0, 1.0)
    market = MarketParams(
        n_agents=n_agents,
        n_active=draw(st.integers(1, n_agents)),
        initial_cash=draw(st.floats(0.01, 1e3)),
        initial_ratio=draw(st.floats(0.01, 100.0)),
        stock_noise_range=draw(st.floats(0.0, 10.0)),
        days_per_year=draw(st.integers(1, 1000)),
        greed_fear=GreedFearSpec(
            draw(means), draw(means), log_variance, draw(st.floats(-1.0, 1.0))
        ),
        signal=draw(
            st.builds(WindowSignal, level=level)
            | st.floats(0.0, 1.0).flatmap(  # a window that opens: start < end
                lambda start: st.builds(
                    WindowSignal, st.just(start), st.floats(start, 2.0, exclude_min=True), level
                )
            )
        ),
    )
    scale = st.floats(0.01, 1e3)
    hazard = HazardParams(draw(scale), draw(scale), draw(scale), draw(st.floats(1.0, 1e9)))
    # mostly moderate growth; sometimes anywhere the validator accepts
    schedule = ScheduleSpec(
        draw(st.sampled_from(["constant", "linear", "exponential"])),
        draw(st.floats(0.0, 1e4)),
        draw(st.floats(-10.0, 10.0) | st.floats(-1e300, MAX_GROWTH)),
    )
    pre_phase, maturity = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    cycle = CycleConfig(
        pre_phase=pre_phase,
        maturity=maturity,
        target_rate=draw(st.none() | st.floats(-5.0, 5.0)),
        horizon=pre_phase + maturity + draw(st.floats(1e-3, 0.5)),
        n_paths=2,
    )
    flow = FlowBlock(draw(st.floats(-1e4, 1e4)), draw(st.floats(0.0, 1.5)), n_paths=2)
    return market, hazard, schedule, cycle, flow



class TestConfigs:
    def test_market_validation(self):
        with pytest.raises(ConfigurationError):
            MarketParams(n_agents=10, n_active=11)
        with pytest.raises(ConfigurationError):
            MarketParams(initial_cash=-1.0)

    def test_cycle_requires_room_for_phases(self):
        with pytest.raises(ConfigurationError):
            small_cycle(horizon=1.0)

    def test_default_target_rate_matches_prediction(self):
        market = MarketParams()
        cfg = CycleConfig()
        expected = 360.0 * math.log((1.12 / 1.11) ** 0.125)
        assert cfg.resolved_target_rate(market) == pytest.approx(expected, rel=1e-9)
        assert cfg.resolved_target_rate(market) == pytest.approx(0.40359, abs=1e-5)

    @pytest.mark.parametrize("field", ["pre_phase", "maturity", "horizon", "target_rate"])
    def test_cycle_rejects_non_finite(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            small_cycle(**{field: math.inf})

    def test_flow_ensembles_reject_unrunnable_inputs(self):
        # the blocks check themselves; the day grid is checked before any
        # path runs, so none of these is a path failure
        with pytest.raises(ConfigurationError, match="flow_rate must be finite"):
            FlowBlock(math.inf, 1.0, 2)
        with pytest.raises(ConfigurationError, match="horizon must be finite"):
            FlowBlock(0.0, math.inf, 2)
        with pytest.raises(ConfigurationError, match="n_paths must be >= 1, got 0"):
            FlowBlock(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError, match="below one trading day"):
            one_ensemble(SMALL_MARKET, FlowBlock(0.0, 0.001, 2), 1)
        with pytest.raises(ConfigurationError, match="outflow_rate must be finite"):
            RegimesBlock(outflow_rate=-math.inf)
        with pytest.raises(ConfigurationError, match="inflow_rate must be positive"):
            RegimesBlock(inflow_rate=0.0)
        with pytest.raises(ConfigurationError, match="inflow_rate must be positive"):
            RegimesBlock(outflow_rate=0.0)
        with pytest.raises(ConfigurationError, match="n_paths must be >= 1, got -1"):
            RegimesBlock(n_paths=-1)
        with pytest.raises(ConfigurationError, match="below one trading day"):
            run_ensembles(SMALL_MARKET, HAZARD, SMALL_SCHEDULE,
                          RegimesBlock(horizon=0.001, n_paths=2), 1)

    def test_worker_count_below_one_is_rejected_before_any_path(self, monkeypatch):
        # a count of 0 used to run serially
        started = []
        monkeypatch.setattr(cycle_module, "run_flow_path", lambda *args: started.append(args))
        with pytest.raises(ConfigurationError, match="worker count must be >= 1, got 0"):
            one_ensemble(SMALL_MARKET, FlowBlock(0.0, 0.25, 2), 1, n_workers=0)
        assert started == []

    def test_default_regimes_resolve_against_the_market(self):
        flows = RegimesBlock(horizon=1.0, n_paths=3).flows(SMALL_MARKET)
        assert flows == {
            "investment": FlowBlock(600.0, 1.0, 3),
            "zero": FlowBlock(0.0, 1.0, 3),
            "withdrawal": FlowBlock(-150.0, 1.0, 3),
        }
        assert list(RegimesBlock(5.0, -1.0).flows(SMALL_MARKET).values()) == [
            FlowBlock(5.0, 2.0, 100), FlowBlock(0.0, 2.0, 100), FlowBlock(-1.0, 2.0, 100)
        ]

    @pytest.mark.parametrize("market,horizon", [
        # a window opening after the horizon, and one between two days
        (MarketParams(n_agents=8, n_active=2, signal=WindowSignal(start=30.0)), 20.0),
        (MarketParams(n_agents=8, n_active=2, days_per_year=1,
                      signal=WindowSignal(0.2, 0.8)), 3.0),
    ])
    def test_signal_must_open_on_a_trading_day(self, market, horizon):
        cycle = CycleConfig(pre_phase=0.0, maturity=1.0, horizon=horizon, n_paths=2)
        for run in (
            lambda: run_flow_path(market, HAZARD, FlowBlock(0.0, horizon), 1, 0),
            lambda: one_ensemble(market, FlowBlock(0.0, horizon, 2), 1),
            lambda: run_path(market, HAZARD, SMALL_SCHEDULE, cycle, 1, 0),
            lambda: one_ensemble(market, cycle, 1),
        ):
            with pytest.raises(ConfigurationError, match=r"market\.signal window .* opens on no"):
                run()
        # level 0 is the way to turn the signal off
        quiet = dataclasses.replace(market, signal=dataclasses.replace(market.signal, level=0.0))
        record = run_flow_path(quiet, HAZARD, FlowBlock(0.0, horizon), 1, 0)
        assert np.all(np.isfinite(record.price))

    def test_cycle_ensemble_rejects_sub_day_horizon(self):
        # raised before any path runs; a 0-day cycle has no returns to pool
        with pytest.raises(ConfigurationError, match="horizon 0.001 is below one trading day"):
            small_ensemble(small_cycle(pre_phase=0.0, maturity=0.0, horizon=0.001))

    def test_checkpoints_default_to_phase_ends(self):
        cfg = small_cycle()
        assert cfg.resolved_checkpoints() == (0.5, 1.0, 2.0)

    def test_huge_checkpoints_clamp_to_the_run(self):
        # a finite checkpoint whose day count overflows snapshots the horizon
        cycle = small_cycle(horizon=1.5, checkpoints=(-1e308, 0.5, 1e308))
        record = small_path(cycle, 0)
        assert [snap.time for snap in record.snapshots] == [0.0, 0.5, 1.5]


def executed(flow, clamped=False):
    """The outcome of a session that executed ``flow``."""
    return SessionOutcome(flow, clamped)


class TestInvestorLedger:
    def test_constant_price_accumulates_matured_inflows_exactly(self):
        # flat prices: the tracked value equals the integral of the
        # schedule up to one maturity ago
        maturity_days, period = 180, 1.0 / 360.0
        inflow = 5000.0 * period
        total_days = 720
        ledger = InvestorLedger([inflow] * total_days, total_days, 0.4, maturity_days, period)
        prices = [1.0] * (total_days + 1)
        for day in range(total_days):
            assert ledger.request(day) == inflow
            ledger.record_day(day, prices, executed(inflow))
        matured = total_days - maturity_days
        assert ledger.value == pytest.approx(matured * inflow, rel=1e-9)

    def test_matured_inflow_marked_to_price(self):
        ledger = InvestorLedger([10.0, 0.0, 0.0], 3, 0.4, 2, 1.0 / 360.0)
        prices = [1.0, 1.0, 1.0, 2.0]
        ledger.record_day(0, prices, executed(10.0))
        ledger.record_day(1, prices, executed(0.0))
        assert ledger.value == 0.0
        # the 10-dollar inflow invested at price 1 matures at price 2
        ledger.record_day(2, prices, executed(0.0))
        assert ledger.value == pytest.approx(20.0, rel=1e-9)

    def test_withdrawals_drain_at_target_rate(self):
        period = 1.0 / 360.0
        ledger = InvestorLedger([100.0, 0.0, 0.0], 2, 0.5, 1, period)
        prices = [1.0] * 4
        ledger.record_day(0, prices, executed(100.0))
        ledger.record_day(1, prices, executed(0.0))  # matures here
        assert ledger.value == pytest.approx(100.0)
        request = ledger.request(2)
        assert request == -0.5 * 100.0 * period
        ledger.record_day(2, prices, executed(request))
        assert ledger.value == pytest.approx(100.0 * (1.0 - 0.5 * period))

    def test_zero_maturity_credits_immediately(self):
        ledger = InvestorLedger([7.0], 1, 0.4, 0, 1.0 / 360.0)
        ledger.record_day(0, [1.0, 1.0], executed(7.0))
        assert ledger.value == pytest.approx(7.0)

    def test_clamped_days_book_what_was_executed(self):
        period = 1.0 / 360.0
        ledger = InvestorLedger([100.0, 3.0, 3.0, 4.0, 0.0], 2, 0.5, 1, period)
        prices = [1.0, 1.0, 1.0, 1.0, 0.5, 0.5]
        ledger.record_day(0, prices, executed(100.0))
        # a no-trade day credits no inflow, and nothing matures from it
        ledger.record_day(1, prices, executed(0.0, clamped=True))
        assert ledger.value == 100.0
        assert ledger.request(2) == 3.0 - 0.5 * 100.0 * period
        ledger.record_day(2, prices, executed(0.0, clamped=True))
        assert ledger.value == 100.0  # withdrawing, but nothing was paid out
        # a clamped withdrawal drains what was paid out: the day's inflow
        # of 4 less the executed -2, marked at a price that halved
        ledger.record_day(3, prices, executed(-2.0, clamped=True))
        assert ledger.value == pytest.approx(100.0 - 0.5 * 100.0 - 6.0)
        ledger.record_day(4, prices, executed(0.0))
        assert ledger.value == pytest.approx(44.0 * (1.0 - 0.5 * period) + 4.0)


class TestRunPath:
    def test_deterministic(self):
        cfg = small_cycle()
        a = small_path(cfg, 1)
        b = small_path(cfg, 1)
        assert np.array_equal(a.price, b.price)
        assert np.array_equal(a.withdrawable, b.withdrawable)
        assert np.array_equal(a.hazard_investor, b.hazard_investor)

    def test_paths_differ_by_index(self):
        cfg = small_cycle()
        assert not np.array_equal(small_path(cfg, 0).price, small_path(cfg, 1).price)

    def test_withdrawals_start_when_the_first_inflow_matures(self):
        # 1.44 days of warm-up and of maturity round to one day each, so the
        # first inflow (day 1) matures on day 2; rounding the sum of the two
        # phases instead (2.88 days) used to start withdrawals on day 3
        cfg = small_cycle(pre_phase=0.004, maturity=0.004, horizon=0.02)
        record = small_path(cfg, 0)
        assert np.flatnonzero(record.flow)[0] == 2  # the session of day 1
        assert np.flatnonzero(record.hazard_investor)[0] == 3

    @settings(deadline=None, max_examples=15)
    @given(experiment=small_experiments(), seed=st.integers(0, 2**32 - 1))
    def test_zero_mass_schedule_reduces_to_zero_flow_path(self, experiment, seed):
        market, hazard, schedule, cycle, _ = experiment
        schedule = dataclasses.replace(schedule, first_year_total=0.0)
        zero_flow = FlowBlock(0.0, cycle.horizon)
        try:
            record = run_path(market, hazard, schedule, cycle, seed, 1)
        except PricePumpError as exc:
            with pytest.raises(type(exc)):
                run_flow_path(market, hazard, zero_flow, seed, 1)
            return
        assert np.all(record.flow == 0.0)
        assert np.all(record.withdrawable == 0.0)
        assert np.all(record.hazard_investor == 0.0)
        flow_record = run_flow_path(market, hazard, zero_flow, seed, 1)
        assert np.array_equal(record.price, flow_record.price)
        assert np.array_equal(record.hazard_crash, flow_record.hazard_crash)

    def test_investor_hazard_activation(self):
        cfg = small_cycle()
        record = small_path(cfg, 0)
        start = int(round((cfg.pre_phase + cfg.maturity) * 360))
        assert np.all(record.hazard_investor[: start + 1] == 0.0)
        assert record.hazard_investor[-1] > 0.0
        assert np.all(np.diff(record.hazard_investor) >= 0.0)

    def test_withdrawable_tracks_matured_money_only(self):
        cfg = small_cycle()
        record = small_path(cfg, 0)
        matured_from = int(round((cfg.pre_phase + cfg.maturity) * 360))
        assert np.all(record.withdrawable[: matured_from + 1] == 0.0)
        assert record.withdrawable[matured_from + 1] > 0.0

    def test_snapshots_at_phase_ends(self):
        cfg = small_cycle()
        record = small_path(cfg, 0)
        assert [snap.time for snap in record.snapshots] == [0.5, 1.0, 2.0]
        assert all(snap.cash.shape == (60,) for snap in record.snapshots)

    def test_series_lengths_consistent(self):
        record = small_path(small_cycle(), 0)
        n = record.price.size
        assert all(series.size == n for series in record.columns().values())


def record_digest(record):
    """sha256 over every series, the clamp count and the cash snapshots."""
    digest = hashlib.sha256()
    for name, column in record.columns().items():
        digest.update(name.encode())
        digest.update(column.tobytes())
    digest.update(str(record.clamp_events).encode())
    for snap in record.snapshots:
        digest.update(repr(snap.time).encode())
        digest.update(snap.cash.tobytes())
    return digest.hexdigest()


def one_row_bits(row):
    """A row's ``record_digest``, or its error text; ``row`` is a record, a
    text, or a one-row run to call, whose exception gives its ``repr``."""
    if callable(row):
        try:
            row = row()
        except Exception as exc:
            row = repr(exc)
    return row if isinstance(row, str) else record_digest(row)


# Digests recorded from the day loop that recomputed every agent's cash
# kernel and evaluated the schedule each day; the two zero-pre-phase
# cycles from the loop that integrated the investor hazard day by day
# inside it.  Any change to the random stream or to a single output bit
# of the day loop changes them.
PINNED_PATHS = {
    "default-cycle": (
        lambda: reference_path(0, horizon=6.5),
        "c92940a1edea2550623b965cf7ef2229eecfd788e3b68d9f0958a0ce418392c2",
    ),
    "window-signal-linear-cycle": (
        lambda: reference_path(
            1,
            market=MarketParams(signal=WindowSignal(1.0, 4.0, 0.6)),
            schedule=ScheduleSpec("linear"),
            horizon=6.5,
        ),
        "3af95cc49121d8ef82696c070c817efa267184ff189c93728224dc1a7072062f",
    ),
    "constant-signal-cycle-checkpoints": (
        lambda: reference_path(
            2,
            market=MarketParams(signal=WindowSignal(level=0.3)),
            pre_phase=1.0,
            maturity=0.0,
            horizon=2.0,
            checkpoints=(0.0, 0.5, 1.0, 2.0),
        ),
        "71f82cdffceceaba65db2d8e58251ea99c1da55ec7d50b74fcd28f59278ad3c6",
    ),
    # withdrawals from day 0: the investor hazard's left endpoint has no
    # prior price, so it reuses day 1's integrand
    "zero-phase-cycle": (
        lambda: reference_path(3, pre_phase=0.0, maturity=0.0, horizon=2.0),
        "7670eaceca7ea50a103aa3759c42efbf27503385e4b08d1c501122cd1f581a33",
    ),
    "one-day-maturity-cycle": (
        lambda: reference_path(
            5,
            hazard=HazardParams(shortfall_scale=2.5),
            pre_phase=0.0,
            maturity=1.0 / 360.0,
            target_rate=0.3,
            horizon=2.0,
        ),
        "a818e6af5fe1829cc6ceabcbf10e392400b1e00fcba4e62405f26a13a1cb384a",
    ),
    **{
        f"flow{rate:+g}": (
            lambda rate=rate: run_flow_path(
                MarketParams(), HazardParams(), FlowBlock(rate, 2.0), 12345, 4
            ),
            digest,
        )
        for rate, digest in (
            (5000.0, "b069f1adcb599bebb4a281d0bef81cb8fa4f0a8aa101960d35eceb1a44cfbcad"),
            (0.0, "5fc42c8e2179b1ba375b15ff692be07139868b1c8a77f317059b1e481b7a9ba0"),
            (-1250.0, "26540fe82fb5368c3bbeef7ef671eb2942c52b13182d91eced959d651148f82a"),
            (-2500.0, "85e33453994d61105450004f00b652392bd89352144d449485d35db914f06bd8"),
        )
    },
}


class TestDayLoopBitIdentity:
    @pytest.mark.parametrize("name", sorted(PINNED_PATHS))
    def test_path_bits_are_pinned(self, name):
        run, expected = PINNED_PATHS[name]
        assert record_digest(run()) == expected

    def test_pinned_withdrawal_path_clamps(self):
        record = run_flow_path(MarketParams(), HazardParams(), FlowBlock(-2500.0, 2.0), 12345, 4)
        assert record.clamp_events == 29

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_floor_never_executes_an_inflow_without_one(self, rate):
        # strong greed in a tiny market pumps the price until a drawn pair
        # holds too little cash to clear above the floor without a flow:
        # the floor used to execute inflows of up to 260 (zero flow) and 39
        # (a withdrawal) here; those days are now no-trade days
        gf = GreedFearSpec(1.5, 0.05, 0.0, 0.0)
        record = run_flow_path(MarketParams(n_agents=8, n_active=2, greed_fear=gf), HAZARD,
                               FlowBlock(rate, 1.0), 0, 0)
        assert record.clamp_events > 0
        assert np.all(record.flow <= 0.0) and np.all(record.flow >= rate / 360.0)

    def test_ledger_books_no_inflow_on_no_trade_days(self, monkeypatch):
        # one active agent in four: the floor leaves 25 days without a
        # trade, 7 of them (88, 89, 168-170, 177, 178) in the investment
        # half-year; the ledger used to credit their scheduled inflows
        books = []
        record_day = InvestorLedger.record_day

        def spy(ledger, day, prices, outcome):
            before = ledger.value
            m = ledger.maturity_days
            matured = 0.0
            if day >= m:
                matured = ledger.credited[day - m] * prices[day + 1] / prices[day - m + 1]
            value = record_day(ledger, day, prices, outcome)
            books.append((outcome, before, matured, value, ledger.credited[day]))
            return value

        monkeypatch.setattr(InvestorLedger, "record_day", spy)
        market = MarketParams(n_agents=4, n_active=1, greed_fear=GreedFearSpec(0.3, 0.05, 0.0, 0.0))
        cycle = CycleConfig(pre_phase=0.0, maturity=0.5, horizon=1.0, n_paths=1)
        record = run_path(market, HazardParams(), ScheduleSpec("constant", 0.001), cycle, 0, 0)
        assert record.clamp_events == 25
        no_trade = [day for day, book in enumerate(books) if book[0].clamped]
        assert len(no_trade) == 25
        assert [day for day in no_trade if day < 180] == [88, 89, 168, 169, 170, 177, 178]
        for day, (outcome, before, matured, value, credited) in enumerate(books):
            if outcome.clamped:
                # nothing executed: no inflow credited, nothing drained
                assert outcome.cash_flow_in == 0.0 and record.flow[day + 1] == 0.0
                assert credited == 0.0
                assert value == before + matured
            else:
                assert credited == 0.001 / 360.0

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        flow=st.floats(-300.0, 300.0),
        cash_scale=st.floats(0.5, 500.0),
        cycle=st.booleans(),
    )
    def test_crash_hazard_at_checkpoints_is_exact(self, seed, flow, cash_scale, cycle):
        hazard = HazardParams(cash_scale=cash_scale)
        if cycle:
            checkpoints = (0.0, 0.1, 0.25, 0.5, 1.0)
            record = small_path(small_cycle(checkpoints=checkpoints), 0, hazard, base_seed=seed)
        else:  # a flow path snapshots its horizon only
            checkpoints = (1.0,)
            record = run_flow_path(SMALL_MARKET, hazard, FlowBlock(flow, 1.0), seed, 0)
        assert [snap.time for snap in record.snapshots] == list(checkpoints)
        for snap in record.snapshots:
            day = int(round(snap.time * 360))
            expected = crash_hazard(cash_concentration(snap.cash, cash_scale), hazard)
            assert record.hazard_crash[day] == expected

    def test_investor_hazard_overflow_fails_typed(self):
        # at 100,000 days a year the exponent (1 - ratio) * days_per_year
        # passes 709 on a 0.7% daily price drop
        market = MarketParams(days_per_year=100000)
        cycle = CycleConfig(pre_phase=0.001, maturity=0.001, horizon=0.005, n_paths=1)
        with pytest.raises(DivergenceError, match="overflows on day 201"):
            run_path(market, HAZARD, ScheduleSpec(), cycle, 12345, 0)
        assert_failed(one_ensemble(market, cycle, 12345, schedule=ScheduleSpec()),
                      "all paths failed: DivergenceError")

    @pytest.mark.parametrize("days", [1, 2])
    def test_overflowing_cash_fails_typed(self, days):
        # 1e308 dollars a year lift the price 1.4e5-fold on day 1, and the
        # revalued stock of agents at target ratio 1e4 overflows, so their
        # trades and cash are inf; a one-day path used to finish with inf
        # total cash, and a two-day path to fail as "price underflowed to nan"
        market = MarketParams(n_agents=2, n_active=2, initial_cash=1e300, initial_ratio=1e4)
        with pytest.raises(DivergenceError, match="cash overflowed on day 1"):
            run_flow_path(market, HAZARD, FlowBlock(1e308, days / 360), 0, 0)

    def test_zero_mass_overflowing_schedule_brings_no_investors(self):
        # exp(700 t) overflows in the second year; 0 * inf was a NaN flow
        cycle = CycleConfig(pre_phase=0.0, maturity=1.0, horizon=2.0)
        schedule = ScheduleSpec("exponential", 0.0, 700.0)
        market = MarketParams(n_agents=20, n_active=5)
        record = run_path(market, HazardParams(), schedule, cycle, 1, 0)
        assert np.all(record.flow == 0.0)
        assert np.all(record.withdrawable == 0.0)
        assert np.all(np.isfinite(record.hazard_investor))

    def test_exhausting_withdrawal_fails_typed(self):
        # the clamped price reaches subnormal values, where the outside
        # pool's share count overflows before the price underflows to 0
        with pytest.raises(LiquidityExhaustedError, match="external share count overflowed"):
            run_flow_path(SMALL_MARKET, HAZARD, FlowBlock(-3000.0, 1.0), 1, 0)
        assert_failed(one_ensemble(SMALL_MARKET, FlowBlock(-3000.0, 1.0, 2), 1),
                      "all paths failed: LiquidityExhaustedError")


class TestEnsembles:
    def test_single_path_mean_equals_path(self):
        cfg = small_cycle(n_paths=1)
        stats = small_ensemble(cfg)
        record = small_path(cfg, 0)
        assert np.array_equal(stats.series["log_price"].mean, record.log_price)
        assert np.array_equal(stats.series["Ha"].p50, record.hazard_crash)

    def test_same_seed_bitwise_identical(self):
        cfg = small_cycle()
        a = small_ensemble(cfg)
        b = small_ensemble(cfg)
        for name in a.series:
            assert np.array_equal(a.series[name].mean, b.series[name].mean)
        assert a.pooled_returns == b.pooled_returns

    def test_parallel_degree_invariance(self):
        cfg = small_cycle(n_paths=6)
        serial = small_ensemble(cfg, n_workers=1)
        parallel = small_ensemble(cfg, n_workers=4)
        for name in serial.series:
            assert np.array_equal(serial.series[name].mean, parallel.series[name].mean)
        for name in BANDED:
            assert np.array_equal(serial.series[name].p90, parallel.series[name].p90)
        for ha, hb in zip(serial.histograms, parallel.histograms):
            assert ha.time == hb.time
            assert np.array_equal(ha.counts, hb.counts)

    def test_histograms_pool_all_paths(self):
        cfg = small_cycle(n_paths=3)
        stats = small_ensemble(cfg)
        assert [h.time for h in stats.histograms] == [0.5, 1.0, 2.0]
        assert all(h.counts.sum() == 3 * 60 for h in stats.histograms)

    def test_path_errors_are_identical_for_any_worker_count(self):
        # both errors carry a field besides the message; a worker hands
        # back the text of each
        overflow = CycleConfig(pre_phase=0.001, maturity=0.001, horizon=0.005, n_paths=2)
        for run in (
            lambda workers: one_ensemble(MarketParams(days_per_year=100000), overflow, 1,
                                         workers, schedule=ScheduleSpec()),
            lambda workers: one_ensemble(SMALL_MARKET, FlowBlock(-3000.0, 1.0, 2), 1, workers),
        ):
            serial, parallel = run(1), run(2)
            assert isinstance(serial, EnsembleFailedError)
            assert isinstance(parallel, EnsembleFailedError)
            assert parallel.failure_messages == serial.failure_messages

    def test_cash_rich_market_does_not_fail_every_path(self):
        # a narrow cash kernel drives every path's concentration to exactly 0
        ens = one_ensemble(
            MarketParams(), FlowBlock(5e4, 2.0, 4), 1, hazard=HazardParams(cash_scale=1.0)
        )
        assert ens.failure_messages == ()
        assert np.any(ens.series["Ha"].mean == 0.0)  # the underflow did happen

    def test_regime_comparison_keeps_finished_regimes(self):
        regimes = RegimesBlock(outflow_rate=-3000.0, horizon=1.0, n_paths=2)
        results = run_ensembles(SMALL_MARKET, HAZARD, SMALL_SCHEDULE, regimes, 1)
        assert list(results) == ["investment", "zero", "withdrawal"]
        assert [type(result) for result in results.values()] == [
            EnsembleStats, EnsembleStats, EnsembleFailedError
        ]
        error = results["withdrawal"]
        assert [line.split(":")[0] for line in error.failure_messages] == ["path 0", "path 1"]
        assert results["zero"].n_paths == 2 and results["zero"].failure_messages == ()

    def test_one_path_of_one_day_pools_its_return(self):
        stats = one_ensemble(SMALL_MARKET, FlowBlock(0.0, 1.0 / 360.0, 1), 7)
        assert stats.pooled_returns.n_returns == 1
        assert stats.pooled_returns.std_log_return == 0.0

    def test_flow_ensemble_records_both_predictions(self):
        stats = one_ensemble(SMALL_MARKET, FlowBlock(0.0, 0.5, 4), 7)
        assert stats.theoretical.daily_factor == pytest.approx(1.0011217, abs=1e-7)
        assert stats.pooled_returns.n_returns == 4 * 180


def stacked_aggregate(records, market, failures):
    """Reference aggregation: every path's series stacked into a (paths x
    days) array, with std and percentiles for all of them.  The ensemble
    runners instead fold each path as it arrives and keep the rows of
    the banded series only."""
    failure_messages = tuple(f"path {i}: {failures[i]}" for i in sorted(failures))
    if not records:
        raise EnsembleFailedError(
            failure_messages, "all paths failed: " + "; ".join(list(failures.values())[:3])
        )
    order = sorted(records)
    first = records[order[0]]
    series = {}
    for name in first.columns():
        stack = np.stack([records[i].columns()[name] for i in order])
        p10, p50, p90 = np.percentile(stack, [10.0, 50.0, 90.0], axis=0)
        series[name] = SeriesSummary(
            mean=stack.mean(axis=0), std=stack.std(axis=0), p10=p10, p50=p50, p90=p90
        )
    pooled = stats_from_log_returns(
        np.concatenate([np.diff(records[i].log_price) for i in order])
    )
    by_time = {}
    for i in order:
        for snap in records[i].snapshots:
            by_time.setdefault(snap.time, []).append(snap.cash)
    return EnsembleStats(
        times=np.arange(first.price.size) / market.days_per_year,
        series=series,
        pooled_returns=pooled,
        histograms=tuple(
            cash_histogram(time, np.concatenate(by_time[time])) for time in sorted(by_time)
        ),
        theoretical=market.theoretical(),
        n_paths=len(order),
        clamp_events=sum(records[i].clamp_events for i in order),
        failure_messages=failure_messages,
    )


def synthetic_path(block, n_days, failing, path_index):
    """A path record of random series drawn from ``(block, path_index)``,
    or a typed failure for the indices in ``failing``."""
    if path_index in failing:
        raise DivergenceError(float(path_index), f"synthetic failure of path {path_index}")
    rng = np.random.default_rng((block, path_index))
    days = n_days + 1
    return PathRecord(
        price=np.exp(np.cumsum(rng.normal(0.0, 0.1, days))),
        hazard_crash=rng.random(days),
        hazard_investor=rng.random(days) * (path_index % 2),
        flow=rng.normal(0.0, 1.0, days),
        withdrawable=rng.random(days) * 1e3,
        external_value=rng.random(days) * 1e-3,
        total_cash=rng.random(days) + 5.0,
        snapshots=(CashSnapshot(0.0, rng.random(5)), CashSnapshot(n_days / 360, rng.random(7))),
        clamp_events=path_index,
    )


def synthetic_rows(n_days, failing, whole, path_index):
    """One path call of ``len(failing)`` synthetic rows: row ``r``'s
    record, or its error text for the indices in ``failing[r]``; the whole
    call raises for the indices in ``whole``."""
    if path_index in whole:
        raise DivergenceError(float(path_index), f"synthetic failure of call {path_index}")
    rows = []
    for row, fails in enumerate(failing):
        try:
            rows.append(synthetic_path(row, n_days, fails, path_index))
        except PricePumpError as exc:
            rows.append(repr(exc))
    return rows


def far_apart_path(path_index):
    """A synthetic path whose ``Hp`` rows lie 1e300 apart after day 0."""
    record = synthetic_path(0, 3, frozenset(), path_index)
    hazard = np.array([1.0, 1e300, 1e300, 1e300]) * path_index
    return dataclasses.replace(record, hazard_investor=hazard)


def exiting_path(exit_index, path_index):
    """A synthetic path whose worker process dies on path ``exit_index``."""
    if path_index == exit_index:
        os._exit(1)
    return synthetic_path(0, 3, frozenset(), path_index)


class TwoFieldError(PricePumpError):
    """A path error whose constructor takes two arguments and which has no
    ``__reduce__``: unpickling calls it with its message alone, and fails."""

    def __init__(self, day, reason):
        super().__init__(f"day {day}: {reason}")


def unpicklable_failure_path(path_index):
    """A synthetic path whose odd indices fail with ``TwoFieldError``."""
    if path_index % 2:
        raise TwoFieldError(path_index, "synthetic")
    return synthetic_path(0, 3, frozenset(), path_index)


def marked_path(marks, block, path_index):
    """A synthetic path that leaves a file in the directory ``marks`` when
    it starts, then takes 0.1 s."""
    (marks / f"{block}-{path_index}").touch()
    time.sleep(0.1)
    return synthetic_path(block, 3, frozenset(), path_index)


def recording_pool(sizes, tasks=None):
    """A stand-in for ProcessPoolExecutor that appends each pool's size to
    ``sizes`` (and, given ``tasks``, each task's arguments to it) and runs
    every call in this process (the real pool forks max_workers
    processes)."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            calls = list(zip(*iterables))
            if tasks is not None:
                tasks.extend(calls)
            return (fn(*args) for args in calls)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return RecordingPool


def set_cpus(monkeypatch, cpus, affinity):
    """This process sees ``cpus`` CPUs, of which it may run on the set
    ``affinity`` (``None``: a platform without affinity sets)."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)


class TestEnsembleFold:
    """The in-order fold of ``_collect`` and ``_aggregate`` against the
    stacked reference aggregation, bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(n_rows=st.integers(1, 3), n_paths=st.integers(1, 6), n_days=st.integers(1, 12),
           data=st.data())
    def test_fold_matches_stacked_reference(self, n_rows, n_paths, n_days, data):
        # one call of 1-3 rows per path index, each row with its own
        # failing paths and some calls failing whole: each row against its
        # own reference, with a whole call's error in every row
        indices = st.sets(st.integers(0, n_paths - 1)).map(frozenset)
        whole = data.draw(indices, label="whole-call failures")
        failing = tuple(data.draw(indices, label=f"failing {row}") for row in range(n_rows))
        path = partial(synthetic_rows, n_days, failing, whole)
        expected = []
        for row in range(n_rows):
            records, failures = {}, {}
            for i in range(n_paths):
                try:
                    outcome = path(i)[row]
                except PricePumpError as exc:
                    outcome = repr(exc)
                if isinstance(outcome, str):
                    failures[i] = outcome
                else:
                    records[i] = outcome
            expected.append(
                ensemble_bits(lambda: stacked_aggregate(records, SMALL_MARKET, failures))
            )
        for workers in (1, 2):
            results = cycle_module._collect(path, n_paths, n_rows, workers, SMALL_MARKET)
            assert [ensemble_bits(lambda: result) for result in results] == expected, workers

    def test_spread_of_far_apart_rows_is_finite(self):
        # std squares the deviations, which overflowed to an inf spread for
        # rows over 1e154 apart; only such columns are recomputed
        records = {i: far_apart_path(i) for i in range(2)}
        with np.errstate(over="ignore"):  # the reference's Hp spread is inf
            reference = stacked_aggregate(records, SMALL_MARKET, {})
        stats, = cycle_module._collect(far_apart_path, 2, 1, 1, SMALL_MARKET)
        assert stats.series["Hp"].std.tolist() == [0.5, 5e299, 5e299, 5e299]
        assert stats.series["Hp"].std[0] == reference.series["Hp"].std[0]
        for name in ("log_price", "Ha"):
            assert stats.series[name].std.tobytes() == reference.series[name].std.tobytes()

    @pytest.mark.parametrize("cpus,affinity,n_workers,n_paths,n_rows,pool", [
        (4, None, 3000, 2, 1, 2),  # never more workers than paths
        (4, None, 3000, 8, 1, 4),  # nor than CPUs
        (4, None, 3, 8, 1, 3),
        (None, None, 3000, 8, 1, None),  # an unknown CPU count runs serially
        (4, None, 3000, 1, 1, None),
        (4, None, 3000, 1, 3, None),  # rows share their path's task: they do not count
        (2, {0}, 4, 8, 1, None),  # pinned to one of two CPUs: serial
        (8, {0, 1}, 3000, 8, 1, 2),  # the CPUs it may run on, not the machine's
    ], ids=["4-3000-2-2", "4-3000-8-4", "4-3-8-3", "None-3000-8-None", "4-3000-1-None",
            "one-path-of-three-rows", "affinity-1-of-2", "affinity-2-of-8"])
    def test_pool_is_capped_at_paths_and_cpus(
        self, monkeypatch, cpus, affinity, n_workers, n_paths, n_rows, pool
    ):
        sizes = []
        monkeypatch.setattr(cycle_module, "ProcessPoolExecutor", recording_pool(sizes))
        set_cpus(monkeypatch, cpus, affinity)
        # path 1 of every row fails, where there is one
        path = partial(synthetic_rows, 3, (frozenset({1}),) * n_rows, frozenset())
        pooled = cycle_module._collect(path, n_paths, n_rows, n_workers, SMALL_MARKET)
        assert sizes == ([] if pool is None else [pool])
        serial = cycle_module._collect(path, n_paths, n_rows, 1, SMALL_MARKET)
        assert [ensemble_bits(lambda: result) for result in pooled] == \
            [ensemble_bits(lambda: result) for result in serial]

    def test_dead_worker_breaks_the_run(self, monkeypatch):
        # a worker process that dies (say, killed for memory) is not a set
        # of path failures: the paths it took down never ran
        set_cpus(monkeypatch, 2, {0, 1})
        with pytest.raises(BrokenExecutor):
            cycle_module._collect(partial(exiting_path, 3), 8, 1, 2, SMALL_MARKET)

    def test_unpicklable_path_error_fails_its_path_for_any_worker_count(self, monkeypatch):
        # a worker hands back the error's text, so an error that pickling
        # cannot rebuild is one failed path, not a broken pool
        set_cpus(monkeypatch, 2, {0, 1})
        serial, = cycle_module._collect(unpicklable_failure_path, 4, 1, 1, SMALL_MARKET)
        pooled, = cycle_module._collect(unpicklable_failure_path, 4, 1, 2, SMALL_MARKET)
        assert serial.failure_messages == (
            "path 1: TwoFieldError('day 1: synthetic')",
            "path 3: TwoFieldError('day 3: synthetic')",
        )
        assert pooled.failure_messages == serial.failure_messages

    def test_parent_error_cancels_the_paths_not_started(self, tmp_path, monkeypatch):
        def failing_add(fold, index, outcome):
            raise RuntimeError("fold failed")

        set_cpus(monkeypatch, 2, {0, 1})
        monkeypatch.setattr(cycle_module._EnsembleFold, "add", failing_add)
        with pytest.raises(RuntimeError, match="fold failed"):
            cycle_module._collect(partial(marked_path, tmp_path, 0), 18, 1, 2, SMALL_MARKET)
        assert len(list(tmp_path.iterdir())) < 18 / 2

    @pytest.mark.parametrize("hp_sign,kept", [(1.0, {"Ha"}), (-1.0, {"Ha", "Hp"})])
    def test_banded_rows_of_positive_zeros_are_not_kept(self, hp_sign, kept):
        # flat prices (log_price +0.0) and no investor hazard keep no rows;
        # a row of -0.0 is kept, since its bands print as "-0", while its
        # mean, a sum from +0.0 as the stacked mean's, is +0.0
        records = {}
        for i in range(3):
            record = synthetic_path(0, 4, frozenset(), i)
            record.price = np.ones(5)
            record.hazard_investor = np.zeros(5) * hp_sign
            records[i] = record
        fold = cycle_module._EnsembleFold(3)
        for i, record in records.items():
            fold.add(i, record)
        assert set(fold.rows) == kept
        result = cycle_module._aggregate(fold, SMALL_MARKET)
        expected = stacked_aggregate(records, SMALL_MARKET, {})
        for name, summary in result.series.items():
            assert summary.mean.tobytes() == expected.series[name].mean.tobytes(), name
        for name in BANDED:
            for stat in ("std", "p10", "p50", "p90"):
                assert getattr(result.series[name], stat).tobytes() == \
                    getattr(expected.series[name], stat).tobytes(), (name, stat)
        assert result.pooled_returns == expected.pooled_returns

    def test_only_banded_series_carry_spread(self):
        stats = small_ensemble(small_cycle())
        for name, summary in stats.series.items():
            spread = (summary.std, summary.p10, summary.p50, summary.p90)
            if name in BANDED:
                assert all(isinstance(stat, np.ndarray) for stat in spread)
            else:
                assert spread == (None, None, None, None)

    def test_parent_memory_grows_by_few_rows_per_path(self):
        # Peak traced allocation of a serial ensemble, per extra path, in
        # rows of (n_days + 1) floats: about 4 with the fold (the three
        # banded rows and a share of the final temporaries), about 14
        # when every path's record was held until aggregation.
        horizon, counts = 1.0, (8, 40)
        row = (int(horizon * SMALL_MARKET.days_per_year) + 1) * 8
        # an untraced run first, so that one-time allocations of the first
        # ensemble in the process stay out of the measured peaks
        one_ensemble(SMALL_MARKET, FlowBlock(0.0, horizon, 2), 3)
        peaks = []
        for n_paths in counts:
            tracemalloc.start()
            try:
                one_ensemble(SMALL_MARKET, FlowBlock(0.0, horizon, n_paths), 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rows_per_path = (peaks[1] - peaks[0]) / (counts[1] - counts[0]) / row
        assert rows_per_path < 8.0


class TestCalibration:
    TARGET = 0.40359014922421627

    def test_recovers_generating_coefficient(self):
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        generated = speculative_ponzi_solve(
            SpeculativePonziParams(0.001, self.TARGET, 3.0, 0.0), schedule, 17.0, 1.0 / 360.0
        )
        result = fit_market_impact(
            generated.grid, generated.capital, schedule, self.TARGET, 3.0, (1e-4, 1e-2)
        )
        assert result.market_impact == pytest.approx(0.001, rel=0.05)
        assert result.rmse < 1e-6

    def test_result_carries_the_final_solve(self, monkeypatch):
        # the solution is the search's own last solve, at the fitted
        # coefficient; the rmse is that solution's
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        generated = speculative_ponzi_solve(
            SpeculativePonziParams(0.001, self.TARGET, 3.0, 0.0), schedule, 6.0, 1.0 / 360.0
        )
        observed = generated.capital * 1.01
        solves = []

        def recording(params, *args):
            solves.append(params.market_impact)
            return speculative_ponzi_solve(params, *args)

        monkeypatch.setattr(cycle_module, "speculative_ponzi_solve", recording)
        result = fit_market_impact(
            generated.grid, observed, schedule, self.TARGET, 3.0, (1e-4, 1e-2)
        )
        assert solves[-1] == result.market_impact
        fresh = speculative_ponzi_solve(
            SpeculativePonziParams(result.market_impact, self.TARGET, 3.0, observed[0]),
            schedule, 6.0, 1.0 / 360.0,
        )
        for name in ("grid", "capital", "withdrawable", "nominal_rate", "log_growth"):
            assert getattr(result.solution, name).tobytes() == getattr(fresh, name).tobytes()
        residual = fresh.capital - observed
        assert result.rmse == math.sqrt(float(np.mean(residual * residual)))

    def test_diverging_final_solve_raises(self, monkeypatch):
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        generated = speculative_ponzi_solve(
            SpeculativePonziParams(0.001, self.TARGET, 3.0, 0.0), schedule, 6.0, 1.0 / 360.0
        )
        args = (generated.grid, generated.capital, schedule, self.TARGET, 3.0, (1e-4, 1e-2))
        fitted = fit_market_impact(*args).market_impact

        def diverging_at_fit(params, *solve_args):
            if params.market_impact == fitted:
                raise DivergenceError(1.0)
            return speculative_ponzi_solve(params, *solve_args)

        monkeypatch.setattr(cycle_module, "speculative_ponzi_solve", diverging_at_fit)
        with pytest.raises(DivergenceError):
            fit_market_impact(*args)

    def test_golden_section_matches_grid_scan(self):
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        generated = speculative_ponzi_solve(
            SpeculativePonziParams(0.001, self.TARGET, 3.0, 0.0), schedule, 10.0, 1.0 / 360.0
        )
        result = fit_market_impact(
            generated.grid, generated.capital, schedule, self.TARGET, 3.0, (1e-4, 1e-2)
        )
        grid = np.linspace(math.log(1e-4), math.log(1e-2), 200)
        cell = grid[1] - grid[0]

        def objective(log_impact):
            try:
                sol = speculative_ponzi_solve(
                    SpeculativePonziParams(math.exp(log_impact), self.TARGET, 3.0, 0.0),
                    schedule, 10.0, 1.0 / 360.0,
                )
            except DivergenceError:
                return math.inf
            return float(np.sqrt(np.mean((sol.capital - generated.capital) ** 2)))

        values = [objective(g) for g in grid]
        best = grid[int(np.argmin(values))]
        assert abs(best - math.log(result.market_impact)) <= cell

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        # the search stops once the bracket is narrower than tol: a tol of
        # zero or below never stopped, and a NaN one never started
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        times = np.arange(361) / 360.0
        with pytest.raises(ConfigurationError, match="tol must be positive"):
            fit_market_impact(times, times, schedule, self.TARGET, 3.0, (1e-5, 1e-2), tol=tol)

    def test_tiny_tol_stops_at_float_resolution(self, run_isolated):
        # a tol below the float resolution of the bracket used to never stop:
        # the bracket stops narrowing at one ulp of the log coefficient
        code = f"""
import json, math
from pricepump import (ScheduleSpec, SpeculativePonziParams, fit_market_impact,
                       speculative_ponzi_solve)
schedule = ScheduleSpec("exponential", 1000.0, 0.1)
generated = speculative_ponzi_solve(
    SpeculativePonziParams(0.001, {self.TARGET!r}, 3.0, 0.0), schedule, 4.0, 1.0 / 360.0)
print(json.dumps([
    math.log(fit_market_impact(generated.grid, generated.capital * 1.01, schedule,
                               {self.TARGET!r}, 3.0, (1e-4, 1e-2), tol=tol).market_impact)
    for tol in (1e-3, 1e-300)
]))
"""
        coarse, fine = run_isolated(code, timeout=60.0)
        # inside the bracket the default search ended on: at most tol wide,
        # centred on its result
        assert abs(fine - coarse) <= 0.5e-3

    def test_minimum_at_bracket_edge_raises(self):
        schedule = ScheduleSpec("exponential", 1000.0, 0.1)
        generated = speculative_ponzi_solve(
            SpeculativePonziParams(0.001, self.TARGET, 3.0, 0.0), schedule, 10.0, 1.0 / 360.0
        )
        with pytest.raises(BracketError):
            fit_market_impact(
                generated.grid, generated.capital, schedule, self.TARGET, 3.0, (1e-5, 1e-4)
            )

    def test_investment_phase_series_shifts_clock(self):
        times = np.arange(0.0, 2.0 + 1e-9, 0.25)
        values = times * 10.0
        tau, sliced = investment_phase_series(times, values, 0.5)
        assert tau[0] == 0.0
        assert sliced[0] == pytest.approx(5.0)
        assert tau[-1] == pytest.approx(1.5)

    @pytest.mark.parametrize("times,pre_phase,message", [
        ([0.0, 0.25, 0.5, 0.75], 0.5, "2 rows from the end of the warm-up; at least 3"),
        ([0.0, 0.25, 0.5, 1.0], 0.0, "times must form a uniform grid"),
        ([0.0, 0.3, 0.6, 0.9], 0.5, "no row at the end of the warm-up, t = 0.5"),
        ([0.0, 0.25, 0.5], 1.0, "no row at the end of the warm-up, t = 1.0"),
    ])
    def test_investment_phase_series_rejects_unusable_series(self, times, pre_phase, message):
        with pytest.raises(ValueError, match=message):
            investment_phase_series(np.array(times), np.zeros(len(times)), pre_phase)

    @pytest.mark.parametrize("column,row,bad", [
        ("times", 3, math.nan), ("values", 1, math.nan), ("values", 2, -math.inf),
    ])
    def test_investment_phase_series_rejects_non_finite_entries(self, column, row, bad):
        # a NaN in a fit source used to reach the search and end at a bracket edge
        series = {"times": np.arange(5) * 0.25, "values": np.ones(5)}
        series[column][row] = bad
        with pytest.raises(ValueError, match="times and values must be finite"):
            investment_phase_series(series["times"], series["values"], 0.0)


class TestReferenceEnsembleProperties:
    def test_mean_return_tracks_prediction(self, reference_zero_ensemble):
        stats, _ = reference_zero_ensemble
        predicted = math.log(stats.theoretical.daily_factor)
        measured = stats.pooled_returns.mean_log_return
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_pooled_returns_look_normal(self, reference_zero_ensemble):
        stats, _ = reference_zero_ensemble
        assert abs(stats.pooled_returns.skewness) < 0.5
        assert abs(stats.pooled_returns.excess_kurtosis) < 1.0

    def test_crash_hazard_trend_is_increasing(self, reference_zero_ensemble):
        stats, _ = reference_zero_ensemble
        mean_hazard = stats.series["Ha"].mean
        quarter = mean_hazard.size // 8
        blocks = [mean_hazard[i * quarter : (i + 1) * quarter].mean() for i in range(8)]
        assert all(b > a for a, b in zip(blocks, blocks[1:]))


def ensemble_bits(run):
    """Every output of an ensemble as bytes, or the typed error of one that
    did not run or failed as a whole."""
    try:
        ens = run()
    except PricePumpError as exc:
        ens = exc
    if isinstance(ens, PricePumpError):
        return repr(ens), getattr(ens, "failure_messages", ())
    series = [
        getattr(summary, stat).tobytes()
        for name, summary in ens.series.items()
        for stat in (("mean", "std", "p10", "p50", "p90") if name in BANDED else ("mean",))
    ]
    histograms = [(h.time, h.bin_edges.tobytes(), h.counts.tobytes()) for h in ens.histograms]
    return (ens.times.tobytes(), series, repr(ens.pooled_returns), histograms, ens.n_paths,
            ens.clamp_events, ens.failure_messages)


class TestGeneratedConfigs:
    """Properties over generated valid configurations, not only the defaults."""

    @settings(deadline=None, max_examples=25)
    @given(experiment=small_experiments(), seed=st.integers(0, 2**32 - 1))
    def test_paths_finish_finite_or_fail_typed(self, experiment, seed):
        market, hazard, schedule, cycle, flow = experiment
        runs = [
            lambda i: run_path(market, hazard, schedule, cycle, seed, i),
            lambda i: run_flow_path(market, hazard, flow, seed, i),
        ]
        for run in runs:
            for path_index in range(2):
                try:
                    record = run(path_index)
                except PricePumpError:
                    continue
                for name, series in record.columns().items():
                    assert np.all(np.isfinite(series)), name
                for snap in record.snapshots:
                    assert np.all(np.isfinite(snap.cash)), snap.time
                if run is runs[1]:  # no inflow beyond the request, none for a withdrawal
                    request = flow.flow_rate * (1.0 / market.days_per_year)
                    assert np.all(record.flow <= max(request, 0.0))

    @settings(deadline=None, max_examples=25)
    @given(experiment=small_experiments(), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_lockstep_rows_equal_one_row_runs(self, experiment, data, seed):
        # three flows of one horizon run as rows over one population and one
        # subset draw a day; each row's bits, or its error text, are those
        # of its own one-row run, whichever rows fail beside it
        market, hazard, _, _, flow = experiment
        total = market.total_initial_cash()
        # some withdrawals strong enough to exhaust the market within the run
        rates = st.floats(-1e4, 1e4) | st.floats(-1e3, -1.0).map(lambda k: k * total)
        flows = tuple(FlowBlock(data.draw(rates), flow.horizon, 2) for _ in range(3))
        path_index = data.draw(st.integers(0, 1))
        try:
            rows = run_flow_path(market, hazard, flows, seed, path_index)
        except ConfigurationError as exc:  # a horizon below one day: no row runs
            rows = [repr(exc)] * len(flows)
        assert [one_row_bits(row) for row in rows] == \
            [one_row_bits(lambda f=f: run_flow_path(market, hazard, f, seed, path_index))
             for f in flows]

    def test_failing_row_leaves_the_others_unchanged(self):
        # the withdrawal row exhausts the market on day 212; the other two
        # rows run on and keep their one-row bits
        flows = (FlowBlock(600.0, 1.0), FlowBlock(-3000.0, 1.0), FlowBlock(0.0, 1.0))
        rows = run_flow_path(SMALL_MARKET, HAZARD, flows, 7, 1)
        expected = [one_row_bits(lambda f=f: run_flow_path(SMALL_MARKET, HAZARD, f, 7, 1))
                    for f in flows]
        assert [one_row_bits(row) for row in rows] == expected
        assert expected[1].startswith("LiquidityExhaustedError('external share count overflowed")
        assert all(len(bits) == 64 for bits in expected[::2])

    def test_exhausted_regime_run_record_is_unchanged(self, tmp_path):
        # every withdrawal path fails; the record, the failure texts and the
        # other two regimes' files equal those of separate runs per regime,
        # as recorded before the regimes ran in lockstep
        config = tmp_path / "config.json"
        config.write_text('{"kind": "regimes", "regimes": {"outflow_rate": -5000.0}}')
        out = tmp_path / "out"
        assert cli.main(["regimes", "--config", str(config), "--out", str(out),
                         "--paths", "4"]) == 3
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == \
            "132990a04a57fb64116bf1222a40c0c2c6abf8f40d21485e2092d546937c7090"
        assert digest.hexdigest() == \
            "1d12612e610c7ae8bf1a2b93b4b7faf88445a7a8e73c94583069d49578ce91e1"

    @settings(deadline=None, max_examples=5)
    @given(experiment=small_experiments(), seed=st.integers(0, 2**32 - 1))
    def test_ensembles_identical_for_one_and_two_workers(self, experiment, seed):
        market, hazard, schedule, cycle, flow = experiment
        for run in (
            lambda workers: one_ensemble(market, cycle, seed, workers, hazard, schedule),
            lambda workers: one_ensemble(market, flow, seed, workers, hazard),
        ):
            serial, parallel = (ensemble_bits(lambda: run(workers)) for workers in (1, 2))
            assert serial == parallel
