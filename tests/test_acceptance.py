"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavyweight ensembles are shared session fixtures.
"""
import math
import time

import numpy as np

from pricepump import (
    EnsembleFailedError,
    FlowBlock,
    HazardParams,
    MarketParams,
    PonziParams,
    RegimesBlock,
    ScheduleSpec,
    SpeculativePonziParams,
    classical_ponzi_solve,
    critical_exponent,
    fit_market_impact,
    init_population,
    investment_phase_series,
    run_ensembles,
    speculative_ponzi_solve,
    steady_state_rate,
    trading_session,
)
from pricepump.market import MarketState
from tests.conftest import WORKERS
from tests.test_ponzi import closed_form_withdrawable

DT = 1.0 / 360.0


def check(criterion: str, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_01_conservation():
    state = init_population(MarketParams(), seed=11)
    cash0 = state.total_cash()
    shares0 = state.total_shares()
    start = time.perf_counter()
    for _ in range(10_000):
        state, _ = trading_session(state, state.rng.choice(500, 125, replace=False), 0.0)
    elapsed = time.perf_counter() - start
    cash_drift = abs(state.total_cash() - cash0) / cash0
    share_drift = abs(state.total_shares() - shares0) / shares0
    check(
        "1",
        f"cash drift {cash_drift:.2e} and share drift {share_drift:.2e} <= 1e-9 "
        f"over 10,000 sessions in {elapsed:.1f}s",
        cash_drift <= 1e-9 and share_drift <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_02_clearance_and_rebalance_exactness():
    rng = np.random.default_rng(1234)
    total_agents = 0
    worst_clearance = 0.0
    worst_ratio = 0.0
    while total_agents < 100_000:
        n = int(rng.integers(20, 200))
        stock = rng.uniform(0.01, 100.0, n)
        cash = rng.uniform(0.01, 100.0, n)
        target = np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))
        state = MarketState(
            stock_value=stock.copy(),
            cash=cash.copy(),
            target_ratio=target.copy(),
            greed=1.0 + rng.uniform(0.0, 0.3, n),
            fear=1.0 + rng.uniform(0.0, 0.3, n),
            rng=np.random.default_rng(int(rng.integers(0, 2**31))),
        )
        demand = float(np.sum(target * cash / (1.0 + target)))
        flow = float(rng.uniform(-0.5 * demand, 3.0 * demand))
        state, outcome = trading_session(state, state.rng.choice(n, n, replace=False), flow)
        # every agent is active: each one's trade is the cash it spent
        trades = cash - state.cash
        scale = max(1.0, abs(outcome.cash_flow_in), float(np.abs(trades).sum()))
        worst_clearance = max(
            worst_clearance,
            abs(float(trades.sum()) + outcome.cash_flow_in) / scale,
        )
        ratio_err = np.max(np.abs(state.stock_value / state.cash - target) / target)
        worst_ratio = max(worst_ratio, float(ratio_err))
        total_agents += n
    check(
        "2",
        f"over {total_agents} random agent-session states: clearance residual "
        f"{worst_clearance:.2e} <= 1e-9 and post-trade ratio error {worst_ratio:.2e} <= 1e-12",
        worst_clearance <= 1e-9 and worst_ratio <= 1e-12,
    )


def test_criterion_03_return_rate_reproduction(homogeneous_ensemble):
    stats, elapsed = homogeneous_ensemble
    expected = math.log(1.02 / 1.01) / 8.0
    measured = stats.pooled_returns.mean_log_return
    deviation = abs(measured / expected - 1.0)
    check(
        "3",
        f"homogeneous mean daily log-return {measured:.4e} within 15% of "
        f"{expected:.4e} (dev {deviation:.1%}), runtime {elapsed:.1f}s < 60s",
        deviation <= 0.15 and elapsed < 60.0,
    )


def test_criterion_04_log_return_normality(homogeneous_ensemble):
    stats, _ = homogeneous_ensemble
    pooled = stats.pooled_returns
    check(
        "4",
        f"pooled returns |skew| {abs(pooled.skewness):.3f} < 0.5 and "
        f"|excess kurtosis| {abs(pooled.excess_kurtosis):.3f} < 1.0",
        abs(pooled.skewness) < 0.5 and abs(pooled.excess_kurtosis) < 1.0,
    )


def test_criterion_05_withdrawable_closed_form_oracle():
    params = PonziParams(0.02, 0.41, 0.3, 3.0, 1.0)
    start = time.perf_counter()
    worst = 0.0
    for kind, growth in (("constant", 0.0), ("exponential", 0.1)):
        spec = ScheduleSpec(kind, 1.0, growth)
        sol = classical_ponzi_solve(params, spec, 20.0, DT)
        oracle = closed_form_withdrawable(params, spec, sol.grid)
        past = sol.grid > params.maturity + 1e-12
        worst = max(
            worst,
            float(np.max(np.abs(sol.withdrawable[past] - oracle[past]) / np.abs(oracle[past]))),
        )
    elapsed = time.perf_counter() - start
    check(
        "5",
        f"solver vs closed form max rel error {worst:.2e} < 1e-6 at every node "
        f"past maturity, runtime {elapsed:.2f}s < 1s",
        worst < 1e-6 and elapsed < 1.0,
    )


def test_criterion_06_critical_exponent():
    params = PonziParams(0.0, 0.41, 0.41, 3.0, 0.0)
    start = time.perf_counter()
    value = critical_exponent(params, horizon=60.0, tol=0.005)
    elapsed = time.perf_counter() - start
    check(
        "6",
        f"critical exponential growth rate {value:.4f} = 0.41 +/- 0.02, "
        f"runtime {elapsed:.1f}s < 10s",
        abs(value - 0.41) <= 0.02 and elapsed < 10.0,
    )


def _speculative(kind: str):
    params = SpeculativePonziParams(
        market_impact=1.0, withdrawal_rate=0.41, maturity=3.0, initial_capital=0.0
    )
    return speculative_ponzi_solve(params, ScheduleSpec(kind, 1.0, 0.1), 40.0, DT)


def test_criterion_07_speculative_qualitative():
    sol = _speculative("exponential")
    slope = np.diff(sol.capital)
    turns = np.flatnonzero((slope[:-1] > 0.0) & (slope[1:] <= 0.0))
    peak_index = int(turns[0]) + 1
    peak_time = float(sol.grid[peak_index])
    peak = float(sol.capital[peak_index])
    drawdown = (peak - float(sol.capital[peak_index:].min())) / peak
    dips_negative = float(sol.nominal_rate[sol.grid > 3.0].min()) < 0.0
    constant_steady = steady_state_rate(_speculative("constant"), 5.0).rate
    exp_steady = steady_state_rate(sol, 5.0).rate
    check(
        "7",
        f"bubble peak at t={peak_time:.2f} in (3, 8), drawdown {drawdown:.0%} >= 30%, "
        f"rate dips negative: {dips_negative}, constant steady rate "
        f"|{constant_steady:.5f}| < 0.01, exponential steady rate {exp_steady:.3f} in (0, 0.41)",
        3.0 < peak_time < 8.0
        and drawdown >= 0.30
        and dips_negative
        and abs(constant_steady) < 0.01
        and 0.0 < exp_steady < 0.41,
    )


def test_criterion_07_linear_steady_rate_bound():
    # the linear schedule's rate decays like 1/t, so at a 40-year horizon it
    # still sits near 0.025; the stated 0.01 bound is not reachable there
    steady = steady_state_rate(_speculative("linear"), 5.0).rate
    check(
        "7 (linear)",
        f"linear-schedule steady rate |{steady:.4f}| < 0.01 at horizon 40",
        abs(steady) < 0.01,
    )


def test_criterion_08_flow_regime_hazard_ordering():
    market = MarketParams()
    comparison = run_ensembles(
        market, HazardParams(), ScheduleSpec(),
        RegimesBlock(horizon=2.0, n_paths=100).flows(market), base_seed=808, n_workers=WORKERS,
    )
    finals = {}
    for name, stats in comparison.items():
        assert not isinstance(stats, EnsembleFailedError), f"regime {name}: {stats}"
        summary = stats.series["Ha"]
        finals[name] = (
            float(summary.mean[-1]),
            float(summary.std[-1]) / math.sqrt(stats.n_paths),
        )
    inv, zero, wdr = finals["investment"], finals["zero"], finals["withdrawal"]
    gap_one = zero[0] - inv[0]
    gap_two = wdr[0] - zero[0]
    check(
        "8",
        f"final crash hazard ordered {inv[0]:.2f} < {zero[0]:.2f} < {wdr[0]:.2f} "
        f"with gaps {gap_one:.2f}, {gap_two:.2f} each > twice the standard errors",
        gap_one > 2.0 * (inv[1] + zero[1]) and gap_two > 2.0 * (zero[1] + wdr[1]),
    )


def test_criterion_09_full_investment_cycle(cycle_ensemble):
    cfg, stats, elapsed = cycle_ensemble
    times = stats.times
    log_price = stats.series["log_price"].mean
    daily_log_rate = math.log(stats.theoretical.daily_factor)
    reference = daily_log_rate * cfg.market.days_per_year * times
    cycle = cfg.cycle
    investment_end = int(round((cycle.pre_phase + cycle.maturity) * cfg.market.days_per_year))
    exceeds = log_price[investment_end] > reference[investment_end]
    post = log_price[investment_end + 1 :]
    drops = float(post.min()) < float(log_price[investment_end])
    net_inflow = float(stats.series["xin"].mean.sum())
    check(
        "9",
        f"log price {log_price[investment_end]:.2f} exceeds reference "
        f"{reference[investment_end]:.2f} at the end of the investment phase, "
        f"drops by {log_price[investment_end] - post.min():.2f} afterwards, "
        f"cumulative net inflow {net_inflow:.0f} > 0, runtime {elapsed:.0f}s < 300s",
        exceeds and drops and net_inflow > 0.0 and elapsed < 300.0,
    )


def test_criterion_10_calibration(cycle_ensemble):
    cfg, stats, _ = cycle_ensemble
    cycle = cfg.cycle
    target = cycle.resolved_target_rate(cfg.market)

    # recovering a known generating coefficient
    schedule = ScheduleSpec("exponential", 1000.0, 0.1)
    generated = speculative_ponzi_solve(
        SpeculativePonziParams(0.001, target, 3.0, 0.0), schedule, 17.0, DT
    )
    recovered = fit_market_impact(
        generated.grid, generated.capital, schedule, target, 3.0, (1e-4, 1e-2)
    ).market_impact
    recovery_error = abs(recovered / 0.001 - 1.0)

    # calibrating against the simulated ensemble
    tau, observed = investment_phase_series(
        stats.times, stats.series["S_ext"].mean, cycle.pre_phase
    )
    fit = fit_market_impact(
        tau, observed, cfg.schedule, target, cycle.maturity, (1e-5, 1e-2)
    )
    fitted = speculative_ponzi_solve(
        SpeculativePonziParams(fit.market_impact, target, cycle.maturity, max(float(observed[0]), 0.0)),
        cfg.schedule,
        float(tau[-1]),
        DT,
    )
    # bubble peak: the maximum inside the maturity-plus-five-years window
    window = tau <= cycle.maturity + 5.0
    agent_peak = float(tau[window][np.argmax(observed[window])])
    agent_height = float(observed[window].max())
    ode_peak = float(fitted.grid[window][np.argmax(fitted.capital[window])])
    ode_height = float(fitted.capital[window].max())
    peak_gap = abs(agent_peak - ode_peak)
    height_ratio = ode_height / agent_height
    check(
        "10",
        f"generating coefficient recovered to {recovery_error:.1%} (< 5%); fitted "
        f"coefficient {fit.market_impact:.2e} puts the bubble peak at "
        f"{ode_peak:.2f}y vs the ensemble's {agent_peak:.2f}y (gap {peak_gap:.2f} <= 1) "
        f"with height ratio {height_ratio:.2f} within 50%",
        recovery_error < 0.05 and peak_gap <= 1.0 and 0.5 <= height_ratio <= 1.5,
    )


def test_criterion_11_numerical_hygiene():
    worst = 0.0
    classical = PonziParams(0.02, 0.41, 0.3, 3.0, 1.0)
    for kind, growth in (("constant", 0.0), ("exponential", 0.1)):
        spec = ScheduleSpec(kind, 1.0, growth)
        coarse = classical_ponzi_solve(classical, spec, 20.0, DT)
        fine = classical_ponzi_solve(classical, spec, 20.0, DT / 2.0)
        for name in ("capital", "withdrawable"):
            a, b = getattr(coarse, name)[-1], getattr(fine, name)[-1]
            worst = max(worst, abs(a - b) / abs(b))
    speculative = SpeculativePonziParams(1.0, 0.41, 3.0, 0.0)
    for kind in ("constant", "exponential"):
        spec = ScheduleSpec(kind, 1.0, 0.1)
        coarse = speculative_ponzi_solve(speculative, spec, 40.0, DT)
        fine = speculative_ponzi_solve(speculative, spec, 40.0, DT / 2.0)
        for name in ("capital", "withdrawable", "log_growth"):
            a, b = getattr(coarse, name)[-1], getattr(fine, name)[-1]
            worst = max(worst, abs(a - b) / max(abs(b), 1e-9))

    market = MarketParams(n_agents=100, n_active=25)
    ensembles = [
        run_ensembles(
            market, HazardParams(), ScheduleSpec(), {"": FlowBlock(0.0, 0.5, 8)}, 42, n_workers=w
        )[""]
        for w in (1, 4, 8)
    ]
    first = ensembles[0]
    identical = all(
        np.array_equal(first.series[name].mean, other.series[name].mean)
        and np.array_equal(first.series[name].p90, other.series[name].p90)
        for other in ensembles[1:]
        for name in first.series
    ) and all(
        np.array_equal(first.histograms[0].counts, other.histograms[0].counts)
        for other in ensembles[1:]
        if first.histograms and other.histograms
    )
    check(
        "11",
        f"step-halving changes solver outputs by {worst:.2e} < 1e-4 at the horizon; "
        f"ensemble aggregates identical across 1/4/8 workers: {identical}",
        worst < 1e-4 and identical,
    )
