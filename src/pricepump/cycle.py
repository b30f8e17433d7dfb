"""End-to-end experiments: simulated market paths under exogenous
investment flows, Monte Carlo ensembles, flow-regime comparisons, and
calibration of the reduced flow-response model against ensemble output.

The flagship experiment is the investment cycle: a zero-flow warm-up
phase in which the market pumps its price on its own, an investment
phase feeding a dollar schedule into the market, and, once the first
money matures, a withdrawal phase in which investors take out their
tracked withdrawable value at a target rate.  Paths are independent
units of parallel work.  One runner, ``run_ensembles``, takes every
ensemble of an experiment (one cycle, one flow, or the three flows of a
regime comparison) and runs all their paths in one worker pool; each
ensemble is folded in path-index order, whatever order its paths finish
in.  The runner takes the configuration's blocks (``MarketParams``,
``HazardParams``, ``ScheduleSpec``, ``CycleConfig``, ``FlowBlock``) as
they are, and every path of every experiment runs through one day loop,
``_run_days``.  The loop draws each day's active agents and the
sessions clear them.  It runs one or more rows in lockstep: the three
regimes of one path index start from the same population and draw the
same subsets, so they run as three rows of one loop, drawn once.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Collection, Generator, NamedTuple, Optional, Sequence

import numpy as np

from .engine import SessionOutcome, trading_session
from .errors import (
    BracketError,
    ConfigurationError,
    DivergenceError,
    EnsembleFailedError,
    check_finite,
    step_slack,
)
from .market import MarketParams, MarketState, init_population
from .ponzi import OdeSolution, SpeculativePonziParams, speculative_ponzi_solve
from .risk import (
    HazardParams,
    ReturnStats,
    TheoreticalReturn,
    cash_concentration,
    cash_kernel,
    crash_hazard,
    investor_hazard,
    stats_from_log_returns,
)
from .schedules import ScheduleSpec, schedule_eval

HISTOGRAM_BINS = 50


def _check_block(n_paths: int, **values: Optional[float]) -> None:
    """The checks of every ensemble block: finite values (``None``, a
    default resolved later, passes) and at least one path."""
    check_finite(**values)
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")


@dataclass(frozen=True)
class CycleConfig:
    """Phases and path count of the three-phase investment cycle (the
    configuration's ``cycle`` block)."""

    pre_phase: float = 3.0
    maturity: float = 3.0
    target_rate: Optional[float] = None  # None: annualized predicted market rate
    horizon: float = 20.0
    n_paths: int = 1000
    checkpoints: Optional[tuple[float, ...]] = None  # None: phase boundaries

    def __post_init__(self):
        _check_block(self.n_paths, pre_phase=self.pre_phase, maturity=self.maturity,
                     horizon=self.horizon, target_rate=self.target_rate)
        if self.pre_phase < 0.0 or self.maturity < 0.0:
            raise ConfigurationError("pre_phase and maturity must be >= 0")
        if self.horizon <= self.pre_phase + self.maturity:
            raise ConfigurationError(
                f"horizon {self.horizon} must exceed pre_phase + maturity "
                f"({self.pre_phase + self.maturity})"
            )
        if self.checkpoints is not None and not all(map(math.isfinite, self.checkpoints)):
            raise ConfigurationError(f"checkpoints must be finite, got {list(self.checkpoints)}")

    def resolved_target_rate(self, market: MarketParams) -> float:
        if self.target_rate is not None:
            return self.target_rate
        return market.annualized_target_rate()

    def resolved_checkpoints(self) -> tuple[float, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return (self.pre_phase, self.pre_phase + self.maturity, self.horizon)


@dataclass(frozen=True)
class FlowBlock:
    """A constant external flow in dollars per year, with the horizon and
    path count of its ensemble (the configuration's ``aspp`` block)."""

    flow_rate: float = 0.0
    horizon: float = 3.0
    n_paths: int = 1000

    def __post_init__(self):
        _check_block(self.n_paths, flow_rate=self.flow_rate, horizon=self.horizon)


@dataclass(frozen=True)
class RegimesBlock:
    """Rates, horizon and path count of the flow-regime comparison (the
    configuration's ``regimes`` block).  A ``None`` rate resolves against
    the market: the inflow to the population's initial cash per year, the
    outflow to a quarter of it per year (stronger withdrawals drain the
    market's cash entirely within the horizon)."""

    inflow_rate: Optional[float] = None
    outflow_rate: Optional[float] = None
    horizon: float = 2.0
    n_paths: int = 100

    def __post_init__(self):
        inflow, outflow = self.inflow_rate, self.outflow_rate
        _check_block(self.n_paths, inflow_rate=inflow, outflow_rate=outflow, horizon=self.horizon)
        if (inflow is not None and inflow <= 0.0) or (outflow is not None and outflow >= 0.0):
            raise ConfigurationError("inflow_rate must be positive and outflow_rate negative")

    def flows(self, market: MarketParams) -> dict[str, FlowBlock]:
        """The ``"investment"``, ``"zero"`` and ``"withdrawal"`` flows, in that order."""
        total = market.total_initial_cash()
        inflow = total if self.inflow_rate is None else self.inflow_rate
        outflow = -0.25 * total if self.outflow_rate is None else self.outflow_rate
        return {
            name: FlowBlock(rate, self.horizon, self.n_paths)
            for name, rate in (("investment", inflow), ("zero", 0.0), ("withdrawal", outflow))
        }


class CashSnapshot(NamedTuple):
    time: float
    cash: np.ndarray


@dataclass
class PathRecord:
    """Daily series for one simulated path, plus cash snapshots.

    Day 0 holds the initial state; day ``i`` is at time
    ``i / days_per_year``.  ``flow`` is the external flow actually
    executed each day.  ``log_price`` and ``hazard_total`` (the total
    risk, crash plus investor hazard) are derived on access, so a worker
    sends seven arrays per path.
    """

    price: np.ndarray
    hazard_crash: np.ndarray
    hazard_investor: np.ndarray
    flow: np.ndarray
    withdrawable: np.ndarray
    external_value: np.ndarray
    total_cash: np.ndarray
    snapshots: tuple[CashSnapshot, ...] = ()
    clamp_events: int = 0

    @property
    def log_price(self) -> np.ndarray:
        return np.log(self.price)

    @property
    def hazard_total(self) -> np.ndarray:
        return self.hazard_crash + self.hazard_investor

    def columns(self) -> dict[str, np.ndarray]:
        """Series keyed by their serialization names, in CSV column order."""
        return {
            "price": self.price,
            "log_price": self.log_price,
            "Ha": self.hazard_crash,
            "Hp": self.hazard_investor,
            "H": self.hazard_total,
            "xin": self.flow,
            "R": self.withdrawable,
            "S_ext": self.external_value,
            "total_cash": self.total_cash,
        }


class InvestorLedger:
    """Withdrawable value as investors track it, on the market's clock,
    and the external flow they ask for.

    Day ``d``'s request is its scheduled inflow ``inflows[d]`` less, from
    ``withdraw_day`` on, the tracked value at the target rate.  Per day,
    the tracked value compounds at the realized market rate (annualized
    simple return), is reduced at the target rate once withdrawals are
    on, and receives the inflow credited one maturity ago (``credited``
    holds one per day) marked to the current price.  The ledger books
    what the session executed: on a day the liquidity floor fired it
    drains what was paid out, the day's inflow less the executed flow,
    and on a no-trade day it credits no inflow and so drains nothing.
    """

    def __init__(self, inflows: list[float], withdraw_day: int, target_rate: float,
                 maturity_days: int, period: float):
        self.inflows = inflows
        self.withdraw_day = withdraw_day
        self.target_rate = target_rate
        self.maturity_days = maturity_days
        self.period = period
        self.value = 0.0
        self.credited: list[float] = []

    def request(self, day: int) -> float:
        if day < self.withdraw_day:
            return self.inflows[day]
        return self.inflows[day] - self.target_rate * self.value * self.period

    def record_day(self, day: int, prices: list[float], outcome: SessionOutcome) -> float:
        """Book day ``day``'s session, which moved the price from ``prices[day]``
        to ``prices[day + 1]``; returns the updated withdrawable value."""
        new_price = prices[day + 1]
        realized = (new_price / prices[day] - 1.0) / self.period
        executed, clamped = outcome.cash_flow_in, outcome.clamped
        inflow = 0.0 if clamped and executed == 0.0 else self.inflows[day]
        self.credited.append(inflow)
        m = self.maturity_days
        if m == 0:
            matured = inflow
        elif day >= m:
            # credited at the close of day - m, at the price that session set
            matured = self.credited[day - m] * new_price / prices[day - m + 1]
        else:
            matured = 0.0
        if clamped:
            self.value += self.period * realized * self.value - (inflow - executed) + matured
        else:
            drain = self.target_rate if day >= self.withdraw_day else 0.0
            self.value += self.period * (realized - drain) * self.value + matured
        return self.value


class _Row(NamedTuple):
    """One row of ``_run_days``: its external flow in dollars per year (or
    its investor ledger's daily requests) and its cash snapshot days."""

    flow_rate: float
    checkpoint_days: Collection[int]
    ledger: Optional[InvestorLedger] = None


def _own_holdings(state: MarketState) -> MarketState:
    """``state`` with its own copies of the holdings and targets; the
    greed and fear factors and the stream are shared."""
    return replace(state, stock_value=state.stock_value.copy(), cash=state.cash.copy(),
                   target_ratio=state.target_ratio.copy())


def _walk(
    market: MarketParams,
    hazard: HazardParams,
    day_times: list[float],
    state: MarketState,
    row: _Row,
) -> Generator[None, np.ndarray, PathRecord]:
    """One row's days on ``state``: records day 0, then trades each day's
    active agents as they are sent, and returns the row's record after the
    last day.

    The external flow is ``row.flow_rate`` dollars per year, or each day's
    request of the investor ``row.ledger``.  Without a ledger the ledger
    quantities stay identically zero.  Neither hazard feeds back into
    trading, so both are derived after the loop, from the daily cash
    concentrations and the list of prices (Python floats, which the
    ledger reads).  The concentration's per-agent ``cash_kernel`` is kept
    across days: a session changes the cash of its active agents only, so
    only their entries are recomputed, and the concentration is the
    kernel's mean (the same sum and division as ``cash_concentration``,
    hence the same bits).  A price, investor flow or ledger value that
    overflows ends the row with ``DivergenceError``.
    """
    flow_rate, checkpoint_days, ledger = row
    n_days = len(day_times) - 1
    period = 1.0 / market.days_per_year
    flow = flow_rate * period

    prices = [state.price]
    concentration = np.empty(n_days + 1)
    flows = np.zeros(n_days + 1)
    withdrawable = np.zeros(n_days + 1)
    external_value = np.zeros(n_days + 1)
    total_cash = np.empty(n_days + 1)

    cash_scale = hazard.cash_scale
    kernel = cash_kernel(state.cash, cash_scale)
    concentration[0] = cash_concentration(state.cash, cash_scale)
    total_cash[0] = state.cash.sum()
    external_value[0] = state.external_shares * state.price

    snapshots: list[CashSnapshot] = []
    if 0 in checkpoint_days:
        snapshots.append(CashSnapshot(0.0, state.cash.copy()))

    signal = market.signal
    clamp_events = 0

    for day in range(n_days):
        active = yield
        if ledger is not None:
            flow = ledger.request(day)
            if not math.isfinite(flow):
                raise DivergenceError(day_times[day], f"investor flow overflowed on day {day}")
        state, outcome = trading_session(state, active, flow, signal(day_times[day]))
        clamp_events += outcome.clamped
        kernel[active] = cash_kernel(state.cash[active], cash_scale)
        new_price = state.price
        i = day + 1
        if not math.isfinite(new_price):
            raise DivergenceError(day_times[i], f"price overflowed on day {i}")
        prices.append(new_price)
        flows[i] = outcome.cash_flow_in
        total_cash[i] = state.cash.sum()
        external_value[i] = state.external_shares * new_price
        concentration[i] = kernel.sum() / kernel.size
        if ledger is not None:
            value = ledger.record_day(day, prices, outcome)
            if not math.isfinite(value):
                raise DivergenceError(day_times[i], f"investor ledger overflowed on day {i}")
            withdrawable[i] = value
        if i in checkpoint_days:
            snapshots.append(CashSnapshot(day_times[i], state.cash.copy()))

    price = np.array(prices)
    del prices  # the array replaces the list's float objects
    if ledger is None:
        hazard_investor = np.zeros(n_days + 1)
    else:
        hazard_investor = investor_hazard(
            price, ledger.withdraw_day, ledger.target_rate, period, hazard.shortfall_scale
        )
    return PathRecord(
        price=price,
        hazard_crash=crash_hazard(concentration, hazard),
        hazard_investor=hazard_investor,
        flow=flows,
        withdrawable=withdrawable,
        external_value=external_value,
        total_cash=total_cash,
        snapshots=tuple(snapshots),
        clamp_events=clamp_events,
    )


def _run_days(
    market: MarketParams,
    hazard: HazardParams,
    day_times: list[float],
    seed: tuple[int, int],
    rows: Sequence[_Row],
) -> list[PathRecord | Exception]:
    """The day loop: ``rows`` in lockstep over one population drawn from
    ``seed``, on the days ``day_times`` (day 0 is the initial state).

    One loop sends every row still running (``_walk``) ``None``, which
    records its day 0, then each day's active agents, drawn once while a
    row runs with ``rng.choice(n_agents, n_active, replace=False)`` on the
    population's stream (no-trade days included).  The first row trades
    on the drawn population and every other row on its own copy of the
    holdings and targets (``_own_holdings``), so each row's record has the
    bits of a one-row run of the same seed.  A row that returns or raises
    leaves the loop with its record or exception in its place; the stream
    never depends on a row's state, so the other rows go on with unchanged
    bits.  Returns each row's record or exception, in the order of ``rows``.
    """
    state = init_population(market, seed)
    rng, n_agents, n_active = state.rng, market.n_agents, market.n_active
    states = [state] + [_own_holdings(state) for _ in rows[1:]]
    walks = {k: _walk(market, hazard, day_times, own, row)
             for k, (own, row) in enumerate(zip(states, rows))}
    outcomes: list = [None] * len(rows)
    active = None
    for _ in day_times:
        for k, walk in list(walks.items()):
            try:
                walk.send(active)
            except Exception as exc:  # the row leaves; the stream and the other rows go on
                outcomes[k] = exc.value if isinstance(exc, StopIteration) else exc
                del walks[k]
        if not walks:
            break
        active = rng.choice(n_agents, n_active, replace=False)
    return outcomes


def _only(outcomes: list[PathRecord | Exception]) -> PathRecord:
    """The record of a one-row run, or its row's exception raised."""
    outcome, = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _day_times(market: MarketParams, horizon: float) -> list[float]:
    """Times in years of a run's days ``0 .. n_days``, the horizon rounded
    to whole days.  Raises ``ConfigurationError`` for a horizon whose day
    count is not finite, is below one trading day, or needs more than
    physical memory for one float64 a day, and for a signal window that
    opens on none of the days the loop trades (``0 .. n_days - 1``),
    which would leave greed and fear off for the whole run."""
    dpy = market.days_per_year
    if not math.isfinite(horizon * dpy):
        raise ConfigurationError(
            f"horizon {horizon} at {dpy} trading days a year has no finite day count"
        )
    n_days = int(round(horizon * dpy))
    if n_days < 1:
        raise ConfigurationError(f"horizon {horizon} is below one trading day")
    if 8 * (n_days + 1) > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigurationError(f"horizon {horizon} at {dpy} trading days a year is "
                                 f"{n_days} days, more than physical memory holds")
    times = (np.arange(n_days + 1) / dpy).tolist()
    signal = market.signal
    if signal.level > 0.0 and not any(map(signal, times[:-1])):
        raise ConfigurationError(
            f"market.signal window [{signal.start}, {signal.end}) opens on no trading day "
            f"of the run (days 0 to {n_days - 1} at {dpy} a year; level 0 turns it off)"
        )
    return times


def run_path(
    market: MarketParams,
    hazard: HazardParams,
    schedule: ScheduleSpec,
    cycle: CycleConfig,
    base_seed: int,
    path_index: int,
) -> PathRecord:
    """Simulate one investment-cycle path; fully determined by the
    parameters and (base_seed, path_index).  A zero-mass schedule brings
    no investors, so its path is the zero-flow path of the same seed."""
    day_times = _day_times(market, cycle.horizon)
    n_days = len(day_times) - 1
    dpy = market.days_per_year
    period = 1.0 / dpy
    ledger = None
    if schedule.first_year_total > 0.0:
        invest_day = int(round(cycle.pre_phase * dpy))
        maturity_days = int(round(cycle.maturity * dpy))
        # schedule_eval maps the days before the investment phase (t < 0) to 0
        inflows = schedule_eval(schedule, (np.arange(n_days) - invest_day) / dpy) * period
        # withdrawals start on the day the first inflow matures
        ledger = InvestorLedger(
            inflows.tolist(), invest_day + maturity_days,
            cycle.resolved_target_rate(market), maturity_days, period,
        )
    # clamped to the run in years, so a huge checkpoint cannot overflow its day
    checkpoint_days = {
        int(round(min(max(c, 0.0), cycle.horizon) * dpy)) for c in cycle.resolved_checkpoints()
    }
    return _only(_run_days(
        market, hazard, day_times, (base_seed, path_index), [_Row(0.0, checkpoint_days, ledger)]
    ))


def run_flow_path(
    market: MarketParams,
    hazard: HazardParams,
    flow: FlowBlock | tuple[FlowBlock, ...],
    base_seed: int,
    path_index: int,
) -> PathRecord | list[PathRecord | str]:
    """Simulate one path under the constant external flow of ``flow``
    (dollars per year), with a cash snapshot at the horizon.

    ``flow`` may also be a tuple of flows of one horizon, as in every flow
    unit of ``run_ensembles``: path ``path_index`` of each then runs as one
    row of a lockstep day loop over one population and one subset draw a
    day (``_run_days``), and the result lists, in order, each row's record
    or the ``repr`` of the error that ended it.  Each row has the bits of
    its own one-flow run.
    """
    flows = flow if isinstance(flow, tuple) else (flow,)
    horizon = flows[0].horizon
    if any(f.horizon != horizon for f in flows):
        raise ConfigurationError(f"flows in lockstep need one horizon, got {flows}")
    day_times = _day_times(market, horizon)
    horizon_day = (len(day_times) - 1,)
    outcomes = _run_days(market, hazard, day_times, (base_seed, path_index),
                         [_Row(f.flow_rate, horizon_day) for f in flows])
    if isinstance(flow, tuple):
        return [repr(o) if isinstance(o, Exception) else o for o in outcomes]
    return _only(outcomes)


# Series that keep every path's row for the cross-path spread; the
# others keep a running sum only.
BANDED = ("log_price", "Ha", "Hp")


@dataclass(frozen=True)
class SeriesSummary:
    """Cross-path aggregates of one daily series.  ``std`` and the
    percentiles are ``None`` for the series not in ``BANDED``."""

    mean: np.ndarray
    std: Optional[np.ndarray] = None
    p10: Optional[np.ndarray] = None
    p50: Optional[np.ndarray] = None
    p90: Optional[np.ndarray] = None


class CashHistogram(NamedTuple):
    time: float
    bin_edges: np.ndarray
    counts: np.ndarray


def cash_histogram(time: float, cash: np.ndarray) -> CashHistogram:
    """Counts of ``cash`` in HISTOGRAM_BINS equal bins on [0, max cash]
    ([0, 1] when no agent holds cash)."""
    top = float(cash.max())
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, HISTOGRAM_BINS + 1)
    counts, edges = np.histogram(cash, bins=edges)
    return CashHistogram(time, edges, counts)


@dataclass(frozen=True)
class EnsembleStats:
    """Cross-path aggregates: per-day summary of every tracked series (in
    ``PathRecord.columns`` order), pooled return statistics, merged cash
    histograms, counters, and one ``'path i: error'`` line per failed path."""

    times: np.ndarray
    series: dict[str, SeriesSummary]
    pooled_returns: ReturnStats
    histograms: tuple[CashHistogram, ...]
    theoretical: TheoreticalReturn
    n_paths: int
    clamp_events: int
    failure_messages: tuple[str, ...] = ()


class _EnsembleFold:
    """Ensemble aggregates folded one path at a time, in path-index order.

    Every series keeps a running sum from +0.0: adding the rows one at a
    time in index order and dividing by the count gives the same bits as
    ``np.stack(rows).mean(axis=0)`` (rows of -0.0 included) for rows of two
    or more entries, and a path has at least two days.  Only the ``BANDED``
    series keep each path's row, in a (paths x days) array of zeros
    allocated at the first row that is not +0.0 on every day; a series
    without such a row (``Hp`` of a flow ensemble, which has no investors)
    keeps no array.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.count = 0
        self.sums: dict[str, np.ndarray] = {}
        self.rows: dict[str, np.ndarray] = {}
        self.snapshots: dict[float, list[np.ndarray]] = {}
        self.clamp_events = 0
        self.failures: list[tuple[int, str]] = []  # (path index, repr of the error)

    def add(self, index: int, outcome: PathRecord | str) -> None:
        """Fold path ``index``'s record, or list its error text as a failure."""
        if isinstance(outcome, str):
            self.failures.append((index, outcome))
            return
        columns = outcome.columns()
        for name, column in columns.items():
            self.sums[name] = self.sums.get(name, 0.0) + column
        for name in BANDED:
            column = columns[name]
            if name not in self.rows:
                if not (column.any() or np.signbit(column).any()):  # +0.0 every day
                    continue
                self.rows[name] = np.zeros((self.capacity, column.size))
            self.rows[name][self.count] = column
        for snap in outcome.snapshots:
            self.snapshots.setdefault(snap.time, []).append(snap.cash)
        self.clamp_events += outcome.clamp_events
        self.count += 1


def _aggregate(
    fold: _EnsembleFold, market: MarketParams
) -> EnsembleStats | EnsembleFailedError:
    """Finish a fold: means, the banded series' spread, pooled returns
    and merged cash histograms, or the ``EnsembleFailedError`` of a fold
    whose every path failed.  The fold's snapshots and rows are released
    as they are summarized, and the log-price rows before the pooled
    returns' temporaries, so the fold cannot be finished twice."""
    failure_messages = tuple(f"path {i}: {error}" for i, error in fold.failures)
    count = fold.count
    if not count:
        return EnsembleFailedError(
            failure_messages,
            "all paths failed: " + "; ".join(error for _, error in fold.failures[:3]),
        )
    histograms = tuple(
        cash_histogram(time, np.concatenate(fold.snapshots.pop(time)))
        for time in sorted(fold.snapshots)
    )

    def banded_rows(name: str) -> np.ndarray:
        """The rows of ``name``, released from the fold: a read-only view
        of +0.0 for a series that kept none."""
        rows = fold.rows.pop(name, None)
        if rows is None:
            return np.broadcast_to(0.0, (count, fold.sums[name].size))
        return rows[:count]

    log_price = banded_rows("log_price")
    series: dict[str, SeriesSummary] = {}
    for name, total in fold.sums.items():
        mean = total / count
        if name not in BANDED:
            series[name] = SeriesSummary(mean)
            continue
        rows = log_price if name == "log_price" else banded_rows(name)
        p10, p50, p90 = np.percentile(rows, [10.0, 50.0, 90.0], axis=0)
        series[name] = SeriesSummary(mean, rows.std(axis=0), p10, p50, p90)
    returns = np.diff(log_price, axis=1).ravel()
    del rows, log_price
    return EnsembleStats(
        times=np.arange(fold.sums["price"].size) / market.days_per_year,
        series=series,
        pooled_returns=stats_from_log_returns(returns),
        histograms=histograms,
        theoretical=market.theoretical(),
        n_paths=count,
        clamp_events=fold.clamp_events,
        failure_messages=failure_messages,
    )


def _attempt(path: Callable[[int], object], index: int) -> object:
    """Path ``index`` of ``path``: what it returns (its record, or its flow
    rows' records and error texts), or the ``repr`` of the exception that
    ended it.  As text, an error that does not survive pickling fails its
    path in a worker, not the pool."""
    try:
        return path(index)
    except Exception as exc:  # path errors are reported, not fatal
        return repr(exc)


def _collect(
    units: list[tuple[Callable[[int], object], int, int]], n_workers: int, market: MarketParams
) -> list[EnsembleStats | EnsembleFailedError]:
    """Run each unit ``(path, n_paths, n_rows)``'s path function on path
    indices ``0 .. n_paths - 1`` and aggregate each of its rows; a row
    whose every path failed gives its ``EnsembleFailedError``.  Returns
    the rows' results, unit after unit.

    A cycle unit's function returns the path's record; a flow unit's, of
    one row or more, a list of one record or error text per row, as
    ``run_flow_path`` does for a tuple of flows.  An error that ends the
    whole call fails the path in every row of its unit.

    Every path runs through ``_attempt``: serially with ``map``, or with
    ``pool.map`` in one pool of at most one worker per task and per CPU
    this process may run on (its affinity set, where the platform has
    one), one task per path index of a unit.  Both yield in index order,
    so each row is folded in index order and its failures are the same
    for any worker count.  Each outcome is folded into its row's fold and
    dropped in turn, and a unit's rows are aggregated as soon as its last
    index is folded, so the parent holds few records and one unit's rows
    at any time.  A worker process that dies breaks the pool, which ends
    the run instead of failing the paths left; an error in the parent
    cancels the paths not yet started."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    paths = [path for path, n, _ in units for _ in range(n)]
    indices = [i for _, n, _ in units for i in range(n)]
    n_workers = min(n_workers, len(paths), cpus)
    pool = ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        outcomes = (pool.map if pool else map)(_attempt, paths, indices)
        results = []
        for _, n_paths, n_rows in units:
            folds = [_EnsembleFold(n_paths) for _ in range(n_rows)]
            for i, outcome in zip(range(n_paths), outcomes):
                if not isinstance(outcome, list):  # one row's, or the whole unit's error
                    outcome = [outcome] * n_rows
                for fold, row in zip(folds, outcome):
                    fold.add(i, row)
            results += [_aggregate(fold, market) for fold in folds]
        return results
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_ensembles(
    market: MarketParams,
    hazard: HazardParams,
    schedule: ScheduleSpec,
    blocks: dict[str, CycleConfig | FlowBlock],
    base_seed: int,
    n_workers: int = 1,
) -> dict[str, EnsembleStats | EnsembleFailedError]:
    """Run ``block.n_paths`` independent paths of each block and aggregate
    each block's paths, by name in the order of ``blocks``.

    A ``CycleConfig`` block runs investment-cycle paths under ``schedule``
    (``run_path``); a ``FlowBlock`` runs constant-flow paths with the cash
    histogram at the horizon (``run_flow_path``), as each regime of
    ``RegimesBlock.flows`` does.  Flow blocks that share their horizon and
    path count (the three regimes) run as rows of one unit, and a lone
    one as a unit of one row: one ``run_flow_path`` call per path index
    with the unit's tuple of flows, over one population and one stream.
    Every block's day grid is checked before any path runs: a horizon or
    signal that cannot run is a configuration error, not a failure of
    every path.  A block whose every path failed maps to its
    ``EnsembleFailedError`` and the other blocks still run; an outflow as
    strong as the initial cash per year, for one, exhausts the market and
    fails every path with ``LiquidityExhaustedError``.

    Aggregates are indexed by path number, so the result is identical for
    any worker count and execution order; a count below 1 is a
    configuration error.
    """
    if n_workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n_workers}")
    groups: dict[object, list[str]] = {}  # the names of each unit's rows
    for name, block in blocks.items():
        _day_times(market, block.horizon)
        key = (block.horizon, block.n_paths) if isinstance(block, FlowBlock) else (name,)
        groups.setdefault(key, []).append(name)
    units = []
    for names in groups.values():
        block = blocks[names[0]]
        if isinstance(block, CycleConfig):
            path = partial(run_path, market, hazard, schedule, block, base_seed)
        else:
            flows = tuple(blocks[name] for name in names)
            path = partial(run_flow_path, market, hazard, flows, base_seed)
        units.append((path, block.n_paths, len(names)))
    results = dict(zip((name for names in groups.values() for name in names),
                       _collect(units, n_workers, market)))
    return {name: results[name] for name in blocks}


class CalibrationResult(NamedTuple):
    """The fitted coefficient, the scheme's trajectory at it, and the
    RMSE of that trajectory against the observed series."""

    market_impact: float
    rmse: float
    solution: OdeSolution


def investment_phase_series(
    times: np.ndarray, values: np.ndarray, pre_phase: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slice a daily series to the investor clock (zero at investment
    start).  Raises ValueError unless the series is finite and has a row
    at ``pre_phase`` and at least three rows from it on a uniform grid."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be equal-length 1-d arrays")
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("times and values must be finite")
    slack = step_slack(pre_phase)  # the whole-day rule of the phases
    start = int(np.searchsorted(times, pre_phase - slack))
    if start == times.size or abs(times[start] - pre_phase) > slack:
        raise ValueError(f"no row at the end of the warm-up, t = {pre_phase}")
    tau = times[start:] - times[start]
    if tau.size < 3:
        raise ValueError(f"{tau.size} rows from the end of the warm-up; at least 3 are needed")
    if not np.allclose(np.diff(tau), tau[1], rtol=0.0, atol=1e-9):
        raise ValueError("times must form a uniform grid")
    return tau, values[start:]


def fit_market_impact(
    times: np.ndarray,
    external_value: np.ndarray,
    schedule: ScheduleSpec,
    target_rate: float,
    maturity: float,
    bracket: tuple[float, float],
    tol: float = 1e-3,
) -> CalibrationResult:
    """Calibrate the flow-response coefficient of the speculative scheme.

    Minimizes the RMSE between the scheme's capital trajectory and the
    observed external investment value (both on the investor clock, same
    daily grid) by golden-section search on the log of the coefficient.
    The search ends once the bracket is narrower than ``tol`` or stops
    narrowing (at float resolution); the result carries its final solve,
    at the fitted coefficient.  Raises BracketError when the minimum sits
    at a bracket edge, and DivergenceError when that solve diverges.
    """
    low, high = bracket
    if not 0.0 < low < high:
        raise ConfigurationError(f"bracket must satisfy 0 < low < high, got ({low}, {high})")
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    times, external_value = investment_phase_series(times, external_value, 0.0)
    step = float(times[1] - times[0])
    horizon = float(times[-1])
    start_capital = max(float(external_value[0]), 0.0)

    def solve(log_impact: float) -> OdeSolution:
        params = SpeculativePonziParams(
            market_impact=math.exp(log_impact),
            withdrawal_rate=target_rate,
            maturity=maturity,
            initial_capital=start_capital,
        )
        return speculative_ponzi_solve(params, schedule, horizon, step)

    def rmse(sol: OdeSolution) -> float:
        residual = sol.capital - external_value
        return math.sqrt(float(np.mean(residual * residual)))

    def objective(log_impact: float) -> float:
        try:
            return rmse(solve(log_impact))
        except DivergenceError:
            return math.inf  # blown-up candidates lose to any finite fit

    a, b = math.log(low), math.log(high)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    width = math.inf
    while tol < b - a < width:  # a bracket that stops narrowing is at float resolution
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    best = 0.5 * (a + b)
    margin = max(tol, 1e-12) * 2.0
    if best - math.log(low) < margin or math.log(high) - best < margin:
        raise BracketError(
            f"fitted coefficient {math.exp(best):.6g} sits at the edge of the "
            f"bracket ({low}, {high}); widen the bracket"
        )
    solution = solve(best)
    return CalibrationResult(math.exp(best), rmse(solution), solution)
