"""Market parameters, state, correlated greed/fear sampling, and signals.

The market is a population of portfolio-rebalancing traders, held as
parallel arrays with one entry per agent in ``MarketState``.  Each agent
holds stock (stored as its dollar value at the current price and revalued
multiplicatively every session), cash, a private target stock-to-cash
ratio, and a pair of multiplicative target-update factors: ``greed``
(applied after selling) and ``fear`` (applied after buying).  There is
no per-agent object: a session reads and writes the arrays at its
active indices.  Factor pairs are drawn once per population from a
correlated log-normal distribution restricted to factors >= 1.
``MarketParams`` (the configuration's ``market`` block) describes the
population, and its ``signal`` (a ``WindowSignal``, the one signal
class) scales the greed/fear intensity over time.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_finite
from .risk import TheoreticalReturn, theoretical_return

_MAX_REDRAW_ROUNDS = 1000


@dataclass(frozen=True)
class GreedFearSpec:
    """Joint distribution of the log greed/fear factors.

    Both coordinates are normal with a shared variance and the given
    correlation.  Samples with a negative coordinate are redrawn, so
    factors stay >= 1.  The means must sit at least three standard
    deviations above zero, which keeps the redraw probability per sample
    below 0.5% and makes the truncation practically invisible in the
    sample moments.  The defaults are the reference distribution: means
    ln(1.12) and ln(1.11), shared variance 12e-4, correlation 0.95.
    """

    mean_log_greed: float = math.log(1.12)
    mean_log_fear: float = math.log(1.11)
    log_variance: float = 12e-4
    correlation: float = 0.95

    def __post_init__(self):
        check_finite(mean_log_greed=self.mean_log_greed, mean_log_fear=self.mean_log_fear,
                     log_variance=self.log_variance)
        if self.log_variance < 0.0:
            raise ConfigurationError(f"log_variance must be >= 0, got {self.log_variance}")
        if not -1.0 <= self.correlation <= 1.0:
            raise ConfigurationError(
                f"correlation must lie in [-1, 1], got {self.correlation}"
            )
        margin = 3.0 * math.sqrt(self.log_variance)
        for name, mean in (("mean_log_greed", self.mean_log_greed),
                           ("mean_log_fear", self.mean_log_fear)):
            if mean - margin < 0.0:
                raise ConfigurationError(
                    f"{name} must be at least three standard deviations above zero "
                    f"(got {mean} with sd {margin / 3.0:.6g})"
                )


@dataclass(frozen=True)
class WindowSignal:
    """Greed/fear intensity in [0, 1] over time (years): ``level`` for
    start <= t < end, zero elsewhere.  A session scales each factor to
    1 + (factor - 1) * level, so at zero signal the effective factors are
    exactly 1 and target ratios never move.  The default window spans
    every day at full intensity; ``WindowSignal(level=L)`` holds every
    day at ``L``.  A window must open on some day: ``start < end`` and
    ``end > 0`` (times are never negative); ``level = 0`` is the way to
    turn the signal off."""

    start: float = 0.0
    end: float = math.inf
    level: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise ConfigurationError(f"signal level must lie in [0, 1], got {self.level}")
        if not self.start < self.end or self.end <= 0.0:
            raise ConfigurationError(
                f"market.signal window [{self.start}, {self.end}) never opens: it needs "
                "start < end and end > 0 (set level to 0 to turn the signal off)"
            )

    def __call__(self, t: float) -> float:
        return self.level if self.start <= t < self.end else 0.0


@dataclass(frozen=True)
class MarketParams:
    """Population and engine parameters shared by all experiments."""

    n_agents: int = 500
    n_active: int = 125
    initial_cash: float = 10.0
    initial_ratio: float = 1.0
    stock_noise_range: float = 0.1
    days_per_year: int = 360
    greed_fear: GreedFearSpec = GreedFearSpec()
    signal: WindowSignal = WindowSignal()

    def __post_init__(self):
        check_finite(initial_cash=self.initial_cash, initial_ratio=self.initial_ratio,
                     stock_noise_range=self.stock_noise_range)
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")
        if not 1 <= self.n_active <= self.n_agents:
            raise ConfigurationError(
                f"n_active must be in [1, {self.n_agents}], got {self.n_active}"
            )
        if self.initial_cash <= 0.0:
            raise ConfigurationError(f"initial_cash must be positive, got {self.initial_cash}")
        if self.initial_ratio <= 0.0:
            raise ConfigurationError(f"initial_ratio must be positive, got {self.initial_ratio}")
        if self.stock_noise_range < 0.0:
            raise ConfigurationError(
                f"stock_noise_range must be >= 0, got {self.stock_noise_range}"
            )
        if self.days_per_year < 1:
            raise ConfigurationError(f"days_per_year must be >= 1, got {self.days_per_year}")

    def total_initial_cash(self) -> float:
        return self.n_agents * self.initial_cash

    def mean_factors(self) -> tuple[float, float]:
        """Factors at the mean log-levels of the population distribution."""
        gf = self.greed_fear
        return math.exp(gf.mean_log_greed), math.exp(gf.mean_log_fear)

    def theoretical(self) -> TheoreticalReturn:
        greed, fear = self.mean_factors()
        return theoretical_return(greed, fear, self.n_agents, self.n_active)

    def annualized_target_rate(self) -> float:
        """Continuous yearly rate matching the predicted daily factor."""
        return self.days_per_year * math.log(self.theoretical().daily_factor)


def sample_greed_fear(
    spec: GreedFearSpec, n: int, rng: np.random.Generator | int | Sequence[int]
) -> np.ndarray:
    """Draw ``n`` (greed, fear) factor pairs; returns an (n, 2) array.

    Log-factors are bivariate normal with equal variances; draws with a
    negative log-coordinate are rejected and redrawn.  ``rng`` is a
    generator or a seed for ``np.random.default_rng``; identical
    (spec, n, seed) produce identical output.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    rng = np.random.default_rng(rng)
    logs = np.empty((n, 2))
    sd = math.sqrt(spec.log_variance)
    if sd == 0.0:
        logs[:, 0] = spec.mean_log_greed
        logs[:, 1] = spec.mean_log_fear
        return np.exp(logs)
    rho = spec.correlation
    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    pending = np.arange(n)
    for _ in range(_MAX_REDRAW_ROUNDS):
        if pending.size == 0:
            return np.exp(logs)
        z = rng.standard_normal((pending.size, 2))
        log_greed = spec.mean_log_greed + sd * z[:, 0]
        log_fear = spec.mean_log_fear + sd * (rho * z[:, 0] + mix * z[:, 1])
        logs[pending, 0] = log_greed
        logs[pending, 1] = log_fear
        pending = pending[(log_greed < 0.0) | (log_fear < 0.0)]
    raise RuntimeError("factor sampling failed to converge; check the 3-sigma margin")


@dataclass
class MarketState:
    """Full market: per-agent arrays, the price, and the path's random stream.

    Stock is stored as dollar value at the current price; share counts
    are ``stock_value / price``.  ``external_shares`` tracks the stock
    held by the outside-investor pool, so total shares are conserved
    across sessions.  ``rng`` has no default: every state is given its
    generator, so no market draws from an unseeded stream.
    """

    stock_value: np.ndarray
    cash: np.ndarray
    target_ratio: np.ndarray
    greed: np.ndarray
    fear: np.ndarray
    price: float = 1.0
    day: int = 0
    external_shares: float = 0.0
    rng: np.random.Generator = field(kw_only=True, repr=False)

    @property
    def n_agents(self) -> int:
        return int(self.stock_value.shape[0])

    def total_cash(self) -> float:
        return float(self.cash.sum())

    def total_shares(self) -> float:
        """Agent shares plus the external pool; invariant across sessions."""
        return float(self.stock_value.sum() / self.price + self.external_shares)


def init_population(
    market: MarketParams, seed: np.random.Generator | int | Sequence[int]
) -> MarketState:
    """Build the starting population of ``market``.

    Every agent holds ``initial_cash`` in cash and
    ``initial_cash * initial_ratio`` plus a uniform perturbation from
    [0, stock_noise_range) in stock; factor pairs come from
    ``greed_fear``.  Prices start at 1 and the external pool is empty.

    The state's stream is ``np.random.default_rng(seed)`` (a generator is
    used as it is).  Path ``i`` of an ensemble with seed ``s`` draws from
    ``np.random.default_rng((s, i))``: the factor pairs first, then the
    stock perturbations, then one ``choice`` of the active agents per
    day, no-trade days included, which the day loop draws once for every
    row it runs on that population (the three regimes of a path index).
    So a path's bits depend only on ``(s, i)``, never on the worker count
    or the order paths run in.
    """
    n_agents = market.n_agents
    rng = np.random.default_rng(seed)
    pairs = sample_greed_fear(market.greed_fear, n_agents, rng)
    noise = rng.uniform(0.0, market.stock_noise_range, n_agents)
    return MarketState(
        stock_value=market.initial_cash * market.initial_ratio + noise,
        cash=np.full(n_agents, float(market.initial_cash)),
        target_ratio=np.full(n_agents, float(market.initial_ratio)),
        greed=pairs[:, 0].copy(),
        fear=pairs[:, 1].copy(),
        rng=rng,
    )
