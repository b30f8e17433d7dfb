"""Shared fixtures: the heavyweight Monte Carlo ensembles are computed
once per session and reused by the unit and acceptance tests."""
import math
import time

import pytest

from pricepump import (
    CycleConfig,
    ExperimentConfig,
    FlowBlock,
    GreedFearSpec,
    HazardParams,
    MarketParams,
    run_ensemble,
    run_flow_ensemble,
)

WORKERS = 4


@pytest.fixture(scope="session")
def reference_zero_ensemble():
    """Zero-flow ensemble at the reference configuration: 100 paths x 2 years."""
    market = MarketParams()
    start = time.perf_counter()
    stats = run_flow_ensemble(
        market, HazardParams(), FlowBlock(0.0, 2.0, 100), 20240, n_workers=WORKERS
    )
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def homogeneous_ensemble():
    """Zero-flow ensemble with identical factors (1.02, 1.01): 100 paths x 2 years."""
    market = MarketParams(
        greed_fear=GreedFearSpec(math.log(1.02), math.log(1.01), 0.0, 1.0)
    )
    start = time.perf_counter()
    stats = run_flow_ensemble(
        market, HazardParams(), FlowBlock(0.0, 2.0, 100), 777, n_workers=WORKERS
    )
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def cycle_ensemble():
    """Full investment cycle at the reference configuration: 100 paths x 20 years."""
    cfg = ExperimentConfig(kind="cycle", seed=42, cycle=CycleConfig(n_paths=100))
    start = time.perf_counter()
    stats = run_ensemble(
        cfg.market, cfg.hazard, cfg.schedule, cfg.cycle, cfg.seed, n_workers=WORKERS
    )
    return cfg, stats, time.perf_counter() - start
