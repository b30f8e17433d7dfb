"""Shared fixtures: the heavyweight Monte Carlo ensembles are computed
once per session and reused by the unit and acceptance tests."""
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

# Hypothesis's pytest plugin imports this module to report a failing
# example, and the import warns (a DeprecationWarning from
# mypy_extensions).  Under filterwarnings = ["error"] that warning would
# end the session with INTERNALERROR instead of reporting the failure, so
# the module is imported here once, with that warning ignored for this
# import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

import pricepump
from pricepump import (
    CycleConfig,
    ExperimentConfig,
    FlowBlock,
    GreedFearSpec,
    HazardParams,
    MarketParams,
    ScheduleSpec,
    run_ensembles,
)

WORKERS = 4


@pytest.fixture(scope="session")
def reference_zero_ensemble():
    """Zero-flow ensemble at the reference configuration: 100 paths x 2 years."""
    market = MarketParams()
    start = time.perf_counter()
    stats = run_ensembles(
        market, HazardParams(), ScheduleSpec(), FlowBlock(0.0, 2.0, 100), 20240,
        n_workers=WORKERS,
    )[""]
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def homogeneous_ensemble():
    """Zero-flow ensemble with identical factors (1.02, 1.01): 100 paths x 2 years."""
    market = MarketParams(
        greed_fear=GreedFearSpec(math.log(1.02), math.log(1.01), 0.0, 1.0)
    )
    start = time.perf_counter()
    stats = run_ensembles(
        market, HazardParams(), ScheduleSpec(), FlowBlock(0.0, 2.0, 100), 777,
        n_workers=WORKERS,
    )[""]
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def cycle_ensemble():
    """Full investment cycle at the reference configuration: 100 paths x 20 years."""
    cfg = ExperimentConfig(kind="cycle", seed=42, cycle=CycleConfig(n_paths=100))
    start = time.perf_counter()
    stats = run_ensembles(
        cfg.market, cfg.hazard, cfg.schedule, cfg.cycle, cfg.seed, n_workers=WORKERS
    )[""]
    return cfg, stats, time.perf_counter() - start


@pytest.fixture
def run_isolated():
    """Run Python ``code`` in a fresh interpreter and return what it prints,
    parsed as JSON.  A call that outlives ``timeout`` seconds fails the
    test instead of hanging the suite."""
    src = str(Path(pricepump.__file__).resolve().parents[1])

    def run(code: str, timeout: float) -> object:
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=timeout, env=env, check=True)
        return json.loads(done.stdout)
    return run
