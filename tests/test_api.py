"""The package's public names, and the module attributes the benchmark's
tracer (``bench/run.py --trace 1``) wraps: an API cleanup that drops one
of them must fail here, not silently in a traced benchmark run."""
import pricepump
from pricepump import cli, config, cycle, ponzi

# (module, attribute path) pairs wrapped or read by the tracer
TRACED = [
    (cli, "main"),
    (cli, "parse_config"),
    (cli, "serialize_config"),
    (cli, "emit_series"),
    (cli, "write_manifest"),
    (config, "parse_config"),
    (config, "serialize_config"),
    (cycle, "run_path"),
    (cycle, "run_flow_path"),
    (cycle, "init_population"),
    (cycle, "trading_session"),
    (cycle, "cash_concentration"),
    (cycle, "crash_hazard"),
    (cycle, "schedule_eval"),
    (cycle, "InvestorLedger.record_day"),
    (cycle, "_aggregate"),
    (cycle, "stats_from_log_returns"),
    (cycle, "speculative_ponzi_solve"),
    (cycle, "fit_market_impact"),
    (ponzi, "speculative_ponzi_solve"),
    (ponzi, "classical_ponzi_solve"),
    (ponzi, "critical_exponent"),
]


def test_every_public_name_resolves():
    missing = [name for name in pricepump.__all__ if not hasattr(pricepump, name)]
    assert missing == []
    assert len(set(pricepump.__all__)) == len(pricepump.__all__)


def test_traced_attributes_exist():
    missing = []
    for module, path in TRACED:
        owner = module
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module.__name__}.{path}")
    assert missing == []
    assert isinstance(ponzi.DEFAULT_STEP, float)
    assert issubclass(pricepump.DivergenceError, Exception)
