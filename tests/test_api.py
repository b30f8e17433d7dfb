"""The package's public names, and what the benchmark (``bench/run.py``)
uses of the package: the module attributes its tracer wraps, the
configuration documents it writes and the attributes it reads from them,
the return values its span hooks read, and the constructors it calls with
positional arguments.  An API cleanup that breaks one of them must fail
here, not in a benchmark run; one that breaks README's library quick
start must fail here too."""
import argparse
import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pricepump
from pricepump import cli, config, cycle, ponzi

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_quick_start_uses_public_names():
    # compiled, not run: the block runs a 100-path, 20-year ensemble
    readme = README.read_text()
    block, = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    tree = compile(block, "README.md", "exec", ast.PyCF_ONLY_AST)
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "pp"}
    assert used and sorted(used - set(pricepump.__all__)) == []


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


def wrapped_targets(node, loops=None):
    """``(owner, attribute)`` of every ``tracer.wrap(owner, "attribute", ...)``
    under ``node``, an owner bound by an enclosing ``for`` over a tuple
    giving one pair per element."""
    loops = dict(loops or {})
    if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
        loops[ast.unparse(node.target)] = [ast.unparse(e) for e in node.iter.elts]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap" and ast.unparse(node.func.value) == "tracer"):
        owner = ast.unparse(node.args[0])
        for name in loops.get(owner, [owner]):
            yield name, node.args[1].value
    for child in ast.iter_child_nodes(node):
        yield from wrapped_targets(child, loops)


def test_every_benchmark_wrap_is_traced():
    # reads the benchmark's own source, so that a wrap whose target is
    # renamed or removed fails here, not in a traced benchmark run
    source = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    wrapped = set()
    for owner, attribute in wrapped_targets(ast.parse(source.read_text())):
        module, _, path = owner.partition(".")
        wrapped.add((module, f"{path}.{attribute}" if path else attribute))
    traced = {(module.__name__.rpartition(".")[2], path) for module, path in TRACED}
    assert ("cycle", "InvestorLedger.record_day") in wrapped
    assert wrapped - traced == set()


# The configuration documents the benchmark's workloads write, and the
# attributes of each block the benchmark reads back.
BENCH_DOCUMENTS = [
    {"kind": "cycle", "seed": 1, "cycle": {"n_paths": 16}},
    {"kind": "regimes", "seed": 1, "regimes": {"n_paths": 48, "horizon": 2.0}},
    {
        "kind": "fit-c0",
        "seed": 1,
        "schedule": {"kind": "exponential", "first_year_total": 1000.0, "growth": 0.1},
        "cycle": {"maturity": 3.0},
        "fit": {"bracket_low": 1e-4, "bracket_high": 1e-2, "tol": 1e-3},
        "ponzi": {"nominal_rate": 0.0, "promised_rate": 0.41, "withdrawal_rate": 0.41,
                  "maturity": 3.0, "initial_capital": 0.0, "market_impact": 1e-3,
                  "horizon": 40.0},
    },
]
BENCH_ATTRIBUTES = {
    "cycle": ("n_paths", "horizon", "maturity"),
    "regimes": ("n_paths", "horizon"),
    "market": ("days_per_year",),
    "schedule": ("first_year_total", "growth"),
    "ponzi": ("nominal_rate", "promised_rate", "withdrawal_rate", "maturity",
              "initial_capital", "market_impact", "horizon", "step"),
    "fit": ("bracket_low", "bracket_high", "tol"),
}


@pytest.mark.parametrize("document", BENCH_DOCUMENTS, ids=lambda d: d["kind"])
def test_benchmark_configuration_reads(document):
    cfg = config.load_config_data(document)
    missing = [f"{block}.{name}" for block, names in BENCH_ATTRIBUTES.items()
               for name in names if not hasattr(getattr(cfg, block), name)]
    assert missing == []
    assert isinstance(cfg.market.annualized_target_rate(), float)


def test_benchmark_positional_constructors():
    speculative, classical = pricepump.SpeculativePonziParams, pricepump.PonziParams
    assert speculative(1e-3, 0.4, 2.0, 0.5) == speculative(
        market_impact=1e-3, withdrawal_rate=0.4, maturity=2.0, initial_capital=0.5
    )
    assert classical(0.01, 0.42, 0.3, 2.0, 1.5) == classical(
        nominal_rate=0.01, promised_rate=0.42, withdrawal_rate=0.3, maturity=2.0,
        initial_capital=1.5,
    )
    assert pricepump.ScheduleSpec("linear", 111.0, 0.2) == pricepump.ScheduleSpec(
        kind="linear", first_year_total=111.0, growth=0.2
    )


def test_benchmark_return_shapes(tmp_path):
    # the clamp counter reads the session's outcome, the byte counter
    # stats every path emit_series returns
    market = pricepump.MarketParams(n_agents=8, n_active=2)
    stream = np.random.default_rng(1)
    state = pricepump.init_population(market, stream)
    active = stream.choice(market.n_agents, market.n_active, replace=False)
    outcome = pricepump.trading_session(state, active, 0.0)[1]
    assert type(outcome.clamped) is bool
    assert pricepump.SessionOutcome._fields == ("cash_flow_in", "clamped")
    ensemble = pricepump.run_ensembles(
        market, pricepump.HazardParams(), pricepump.ScheduleSpec(),
        pricepump.FlowBlock(0.0, 0.1, 1), 1,
    )[""]
    solution = ponzi.classical_ponzi_solve(
        pricepump.PonziParams(0.0, 0.41, 0.41, 1.0, 1.0), pricepump.ScheduleSpec(), 2.0, 0.5
    )
    for result in (ensemble, solution):
        files = cli.emit_series(result, tmp_path / type(result).__name__)
        assert isinstance(files, list) and files
        assert all(path.is_file() for path in files)


@pytest.mark.parametrize("verb,n_ensembles", [("simulate", 1), ("regimes", 3), ("cycle", 1)])
def test_benchmark_counts_one_session_per_path_day(tmp_path, monkeypatch, verb, n_ensembles):
    # the trace wraps these names where cycle looks them up, and checks one
    # session per path-day; the three regimes of a path index run as rows
    # of one path call over one population
    calls = Counter()

    def counting(name):
        original = getattr(cycle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("run_flow_path", "run_path", "trading_session", "init_population"):
        monkeypatch.setattr(cycle, name, counting(name))
    horizon, n_paths, days_per_year = 0.1, 2, 360
    block = "aspp" if verb == "simulate" else verb
    document = {
        "kind": block,
        "market": {"n_agents": 20, "n_active": 5, "days_per_year": days_per_year},
        "aspp": {"horizon": horizon, "n_paths": n_paths},
        "regimes": {"horizon": horizon, "n_paths": n_paths},
        "cycle": {"pre_phase": 0.0, "maturity": 0.05, "horizon": horizon, "n_paths": n_paths},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    argv = [verb, "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "1"]
    assert cli.main(argv) == 0
    cfg = config.parse_config(path)
    n_paths = getattr(cfg, block).n_paths
    paths = n_paths * n_ensembles
    path_function = "run_path" if verb == "cycle" else "run_flow_path"
    assert calls == {
        path_function: n_paths,
        "init_population": n_paths,
        "trading_session": paths * int(round(horizon * cfg.market.days_per_year)),
    }


def test_every_verb_is_one_subcommand():
    # the parser's subcommands, and which of them take --paths, come from
    # the one verb table
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._VERBS)
    for name, verb in cli._VERBS.items():
        flags = {flag for action in sub.choices[name]._actions for flag in action.option_strings}
        assert ("--paths" in flags) == ("--threads" in flags) == (verb.block is not None)


def test_readme_verb_table_matches_the_verbs():
    # each row of README's verb table: the verb, its kinds (default first)
    # and the block whose n_paths --paths sets, in the table's order
    header = "| verb | kinds (default first) | `--paths` sets |\n|---|---|---|\n"
    table = README.read_text().split(header, 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines():
        verb, kinds, paths = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append((verb, tuple(kind.strip("`") for kind in kinds.split(", ")), paths))
    assert rows == [
        (name, verb.kinds, "(no ensemble)" if verb.block is None else f"{verb.block}.n_paths")
        for name, verb in cli._VERBS.items()
    ]


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; the test extras (scipy,
    # hypothesis) are installed wherever this suite runs, so a stray import
    # of one of them would pass here and break a numpy-only install
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    imported = set()
    for module in Path(pricepump.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                imported.update((module.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((module.name, node.module))
    assert sorted(entry for entry in imported if entry[1].partition(".")[0] not in allowed) == []


def test_experiment_kinds_are_the_verbs_kinds():
    # declared twice: once for the configuration, once per verb
    assert config.EXPERIMENT_KINDS == tuple(
        kind for verb in cli._VERBS.values() for kind in verb.kinds)
