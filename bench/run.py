"""Benchmark of pricepump: one workload per invocation.

    python3 bench/run.py --workload cycle-ref --seed 1 --seconds 35 --trace 0

The benchmark writes the workload's JSON configuration from ``--seed`` and
drives the package in-process through its public entry points.  With
``--trace 0`` it repeats the workload untraced for ``--seconds`` and
reports the end-to-end metrics of the fastest pass and the median set-up
time of fresh processes; with ``--trace 1`` it runs one
timed pass on all workers, one untraced serial pass and one traced serial
pass, and reports the per-module metrics.  Every pass is checked.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the full record (environment, samples, counts, problems) goes to
``.bench_out/results/`` under the repository root.  ``bench/README.md``
explains the workloads and the module -> metric -> workload table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CPUS = sorted(os.sched_getaffinity(0))
WORKERS = min(2, len(CPUS))
SETUP_REPS = 9
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Acceptance bounds (criteria 06 and 10), unchanged.
RECOVERY_RTOL = 0.05
CRITICAL_TARGET, CRITICAL_ATOL = 0.41, 0.02
# Settings of criteria 06 and 10: bisection horizon and tolerance, and the
# investor-clock horizon of the generated calibration series.
CRITICAL_HORIZON, CRITICAL_TOL = 60.0, 0.005
FIT_HORIZON = 17.0
# Mean total cash may differ from its start plus the cumulative mean flow
# only by rounding.
CASH_RTOL = 1e-11

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import pricepump.cli
from pricepump.config import parse_config
parse_config(sys.argv[1])
print(time.perf_counter() - start)
"""


@dataclass
class Pass:
    """One checked execution of a workload."""

    wall: float
    cpu_self: float
    cpu_children: float
    units: int  # paths or public calls checked
    failed_units: int
    digest: str
    counts: dict
    problems: list[str] = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return self.cpu_self + self.cpu_children


def _clocks() -> tuple[float, float, float]:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time(), children.ru_utime + children.ru_stime


def _timed(fn):
    """Run ``fn`` and return (result, wall, self CPU, children CPU)."""
    wall0, self0, child0 = _clocks()
    result = fn()
    wall1, self1, child1 = _clocks()
    return result, wall1 - wall0, self1 - self0, child1 - child0


@contextmanager
def on_cpu(index: int):
    """Keep this process, and what it starts, on CPU ``index`` (round robin).

    Other tenants load the CPUs of a shared machine unequally, so a
    single-process step runs at the speed of whichever CPU it lands on.
    Rotating the CPU makes every run sample each of them.
    """
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class MarketWorkload:
    """A CLI verb run in-process on a generated configuration."""

    parallel = True  # passes use the worker pool

    def __init__(self, name: str, verb: str, config: dict, pp):
        self.name, self.verb, self.pp = name, verb, pp
        self.config_path = OUT / name / "config-in.json"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        cfg = pp.config.parse_config(self.config_path)
        block = cfg.cycle if verb == "cycle" else cfg.regimes
        self.n_paths = block.n_paths * (1 if verb == "cycle" else 3)
        self.steps = self.n_paths * int(round(block.horizon * cfg.market.days_per_year))

    def run_pass(self, out: Path, workers: int) -> Pass:
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.verb, "--config", str(self.config_path), "--out", str(out),
                "--threads", str(workers)]
        rc, wall, cpu_self, cpu_children = _timed(lambda: self.pp.cli.main(argv))
        problems = [] if rc == 0 else [f"pricepump {self.verb} exited with {rc}"]
        counts: dict = {"path_days": self.steps}
        path_failures = 0
        if rc == 0:
            counts.update(json.loads((out / "manifest.json").read_text())["counters"])
            problems += self._check_cash(out)
            path_failures = sum(v for k, v in counts.items() if k.endswith("path_failures"))
        failed = self.n_paths if problems else path_failures
        if path_failures:
            problems.append(f"manifest reports {path_failures} path failures")
        return Pass(wall, cpu_self, cpu_children, self.n_paths, failed,
                    _digest(out) if rc == 0 else "", counts, problems)

    def _check_cash(self, out: Path) -> list[str]:
        np = self.pp.np
        files = sorted(out.rglob("ensemble.csv"))
        if len(files) != (1 if self.verb == "cycle" else 3):
            return [f"expected ensemble.csv files, found {len(files)}"]
        problems = []
        for path in files:
            table = self.pp.output.read_csv_columns(path)
            cash = table["total_cash_mean"]
            drift = (cash - cash[0]) - np.cumsum(table["xin_mean"])
            error = float(np.max(np.abs(drift))) / float(np.max(np.abs(cash)))
            if not error <= CASH_RTOL:
                problems.append(
                    f"{path.relative_to(out)}: mean total_cash departs from the "
                    f"cumulative mean xin by {error:.3g} relative (> {CASH_RTOL})"
                )
        return problems


class PonziWorkload:
    """Calibration and solver calls made directly, with no market engine."""

    CALLS = 6  # generate, fit, critical exponent, three 40-year solves
    parallel = False

    def __init__(self, seed: int, pp):
        self.name, self.pp = "ponzi-calib", pp
        # the generating coefficient varies with the seed around criterion 10's 0.001
        known = 1e-3 * random.Random(seed).uniform(0.9, 1.1)
        config = {
            "kind": "fit-c0",
            "seed": seed,
            "schedule": {"kind": "exponential", "first_year_total": 1000.0, "growth": 0.1},
            "cycle": {"maturity": 3.0},
            "fit": {"bracket_low": 1e-4, "bracket_high": 1e-2, "tol": 1e-3},
            "ponzi": {"nominal_rate": 0.0, "promised_rate": 0.41, "withdrawal_rate": 0.41,
                      "maturity": 3.0, "initial_capital": 0.0, "market_impact": known,
                      "horizon": 40.0},
        }
        self.config_path = OUT / self.name / "config-in.json"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        self.steps = 0  # RK4 steps of one pass, counted by a traced pass

    def _calls(self, out: Path) -> dict:
        pp = self.pp
        cfg = pp.config.parse_config(self.config_path)
        p, schedule, maturity = cfg.ponzi, cfg.schedule, cfg.cycle.maturity
        target = cfg.market.annualized_target_rate()
        generated = pp.ponzi.speculative_ponzi_solve(
            pp.SpeculativePonziParams(p.market_impact, target, maturity, 0.0),
            schedule, FIT_HORIZON, p.step,
        )
        fit = pp.cycle.fit_market_impact(
            generated.grid, generated.capital, schedule, target, maturity,
            (cfg.fit.bracket_low, cfg.fit.bracket_high), tol=cfg.fit.tol,
        )
        critical = pp.ponzi.critical_exponent(
            pp.PonziParams(p.nominal_rate, p.promised_rate, p.withdrawal_rate, p.maturity,
                           p.initial_capital),
            CRITICAL_HORIZON, CRITICAL_TOL, step=p.step,
        )
        solves = {}
        for kind in pp.SCHEDULE_KINDS:
            sol = pp.ponzi.speculative_ponzi_solve(
                pp.SpeculativePonziParams(p.market_impact, p.withdrawal_rate, p.maturity,
                                          p.initial_capital),
                pp.ScheduleSpec(kind, schedule.first_year_total, schedule.growth),
                p.horizon, p.step,
            )
            solves[kind] = {
                "nodes": len(sol.grid),
                "finite": bool(pp.np.all(pp.np.isfinite(sol.capital))),
                "final_capital": float(sol.capital[-1]),
            }
        result = {
            "known_market_impact": p.market_impact,
            "recovered_market_impact": fit.market_impact,
            "rmse": fit.rmse,
            "critical_exponent": critical,
            "solves_40y": solves,
            "expected_nodes": int(round(p.horizon / p.step)) + 1,
        }
        out.mkdir(parents=True)
        (out / "calib.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        (out / "config.json").write_text(pp.config.serialize_config(cfg) + "\n")
        return result

    def run_pass(self, out: Path, workers: int) -> Pass:
        shutil.rmtree(out, ignore_errors=True)
        try:
            result, wall, cpu_self, cpu_children = _timed(lambda: self._calls(out))
        except Exception as exc:  # a failing call fails the pass; the run reports it
            return Pass(0.0, 0.0, 0.0, self.CALLS, self.CALLS, "", {},
                        [f"ponzi-calib raised {exc!r}"])
        problems = []
        recovery = abs(result["recovered_market_impact"] / result["known_market_impact"] - 1)
        if not recovery < RECOVERY_RTOL:
            problems.append(f"coefficient recovered to {recovery:.2%} (bound {RECOVERY_RTOL:.0%})")
        if not abs(result["critical_exponent"] - CRITICAL_TARGET) <= CRITICAL_ATOL:
            problems.append(f"critical exponent {result['critical_exponent']:.4f} outside "
                            f"{CRITICAL_TARGET} +/- {CRITICAL_ATOL}")
        for kind, solve in result["solves_40y"].items():
            if not (solve["finite"] and solve["nodes"] == result["expected_nodes"]):
                problems.append(f"40-year {kind} solve incomplete or non-finite")
        return Pass(wall, cpu_self, cpu_children, self.CALLS, len(problems), _digest(out),
                    {}, problems)


def _count_clamps(tracer, args, kwargs, result, exc):
    if result is not None and result[1].clamped:
        tracer.counts["engine.clamps"] += 1


def _count_bytes(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["output.bytes_written"] += sum(p.stat().st_size for p in result)


def _count_steps(prefix, default_step, divergence):
    def hook(tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.counts[prefix + ".steps"] += len(result.grid) - 1
        elif isinstance(exc, divergence):
            step = kwargs.get("step", args[3] if len(args) > 3 else default_step)
            # the step that produced the non-finite state was taken too
            tracer.counts[prefix + ".steps"] += int(round(exc.last_time / step)) + 1
            tracer.counts[prefix + ".diverged"] += 1
    return hook


def install_spans(tracer: Tracer, pp) -> None:
    """Wrap each module's public functions where the package looks them up."""
    cli, config, cycle, ponzi = pp.cli, pp.config, pp.cycle, pp.ponzi
    for owner in (cli, config):  # config: ponzi-calib's own lookups
        tracer.wrap(owner, "parse_config", "config.parse")
        tracer.wrap(owner, "serialize_config", "config.serialize")
    tracer.wrap(cycle, "run_path", "cycle.path")
    tracer.wrap(cycle, "run_flow_path", "cycle.path")
    tracer.wrap(cycle, "init_population", "market.init_population")
    tracer.wrap(cycle, "trading_session", "engine.trading_session", _count_clamps)
    tracer.wrap(cycle, "cash_concentration", "risk.cash_concentration")
    tracer.wrap(cycle, "crash_hazard", "risk.crash_hazard")
    tracer.wrap(cycle, "schedule_eval", "schedules.schedule_eval")
    tracer.wrap(cycle.InvestorLedger, "record_day", "cycle.ledger.record_day")
    tracer.wrap(cycle, "_aggregate", "cycle.aggregate")
    tracer.wrap(cycle, "stats_from_log_returns", "risk.stats_from_log_returns")
    tracer.wrap(cli, "emit_series", "output.emit_series", _count_bytes)
    tracer.wrap(cli, "write_manifest", "output.write_manifest")
    speculative = _count_steps("ponzi.speculative_solve", ponzi.DEFAULT_STEP, pp.DivergenceError)
    for owner in (cycle, ponzi):  # cycle: the calibration objective's lookup
        tracer.wrap(owner, "speculative_ponzi_solve", "ponzi.speculative_solve", speculative)
    tracer.wrap(ponzi, "classical_ponzi_solve", "ponzi.classical_solve",
                _count_steps("ponzi.classical_solve", ponzi.DEFAULT_STEP, pp.DivergenceError))
    tracer.wrap(ponzi, "critical_exponent", "ponzi.critical_exponent")
    tracer.wrap(cycle, "fit_market_impact", "cycle.fit")


def layer_metrics(summary: dict, counts, utilization: float, overhead: float) -> dict:
    def get(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name) / calls * 1e6 if calls else 0.0

    def per_step_us(name):
        steps = counts[name + ".steps"]
        return get(name) / steps * 1e6 if steps else 0.0

    sessions = get("engine.trading_session", "calls")
    path_s = get("cycle.path")
    fit_children = summary.get("cycle.fit", {}).get("child_calls", {})
    return {
        "engine.trading_session.calls": (sessions, "count"),
        "engine.trading_session.us": (per_call_us("engine.trading_session"), "us"),
        "engine.trading_session.share": (
            get("engine.trading_session") / path_s if path_s else 0.0, "ratio"),
        "engine.clamps": (counts["engine.clamps"], "count"),
        "risk.cash_concentration.us": (per_call_us("risk.cash_concentration"), "us"),
        "risk.crash_hazard.us": (per_call_us("risk.crash_hazard"), "us"),
        "schedules.schedule_eval.calls": (get("schedules.schedule_eval", "calls"), "count"),
        "schedules.schedule_eval.us": (per_call_us("schedules.schedule_eval"), "us"),
        "cycle.ledger.record_day.us": (per_call_us("cycle.ledger.record_day"), "us"),
        "cycle.day_loop.self_us": (
            get("cycle.path", "self_s") / sessions * 1e6 if sessions else 0.0, "us"),
        "market.init_population.calls": (get("market.init_population", "calls"), "count"),
        "market.init_population.us": (per_call_us("market.init_population"), "us"),
        "cycle.aggregate.s": (get("cycle.aggregate"), "s"),
        "cycle.worker_utilization": (utilization, "ratio"),
        "risk.stats_from_log_returns.ms": (get("risk.stats_from_log_returns") * 1e3, "ms"),
        "output.emit_series.s": (get("output.emit_series"), "s"),
        "output.bytes_written": (counts["output.bytes_written"], "bytes"),
        "output.write_manifest.ms": (get("output.write_manifest") * 1e3, "ms"),
        "ponzi.speculative_solve.calls": (get("ponzi.speculative_solve", "calls"), "count"),
        "ponzi.speculative_solve.step_us": (per_step_us("ponzi.speculative_solve"), "us"),
        "ponzi.speculative_solve.diverged": (counts["ponzi.speculative_solve.diverged"], "count"),
        "ponzi.classical_solve.calls": (get("ponzi.classical_solve", "calls"), "count"),
        "ponzi.classical_solve.step_us": (per_step_us("ponzi.classical_solve"), "us"),
        "ponzi.critical_exponent.s": (get("ponzi.critical_exponent"), "s"),
        "cycle.fit.objective_evals": (fit_children.get("ponzi.speculative_solve", 0), "count"),
        "cycle.fit.s": (get("cycle.fit"), "s"),
        "config.parse.ms": (get("config.parse") * 1e3, "ms"),
        "config.serialize.ms": (get("config.serialize") * 1e3, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def traced_pass(workload, out: Path, pp) -> tuple[Pass, Tracer]:
    with Tracer() as tracer:
        install_spans(tracer, pp)
        traced = workload.run_pass(out, 1)
    return traced, tracer


def _src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(pp) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": pp.np.__version__,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_hash(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def measure_setup(config_path: Path) -> float:
    """Import pricepump and load the configuration in a fresh process."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def check_counts(workload: str, seed: int, src_hash: str, counts: dict) -> list[str]:
    """Flag counts that differ from an earlier run of the same seed and code."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{src_hash[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"count {key} = {counts[key]} differs from an earlier run's {stored[key]}"
                for key in sorted(counts.keys() & stored.keys()) if counts[key] != stored[key]]
    path.write_text(json.dumps({**stored, **counts}, indent=2, sort_keys=True) + "\n")
    return problems


def run_timed(workload, seconds: float, pp) -> tuple[dict, list[Pass], dict, list[str]]:
    problems: list[str] = []
    counts: dict = {}
    if isinstance(workload, PonziWorkload):
        counted, tracer = traced_pass(workload, OUT / workload.name / "counted", pp)
        workload.steps = sum(v for k, v in tracer.counts.items() if k.endswith(".steps"))
        counts = {**tracer.counts, "digest": counted.digest}
        problems += counted.problems
    setup: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    # Start a pass only when it should end within the measuring time.  Set-up
    # samples are spread over that time so that they meet the same machine
    # load as the passes.
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            with on_cpu(len(setup)):
                setup.append(measure_setup(workload.config_path))
        with nullcontext() if workload.parallel else on_cpu(len(passes)):
            passes.append(workload.run_pass(OUT / workload.name / "timed", WORKERS))
    while len(setup) < SETUP_REPS:
        with on_cpu(len(setup)):
            setup.append(measure_setup(workload.config_path))
    for p in passes:
        problems += p.problems
    counts.setdefault("digest", passes[0].digest)
    counts.update(passes[0].counts)
    for i, p in enumerate(passes):
        if p.digest != counts["digest"] or p.counts != passes[0].counts:
            problems.append(f"pass {i} output or counts differ from the first pass")
            p.failed_units = p.units
    # Other tenants of a shared machine slow whole stretches of passes by up
    # to 2x; they only ever add time, so the fastest pass is the steadiest
    # estimate of the program's own cost.  All samples go to the record.
    wall = min(p.wall for p in passes)
    cpu = min(p.cpu for p in passes)
    steps = max(workload.steps, 1)
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "step_us": (wall / steps * 1e6, "us"),
        "step_cpu_us": (cpu / steps * 1e6, "us"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    samples = {"setup_s": setup, "wall_s": [p.wall for p in passes],
               "cpu_s": [p.cpu for p in passes]}
    return metrics, passes, {"counts": counts, "samples": samples}, problems


def run_traced(workload, pp) -> tuple[dict, list[Pass], dict, list[str]]:
    base = OUT / workload.name
    passes = []
    if workload.parallel:
        passes.append(workload.run_pass(base / "parallel", WORKERS))
    with on_cpu(0):  # the overhead ratio compares two passes on one CPU
        serial = workload.run_pass(base / "serial", 1)
        traced, tracer = traced_pass(workload, base / "traced", pp)
    passes += [serial, traced]
    problems = [msg for p in passes for msg in p.problems]
    if any(p.digest != traced.digest or p.counts != traced.counts for p in passes):
        problems.append("outputs or counters differ between the timed, serial and traced passes")
    counts = {**tracer.counts, "digest": traced.digest, **traced.counts}
    summary = tracer.summary()
    if isinstance(workload, MarketWorkload):
        sessions = summary["engine.trading_session"]["calls"]
        clamps = sum(v for k, v in traced.counts.items() if k.endswith("clamp_events"))
        if sessions != workload.steps or tracer.counts["engine.clamps"] != clamps:
            problems.append(f"traced {sessions} sessions and {tracer.counts['engine.clamps']} "
                            f"clamps; expected {workload.steps} and {clamps}")
        utilization = passes[0].cpu_children / (WORKERS * passes[0].wall)
    else:
        utilization = 0.0
    overhead = traced.wall / serial.wall if serial.wall > 0 else 0.0
    metrics = layer_metrics(summary, tracer.counts, utilization, overhead)
    plain_summary = {name: {**entry, "child_calls": dict(entry["child_calls"])}
                     for name, entry in summary.items()}
    return metrics, passes, {"counts": counts, "spans": plain_summary}, problems


def load_package():
    """Import pricepump from this checkout's ``src``; None when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import pricepump
        import pricepump.cli
        import pricepump.config
        import pricepump.cycle
        import pricepump.output
        import pricepump.ponzi
        from pricepump.schedules import SCHEDULE_KINDS
    except ImportError as exc:
        print(f"error: cannot import pricepump from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC.resolve() not in Path(pricepump.__file__).resolve().parents:
        print(f"error: pricepump was imported from {pricepump.__file__}, not {SRC}", file=sys.stderr)
        return None
    return argparse.Namespace(
        np=np, cli=pricepump.cli, config=pricepump.config, cycle=pricepump.cycle,
        output=pricepump.output, ponzi=pricepump.ponzi, SCHEDULE_KINDS=SCHEDULE_KINDS,
        PonziParams=pricepump.PonziParams, SpeculativePonziParams=pricepump.SpeculativePonziParams,
        ScheduleSpec=pricepump.ScheduleSpec, DivergenceError=pricepump.DivergenceError,
    )


WORKLOADS = {
    "cycle-ref": lambda seed, pp: MarketWorkload(
        "cycle-ref", "cycle", {"kind": "cycle", "seed": seed, "cycle": {"n_paths": 16}}, pp),
    "regimes-short": lambda seed, pp: MarketWorkload(
        "regimes-short", "regimes",
        {"kind": "regimes", "seed": seed, "regimes": {"n_paths": 48, "horizon": 2.0}}, pp),
    "ponzi-calib": lambda seed, pp: PonziWorkload(seed, pp),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pp = load_package()
    if pp is None:
        return 2
    workload = WORKLOADS[args.workload](args.seed, pp)
    env = environment(pp)
    if args.trace:
        metrics, passes, record, problems = run_traced(workload, pp)
    else:
        metrics, passes, record, problems = run_timed(workload, args.seconds, pp)
    problems += check_counts(workload.name, args.seed, env["src_sha256"], record["counts"])
    attempted = sum(p.units for p in passes)
    failed = sum(p.failed_units for p in passes)
    if problems and failed == 0:
        failed = attempted
    correct = not problems

    print(f"{workload.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"workers={WORKERS} nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} ({failed} of {attempted})")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "environment": env,
         "problems": problems, **result, **record}, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
