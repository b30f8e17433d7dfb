"""Command-line entry points.

One verb per experiment, each declared once in ``_VERBS`` with the
configuration kinds it runs (the first is the default, for a
configuration without ``kind``), its ensemble block and its command:
``simulate`` (constant-flow market ensemble), ``regimes`` (investment /
zero / withdrawal comparison), ``cycle`` (full investment cycle),
``ponzi`` (either scheme's trajectory, classical by default), ``fit-c0``
(calibrate the flow-response coefficient against ensemble output), and
``stats`` (return statistics of a stored price series).  All verbs read
a JSON configuration (optional; defaults are complete), write CSV/JSON
plus ``manifest.json`` and ``config.json`` into the output directory,
and exit 0 on success.  Failures print a machine-readable JSON error
record to stderr and exit non-zero (2 for a configuration error, such as
a kind the verb does not run, ``--threads`` below 1, or an input table
that cannot be read or used, as one without rows or with a value that is
not finite; 3 for a failed run; 1 otherwise, as when a worker process dies);
ensemble verbs first write a run record listing every failed path.
Only the ensemble verbs (``simulate``, ``regimes``, ``cycle``,
``fit-c0``) take ``--paths`` and ``--threads``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .config import (
    ExperimentConfig,
    config_hash,
    load_config_data,
    parse_config,
    serialize_config,
)
from .cycle import (
    EnsembleStats, RegimesBlock, fit_market_impact, investment_phase_series, run_ensembles,
)
from .errors import ConfigurationError, EnsembleFailedError, PricePumpError, whole_steps
from .output import emit_series, read_csv_columns, write_json, write_manifest
from .ponzi import (
    SpeculativePonziParams,
    classical_ponzi_solve,
    collapse_time,
    speculative_ponzi_solve,
    steady_state_rate,
)
from .risk import return_stats


class _Verb(NamedTuple):
    kinds: tuple[str, ...]  # the configuration kinds it runs; the first is the default
    block: Optional[str]  # the ensemble block whose n_paths --paths sets; None: no ensemble
    command: Callable[[argparse.Namespace, ExperimentConfig, Path], object]


def _load(args) -> ExperimentConfig:
    verb = _VERBS[args.verb]
    if args.config:
        cfg = parse_config(args.config, verb.kinds[0])
    else:
        cfg = load_config_data({}, verb.kinds[0])
    if cfg.kind not in verb.kinds:
        runs = " or ".join(map(repr, verb.kinds))
        raise ConfigurationError(f"{args.verb} runs configuration kind {runs}, not {cfg.kind!r}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if verb.block is not None and args.paths is not None:
        block = dataclasses.replace(getattr(cfg, verb.block), n_paths=args.paths)
        cfg = dataclasses.replace(cfg, **{verb.block: block})
    return cfg


def _table_error(key: str, path: str, reason: object) -> ConfigurationError:
    """The error of an input table that cannot be used: the configuration
    key that names it and its path, once, then the reason."""
    return ConfigurationError(f"{key} {path}: {reason}")


def _read_table(key: str, path: str) -> dict:
    """The CSV file named by the configuration key ``key``; one that cannot
    be read or parsed is a configuration error."""
    try:
        return read_csv_columns(path)
    except OSError as exc:  # its text would name the path again
        raise _table_error(key, path, exc.strerror or exc) from exc
    except ValueError as exc:
        raise _table_error(key, path, exc) from exc


def _write_run_record(
    out: Path, cfg: ExperimentConfig, counters: dict[str, int], extra: dict | None = None
) -> None:
    """Every verb's ``manifest.json`` and ``config.json``."""
    write_manifest(out, config_hash(cfg), cfg.seed, counters, extra)
    (out / "config.json").write_text(serialize_config(cfg) + "\n")


def _write_ensembles(
    out: Path, cfg: ExperimentConfig, results: dict[str, EnsembleStats | EnsembleFailedError]
) -> None:
    """Write each finished ensemble into ``out / name`` and the run record,
    whose ``path_failures`` lists every failed path (by name, unless the
    one ensemble is named ``""``); then raise if an ensemble failed whole."""
    counters: dict[str, int] = {}
    failures = {}
    for name, result in results.items():
        prefix = f"{name}_" if name else ""
        if isinstance(result, EnsembleStats):
            emit_series(result, out / name)
            counters[f"{prefix}clamp_events"] = result.clamp_events
        counters[f"{prefix}path_failures"] = len(result.failure_messages)
        if result.failure_messages:
            failures[name] = list(result.failure_messages)
    extra = {"path_failures": failures.get("", failures)} if failures else None
    _write_run_record(out, cfg, counters, extra)
    failed = {name: r for name, r in results.items() if isinstance(r, EnsembleFailedError)}
    if "" in failed:
        raise failed[""]
    if failed:
        raise PricePumpError("; ".join(f"regime '{name}': {exc}" for name, exc in failed.items()))


def _run_ensembles(args, cfg: ExperimentConfig, out: Path) -> dict[str, EnsembleStats]:
    """Run the verb's ensembles (the three flows of a regimes block, else
    its one block) in one call and write them with the run record."""
    block = getattr(cfg, _VERBS[args.verb].block)
    blocks = block.flows(cfg.market) if isinstance(block, RegimesBlock) else {"": block}
    results = run_ensembles(
        cfg.market, cfg.hazard, cfg.schedule, blocks, cfg.seed, n_workers=args.threads
    )
    _write_ensembles(out, cfg, results)
    return results


def _by_field_name(cls, block):
    """``cls`` built from the fields of ``block`` that share its field names."""
    return cls(**{f.name: getattr(block, f.name) for f in dataclasses.fields(cls)})


def _cmd_ponzi(args, cfg: ExperimentConfig, out: Path) -> None:
    p = cfg.ponzi
    if cfg.kind == "ponzi-speculative":
        if not 0.0 < 2.0 * p.steady_window <= p.horizon:
            raise ConfigurationError(f"ponzi.steady_window {p.steady_window} must be positive "
                                     f"and at most half of ponzi.horizon {p.horizon}")
        sol = speculative_ponzi_solve(
            _by_field_name(SpeculativePonziParams, p), cfg.schedule, p.horizon, p.step
        )
        steady = steady_state_rate(sol, p.steady_window)
        results = {
            "collapse_time": collapse_time(sol),
            "steady_rate": steady.rate,
            "steady_spread": steady.spread,
        }
    else:
        # the block is PonziParams plus the solver's fields
        sol = classical_ponzi_solve(p, cfg.schedule, p.horizon, p.step)
        results = {"collapse_time": collapse_time(sol)}
    emit_series(sol, out)
    _write_run_record(out, cfg, {})
    write_json(out / "results.json", results)


def _require_whole_days(cfg: ExperimentConfig) -> None:
    """Reject, before any path runs, a ``pre_phase`` or ``maturity`` off
    the daily grid: the day loop rounds both to days, while the fit slices
    the series at ``pre_phase`` and lags the scheme by ``maturity``."""
    dpy = cfg.market.days_per_year
    for name in ("pre_phase", "maturity"):
        value = getattr(cfg.cycle, name)
        whole_steps(value, 1.0 / dpy,
                    f"cycle.{name} {value} must be a whole number of trading days (1/{dpy} year)")


def _cmd_fit(args, cfg: ExperimentConfig, out: Path) -> None:
    _require_whole_days(cfg)
    pre_phase, source = cfg.cycle.pre_phase, cfg.fit.source_csv
    if source:
        table = _read_table("fit.source_csv", source)
        column = "S_ext_mean" if "S_ext_mean" in table else "S_ext"
        if column not in table:
            raise _table_error("fit.source_csv", source,
                               f"no column 'S_ext_mean' or 'S_ext'; found {sorted(table)}")
        try:
            tau, observed = investment_phase_series(table["t"], table[column], pre_phase)
        except ValueError as exc:  # not finite, too few rows, an uneven grid, none at pre_phase
            raise _table_error("fit.source_csv", source, exc) from exc
        _write_run_record(out, cfg, {})
    else:
        ens = _run_ensembles(args, cfg, out)[""]
        tau, observed = investment_phase_series(ens.times, ens.series["S_ext"].mean, pre_phase)
    target_rate = cfg.cycle.resolved_target_rate(cfg.market)
    result = fit_market_impact(
        tau,
        observed,
        cfg.schedule,
        target_rate,
        cfg.cycle.maturity,
        (cfg.fit.bracket_low, cfg.fit.bracket_high),
        tol=cfg.fit.tol,
    )
    emit_series(result.solution, out, basename="fitted_ode")
    write_json(
        out / "fit.json",
        {
            "market_impact": result.market_impact,
            "rmse": result.rmse,
            "bracket": [cfg.fit.bracket_low, cfg.fit.bracket_high],
            "target_rate": target_rate,
        },
    )


def _cmd_stats(args, cfg: ExperimentConfig, out: Path) -> None:
    if not cfg.stats.input_csv:
        raise ConfigurationError("stats requires 'stats.input_csv'")
    source = cfg.stats.input_csv
    table = _read_table("stats.input_csv", source)
    column = cfg.stats.price_column
    if column not in table:
        raise _table_error("stats.input_csv", source, f"no column {column!r}; found {sorted(table)}")
    try:
        measured = return_stats(table[column])
    except ValueError as exc:  # too few prices, or one not finite and positive
        raise _table_error("stats.input_csv", source, exc) from exc
    predicted = cfg.market.theoretical()
    _write_run_record(out, cfg, {})
    write_json(
        out / "stats.json",
        {
            "measured": dataclasses.asdict(measured),
            "predicted": {
                "daily_factor": predicted.daily_factor,
                "annualized_factor": predicted.daily_factor ** cfg.market.days_per_year,
                "volatility": predicted.volatility,
            },
        },
    )


_VERBS = {
    "simulate": _Verb(("aspp",), "aspp", _run_ensembles),
    "regimes": _Verb(("regimes",), "regimes", _run_ensembles),
    "cycle": _Verb(("cycle",), "cycle", _run_ensembles),
    "ponzi": _Verb(("ponzi-classical", "ponzi-speculative"), None, _cmd_ponzi),
    "fit-c0": _Verb(("fit-c0",), "cycle", _cmd_fit),
    "stats": _Verb(("stats",), None, _cmd_stats),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricepump",
        description="Speculative-bubble market simulator and scheme-dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, spec in _VERBS.items():
        p = sub.add_parser(verb)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory (default: config 'out' or ./out)")
        p.add_argument("--seed", type=int, help="override the configured seed")
        if spec.block is None:
            continue
        p.add_argument("--paths", type=int,
                       help="override the configured path count (config.json records it)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="parallel workers (at most one per path and per CPU); results are "
            "identical for any value",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        _VERBS[args.verb].command(args, cfg, Path(args.out or cfg.out or "out"))
        return 0
    except ConfigurationError as exc:
        _report_error(exc)
        return 2
    except PricePumpError as exc:
        _report_error(exc)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _report_error(exc)
        return 1


def _report_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
