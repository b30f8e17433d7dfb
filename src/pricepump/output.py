"""Bit-stable serialization of simulation and solver output.

Every table (ensemble series, cash histograms, ODE solutions) goes to
CSV through one writer: a header of column names, then one row per
entry with floats printed with 17 significant digits, so re-parsing
recovers the in-memory values exactly and identical (config, seed) runs
produce byte-identical files.  Each
run also writes a JSON manifest recording the configuration hash, seed,
code version, and clamp/failure counters; manifests carry no wall-clock
information.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .cycle import EnsembleStats
from .ponzi import OdeSolution


def _write_csv(path: Path, table: dict[str, np.ndarray]) -> Path:
    """Write equal-length columns under a header of their names."""
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g", delimiter=",",
               header=",".join(table), comments="")
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Every JSON file of a run: indented, keys sorted, newline-terminated."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_ensemble(stats: EnsembleStats, out_dir: Path, basename: str = "ensemble") -> list[Path]:
    table = {"t": stats.times}
    for name, summary in stats.series.items():
        table[f"{name}_mean"] = summary.mean
        if summary.p10 is not None:  # a banded series
            for stat in ("p10", "p50", "p90"):
                table[f"{name}_{stat}"] = getattr(summary, stat)
    files = [_write_csv(out_dir / f"{basename}.csv", table)]

    if stats.histograms:
        histograms = stats.histograms
        files.append(_write_csv(out_dir / f"{basename}_cash_hist.csv", {
            "checkpoint_t": np.repeat([h.time for h in histograms],
                                      [h.counts.size for h in histograms]),
            "bin_lo": np.concatenate([h.bin_edges[:-1] for h in histograms]),
            "bin_hi": np.concatenate([h.bin_edges[1:] for h in histograms]),
            "count": np.concatenate([h.counts for h in histograms]),
        }))

    files.append(write_json(out_dir / f"{basename}_returns.json", {
        "pooled": asdict(stats.pooled_returns),
        "predicted": stats.theoretical._asdict(),
    }))
    return files


def write_ode_solution(sol: OdeSolution, out_dir: Path, basename: str = "ode") -> list[Path]:
    table = {"t": sol.grid, "S": sol.capital, "R": sol.withdrawable}
    if sol.nominal_rate is not None:
        table["r_n"] = sol.nominal_rate
    if sol.log_growth is not None:
        table["J"] = sol.log_growth
    return [_write_csv(out_dir / f"{basename}.csv", table)]


def emit_series(obj, out_dir: str | Path, basename: str | None = None) -> list[Path]:
    """Serialize an ensemble or a solver solution into ``out_dir``;
    returns the files written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, EnsembleStats):
        return write_ensemble(obj, out, basename or "ensemble")
    if isinstance(obj, OdeSolution):
        return write_ode_solution(obj, out, basename or "ode")
    raise TypeError(f"no serializer for {type(obj).__name__}")


def write_manifest(
    out_dir: str | Path,
    config_sha256: str,
    seed: int,
    counters: dict[str, int] | None = None,
    extra: dict | None = None,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config_sha256": config_sha256,
        "seed": seed,
        "version": __version__,
        "counters": dict(sorted((counters or {}).items())),
    }
    if extra:
        payload.update(extra)
    return write_json(out / "manifest.json", payload)


def read_csv_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Read one of this package's CSV files back into named float arrays;
    a table without data rows is a ValueError."""
    path = Path(path)
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if not any(line.partition("#")[0].strip() for line in handle):
            raise ValueError("no data rows below the header")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"header has {len(header)} fields, rows have {data.shape[1]}")
    return {name: data[:, i] for i, name in enumerate(header)}
