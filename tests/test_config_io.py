import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pricepump import (
    ConfigurationError,
    CycleConfig,
    FlowBlock,
    HazardParams,
    MarketParams,
    ScheduleSpec,
    SpeculativePonziParams,
    WindowSignal,
    __version__,
    config_hash,
    config_to_dict,
    emit_series,
    load_config_data,
    parse_config,
    read_csv_columns,
    run_ensembles,
    run_flow_path,
    serialize_config,
    speculative_ponzi_solve,
    write_manifest,
)
from pricepump import cycle as cycle_module
from pricepump import cli
from pricepump.cli import main
from pricepump.config import EXPERIMENT_KINDS, FitBlock
from pricepump.ponzi import PonziParams, classical_ponzi_solve
from pricepump.schedules import SCHEDULE_KINDS
from tests.test_cycle import recording_pool, set_cpus

ROUND_TRIP_FIXTURE = {
    "kind": "cycle",
    "seed": 7,
    "market": {
        "n_agents": 64,
        "n_active": 16,
        "signal": {"start": 1.0, "end": 2.0},
    },
    "schedule": {"kind": "linear", "first_year_total": 111.0},
    "cycle": {"horizon": 9.0, "checkpoints": [1.0, 9.0]},
}

# Hashes and text of released configurations: a change to any of them
# changes the identity of every stored run.  Each equals the hash of the
# configuration before the signal union was removed, with its
# ``market.signal`` rewritten to the window form (a constant signal at
# level L as {"start": 0.0, "end": Infinity, "level": L}) and the removed
# ``ponzi.literal_rate_coupling`` key deleted.
PINNED_DEFAULT_HASHES = {
    "aspp": "2416fb4f9a60d2e6990646aae8b2fee252d92caf123cb63c3fbcd87004212941",
    "regimes": "ec5815024e7d4b19b0c612952946ff15481c47961756f3e0722c21c9c34f965e",
    "cycle": "6032e41814c57a946852cf57b06c4143eae7fc2ca66d68982497c7807475ef23",
    "ponzi-classical": "f18884a116bd0fd6af83a9f491d59e2d0d77242984a8c740d27f5249d816a2b8",
    "ponzi-speculative": "0f28b0adbac80cce34af0dc0a1c746ed850b861dc7f6f3d412dde31709f7fb47",
    "fit-c0": "1c68a497aff03325076f4cae206c47fc4a539b10808a36c95a755cc726d7893c",
    "stats": "449b62f30a27062d9b652b0c952012b0e22ea3f5c71d8afe6fc72020a6c46063",
}
PINNED_FIXTURE_HASH = "eaafc776342c64e18a78faf95b443c8e0c0e5c5ed81b7f2007b0964812e94aec"
PINNED_FIXTURE_TEXT = """{
  "aspp": {
    "flow_rate": 0.0,
    "horizon": 3.0,
    "n_paths": 1000
  },
  "cycle": {
    "checkpoints": [
      1.0,
      9.0
    ],
    "horizon": 9.0,
    "maturity": 3.0,
    "n_paths": 1000,
    "pre_phase": 3.0,
    "target_rate": null
  },
  "fit": {
    "bracket_high": 0.01,
    "bracket_low": 1e-05,
    "source_csv": null,
    "tol": 0.001
  },
  "hazard": {
    "cap": 1000000.0,
    "cash_scale": 70.0,
    "crash_scale": 5.0,
    "shortfall_scale": 1.0
  },
  "kind": "cycle",
  "market": {
    "days_per_year": 360,
    "greed_fear": {
      "correlation": 0.95,
      "log_variance": 0.0012,
      "mean_log_fear": 0.10436001532424286,
      "mean_log_greed": 0.11332868530700327
    },
    "initial_cash": 10.0,
    "initial_ratio": 1.0,
    "n_active": 16,
    "n_agents": 64,
    "signal": {
      "end": 2.0,
      "level": 1.0,
      "start": 1.0
    },
    "stock_noise_range": 0.1
  },
  "out": null,
  "ponzi": {
    "external_rate": 0.0,
    "horizon": 20.0,
    "initial_capital": 0.0,
    "market_impact": 1.0,
    "maturity": 3.0,
    "nominal_rate": 0.0,
    "promised_rate": 0.41,
    "steady_window": 5.0,
    "step": 0.002777777777777778,
    "withdrawal_rate": 0.41
  },
  "regimes": {
    "horizon": 2.0,
    "inflow_rate": null,
    "n_paths": 100,
    "outflow_rate": null
  },
  "schedule": {
    "first_year_total": 111.0,
    "growth": 0.1,
    "kind": "linear"
  },
  "seed": 7,
  "stats": {
    "input_csv": null,
    "price_column": "price"
  }
}"""


class TestConfigDefaults:
    def test_empty_config_gets_reference_defaults(self):
        cfg = load_config_data({"kind": "aspp"})
        m = cfg.market
        assert (m.n_agents, m.n_active, m.days_per_year) == (500, 125, 360)
        assert (m.initial_cash, m.initial_ratio, m.stock_noise_range) == (10.0, 1.0, 0.1)
        gf = m.greed_fear
        assert gf.mean_log_greed == pytest.approx(math.log(1.12))
        assert gf.mean_log_fear == pytest.approx(math.log(1.11))
        assert gf.log_variance == 12e-4 and gf.correlation == 0.95
        hz = cfg.hazard
        assert (hz.cash_scale, hz.crash_scale, hz.shortfall_scale, hz.cap) == (70.0, 5.0, 1.0, 1e6)
        assert (cfg.cycle.pre_phase, cfg.cycle.maturity) == (3.0, 3.0)
        assert (cfg.cycle.horizon, cfg.cycle.n_paths) == (20.0, 1000)
        assert cfg.schedule == ScheduleSpec("exponential", 5000.0, 0.1)

    def test_ponzi_kinds_get_unit_schedule_mass(self):
        cfg = load_config_data({"kind": "ponzi-speculative"})
        assert cfg.schedule.first_year_total == 1.0

    def test_invalid_correlation_names_constraint(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_data(
                {"kind": "aspp", "market": {"greed_fear": {"correlation": 1.5}}}
            )
        assert "correlation" in str(err.value)
        assert "[-1, 1]" in str(err.value)

    @pytest.mark.parametrize(
        "data,needle",
        [
            ({"kind": "aspp", "bogus": 1}, "bogus"),
            ({"kind": "aspp", "market": {"agents": 5}}, "market.agents"),
            ({"kind": "aspp", "hazard": {"gamma": 1}}, "hazard.gamma"),
            ({"kind": "cycle", "cycle": {"warmup": 2}}, "cycle.warmup"),
            # removed keys that had no behaviour
            ({"kind": "aspp", "market": {"invert_flow_sign": False}}, "market.invert_flow_sign"),
            (
                {"kind": "aspp", "market": {"signal": {"greed_amplitude": 0.0}}},
                "market.signal.greed_amplitude",
            ),
            (
                {"kind": "aspp", "market": {"signal": {"fear_amplitude": 0.0}}},
                "market.signal.fear_amplitude",
            ),
            # the signal is one class, with no kind tag
            ({"kind": "aspp", "market": {"signal": {"kind": "constant"}}}, "market.signal.kind"),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, data, needle):
        with pytest.raises(ConfigurationError) as err:
            load_config_data(data)
        assert needle in str(err.value)

    def test_missing_kind(self):
        with pytest.raises(ConfigurationError) as err:
            load_config_data({})
        assert "kind" in str(err.value)

    def test_kind_verb_mismatch(self, tmp_path, capsys):
        # the verb, not the loader, decides which kinds it runs
        assert load_config_data({"kind": "cycle"}, default_kind="aspp").kind == "cycle"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "cycle"}))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        message = "simulate runs configuration kind 'aspp', not 'cycle'"
        assert record == {"error": "ConfigurationError", "message": message}
        assert not out.exists()

    def test_round_trip_is_identity(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(ROUND_TRIP_FIXTURE))
        first = parse_config(path)
        path.write_text(serialize_config(first))
        second = parse_config(path)
        assert first == second
        assert config_hash(first) == config_hash(second)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_default_config_hash_is_pinned(self, kind):
        assert config_hash(load_config_data({"kind": kind})) == PINNED_DEFAULT_HASHES[kind]

    def test_fixture_serialization_is_pinned(self):
        cfg = load_config_data(ROUND_TRIP_FIXTURE)
        assert config_hash(cfg) == PINNED_FIXTURE_HASH
        assert serialize_config(cfg) == PINNED_FIXTURE_TEXT

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"kind": "aspp", "market": 5}, "'market' must be a JSON object, got 5"),
            ({"kind": "aspp", "market": "ab"}, "'market' must be a JSON object, got 'ab'"),
            (
                {"kind": "aspp", "market": {"greed_fear": 3}},
                "'market.greed_fear' must be a JSON object, got 3",
            ),
            (
                {"kind": "aspp", "market": {"signal": [1]}},
                "'market.signal' must be a JSON object, got [1]",
            ),
            ({"kind": "aspp", "seed": "x"}, "invalid value for 'seed': 'x'"),
            (
                {"kind": "aspp", "market": {"n_agents": 2.5}},
                "invalid value for 'market.n_agents': 2.5",
            ),
            (
                {"kind": "cycle", "cycle": {"checkpoints": "12"}},
                "invalid value for 'cycle.checkpoints': '12'",
            ),
            (
                {"kind": "aspp", "market": {"initial_cash": True}},
                "invalid value for 'market.initial_cash': True",
            ),
            ({"kind": "aspp", "aspp": {"horizon": "nan"}}, "invalid value for 'aspp.horizon': 'nan'"),
            ({"kind": "aspp", "aspp": {"horizon": math.nan}}, "invalid value for 'aspp.horizon': nan"),
            ({"kind": "aspp", "aspp": {"flow_rate": "5"}}, "invalid value for 'aspp.flow_rate': '5'"),
            (
                {"kind": "cycle", "cycle": {"checkpoints": [1.0, True]}},
                "invalid value for 'cycle.checkpoints': [1.0, True]",
            ),
            ({"kind": "aspp", "out": 5}, "invalid value for 'out': 5"),
            (
                {"kind": "stats", "stats": {"price_column": [1]}},
                "invalid value for 'stats.price_column': [1]",
            ),
            ({"kind": "aspp", "seed": "5"}, "invalid value for 'seed': '5'"),
        ],
    )
    def test_malformed_values_rejected_by_name(self, data, message):
        with pytest.raises(ConfigurationError) as err:
            load_config_data(data)
        assert str(err.value) == message

    def test_infinite_float_stays_valid(self):
        text = '{"kind": "aspp", "market": {"signal": {"end": Infinity}}}'
        cfg = load_config_data(json.loads(text))
        assert cfg.market.signal.end == math.inf
        assert load_config_data(json.loads(serialize_config(cfg))) == cfg

    def test_signal_block_is_a_window(self):
        # without a kind tag this document used to load as a constant
        # signal at 0.6 and drop start and end
        cfg = load_config_data(
            {"kind": "cycle", "market": {"signal": {"start": 1.0, "end": 4.0, "level": 0.6}}}
        )
        assert cfg.market.signal == WindowSignal(1.0, 4.0, 0.6)
        assert config_to_dict(cfg)["market"]["signal"] == {"start": 1.0, "end": 4.0, "level": 0.6}
        assert load_config_data({"kind": "aspp"}).market.signal == WindowSignal(0.0, math.inf, 1.0)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    @pytest.mark.parametrize("name", ["maturity", "initial_capital"])
    def test_rejected_ponzi_block_fails_every_kind(self, kind, name):
        # the ponzi block is PonziParams, checked at load whichever kind runs
        with pytest.raises(ConfigurationError, match=f"{name} must be >= 0, got -1.0"):
            load_config_data({"kind": kind, "ponzi": {name: -1.0}})

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_rejected_cycle_block_fails_every_kind(self, kind):
        # the cycle block is CycleConfig, checked at load whichever kind runs
        with pytest.raises(ConfigurationError, match="horizon 5.0 must exceed"):
            load_config_data({"kind": kind, "cycle": {"horizon": 5.0}})

    def test_config_dict_is_json_complete(self):
        cfg = load_config_data({"kind": "regimes"})
        payload = config_to_dict(cfg)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["market"]["n_agents"] == 500


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
non_negative = st.floats(min_value=0.0, max_value=1e6)
names = st.text(max_size=8)


def block(**fields):
    """A JSON block holding any subset of ``fields``; null keeps a default."""
    return st.fixed_dictionaries(
        {}, optional={name: st.none() | value for name, value in fields.items()}
    )


@st.composite
def cycle_blocks(draw):
    """Cycle blocks that ``CycleConfig`` accepts: the horizon always lies
    beyond the two phases, whether they are drawn or default."""
    data = draw(block(
        pre_phase=st.floats(0.0, 1e3),
        maturity=st.floats(0.0, 1e3),
        target_rate=finite,
        n_paths=st.integers(1, 2**31),
        checkpoints=st.lists(finite, max_size=4),
    ))
    phases = [
        getattr(CycleConfig(), name) if data.get(name) is None else data[name]
        for name in ("pre_phase", "maturity")
    ]
    data["horizon"] = phases[0] + phases[1] + draw(st.floats(1e-3, 1e3))
    return data


@st.composite
def signal_blocks(draw):
    """Signal blocks that ``WindowSignal`` accepts: the window opens on
    some day (start < end, end > 0), whether start is drawn or default."""
    data = draw(block(level=st.floats(0.0, 1.0), start=finite))
    start = WindowSignal().start if data.get("start") is None else data["start"]
    data["end"] = draw(st.none() | st.floats(min_value=max(start, 0.0), exclude_min=True))
    return data


@st.composite
def fit_blocks(draw):
    """Fit blocks that ``FitBlock`` accepts: 0 < bracket_low < bracket_high
    and a positive tol, whether bracket_low is drawn or default."""
    data = draw(block(
        bracket_low=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        source_csv=names,
    ))
    low = FitBlock().bracket_low if data.get("bracket_low") is None else data["bracket_low"]
    data["bracket_high"] = draw(st.floats(min_value=low, exclude_min=True, allow_infinity=False))
    return data


# Valid documents only: each constraint of the configuration dataclasses
# holds whichever subset of keys is drawn (n_active <= 500 = default
# n_agents, log means >= three standard deviations at any drawn variance,
# a cycle horizon beyond its phases, a signal window that opens, at
# least one path, regime rates of the right sign, a non-negative ponzi
# maturity and initial capital, a fit bracket in order and a positive
# fit tol).
valid_documents = st.fixed_dictionaries(
    {"kind": st.sampled_from(EXPERIMENT_KINDS)},
    optional={
        "seed": st.none() | st.integers(0, 2**63 - 1),
        "out": st.none() | names,
        "market": st.none() | block(
            n_agents=st.integers(500, 2000),
            n_active=st.integers(1, 500),
            initial_cash=positive,
            initial_ratio=positive,
            stock_noise_range=non_negative,
            days_per_year=st.integers(1, 1000),
            greed_fear=st.fixed_dictionaries({
                "mean_log_greed": st.floats(0.31, 1.0),
                "mean_log_fear": st.floats(0.31, 1.0),
                "log_variance": st.floats(0.0, 0.01),
                "correlation": st.floats(-1.0, 1.0),
            }),
            signal=signal_blocks(),
        ),
        "hazard": st.none() | block(
            cash_scale=positive, crash_scale=positive, shortfall_scale=positive, cap=positive
        ),
        "schedule": st.none() | block(
            kind=st.sampled_from(SCHEDULE_KINDS),
            first_year_total=non_negative,
            # the normalization overflows for an exponential growth above
            # log(float max), and for one below -1e300 times a mass up to 1e6
            growth=st.floats(-1e300, math.log(sys.float_info.max)),
        ),
        "aspp": st.none() | block(flow_rate=finite, horizon=finite, n_paths=st.integers(1)),
        "regimes": st.none() | block(
            inflow_rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            outflow_rate=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
            horizon=finite,
            n_paths=st.integers(1),
        ),
        "cycle": st.none() | cycle_blocks(),
        "ponzi": st.none() | block(
            nominal_rate=finite,
            promised_rate=finite,
            withdrawal_rate=finite,
            maturity=non_negative,
            initial_capital=non_negative,
            market_impact=finite,
            external_rate=finite,
            horizon=finite,
            step=finite,
            steady_window=finite,
        ),
        "fit": st.none() | fit_blocks(),
        "stats": st.none() | block(input_csv=names, price_column=names),
    },
)


@settings(deadline=None)
@given(valid_documents)
@example({"kind": "cycle", "cycle": {"checkpoints": []}})
@example({"kind": "aspp", "market": {"signal": {"start": 2.0}}})
def test_serialized_config_reloads_identically(document):
    cfg = load_config_data(document)
    text = serialize_config(cfg)
    reloaded = load_config_data(json.loads(text))
    assert reloaded == cfg
    assert serialize_config(reloaded) == text
    assert config_hash(reloaded) == config_hash(cfg)


def small_flow_ensemble(flow_rate=0.0):
    market = MarketParams(n_agents=40, n_active=10)
    block = FlowBlock(flow_rate, 0.25, 2)
    return run_ensembles(market, HazardParams(), ScheduleSpec(), {"": block}, 5)[""]


@pytest.fixture()
def flow_ensemble():
    return small_flow_ensemble()


class TestSerialization:
    def test_ensemble_schema(self, flow_ensemble, tmp_path):
        files = emit_series(flow_ensemble, tmp_path, basename="run")
        assert [f.name for f in files] == ["run.csv", "run_cash_hist.csv", "run_returns.json"]
        assert all(f.exists() for f in files)
        with open(files[0]) as handle:
            header = handle.readline().strip()
        assert header == (
            "t,price_mean,"
            "log_price_mean,log_price_p10,log_price_p50,log_price_p90,"
            "Ha_mean,Ha_p10,Ha_p50,Ha_p90,Hp_mean,Hp_p10,Hp_p50,Hp_p90,"
            "H_mean,xin_mean,R_mean,S_ext_mean,total_cash_mean"
        )

    def test_seventeen_digit_round_trip(self, flow_ensemble, tmp_path):
        files = emit_series(flow_ensemble, tmp_path, basename="run")
        table = read_csv_columns(files[0])
        series = flow_ensemble.series
        assert np.array_equal(table["t"], flow_ensemble.times)
        assert np.array_equal(table["price_mean"], series["price"].mean)
        assert np.array_equal(table["Ha_mean"], series["Ha"].mean)
        assert np.array_equal(table["log_price_p90"], series["log_price"].p90)
        assert np.array_equal(table["total_cash_mean"], series["total_cash"].mean)

    def test_histogram_schema(self, flow_ensemble, tmp_path):
        files = emit_series(flow_ensemble, tmp_path, basename="run")
        hist = [f for f in files if "cash_hist" in f.name]
        assert hist
        with open(hist[0]) as handle:
            assert handle.readline().strip() == "checkpoint_t,bin_lo,bin_hi,count"
            rows = handle.readlines()
        counts = sum(float(row.split(",")[3]) for row in rows)
        assert counts == 2 * 40  # every agent of both paths lands in a bin

    def test_ode_serialization_round_trip(self, tmp_path):
        params = PonziParams(0.0, 0.41, 0.41, 3.0, 1.0)
        sol = classical_ponzi_solve(params, ScheduleSpec("constant", 1.0), 5.0, 1 / 360)
        files = emit_series(sol, tmp_path)
        table = read_csv_columns(files[0])
        assert np.array_equal(table["S"], sol.capital)
        assert np.array_equal(table["R"], sol.withdrawable)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["t,price\n", "t,price\n\n# no rows\n", ""])
    def test_table_without_rows_is_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows below the header"):
            read_csv_columns(path)

    def test_manifest_contents(self, tmp_path):
        path = write_manifest(tmp_path, "ab" * 32, 7, {"clamp_events": 3})
        payload = json.loads(path.read_text())
        assert payload["config_sha256"] == "ab" * 32
        assert payload["seed"] == 7
        assert payload["counters"]["clamp_events"] == 3
        assert payload["version"]

    def test_version_is_declared_once(self, tmp_path):
        # the manifest records pricepump.__version__, and the package
        # metadata reads it from there instead of restating it
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads(
            (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
        )
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "pricepump.__version__"
        }
        manifest = json.loads(write_manifest(tmp_path, "ab" * 32, 7, {}).read_text())
        assert manifest["version"] == __version__

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            emit_series(small_flow_ensemble(1.0), tmp_path / name, basename="run")
        for file in ("run.csv", "run_cash_hist.csv", "run_returns.json"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()


# Small blocks for every ensemble verb: 3 paths of 36 days, the cycle's
# phases on whole days so that fit-c0 runs too
SMALL_ENSEMBLE_BLOCKS = {
    "market": {"n_agents": 20, "n_active": 5},
    "aspp": {"horizon": 0.1, "n_paths": 3},
    "regimes": {"horizon": 0.1, "n_paths": 3},
    "cycle": {"pre_phase": 0.0, "maturity": 0.05, "horizon": 0.1, "n_paths": 3},
    "fit": {"bracket_low": 1e-6, "bracket_high": 1.0},
}


def directory_bytes(out):
    """Every file under ``out`` by relative path, with its bytes."""
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def exiting_flow_path(market, hazard, flow, base_seed, path_index):
    """``run_flow_path`` in a worker process that dies on path 1."""
    if path_index == 1:
        os._exit(1)
    return run_flow_path(market, hazard, flow, base_seed, path_index)


class TestCli:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_ponzi_verb(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"kind": "ponzi-classical", "ponzi": {"horizon": 10.0}}
        )
        out = tmp_path / "out"
        assert main(["ponzi", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["collapse_time"] == pytest.approx(6.3612, abs=0.01)
        assert (out / "ode.csv").exists()
        assert (out / "manifest.json").exists()

    def test_simulate_then_stats(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "kind": "aspp",
                "market": {"n_agents": 50, "n_active": 12},
                "aspp": {"horizon": 0.5, "n_paths": 3},
            },
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "path_failures" not in json.loads((out / "manifest.json").read_text())
        stats_cfg = self.write_config(
            tmp_path,
            {
                "kind": "stats",
                "stats": {
                    "input_csv": str(out / "ensemble.csv"),
                    "price_column": "price_mean",
                },
            },
        )
        stats_out = tmp_path / "stats"
        assert main(["stats", "--config", stats_cfg, "--out", str(stats_out)]) == 0
        payload = json.loads((stats_out / "stats.json").read_text())
        assert "measured" in payload and "predicted" in payload
        assert payload["predicted"]["daily_factor"] == pytest.approx(1.0011217, abs=1e-7)

    def test_negative_zero_flow_mean_prints_zero(self, tmp_path):
        # a -0.0 flow executes -0.0 on every traded day of every path; the
        # mean over the paths is +0.0, as np.stack(rows).mean(axis=0) gives
        cfg = self.write_config(tmp_path, {
            "kind": "aspp",
            "market": {"n_agents": 20, "n_active": 5},
            "aspp": {"flow_rate": -0.0, "horizon": 0.05, "n_paths": 2},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = (out / "ensemble.csv").read_text().splitlines()
        column = header.split(",").index("xin_mean")
        assert len(rows) == 19
        assert {row.split(",")[column] for row in rows} == {"0"}

    def test_thread_invariance(self, tmp_path):
        for verb, kind in (("simulate", "aspp"), ("regimes", "regimes"), ("cycle", "cycle"),
                           ("fit-c0", "fit-c0")):
            cfg = self.write_config(tmp_path, {"kind": kind, **SMALL_ENSEMBLE_BLOCKS})
            files = []
            for threads in (1, 2, 4):
                out = tmp_path / verb / f"t{threads}"
                assert main([verb, "--config", cfg, "--out", str(out),
                             "--threads", str(threads)]) == 0
                files.append(directory_bytes(out))
            assert files[0] == files[1] == files[2], verb

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"kind": "cycle", "bogus_key": 1})
        code = main(["cycle", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert "bogus_key" in record["message"]

    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"kind": "aspp", "market": 5}, "'market'"),
            ({"market": {"greed_fear": 3}}, "'market.greed_fear'"),
        ],
    )
    def test_non_object_block_exit_code(self, tmp_path, capsys, payload, key):
        cfg = self.write_config(tmp_path, payload)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert key in record["message"]

    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"market": {"initial_cash": True}}, "'market.initial_cash'"),
            ({"aspp": {"horizon": "nan"}}, "'aspp.horizon'"),
            ({"out": 5}, "'out'"),
            ({"stats": {"price_column": [1]}}, "'stats.price_column'"),
        ],
    )
    def test_invalid_value_exit_code(self, tmp_path, capsys, payload, key):
        cfg = self.write_config(tmp_path, payload)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert key in record["message"]

    def test_regimes_writes_finished_regimes_when_one_fails(self, tmp_path, capsys):
        # an outflow of the whole initial cash per year exhausts the market
        cfg = self.write_config(
            tmp_path, {"regimes": {"outflow_rate": -5000.0, "horizon": 2.0, "n_paths": 2}}
        )
        out = tmp_path / "regimes"
        assert main(["regimes", "--config", cfg, "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["message"].startswith(
            "regime 'withdrawal': all paths failed: LiquidityExhaustedError"
        )
        for name in ("investment", "zero"):
            assert (out / name / "ensemble.csv").exists()
        assert not (out / "withdrawal").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"]["withdrawal_path_failures"] == 2
        assert manifest["counters"]["zero_path_failures"] == 0
        failures = manifest["path_failures"]["withdrawal"]
        assert [line.split(":")[0] for line in failures] == ["path 0", "path 1"]
        assert all("LiquidityExhaustedError" in line for line in failures)
        assert (out / "config.json").exists()

    @pytest.mark.parametrize(
        "verb,payload,code,failures",
        [
            # an outflow of the whole initial cash per year exhausts the market
            (
                "simulate",
                {"aspp": {"flow_rate": -5000.0, "horizon": 2.0, "n_paths": 2}},
                3,
                ["path 0: LiquidityExhaustedError", "path 1: LiquidityExhaustedError"],
            ),
            # at 100,000 days a year a 0.7% daily price drop overflows the
            # investor hazard's integrand
            (
                "cycle",
                {
                    "market": {"days_per_year": 100000},
                    "cycle": {"pre_phase": 0.001, "maturity": 0.001, "horizon": 0.005,
                              "n_paths": 1},
                },
                3,
                ["path 0: DivergenceError"],
            ),
            (
                "simulate",
                {
                    "seed": 1,
                    "market": {"n_agents": 60, "n_active": 15},
                    "aspp": {"flow_rate": -900.0, "horizon": 1.0, "n_paths": 3},
                },
                0,
                ["path 2: LiquidityExhaustedError"],
            ),
            (
                "cycle",
                {
                    "seed": 1,
                    "market": {"n_agents": 60, "n_active": 15, "days_per_year": 7000},
                    "cycle": {"pre_phase": 0.01, "maturity": 0.01, "horizon": 0.05, "n_paths": 2},
                },
                0,
                ["path 0: DivergenceError"],
            ),
        ],
    )
    def test_ensemble_verbs_record_path_failures(
        self, tmp_path, capsys, verb, payload, code, failures
    ):
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([verb, "--config", cfg, "--out", str(out)]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert [line.split("(")[0] for line in manifest["path_failures"]] == failures
        assert manifest["counters"]["path_failures"] == len(failures)
        assert manifest["config_sha256"] == config_hash(parse_config(out / "config.json"))
        if code == 3:
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "EnsembleFailedError"
            cause = failures[0].split(": ")[1]
            assert record["message"].startswith(f"all paths failed: {cause}")
            assert not (out / "ensemble.csv").exists()
        else:
            assert (out / "ensemble.csv").exists()

    def test_rejected_cycle_block_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"kind": "aspp", "cycle": {"horizon": 5.0}})
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": "ConfigurationError",
            "message": "horizon 5.0 must exceed pre_phase + maturity (6.0)",
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb,payload,message",
        [
            ("simulate", {"aspp": {"flow_rate": math.inf}}, "flow_rate must be finite, got inf"),
            (
                "regimes",
                {"regimes": {"inflow_rate": math.inf}},
                "inflow_rate must be finite, got inf",
            ),
            ("cycle", {"cycle": {"horizon": math.inf}}, "horizon must be finite, got inf"),
            ("simulate", {"aspp": {"horizon": math.inf}}, "horizon must be finite, got inf"),
            # a horizon below one day used to fail every path, like the above
            (
                "simulate",
                {"aspp": {"horizon": 0.001}},
                "horizon 0.001 is below one trading day",
            ),
            (
                "regimes",
                {"regimes": {"horizon": 0.001}},
                "horizon 0.001 is below one trading day",
            ),
            # day counts that overflow to infinity used to end in a bare
            # OverflowError (exit 1), and an infinite checkpoint (JSON 1e400)
            # to fail every path (exit 3)
            (
                "simulate",
                {"aspp": {"horizon": 1e308}},
                "horizon 1e+308 at 360 trading days a year has no finite day count",
            ),
            (
                "cycle",
                {"cycle": {"horizon": 1e308}},
                "horizon 1e+308 at 360 trading days a year has no finite day count",
            ),
            (
                "cycle",
                {"cycle": {"pre_phase": 0.0, "maturity": 0.05, "horizon": 0.1,
                           "checkpoints": [math.inf]}},
                "checkpoints must be finite, got [inf]",
            ),
            # 3.6e11 days: one float64 a day alone would take terabytes, so
            # the horizon is refused before any daily series is allocated
            (
                "simulate",
                {"aspp": {"horizon": 1e9}},
                "horizon 1000000000.0 at 360 trading days a year is 360000000000 days, "
                "more than physical memory holds",
            ),
            # a schedule whose first-year normalization overflows used to
            # load, then fail every path (exit 3)
            (
                "cycle",
                {"schedule": {"first_year_total": 1e4, "growth": -1e308}},
                "exponential schedule with first_year_total 10000.0 and growth -1e+308 "
                "has no finite first-year normalization",
            ),
            (
                "cycle",
                {"schedule": {"kind": "linear", "first_year_total": 1e308}},
                "linear schedule with first_year_total 1e+308 and growth 0.1 "
                "has no finite first-year normalization",
            ),
        ],
    )
    def test_unrunnable_inputs_exit_code(self, tmp_path, capsys, verb, payload, message):
        payload = {"market": {"n_agents": 40, "n_active": 10}, **payload}
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "x"
        start = time.perf_counter()
        assert main([verb, "--config", cfg, "--out", str(out), "--paths", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigurationError", "message": message}
        assert not out.exists()

    def test_overflowing_growth_exit_code(self, tmp_path, capsys):
        payload = {"schedule": {"growth": 800.0}, "cycle": {"n_paths": 2, "horizon": 7.0}}
        message = "exponential growth must be finite and at most about 709.78, got 800.0"
        with pytest.raises(ConfigurationError, match=message):
            load_config_data(payload, default_kind="cycle")
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert main(["cycle", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigurationError", "message": message}
        assert not out.exists()

    def test_overflowing_linear_slope_exit_code(self, tmp_path, capsys):
        # a slope of 2 * 1e308 used to load, then fail the solve at t = 0
        payload = {"kind": "ponzi-classical", "ponzi": {"horizon": 2.0},
                   "schedule": {"kind": "linear", "first_year_total": 1e308}}
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "x"
        assert main(["ponzi", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": "ConfigurationError",
            "message": "linear schedule with first_year_total 1e+308 and growth 0.1 "
                       "has no finite first-year normalization",
        }
        assert not out.exists()

    def test_diverged_classical_solve_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"kind": "ponzi-classical", "schedule": {"growth": 700.0}}
        )
        out = tmp_path / "x"
        assert main(["ponzi", "--config", cfg, "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DivergenceError"
        assert not (out / "ode.csv").exists()

    @pytest.mark.parametrize("verb,payload,code", [
        ("ponzi", {"kind": "ponzi-classical", "schedule": {"kind": "exponential", "growth": 700.0},
                   "ponzi": {"horizon": 2.0}}, 3),
        ("simulate", {"kind": "aspp", "market": {"n_agents": 20, "n_active": 5,
                                                 "initial_cash": 1e200},
                      "aspp": {"horizon": 0.05, "n_paths": 2}}, 0),
        ("cycle", {"kind": "cycle", "market": {"n_agents": 20, "n_active": 5},
                   "schedule": {"growth": 60.0},
                   "cycle": {"pre_phase": 0.1, "maturity": 0.1, "horizon": 12.0, "n_paths": 2}}, 3),
        ("ponzi", {"kind": "ponzi-classical",
                   "schedule": {"kind": "linear", "first_year_total": 1e307},
                   "ponzi": {"horizon": 20.0}}, 3),
        ("cycle", {"kind": "cycle", "market": {"n_agents": 20, "n_active": 5},
                   "schedule": {"kind": "linear", "first_year_total": 1e307},
                   "cycle": {"pre_phase": 0.1, "maturity": 0.1, "horizon": 12.0, "n_paths": 2}}, 3),
    ], ids=["schedule-overflow", "cash-weight-overflow", "overflows-in-workers",
            "linear-schedule-overflow", "linear-overflows-in-workers"])
    def test_overflow_writes_only_the_record_to_stderr(self, tmp_path, verb, payload, code):
        # an overflowed schedule rate of any kind is inf, which fails the
        # solve or the path typed, and an overflowed low-cash weight is
        # exactly 0.0; both printed a RuntimeWarning ahead of the record, in
        # the parent and in each worker, so the run is a fresh interpreter
        # with two workers
        cfg = self.write_config(tmp_path, payload)
        argv = [verb, "--config", cfg, "--out", str(tmp_path / "out")]
        if verb != "ponzi":
            argv += ["--threads", "2"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = "import sys; from pricepump.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", run, *argv], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stderr == ""
        else:
            line, = done.stderr.splitlines()
            record = json.loads(line)
            assert "DivergenceError" in f"{record['error']}: {record['message']}"

    @pytest.mark.parametrize("kind,ponzi,message", [
        ("ponzi-speculative", {"horizon": math.inf}, "horizon must be positive and finite, got inf"),
        ("ponzi-classical", {"maturity": math.inf}, "maturity must be finite, got inf"),
    ])
    def test_non_finite_ponzi_timing_exit_code(self, tmp_path, capsys, kind, ponzi, message):
        cfg = self.write_config(tmp_path, {"kind": kind, "ponzi": ponzi})
        out = tmp_path / "x"
        assert main(["ponzi", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigurationError", "message": message}
        assert not (out / "ode.csv").exists()

    @pytest.mark.parametrize("payload,key", [
        ({"kind": "aspp", "market": {"signal": {"kind": "window"}}}, "market.signal.kind"),
        ({"kind": "cycle", "ponzi": {"maturity": -1.0}}, "maturity must be >= 0"),
        # signal windows that never open used to turn greed and fear off silently
        ({"kind": "cycle", "market": {"signal": {"start": 5.0, "end": 1.0}}}, "market.signal"),
        ({"kind": "aspp", "market": {"signal": {"start": -1e308, "end": -1.0}}}, "market.signal"),
        # the flow blocks are checked at load whatever the kind
        ({"kind": "cycle", "aspp": {"n_paths": 0}}, "n_paths must be >= 1, got 0"),
        ({"kind": "aspp", "regimes": {"outflow_rate": 1.0}}, "outflow_rate negative"),
        ({"kind": "regimes", "regimes": {"inflow_rate": 0.0}}, "inflow_rate must be positive"),
        # windows that open on no trading day: after the 20-year horizon, or
        # between two days; rejected before any path runs
        ({"kind": "cycle", "market": {"signal": {"start": 30.0}}}, "market.signal"),
        (
            {"kind": "aspp", "market": {"days_per_year": 1, "signal": {"start": 0.2, "end": 0.8}}},
            "market.signal",
        ),
        # the speculative scheme has one rate law
        (
            {"kind": "fit-c0", "ponzi": {"literal_rate_coupling": True}},
            "ponzi.literal_rate_coupling",
        ),
    ])
    def test_rejected_block_exit_code(self, tmp_path, capsys, payload, key):
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "x"
        verb = "simulate" if payload["kind"] == "aspp" else payload["kind"]
        assert main([verb, "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert key in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("cycle,message", [
        ({"pre_phase": 0.5, "maturity": 1.001}, "cycle.maturity 1.001 must be a whole number"),
        ({"pre_phase": 0.501, "maturity": 1.0}, "cycle.pre_phase 0.501 must be a whole number"),
    ])
    @pytest.mark.parametrize("source", [False, True])
    def test_fit_rejects_off_grid_phases_before_running(
        self, tmp_path, capsys, cycle, message, source
    ):
        # an off-grid maturity used to fail after the whole ensemble, and an
        # off-grid pre_phase to slice the series one day after the loop's start
        payload = {
            "kind": "fit-c0",
            "market": {"n_agents": 50, "n_active": 10},
            "cycle": {**cycle, "horizon": 3.0, "n_paths": 2},
        }
        if source:
            table = tmp_path / "ensemble_in.csv"
            table.write_text("t,S_ext\n0,0.0\n1,1.0\n2,2.0\n")
            payload["fit"] = {"source_csv": str(table)}
        cfg = self.write_config(tmp_path, payload)
        out = tmp_path / "fit"
        assert main(["fit-c0", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert record["message"].startswith(message)
        assert not (out / "ensemble.csv").exists()
        assert not out.exists()

    def test_fit_recovers_coefficient_from_source_csv(self, tmp_path):
        # a speculative trajectory with a known coefficient, on the market's
        # clock: zero through a one-year warm-up, then the solve
        known, pre_phase, days_per_year = 1e-3, 1.0, 360
        schedule = ScheduleSpec("constant", 1000.0)
        target = MarketParams().annualized_target_rate()
        solution = speculative_ponzi_solve(
            SpeculativePonziParams(known, target, 3.0, 0.0), schedule, 6.0
        )
        warmup = int(pre_phase * days_per_year)
        times = (np.arange(warmup + solution.grid.size) / days_per_year).tolist()
        values = [0.0] * warmup + solution.capital.tolist()
        table = tmp_path / "source.csv"
        table.write_text("t,S_ext\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(times, values)))
        cfg = self.write_config(tmp_path, {
            "kind": "fit-c0",
            "schedule": {"kind": "constant", "first_year_total": 1000.0},
            "cycle": {"pre_phase": pre_phase},
            "fit": {"bracket_low": 1e-4, "bracket_high": 1e-2, "source_csv": str(table)},
        })
        out = tmp_path / "fit"
        assert main(["fit-c0", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["market_impact"] == pytest.approx(known, rel=0.05)
        assert fit["target_rate"] == target
        # the series' grid step is a few ulps short of 1/360; the maturity
        # switch still falls on its node, so the fit reproduces the solve
        assert fit["rmse"] < 1e-6
        digest = hashlib.sha256((out / "fitted_ode.csv").read_bytes()).hexdigest()
        assert digest == "3d5987ee28c879c984d767b41bcddc3e33a2795047a0a1c43570493fa795be31"
        assert sorted(path.name for path in out.iterdir()) == [
            "config.json", "fit.json", "fitted_ode.csv", "manifest.json",
        ]

    def test_stats_writes_config_json(self, tmp_path):
        table = tmp_path / "prices.csv"
        table.write_text("t,price\n0,1.0\n1,1.1\n2,1.05\n3,1.2\n")
        cfg = self.write_config(tmp_path, {"kind": "stats", "stats": {"input_csv": str(table)}})
        out = tmp_path / "stats"
        assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = parse_config(out / "config.json")
        assert written == parse_config(cfg)
        assert manifest["config_sha256"] == config_hash(written)

    @pytest.mark.parametrize("verb,kind,key", [
        ("cycle", "cycle", "market.initial_cash"),
        ("cycle", "cycle", "market.initial_ratio"),
        ("cycle", "cycle", "market.stock_noise_range"),
        ("cycle", "cycle", "market.greed_fear.mean_log_greed"),
        ("cycle", "cycle", "hazard.cash_scale"),
        ("cycle", "cycle", "hazard.crash_scale"),
        ("cycle", "cycle", "hazard.shortfall_scale"),
        ("cycle", "cycle", "hazard.cap"),
        ("cycle", "cycle", "schedule.first_year_total"),
        ("ponzi", "ponzi-classical", "ponzi.promised_rate"),
        ("ponzi", "ponzi-speculative", "ponzi.market_impact"),
        ("ponzi", "ponzi-classical", "ponzi.initial_capital"),
        ("fit-c0", "fit-c0", "fit.bracket_high"),
        ("ponzi", "ponzi-speculative", "ponzi.steady_window"),
        ("ponzi", "ponzi-classical", "ponzi.steady_window"),
    ])
    def test_non_finite_block_value_exit_code(self, tmp_path, capsys, verb, kind, key):
        # JSON 1e400 parses as infinity; these values used to fail every
        # path (exit 3), write a NaN hazard, or run with a meaningless one
        payload = {"kind": kind, **SMALL_ENSEMBLE_BLOCKS}
        *blocks, name = key.split(".")
        node = payload
        for block in blocks:
            node[block] = dict(node.get(block, {}))
            node = node[block]
        node[name] = "INFINITE"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload).replace('"INFINITE"', "1e400"))
        out = tmp_path / "x"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        message = f"{name} must be finite, got inf"
        assert record == {"error": "ConfigurationError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("fit,message", [
        ({"tol": 0.0}, "tol must be positive, got 0.0"),
        ({"tol": -1.0}, "tol must be positive, got -1.0"),
        ({"bracket_low": 0.5, "bracket_high": 0.1}, "bracket must satisfy 0 < low < high"),
    ])
    def test_fit_block_rejected_before_any_path(
        self, tmp_path, capsys, monkeypatch, fit, message
    ):
        # a tol <= 0 used to hang the golden-section search, and an inverted
        # bracket to be rejected only after the whole ensemble ran
        started = []
        monkeypatch.setattr(cycle_module, "run_path", lambda *args: started.append(args))
        cfg = self.write_config(tmp_path, {"kind": "fit-c0", **SMALL_ENSEMBLE_BLOCKS, "fit": fit})
        out = tmp_path / "fit"
        assert main(["fit-c0", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert record["message"].startswith(message)
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize("verb,key,rows,reason", [
        ("stats", "stats.input_csv", None, "No such file or directory"),
        ("stats", "stats.input_csv", "t,price\n0,1.0\n1,1.1\n", None),
        ("stats", "stats.input_csv", "t,price\n0,1.0\n1,0.0\n2,1.2\n", None),
        ("fit-c0", "fit.source_csv", None, "No such file or directory"),
        # the fit's warm-up ends at the default pre_phase, 3 years
        ("fit-c0", "fit.source_csv", "t,S_ext\n2,0.0\n3,0.0\n4,1.0\n", None),
        ("fit-c0", "fit.source_csv", "t,S_ext\n3,0.0\n4,1.0\n6,2.0\n7,3.0\n", None),
        ("fit-c0", "fit.source_csv", "t,S_ext\n2.5,0.0\n3.5,1.0\n4.5,2.0\n5.5,3.0\n", None),
        ("stats", "stats.input_csv", "t,price\n0,1.0\n1,nan\n2,1.2\n", None),
        ("stats", "stats.input_csv", "t,price\n0,1.0\n1,inf\n2,1.2\n", None),
        ("fit-c0", "fit.source_csv", "t,S_ext\n3,0.0\n4,nan\n5,2.0\n6,3.0\n", None),
        ("stats", "stats.input_csv", "t,price\n", "no data rows below the header"),
        ("fit-c0", "fit.source_csv", "t,S_ext\n", "no data rows below the header"),
        # the key and the path are named once, as in every table error
        ("stats", "stats.input_csv", "t,price\n0,1.0,5\n1,1.1,5\n2,1.2,5\n",
         "header has 2 fields, rows have 3"),
        ("fit-c0", "fit.source_csv", "t,S_ext\n3,0.0,1\n4,1.0,1\n5,2.0,1\n",
         "header has 2 fields, rows have 3"),
        ("stats", "stats.input_csv", "t,x\n0,1.0\n1,1.1\n2,1.2\n",
         "no column 'price'; found ['t', 'x']"),
        ("fit-c0", "fit.source_csv", "t,x\n3,0.0\n4,1.0\n5,2.0\n",
         "no column 'S_ext_mean' or 'S_ext'; found ['t', 'x']"),
    ], ids=["stats-missing", "stats-two-rows", "stats-zero-price", "fit-missing",
            "fit-two-rows", "fit-uneven-grid", "fit-no-warmup-end", "stats-nan-price",
            "stats-inf-price", "fit-nan-value", "stats-header-only", "fit-header-only",
            "stats-field-count", "fit-field-count", "stats-no-column", "fit-no-column"])
    @pytest.mark.filterwarnings("error")
    def test_unusable_input_table_exit_code(self, tmp_path, capsys, verb, key, rows, reason):
        # these used to exit 1 with a bare FileNotFoundError or ValueError,
        # or, without a row at the warm-up's end, fit from the next row on;
        # a non-finite price wrote NaN into stats.json (exit 0), a NaN in a
        # fit source ended the search at a bracket edge (exit 3), and a
        # header-only table warned on stderr ahead of the record; a missing
        # file, a field-count mismatch and a missing column named the path
        # twice, or without the key
        table = tmp_path / "table.csv"
        if rows is not None:
            table.write_text(rows)
        block, name = key.split(".")
        cfg = self.write_config(tmp_path, {"kind": verb, block: {name: str(table)}})
        out = tmp_path / "x"
        assert main([verb, "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigurationError"
        assert record["message"].startswith(f"{key} {table}: ")
        if reason is not None:
            assert record["message"] == f"{key} {table}: {reason}"

    @pytest.mark.parametrize("ponzi", [
        {"steady_window": 0.0},
        {"steady_window": -1.0},
        {"steady_window": 10.5},
        {"horizon": 1.0, "steady_window": 5.0},
    ], ids=["zero", "negative", "over-half-horizon", "short-horizon"])
    def test_steady_window_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch, ponzi):
        # these used to exit 1 with a bare ValueError after the solve
        solves = []
        monkeypatch.setattr(cli, "speculative_ponzi_solve", lambda *args: solves.append(args))
        cfg = self.write_config(tmp_path, {"kind": "ponzi-speculative", "ponzi": ponzi})
        out = tmp_path / "x"
        assert main(["ponzi", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        window, horizon = ponzi["steady_window"], ponzi.get("horizon", 20.0)
        message = (f"ponzi.steady_window {window} must be positive "
                   f"and at most half of ponzi.horizon {horizon}")
        assert record == {"error": "ConfigurationError", "message": message}
        assert solves == []
        assert not out.exists()

    def test_classical_scheme_ignores_the_steady_window(self, tmp_path):
        payload = {"kind": "ponzi-classical", "ponzi": {"horizon": 1.0, "steady_window": -1.0}}
        out = tmp_path / "x"
        assert main(["ponzi", "--config", self.write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert parse_config(out / "config.json").ponzi.steady_window == -1.0

    @pytest.mark.parametrize("verb,kind,message", [
        ("simulate", "regimes", "simulate runs configuration kind 'aspp', not 'regimes'"),
        ("regimes", "aspp", "regimes runs configuration kind 'regimes', not 'aspp'"),
        ("cycle", "fit-c0", "cycle runs configuration kind 'cycle', not 'fit-c0'"),
        (
            "ponzi",
            "cycle",
            "ponzi runs configuration kind 'ponzi-classical' or 'ponzi-speculative', not 'cycle'",
        ),
        ("fit-c0", "cycle", "fit-c0 runs configuration kind 'fit-c0', not 'cycle'"),
        ("stats", "aspp", "stats runs configuration kind 'stats', not 'aspp'"),
    ], ids=["simulate", "regimes", "cycle", "ponzi", "fit-c0", "stats"])
    def test_verb_rejects_a_kind_it_does_not_run(self, tmp_path, capsys, verb, kind, message):
        # ponzi and the other verbs used to word this differently
        cfg = self.write_config(tmp_path, {"kind": kind})
        out = tmp_path / "x"
        assert main([verb, "--config", cfg, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigurationError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("verb,kind", [
        ("simulate", "aspp"),
        ("regimes", "regimes"),
        ("cycle", "cycle"),
        ("ponzi", "ponzi-classical"),
        ("fit-c0", "fit-c0"),
        ("stats", "stats"),
    ])
    def test_config_without_kind_runs_the_default_kind(self, tmp_path, verb, kind):
        # ponzi used to exit 2 with "missing configuration key 'kind'"
        table = tmp_path / "prices.csv"
        table.write_text("t,price\n0,1.0\n1,1.1\n2,1.05\n3,1.2\n")
        payload = {
            **SMALL_ENSEMBLE_BLOCKS, "ponzi": {"horizon": 1.0}, "stats": {"input_csv": str(table)},
        }
        out = tmp_path / "out"
        assert main([verb, "--config", self.write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["kind"] == kind
        assert parse_config(out / "config.json") == load_config_data({**payload, "kind": kind})

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_code(self, tmp_path, capsys, monkeypatch, threads):
        # these used to run serially and exit 0
        started = []
        monkeypatch.setattr(cycle_module, "run_flow_path", lambda *args: started.append(args))
        cfg = self.write_config(tmp_path, {"kind": "aspp", **SMALL_ENSEMBLE_BLOCKS})
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigurationError",
                          "message": f"worker count must be >= 1, got {threads}"}
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["ponzi", "stats"])
    @pytest.mark.parametrize("flag", ["--paths", "--threads"])
    def test_non_ensemble_verbs_reject_ensemble_flags(self, verb, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, flag, "2"])
        assert exit_info.value.code == 2

    def test_paths_override(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "kind": "aspp",
                "market": {"n_agents": 50, "n_active": 12},
                "aspp": {"horizon": 0.25, "n_paths": 100},
            },
        )
        out = tmp_path / "few"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "2"]) == 0
        returns = json.loads((out / "ensemble_returns.json").read_text())
        assert returns["pooled"]["n_returns"] == 2 * 90
        # the run records the path count it ran, so config.json reruns it
        written = parse_config(out / "config.json")
        assert written.aspp.n_paths == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_hash(written)
        rerun = tmp_path / "rerun"
        assert main(["simulate", "--config", str(out / "config.json"), "--out", str(rerun)]) == 0
        assert directory_bytes(rerun) == directory_bytes(out)

    @pytest.mark.parametrize("verb,kind,block", [
        ("simulate", "aspp", "aspp"),
        ("regimes", "regimes", "regimes"),
        ("cycle", "cycle", "cycle"),
        ("fit-c0", "fit-c0", "cycle"),
    ])
    def test_every_ensemble_verb_records_paths(self, tmp_path, verb, kind, block):
        cfg = self.write_config(tmp_path, {"kind": kind, **SMALL_ENSEMBLE_BLOCKS})
        out = tmp_path / "out"
        assert main([verb, "--config", cfg, "--out", str(out), "--paths", "2"]) == 0
        assert getattr(parse_config(out / "config.json"), block).n_paths == 2

    def test_regimes_start_one_pool(self, tmp_path, monkeypatch):
        # the three regimes' paths share one pool of two workers, one task
        # per path index running the three regimes as rows
        cfg = self.write_config(tmp_path, {"kind": "regimes", **SMALL_ENSEMBLE_BLOCKS})
        serial = tmp_path / "t1"
        assert main(["regimes", "--config", cfg, "--out", str(serial), "--threads", "1"]) == 0
        sizes, tasks = [], []
        monkeypatch.setattr(cycle_module, "ProcessPoolExecutor", recording_pool(sizes, tasks))
        set_cpus(monkeypatch, 2, {0, 1})
        pooled = tmp_path / "t2"
        assert main(["regimes", "--config", cfg, "--out", str(pooled), "--threads", "2"]) == 0
        assert sizes == [2]
        assert [index for _, index in tasks] == list(range(parse_config(cfg).regimes.n_paths))
        assert directory_bytes(pooled) == directory_bytes(serial)

    def test_dead_worker_exits_1_and_writes_no_ensemble(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cycle_module, "run_flow_path", exiting_flow_path)
        set_cpus(monkeypatch, 2, {0, 1})
        cfg = self.write_config(tmp_path, {"kind": "aspp", **SMALL_ENSEMBLE_BLOCKS})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "BrokenProcessPool"
        assert not out.exists()
