import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdtwoway.channel import REQUIRED, channel_to_dict, sample_channel
from fdtwoway.cli import (DEFAULT_SEED, UsageError, main, parse_invocation)
from fdtwoway.harness import EXPERIMENTS


@pytest.fixture
def channel_config(tmp_path):
    rng = np.random.default_rng(0)
    ch = sample_channel(3, 1, {(1, 1): 1e4, (2, 2): 1e4,
                               (1, 2): 1.0, (2, 1): 1.0},
                        1e-6, {1: 1.0, 2: 1.0}, rng, symmetric=True)
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"channel": channel_to_dict(ch),
                                "pareto": {"grid": 12}}))
    return path


@pytest.fixture
def experiment_config(tmp_path):
    cfg = {"experiment": {"name": "uniqueness_probability",
                          "params": {"beta_db_list": [-40.0],
                                     "gamma_db_sweep": [0.0],
                                     "trials": 500}}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseInvocation:
    def test_basic(self, channel_config):
        inv = parse_invocation(["ne", "--config", str(channel_config),
                                "--seed", "7"])
        assert inv.command == "ne"
        assert inv.seed == 7
        assert inv.config["pareto"]["grid"] == 12

    def test_default_seed_fixed(self, channel_config):
        inv = parse_invocation(["ne", "--config", str(channel_config)])
        assert inv.seed == DEFAULT_SEED

    def test_set_override(self, experiment_config):
        inv = parse_invocation(["experiment", "--config",
                                str(experiment_config),
                                "--set", "trials=2000"])
        assert inv.config["experiment"]["params"]["trials"] == 2000

    def test_dotted_override_requires_existing_path(self, channel_config):
        inv = parse_invocation(["pareto", "--config", str(channel_config),
                                "--set", "pareto.grid=30"])
        assert inv.config["pareto"]["grid"] == 30
        with pytest.raises(UsageError):
            parse_invocation(["pareto", "--config", str(channel_config),
                              "--set", "nonexistent.key=1"])

    def test_missing_config_is_usage_error(self):
        with pytest.raises(UsageError, match="cannot read config"):
            parse_invocation(["pareto", "--config", "/nope/none.json"])

    def test_parse_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": \n []}}')
        with pytest.raises(UsageError, match=r"line \d+, column \d+"):
            parse_invocation(["pareto", "--config", str(bad)])

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_invocation(["bogus", "--config", "x"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, channel_config):
        with pytest.raises(SystemExit) as exc:
            parse_invocation(["pareto", "--config", str(channel_config),
                              "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["pareto", "uniqueness"])
    @pytest.mark.parametrize("flags", [["--seed", "7"],
                                       ["--require-convergence"]])
    def test_unseeded_commands_reject_seed_options(self, channel_config,
                                                   command, flags):
        # pareto and uniqueness draw no random numbers and run no IWFA
        with pytest.raises(SystemExit) as exc:
            parse_invocation([command, "--config", str(channel_config),
                              *flags])
        assert exc.value.code == 2


class TestDispatch:
    def test_pareto_stdout(self, channel_config, capsys):
        assert main(["pareto", "--config", str(channel_config)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "z1,z2,r1_bits,r2_bits,epsilon1,epsilon2"

    def test_pareto_output_file(self, channel_config, tmp_path):
        out = tmp_path / "boundary.csv"
        assert main(["pareto", "--config", str(channel_config),
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("z1,z2,")

    def test_ne_writes_trace_and_report(self, channel_config, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["ne", "--config", str(channel_config),
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("iter,residual,")
        report = json.loads((tmp_path / "trace.csv.report.json").read_text())
        assert report["converged"] is True
        assert "uniqueness" in report and "final_profile" in report

    def test_ne_require_convergence_failure_exits_1(self, tmp_path):
        rng = np.random.default_rng(1)
        ch = sample_channel(3, 3, {(1, 1): 1e9, (2, 2): 1e9,
                                   (1, 2): 1.0, (2, 1): 1.0},
                            1e-2, {1: 10.0, 2: 10.0}, rng, symmetric=True)
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps({"channel": channel_to_dict(ch),
                                   "ne": {"max_iter": 4}}))
        code = main(["ne", "--config", str(cfg), "--require-convergence",
                     "--output", str(tmp_path / "t.csv")])
        assert code == 1

    def test_ne_cycled_trace_ends_at_the_revisit(self, tmp_path):
        # trial 8 of the first sweep point of the seed-808 ne_vs_tdma draw,
        # at eta_direct 0 dB and eta_self 70 dB: sync IWFA revisits a profile
        ch = sample_channel(3, 3, {(1, 1): 1e7, (2, 2): 1e7,
                                   (1, 2): 1.0, (2, 1): 1.0},
                            1e-6, {1: 10.0, 2: 10.0},
                            np.random.default_rng([808, 1, 0, 0, 8]),
                            symmetric=True)
        ch.H = {k: v / np.sqrt(3) for k, v in ch.H.items()}
        cfg = tmp_path / "cycling.json"
        cfg.write_text(json.dumps({"channel": channel_to_dict(ch)}))
        out = tmp_path / "trace.csv"
        assert main(["ne", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads((tmp_path / "trace.csv.report.json").read_text())
        assert report["converged"] is False and report["cycle"] is not None
        steps = sum(report["cycle"])
        assert report["iterations"] == steps < 500
        assert len(out.read_text().splitlines()) == 1 + steps

    def test_uniqueness_json(self, channel_config, capsys):
        assert main(["uniqueness", "--config", str(channel_config)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"alpha", "product", "branch", "holds",
                             "bound_radius"}

    def test_experiment_csv(self, experiment_config, tmp_path):
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--config", str(experiment_config),
                     "--output", str(out), "--seed", "3"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "beta_db,gamma_db,p_analytic,p_monte_carlo,mc_stderr"
        meta = json.loads((tmp_path / "exp.csv.meta.json").read_text())
        assert meta["rng_seed"] == 3

    def test_experiment_missing_section_exits_2(self, channel_config):
        assert main(["experiment", "--config", str(channel_config)]) == 2


def _without_eta(channel_config):
    cfg = json.loads(channel_config.read_text())
    del cfg["channel"]["eta_db"]
    return cfg


def _ber(**params):
    return {"experiment": {"name": "ber", "params": dict(
        {"snr_db_sweep": [0.0], "bits_per_point": 100}, **params)}}


def _ne_vs_tdma(**params):
    return {"experiment": {"name": "ne_vs_tdma", "params": dict(
        {"eta_direct_db_list": [0.0], "eta_self_db_sweep": [60.0],
         "trials": 2}, **params)}}


def _iwfa_convergence(**params):
    return {"experiment": {"name": "iwfa_convergence", "params": dict(
        {"gamma_db_list": [-60.0], "step_budgets": [5, 10], "trials": 2},
        **params)}}


def _rate_region(**params):
    return {"experiment": {"name": "rate_region", "params": dict(
        {"beta_db": -40.0, "gamma_db_list": [-20.0], "grid": 10}, **params)}}


def _with_ne(channel_config):
    cfg = json.loads(channel_config.read_text())
    cfg["ne"] = {"delta": 1e-8, "max_iter": 500}
    return cfg


def _as_is(channel_config):
    return json.loads(channel_config.read_text())


def _with(**keys):
    return lambda channel_config: dict(_as_is(channel_config), **keys)


def _channel_without(field, key):
    def make(channel_config):
        cfg = _as_is(channel_config)
        del cfg["channel"][field][key]
        return cfg
    return make


def _channel_set(path, value):
    """A config whose channel section holds `value` at the dotted `path`."""
    def make(channel_config):
        cfg = _as_is(channel_config)
        *parents, last = path.split(".")
        node = cfg["channel"]
        for key in parents:
            node = node[key]
        node[last] = value
        return cfg
    return make


def _channel_link_1(channel_config):
    cfg = _as_is(channel_config)
    cfg["channel"]["H"]["1"] = cfg["channel"]["H"].pop("11")
    return cfg


def _mimo_channel(channel_config):
    ch = sample_channel(3, 3, {(1, 1): 1e4, (2, 2): 1e4,
                               (1, 2): 1.0, (2, 1): 1.0},
                        1e-6, {1: 1.0, 2: 1.0}, np.random.default_rng(0))
    return dict(_as_is(channel_config), channel=channel_to_dict(ch))


def _experiment(name, params):
    return lambda _: {"experiment": {"name": name, "params": params}}


@pytest.mark.parametrize("command, make_config, overrides", [
    ("pareto", _without_eta, []),
    ("uniqueness", _without_eta, []),
    ("experiment", lambda _: _ber(snr_db_sweep=5), []),
    ("experiment", lambda _: _ber(bits_per_point=-4), []),
    ("pareto", _as_is, ["pareto.grid=-3"]),
    ("pareto", _as_is, ['pareto.grid="x"']),
    ("pareto", _as_is, ["pareto.grid=[12, 0]"]),
    ("ne", _with_ne, ["ne.delta=-1"]),
    ("ne", _with_ne, ['ne.mode="foo"']),
    ("ne", _with_ne, ["ne.max_iter=2.5"]),
    ("experiment", lambda _: _ne_vs_tdma(max_iter=2.5), []),
    ("experiment", lambda _: _ne_vs_tdma(delta=-1e-8), []),
    ("experiment", lambda _: _ne_vs_tdma(delta="small"), []),
    ("experiment", lambda _: _iwfa_convergence(delta=-1e-8), []),
    ("experiment", lambda _: _iwfa_convergence(step_budgets=[5, 2.5]), []),
    ("experiment", lambda _: _iwfa_convergence(step_budgets=[0, 10]), []),
    ("experiment", lambda _: _iwfa_convergence(step_budgets=[]), []),
    ("ne", _with_ne, ["ne.delta=NaN"]),
    ("experiment", lambda _: _ne_vs_tdma(max_iter=True), []),
    ("experiment", lambda _: _ne_vs_tdma(M="3"), []),
    ("experiment", lambda _: _ne_vs_tdma(P=-1), []),
    ("experiment", lambda _: _ne_vs_tdma(M=0), []),
    ("experiment", lambda _: _ne_vs_tdma(N=0), []),
    ("experiment", lambda _: _ne_vs_tdma(eta_self_db_sweep=["x"]), []),
    ("experiment", lambda _: _rate_region(grid=2.5), []),
    ("experiment", lambda _: _rate_region(gamma_db_list=[None]), []),
    ("experiment", lambda _: _rate_region(grid=0), []),
    ("experiment", lambda _: _rate_region(beta_db="x"), []),
    ("experiment", lambda _: _ber(boundary_grid=1), []),
    ("experiment", lambda _: _ber(gamma_db=float("inf")), []),
    ("pareto", _as_is, ["pareto.grid=1"]),
    ("pareto", _as_is, ["pareto.grid=[1, 5]"]),
    ("ne", _with_ne, ["ne.max_iters=3"]),
    ("ne", _with_ne, ["ne.delta=Infinity"]),
    ("experiment", lambda _: _ne_vs_tdma(), ["delta=1e999"]),
    ("pareto", _with(pareto=5), []),
    ("pareto", _with(pareto={"gird": 3}), []),
    ("experiment", _experiment("ne_vs_tdma", [1, 2]), []),
    ("experiment", _experiment("ne_vs_tdma", "x"), []),
    ("experiment", _experiment("uniqueness_probability", {
        "beta_db_list": [-40.0], "gamma_db_sweep": [0.0], "trials": 5,
        "typo_key": 7}), []),
    ("experiment", lambda _: _ne_vs_tdma(), ["max_iters=7"]),
    ("pareto", lambda _: [1, 2], []),
    ("ne", _with(seed="abc"), []),
    ("ne", _with(seed=-1), []),
    ("ne", _with(seed=1.5), []),
    ("experiment", lambda _: _ne_vs_tdma(), ["--seed -1"]),
    ("pareto", _channel_without("P", "2"), []),
    ("pareto", _channel_without("eta_db", "12"), []),
    ("pareto", _with(pareto=5), ["grid=3"]),
    ("pareto", _mimo_channel, []),
    ("uniqueness", _channel_set("H", 5), []),
    ("uniqueness", _channel_link_1, []),
    ("uniqueness", _channel_set("H.12", [[1.0, 0.0, 2.0]]), []),
    ("uniqueness", _channel_set("H.12", [[[1.0, 0.0, 2.0]] * 3]), []),
    ("uniqueness", _channel_set("H.12", [[[float("nan"), 0.0]] * 3]), []),
    ("uniqueness", _channel_set("H.12", [[[True, 0.0]] * 3]), []),
    ("uniqueness", _channel_set("M", 7), []),
    ("uniqueness", _channel_set("N", 3), []),
    ("uniqueness", _channel_set("gain_db", 3.0), []),
    ("uniqueness", _channel_set("eta_db.12", "10"), []),
    ("uniqueness", _channel_set("P.1", float("nan")), []),
    ("pareto", _channel_set("eta_db.12", 4000.0), []),
    ("uniqueness", _channel_set("beta_db", 4000.0), []),
    ("ne", _channel_set("eta_db.11", 4000.0), []),
    ("experiment", lambda _: _ne_vs_tdma(eta_self_db_sweep=[4000.0]), []),
    ("experiment", lambda _: _iwfa_convergence(gamma_db_list=[-4000.0]), []),
    ("experiment", lambda _: _rate_region(gamma_db_list=[-4000.0]), []),
    ("experiment", lambda _: _ber(gamma_db=-4000.0), []),
    ("experiment", _experiment("uniqueness_probability", {
        "beta_db_list": [-40.0], "gamma_db_sweep": [4000.0],
        "trials": 5}), []),
    ("experiment", _experiment("uniqueness_probability", {
        "beta_db_list": [4000.0], "gamma_db_sweep": [0.0],
        "trials": 5}), []),
], ids=["pareto-no-eta", "uniqueness-no-eta", "scalar-sweep",
        "negative-bits", "negative-grid", "string-grid", "zero-grid-pair",
        "negative-delta", "unknown-mode", "fractional-max-iter",
        "experiment-fractional-max-iter", "experiment-negative-delta",
        "experiment-string-delta", "convergence-negative-delta",
        "fractional-step-budget", "zero-step-budget", "empty-step-budgets",
        "nan-delta", "boolean-max-iter", "string-M", "negative-P", "zero-M",
        "zero-N", "string-sweep-element", "fractional-region-grid",
        "null-list-element", "zero-region-grid", "string-beta-db",
        "one-point-boundary-grid", "infinite-gamma-db", "one-point-grid",
        "one-point-grid-pair", "unknown-ne-key", "infinite-delta",
        "experiment-infinite-delta", "pareto-not-object",
        "pareto-unknown-key", "params-list", "params-string",
        "unknown-param", "unqualified-set-typo", "config-list",
        "string-seed", "negative-seed", "fractional-seed",
        "negative-seed-flag", "pareto-no-P2", "pareto-no-eta12",
        "set-into-non-object-section", "pareto-vector-channel",
        "channel-H-not-object", "channel-link-key-1",
        "channel-matrix-of-numbers", "channel-matrix-of-triples",
        "channel-matrix-nan-entry", "channel-matrix-boolean-entry",
        "channel-M-mismatch", "channel-N-mismatch", "channel-unknown-key",
        "channel-string-eta-db", "channel-nan-P", "pareto-overflow-eta-db",
        "uniqueness-overflow-beta-db", "ne-overflow-eta-db",
        "experiment-overflow-eta-self-db", "convergence-underflow-gamma-db",
        "region-underflow-gamma-db", "ber-underflow-gamma-db",
        "uniqueness-overflow-gamma-db", "uniqueness-overflow-beta-list-db"])
def test_malformed_config_exits_2(command, make_config, overrides,
                                  channel_config, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(make_config(channel_config)))
    argv = [command, "--config", str(cfg)]
    for item in overrides:   # a flag and its value, or a --set override
        argv += item.split() if item.startswith("--") else ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_import_leaves_scipy_unloaded():
    # the runtime needs numpy only; scipy is a test dependency
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fdtwoway, fdtwoway.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_readme_example_config_runs(tmp_path):
    # the README's example config, its placeholder H replaced by sampled
    # matrices, runs as documented and uses the keys save_channel writes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Example config:\n\n```json\n", 1)[1]
    cfg = json.loads(block.split("```", 1)[0])
    section = cfg["channel"]
    sampled = channel_to_dict(sample_channel(
        section["M"], section["N"], {(i, j): 1.0 for i in (1, 2)
                                     for j in (1, 2)},
        0.0, {1: 1.0, 2: 1.0}, np.random.default_rng(0)))
    assert set(section) == set(sampled)
    section["H"] = sampled["H"]
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "boundary.csv"
    assert main(["pareto", "--config", str(path), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 1


def test_readme_lists_experiment_params():
    # the README's table of required params and defaults per experiment
    # is the one in harness.EXPERIMENTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for name, table in EXPERIMENTS.items():
        row = next(line for line in readme.splitlines()
                   if line.startswith(f"| `{name}` |"))
        _, _, required, defaults, _ = row.split("|")
        assert re.findall(r"`(\w+)`", required) == [
            key for key, (_, default) in table.items() if default is REQUIRED]
        assert {key: float(value) for key, value
                in re.findall(r"`(\w+)` ([-\d.e]+)", defaults)} == {
            key: default for key, (_, default) in table.items()
            if default is not REQUIRED}
