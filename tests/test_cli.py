import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdtwoway.channel import channel_to_dict, sample_channel
from fdtwoway.cli import (DEFAULT_SEED, UsageError, main, parse_invocation)


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
    cfg["ne"] = {"delta": 1e-8, "max_iter": 500, "mode": "synchronous"}
    return cfg


def _as_is(channel_config):
    return json.loads(channel_config.read_text())


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
        "experiment-infinite-delta"])
def test_malformed_config_exits_2(command, make_config, overrides,
                                  channel_config, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(make_config(channel_config)))
    argv = [command, "--config", str(cfg)]
    for item in overrides:
        argv += ["--set", item]
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
