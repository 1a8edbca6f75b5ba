import json

import numpy as np
import pytest
from scipy.stats import norm

from fdtwoway import harness
from fdtwoway.channel import db_to_linear
from fdtwoway.harness import (ExperimentSpec, _crossover, run, run_ber,
                              run_iwfa_convergence, run_ne_vs_tdma,
                              run_rate_region, run_uniqueness_probability,
                              wilson_interval)
from fdtwoway.nash import phi_mapping
from golden.regenerate import ac08_spec


class TestExperimentSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("does_not_exist", {})

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="missing params"):
            ExperimentSpec("ne_vs_tdma", {"trials": 5})

    def test_defaults_merged(self):
        spec = ExperimentSpec("rate_region",
                              {"beta_db": -40.0, "gamma_db_list": [-20.0]})
        assert spec.params["M"] == 3
        assert spec.params["P"] == 1.0

    def test_iwfa_config_built_from_params(self):
        spec = ExperimentSpec("iwfa_convergence",
                              {"gamma_db_list": [-60.0],
                               "step_budgets": [50, 25], "trials": 2,
                               "delta": 1e-6})
        assert (spec.iwfa_cfg.max_iter, spec.iwfa_cfg.delta) == (50, 1e-6)
        assert ExperimentSpec("ber", {"snr_db_sweep": [0.0],
                                      "bits_per_point": 4}).iwfa_cfg is None
        with pytest.raises(ValueError, match="max_iter"):
            ExperimentSpec("ne_vs_tdma", {"eta_direct_db_list": [0.0],
                                          "eta_self_db_sweep": [60.0],
                                          "trials": 2, "max_iter": 2.5})


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        spec = ExperimentSpec("uniqueness_probability",
                              {"beta_db_list": [-40.0],
                               "gamma_db_sweep": [0.0, 10.0],
                               "trials": 500}, rng_seed=3)
        paths = []
        for k in (0, 1):
            res = run(spec)
            p = tmp_path / f"out{k}.csv"
            res.write_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metadata_sidecar(self, tmp_path):
        spec = ExperimentSpec("uniqueness_probability",
                              {"beta_db_list": [-40.0],
                               "gamma_db_sweep": [0.0],
                               "trials": 100}, rng_seed=9)
        res = run(spec)
        p = tmp_path / "u.csv"
        res.write_csv(p)
        meta = json.loads((tmp_path / "u.csv.meta.json").read_text())
        assert meta["rng_seed"] == 9
        assert meta["experiment"] == "uniqueness_probability"
        assert meta["params"]["trials"] == 100

    def test_seed_changes_mc_output(self):
        kw = {"beta_db_list": [-40.0], "gamma_db_sweep": [-15.0],
              "trials": 300}
        a = run(ExperimentSpec("uniqueness_probability", kw, rng_seed=0))
        b = run(ExperimentSpec("uniqueness_probability", kw, rng_seed=1))
        assert a.rows[0][2] == b.rows[0][2]      # analytic identical
        assert a.rows[0][3] != b.rows[0][3]      # Monte Carlo differs


class TestRateRegion:
    def test_blocks_present(self):
        spec = ExperimentSpec("rate_region",
                              {"beta_db": -40.0,
                               "gamma_db_list": [-20.0, -60.0],
                               "grid": 25}, rng_seed=1)
        res = run_rate_region(spec)
        kinds = {(r[0], r[1]) for r in res.rows}
        for g in (-20.0, -60.0):
            for kind in ("boundary", "tdma", "ne", "zf"):
                assert (g, kind) in kinds

    def test_ne_dominates_zf(self):
        spec = ExperimentSpec("rate_region",
                              {"beta_db": -60.0, "gamma_db_list": [-40.0],
                               "grid": 20}, rng_seed=1)
        res = run_rate_region(spec)
        ne = next(r for r in res.rows if r[1] == "ne")
        zf = next(r for r in res.rows if r[1] == "zf")
        assert ne[4] >= zf[4] and ne[5] >= zf[5]

    def test_single_antenna_skips_zf_with_reason(self):
        spec = ExperimentSpec("rate_region",
                              {"beta_db": -40.0, "gamma_db_list": [-20.0],
                               "M": 1, "grid": 10}, rng_seed=1)
        res = run_rate_region(spec)
        kinds = {r[1] for r in res.rows}
        assert kinds == {"boundary", "tdma", "ne"}
        assert "M >= 2" in res.metadata["zf_skipped"][-20.0]


class TestNeVsTdma:
    def test_columns_and_exclusions(self):
        spec = ExperimentSpec("ne_vs_tdma",
                              {"eta_direct_db_list": [0.0],
                               "eta_self_db_sweep": [40.0, 70.0],
                               "trials": 10}, rng_seed=2)
        res = run_ne_vs_tdma(spec)
        assert res.columns[-1] == "excluded"
        assert len(res.rows) == 2
        low, high = res.rows
        assert low[2] > high[2]   # NE sum rate decreases with eta_self
        assert "crossover_eta_self_db" in res.metadata

    def test_excluded_cyclic_per_row(self):
        # seed 3 excludes a trial that runs its whole budget at 70 dB and
        # one of each kind at 76 dB
        spec = ExperimentSpec("ne_vs_tdma",
                              {"eta_direct_db_list": [0.0],
                               "eta_self_db_sweep": [70.0, 76.0],
                               "trials": 10}, rng_seed=3)
        res = run_ne_vs_tdma(spec)
        assert [row[-1] for row in res.rows] == [1, 2]
        assert res.metadata["excluded_cyclic"] == [0, 1]

    def test_crossover_interpolation(self):
        gaps = [(60.0, 1.0), (62.0, -1.0)]
        assert _crossover(gaps) == pytest.approx(61.0)
        assert _crossover([(60.0, 1.0), (62.0, 0.5)]) is None


class TestUniquenessProbability:
    def test_analytic_close_to_mc(self):
        spec = ExperimentSpec("uniqueness_probability",
                              {"beta_db_list": [-40.0],
                               "gamma_db_sweep": [-20.0, -10.0],
                               "trials": 20000}, rng_seed=4)
        res = run_uniqueness_probability(spec)
        for row in res.rows:
            assert abs(row[2] - row[3]) < 0.02
        # probability increasing in gamma
        assert res.rows[1][2] > res.rows[0][2]


class TestEquilibriumSelection:
    """The NE sum rate averages the symmetric equilibrium reached from zero
    profiles: on the harness's symmetric channels every iterate has Q1 = Q2
    bit for bit. A synchronous cycle of period 2, (q_a, q_a) -> (q_b, q_b)
    -> (q_a, q_a), holds an asymmetric equilibrium (q_a, q_b) that this
    rule does not select."""

    def test_symmetric_profiles_and_period_two_fixed_points(self):
        # the first 16 trials of two AC8 sweep points (seed 808): trial 15
        # of point (0 dB, 68 dB) and trial 1 of (10 dB, 70 dB) cycle with
        # period 2
        ac08 = ac08_spec()
        spec = ExperimentSpec(ac08.name, dict(ac08.params, trials=16),
                              rng_seed=ac08.rng_seed)
        p = spec.params
        period_two = []
        for di, si in ((0, 5), (1, 6)):
            stream = (1, di, si)    # the stream of run_ne_vs_tdma's point
            eta_d = float(db_to_linear(p["eta_direct_db_list"][di]))
            eta_s = float(db_to_linear(p["eta_self_db_sweep"][si]))
            for t, (ch, tr) in enumerate(harness._iwfa_trials(
                    spec, stream, eta_d, eta_s, True)):
                assert all(np.array_equal(Q1, Q2) for Q1, Q2 in tr.iterates)
                if tr.cycle is None or tr.cycle[1] != 2:
                    continue
                period_two.append((*stream, t))
                q_a, q_b = (tr.iterates[tr.cycle[0] + k][0] for k in (0, 1))
                assert not np.array_equal(q_a, q_b)
                assert np.array_equal(np.stack(phi_mapping(ch, (q_a, q_b))),
                                      np.stack((q_a, q_b)))
        assert period_two == [(1, 0, 5, 15), (1, 1, 6, 1)]


class TestIwfaConvergence:
    def test_probability_monotone_in_budget(self):
        spec = ExperimentSpec("iwfa_convergence",
                              {"gamma_db_list": [-40.0],
                               "step_budgets": [4, 8, 16],
                               "trials": 200}, rng_seed=5)
        res = run_iwfa_convergence(spec)
        probs = [r[2] for r in res.rows]
        assert probs == sorted(probs)


class TestBer:
    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.01
        lo, hi = wilson_interval(500, 1000)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_analytic_within_interval_ideal_front_end(self):
        spec = ExperimentSpec("ber", {"snr_db_sweep": [2.0, 6.0],
                                      "bits_per_point": 60000,
                                      "beta_db": None}, rng_seed=6)
        res = run_ber(spec)
        for row in res.rows:
            _, _, ber, lo, hi, analytic, _ = row
            assert lo <= analytic <= hi

    def test_gaussian_approx_matches_scipy(self, monkeypatch):
        xs = np.linspace(0.0, 12.0, 481)
        assert ([harness._gaussian_tail(x) for x in xs]
                == pytest.approx(norm.sf(xs), rel=1e-13, abs=0.0))
        spec = ExperimentSpec("ber", {"snr_db_sweep": [0.0, 4.0, 8.0, 12.0],
                                      "bits_per_point": 4}, rng_seed=7)
        ours = [row[5] for row in run_ber(spec).rows]
        monkeypatch.setattr(harness, "_gaussian_tail", norm.sf)
        assert ours == pytest.approx([row[5] for row in run_ber(spec).rows],
                                     rel=1e-13, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_silent_node_one_has_no_optimal_row(self):
        # the max-sum-rate boundary point of this channel has z1 = 0: node 1
        # sends nothing, so node 2 has no signal to detect
        spec = ExperimentSpec("ber", {"M": 2, "beta_db": -30.0,
                                      "gamma_db": -40.0,
                                      "snr_db_sweep": [0.0, 5.0],
                                      "bits_per_point": 4002},
                              rng_seed=2002)
        res = run_ber(spec)
        assert [(r[0], r[1]) for r in res.rows] == [
            (0.0, "ne"), (0.0, "zf"), (5.0, "ne"), (5.0, "zf")]
        assert set(res.metadata["optimal_skipped"]) == {0.0, 5.0}
        assert "silent" in res.metadata["optimal_skipped"][0.0]

    def test_strategy_ordering(self):
        spec = ExperimentSpec("ber", {"snr_db_sweep": [8.0],
                                      "bits_per_point": 60000}, rng_seed=7)
        res = run_ber(spec)
        by_name = {r[1]: r for r in res.rows}
        assert by_name["optimal"][2] <= by_name["zf"][2]
