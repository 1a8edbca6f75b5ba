import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fdtwoway import cli, pareto
from fdtwoway.channel import (FdChannelModel, achievable_rate,
                              channel_to_dict, other, sample_channel)
from fdtwoway.pareto import (DecoupledProblem, dual_certificate,
                             epsilon_zero_condition, export_boundary_csv,
                             optimal_beamforming, pareto_boundary,
                             pareto_filter, rank_reduce, zf_beamforming)
from covariance_checks import check_covariance, is_rank_one


def random_problem(M, rng, z_frac=0.5, P=1.0):
    h_dir = (rng.normal(size=M) + 1j * rng.normal(size=M)) / np.sqrt(2)
    h_self = (rng.normal(size=M) + 1j * rng.normal(size=M)) / np.sqrt(2)
    z = z_frac * P * float(np.linalg.norm(h_dir) ** 2)
    return DecoupledProblem(h_dir=h_dir, h_self=h_self, z=z, P=P)


def slsqp_oracle(prob, restarts=6, seed=0):
    """Independent minimizer of the decoupled problem over w (real
    parametrization), multi-start SLSQP."""
    M = prob.h_dir.size
    c = np.abs(prob.h_self) ** 2

    def unpack(x):
        return x[:M] + 1j * x[M:]

    def fun(x):
        w = unpack(x)
        return float((c * np.abs(w) ** 2).sum())

    cons = [
        {"type": "eq",
         "fun": lambda x: float(np.abs(np.vdot(prob.h_dir, unpack(x))) ** 2)
         - prob.z},
        {"type": "ineq",
         "fun": lambda x: prob.P - float(np.linalg.norm(unpack(x)) ** 2)},
    ]
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        w0 = np.sqrt(prob.z) * prob.h_dir / np.linalg.norm(prob.h_dir) ** 2
        w0 = w0 * np.exp(1j * rng.uniform(0, 2 * np.pi)) \
            + 0.1 * (rng.normal(size=M) + 1j * rng.normal(size=M))
        x0 = np.concatenate([w0.real, w0.imag])
        res = minimize(fun, x0, constraints=cons, method="SLSQP",
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success and res.fun < best:
            best = res.fun
    return best


def make_miso_channel(seed, M=3, beta=1e-6, eta_self=1e4, P=1.0):
    rng = np.random.default_rng(seed)
    return sample_channel(M, 1, {(1, 1): eta_self, (2, 2): eta_self,
                                 (1, 2): 1.0, (2, 1): 1.0},
                          beta, {1: P, 2: P}, rng)


def _sphere_grid(M, n, rng):
    """Random complex unit directions (deterministic per generator)."""
    g = (rng.normal(size=(n, M)) + 1j * rng.normal(size=(n, M)))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def weighted_sum_rate_oracle(ch, mu1, n_dirs=400, n_powers=8, seed=0):
    """Brute-force grid maximizer of mu1 R1 + mu2 R2 (test oracle).

    MISO only (N = 1, M <= 3): rank-one candidates on a random sphere grid
    crossed with power levels, evaluated jointly over both nodes. The
    optimality gap is bounded by the grid resolution.
    """
    if ch.N != 1 or ch.M > 3:
        raise ValueError("oracle restricted to desk-scale MISO instances")
    mu2 = 1.0 - mu1
    rng = np.random.default_rng(seed)
    cands = {}
    for i in (1, 2):
        j = other(i)
        h_dir, h_self = ch.h(i, j), ch.h(i, i)
        dirs = np.vstack([_sphere_grid(ch.M, n_dirs, rng),
                          (h_dir / np.linalg.norm(h_dir))[None, :]])
        powers = np.linspace(0.0, ch.P[i], n_powers + 1)[1:]
        W = (np.sqrt(powers)[:, None, None] * dirs[None, :, :]).reshape(-1, ch.M)
        W = np.vstack([np.zeros((1, ch.M), dtype=complex), W])
        sig = ch.eta[(i, j)] * np.abs(W @ h_dir.conj()) ** 2
        cost = ch.beta * ch.eta[(i, i)] * (np.abs(W) ** 2 @ np.abs(h_self) ** 2)
        cands[i] = (W, sig, cost)
    W1, sig1, cost1 = cands[1]
    W2, sig2, cost2 = cands[2]
    val = (mu1 * np.log2(1.0 + sig1[:, None] / (1.0 + cost2[None, :]))
           + mu2 * np.log2(1.0 + sig2[None, :] / (1.0 + cost1[:, None])))
    a, b = np.unravel_index(np.argmax(val), val.shape)
    profile = (np.outer(W1[a], W1[a].conj()), np.outer(W2[b], W2[b].conj()))
    check_covariance(profile[0], ch.P[1])
    check_covariance(profile[1], ch.P[2])
    return profile, float(val[a, b])


class TestOptimalBeamforming:
    def test_matches_slsqp_oracle(self):
        rng = np.random.default_rng(0)
        for k in range(25):
            prob = random_problem(rng.integers(2, 5), rng,
                                  z_frac=rng.uniform(0.05, 0.95))
            sol = optimal_beamforming(prob)
            oracle = slsqp_oracle(prob, seed=k)
            assert sol.objective <= oracle + 1e-7 * max(1.0, oracle)
            assert sol.objective >= oracle - 1e-6 * max(1.0, oracle)

    def test_received_power_met(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            prob = random_problem(3, rng, z_frac=rng.uniform(0.0, 1.0))
            sol = optimal_beamforming(prob)
            assert abs(np.vdot(prob.h_dir, sol.w)) ** 2 == pytest.approx(
                prob.z, rel=1e-8, abs=1e-10)

    def test_rank_one_output(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = random_problem(4, rng, z_frac=0.8)
            sol = optimal_beamforming(prob)
            assert is_rank_one(sol.Q)

    def test_epsilon_zero_condition_exact(self):
        rng = np.random.default_rng(3)
        seen = {True: 0, False: 0}
        for _ in range(200):
            prob = random_problem(3, rng, z_frac=rng.uniform(0.01, 0.999))
            sol = optimal_beamforming(prob)
            cond = epsilon_zero_condition(prob)
            assert cond == (sol.epsilon == 0.0)
            seen[cond] += 1
        assert min(seen.values()) > 10  # both branches exercised

    def test_bisection_power_accuracy(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(100):
            prob = random_problem(3, rng, z_frac=rng.uniform(0.5, 0.999))
            sol = optimal_beamforming(prob)
            if sol.epsilon > 0:
                hits += 1
                err = abs(np.linalg.norm(sol.w) ** 2 - prob.P) / prob.P
                assert err < 1e-10
        assert hits > 10

    def test_z_zero_and_zero_channel(self):
        prob = DecoupledProblem(h_dir=np.ones(2), h_self=np.ones(2),
                                z=0.0, P=1.0)
        sol = optimal_beamforming(prob)
        assert sol.objective == 0.0
        with pytest.raises(ValueError):
            DecoupledProblem(h_dir=np.zeros(2), h_self=np.ones(2),
                             z=0.5, P=1.0)

    def test_singular_self_channel(self):
        prob = DecoupledProblem(h_dir=np.array([1.0, 1.0]),
                                h_self=np.array([1.0, 0.0]),
                                z=0.5, P=1.0)
        sol = optimal_beamforming(prob)
        assert sol.singular_C
        # cost-free antenna does the work: objective essentially zero
        assert sol.objective < 1e-9


class TestDualCertificate:
    def test_certificate_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            prob = random_problem(3, rng, z_frac=rng.uniform(0.05, 0.99))
            sol = optimal_beamforming(prob)
            cert = dual_certificate(prob, sol)
            assert cert.lambda1 > 0
            assert cert.lambda2 == sol.epsilon
            assert np.linalg.norm(cert.Z @ sol.w) < 1e-8
            assert cert.min_eig > -1e-8

    def test_refuses_zmax(self):
        prob = random_problem(3, np.random.default_rng(7), z_frac=1.0)
        sol = optimal_beamforming(prob)
        assert sol.epsilon == np.inf
        assert np.linalg.norm(sol.w) ** 2 == pytest.approx(prob.P, rel=1e-12)
        with pytest.raises(ValueError, match="Slater"):
            dual_certificate(prob, sol)

    def test_lower_bound_interpretation(self):
        # weak duality: lambda1 * z - lambda2 * P lower-bounds the objective
        rng = np.random.default_rng(6)
        for _ in range(20):
            prob = random_problem(3, rng, z_frac=0.9)
            sol = optimal_beamforming(prob)
            cert = dual_certificate(prob, sol)
            bound = cert.lambda1 * prob.z - cert.lambda2 * prob.P
            assert sol.objective >= bound - 1e-8
            assert sol.objective == pytest.approx(bound, abs=1e-6)


class TestRankReduce:
    def optimal_rank2_mixture(self, rng,
                              masses=lambda slack: [min(0.3, 0.9 * slack)]):
        """Problem with cost-free antennas invisible to the direct channel,
        so adding those directions to the optimum keeps it optimal.

        masses maps the power slack of the optimum to the power added on
        each free antenna (one antenna by default)."""
        n_free = len(masses(1.0))
        h_dir = np.array(list(rng.normal(size=2) + 1j * rng.normal(size=2))
                         + [0.0] * n_free)
        h_self = np.array(list(rng.normal(size=2) + 1j * rng.normal(size=2))
                          + [0.0] * n_free)
        z = 0.15 * float(np.linalg.norm(h_dir) ** 2)
        prob = DecoupledProblem(h_dir=h_dir, h_self=h_self, z=z, P=1.0)
        sol = optimal_beamforming(prob)
        slack = prob.P - float(np.trace(sol.Q).real)
        if slack < 0.05:
            return None
        Q_mix = sol.Q + np.diag([0.0, 0.0] + list(masses(slack)))
        return prob, sol, Q_mix

    def check_reductions(self, rng, **mixture):
        done = 0
        for _ in range(60):
            made = self.optimal_rank2_mixture(rng, **mixture)
            if made is None:
                continue
            prob, sol, Q_mix = made
            done += 1
            assert not is_rank_one(Q_mix)
            # one cost-free antenna per added direction: rank M - 1
            assert np.linalg.matrix_rank(Q_mix, hermitian=True) \
                == prob.h_dir.size - 1
            Q_red = rank_reduce(Q_mix, prob)
            assert is_rank_one(Q_red)
            obj = float(np.trace(prob.C @ Q_red).real)
            assert obj == pytest.approx(float(np.trace(prob.C @ Q_mix).real),
                                        abs=1e-8)
            # constraints preserved
            assert float(np.trace(prob.A @ Q_red).real) == pytest.approx(
                prob.z, abs=1e-8)
            assert np.trace(Q_red).real <= np.trace(Q_mix).real * (1 + 1e-12)
        assert done >= 20

    def test_reduces_constructed_mixture(self):
        self.check_reductions(np.random.default_rng(7))

    def test_reduces_rank3_mixture(self):
        # M = 4, two cost-free antennas at unequal powers
        self.check_reductions(
            np.random.default_rng(9),
            masses=lambda slack: [0.3 * slack, 0.6 * slack])

    def test_rank_one_input_is_fixed_point(self):
        rng = np.random.default_rng(8)
        prob = random_problem(3, rng)
        sol = optimal_beamforming(prob)
        assert np.allclose(rank_reduce(sol.Q, prob), sol.Q, atol=1e-10)


class TestParetoFilter:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10)), min_size=1, max_size=60))
    def test_filter_is_exact(self, pts):
        kept = pareto_filter(pts)
        as_set = set(kept)

        def dominated(p, q):
            return (q[0] >= p[0] and q[1] >= p[1]) and q != p

        for p in kept:
            assert not any(dominated(p, q) for q in map(tuple, pts))
        for p in map(tuple, pts):
            if not any(dominated(p, q) for q in map(tuple, pts)):
                assert p in as_set

    def test_duplicates_of_max_kept(self):
        pts = [(1.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
        assert pareto_filter(pts) == [(1.0, 1.0), (1.0, 1.0)]


class TestParetoBoundary:
    def test_corners_and_monotonicity(self):
        ch = make_miso_channel(seed=10)
        pts = pareto_boundary(ch, grid=(40, 40))
        r1_corner = max(p.r1 for p in pts)
        h12 = ch.h(1, 2)
        expected = np.log2(1.0 + ch.eta[(1, 2)] * ch.P[1]
                           * np.linalg.norm(h12) ** 2)
        assert r1_corner == pytest.approx(expected, abs=1e-9)
        ordered = sorted(pts, key=lambda p: p.r1)
        r2s = [p.r2 for p in ordered]
        assert all(a >= b - 1e-12 for a, b in zip(r2s, r2s[1:]))

    def test_profiles_feasible_rank_one(self):
        ch = make_miso_channel(seed=11)
        for p in pareto_boundary(ch, grid=(15, 15)):
            for Q, P in ((p.Q1, ch.P[1]), (p.Q2, ch.P[2])):
                assert np.trace(Q).real <= P * (1 + 1e-9)
                if np.trace(Q).real > 1e-12:
                    assert is_rank_one(Q)

    def test_beats_weighted_sum_oracle(self):
        ch = make_miso_channel(seed=12, eta_self=1e5)
        pts = pareto_boundary(ch, grid=(60, 60))
        for mu1 in (0.3, 0.5, 0.7):
            _, val = weighted_sum_rate_oracle(ch, mu1, n_dirs=300, seed=1)
            best = max(mu1 * p.r1 + (1 - mu1) * p.r2 for p in pts)
            assert best >= val - 5e-3

    def test_zmax_corner_is_finite(self):
        # seed 838: the search for eps at z = z_max used to double eps to
        # infinity, giving NaN weights and an IndexError in pareto_filter
        ch = make_miso_channel(seed=838)
        pts = pareto_boundary(ch, grid=(200, 200))
        assert all(np.isfinite(p.r1) and np.isfinite(p.r2) for p in pts)
        corner = max(pts, key=lambda p: p.r1)
        assert corner.epsilon1 == np.inf
        h12 = ch.h(1, 2)
        w = np.sqrt(ch.P[1]) * h12 / np.linalg.norm(h12)
        assert np.allclose(corner.Q1, np.outer(w, w.conj()), atol=1e-12)

    def test_identical_pairs_emitted_once(self):
        # zero direct channels: every grid point has rates (0, 0)
        ch = make_miso_channel(seed=17)
        H = dict(ch.H)
        H[(1, 2)] = np.zeros_like(H[(1, 2)])
        H[(2, 1)] = np.zeros_like(H[(2, 1)])
        ch = FdChannelModel(H=H, eta=ch.eta, beta=ch.beta, P=ch.P)
        pts = pareto_boundary(ch, grid=(7, 5))
        assert [(p.r1, p.r2) for p in pts] == [(0.0, 0.0)]
        assert len(pareto_filter([(0.0, 0.0)] * 35)) == 35

    def test_empty_grid_gives_no_points(self):
        assert pareto_boundary(make_miso_channel(seed=19), grid=(0, 5)) == []

    def test_rate_check_bites(self, monkeypatch, tmp_path, capsys):
        # a rate path off by 1e-6 bit must fail the boundary cross-check
        ch = make_miso_channel(seed=18)
        rate = pareto.achievable_rate
        monkeypatch.setattr(pareto, "achievable_rate",
                            lambda *args: rate(*args) + 1e-6)
        with pytest.raises(ArithmeticError):
            pareto_boundary(ch, grid=(20, 20))
        cfg = tmp_path / "ch.json"
        cfg.write_text(json.dumps({"channel": channel_to_dict(ch),
                                   "pareto": {"grid": 20}}))
        assert cli.main(["pareto", "--config", str(cfg)]) == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_rejects_mimo(self):
        rng = np.random.default_rng(13)
        ch = sample_channel(3, 2, {(1, 1): 1.0, (2, 2): 1.0,
                                   (1, 2): 1.0, (2, 1): 1.0},
                            1e-6, {1: 1.0, 2: 1.0}, rng)
        with pytest.raises(ValueError):
            pareto_boundary(ch)


class TestZeroForcing:
    def test_orthogonal_and_full_power(self):
        ch = make_miso_channel(seed=14)
        for i in (1, 2):
            w = zf_beamforming(ch, i)
            assert abs(np.vdot(ch.h(i, i), w)) < 1e-10
            assert np.linalg.norm(w) ** 2 == pytest.approx(ch.P[i])

    def test_zf_dominated_by_boundary(self):
        ch = make_miso_channel(seed=15, eta_self=1e6)
        w1, w2 = zf_beamforming(ch, 1), zf_beamforming(ch, 2)
        prof = (np.outer(w1, w1.conj()), np.outer(w2, w2.conj()))
        rz = (achievable_rate(ch, 1, prof), achievable_rate(ch, 2, prof))
        pts = pareto_boundary(ch, grid=(80, 80))
        assert any(p.r1 >= rz[0] - 1e-6 and p.r2 >= rz[1] - 1e-6 for p in pts)


class TestExport:
    def test_csv_shape(self):
        ch = make_miso_channel(seed=16)
        pts = pareto_boundary(ch, grid=(10, 10))
        buf = io.StringIO()
        export_boundary_csv(pts, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "z1,z2,r1_bits,r2_bits,epsilon1,epsilon2"
        assert len(lines) == len(pts) + 1
