import io

import numpy as np
import pytest
from scipy.optimize import minimize

from fdtwoway.channel import (FdChannelModel, achievable_rate,
                              db_to_linear, interference_covariance, other,
                              sample_channel)
from fdtwoway.nash import (IwfaConfig,
                           best_response, circulant_uniqueness_probability,
                           contraction_check, counterexample_channel,
                           counterexample_probe_pairs,
                           export_trace_csv, iwfa,
                           miso_ne, phi_mapping, rayleigh_ratio_cdf,
                           uniqueness_condition)


def make_channel(seed, M=3, N=3, eta_self=1e4, eta_dir=1.0, beta=1e-6,
                 P=10.0, symmetric=False):
    rng = np.random.default_rng(seed)
    return sample_channel(M, N, {(1, 1): eta_self, (2, 2): eta_self,
                                 (1, 2): eta_dir, (2, 1): eta_dir},
                          beta, {1: P, 2: P}, rng, symmetric=symmetric)


def random_Q(M, P, rng):
    G = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    Q = G @ G.conj().T
    return Q * (P / np.trace(Q).real)


def slsqp_rate_oracle(ch, i, Q_j, seed=0):
    """Direct rate maximization over Cholesky-parametrized Q (oracle)."""
    M = ch.M
    n = M * M

    def unpack(x):
        L = np.zeros((M, M), dtype=complex)
        idx = 0
        for r in range(M):
            for c in range(r + 1):
                if r == c:
                    L[r, c] = x[idx]
                    idx += 1
                else:
                    L[r, c] = x[idx] + 1j * x[idx + 1]
                    idx += 2
        return L @ L.conj().T

    def fun(x):
        Q = unpack(x)
        prof = (Q, Q_j) if i == 1 else (Q_j, Q)
        return -achievable_rate(ch, i, prof)

    cons = [{"type": "ineq",
             "fun": lambda x: ch.P[i] - float(np.trace(unpack(x)).real)}]
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(4):
        x0 = rng.normal(scale=np.sqrt(ch.P[i] / M), size=n)
        res = minimize(fun, x0, constraints=cons, method="SLSQP",
                       options={"maxiter": 400, "ftol": 1e-12})
        if res.success:
            best = min(best, res.fun)
    return -best


class TestBestResponse:
    def test_matches_direct_oracle(self):
        for seed in range(4):
            ch = make_channel(seed, M=2, N=2, P=2.0)
            Q2 = random_Q(2, 2.0, np.random.default_rng(seed + 100))
            br = best_response(ch, 1, Q2)
            oracle = slsqp_rate_oracle(ch, 1, Q2, seed=seed)
            assert br.rate >= oracle - 1e-6
            assert br.rate == pytest.approx(oracle, abs=1e-5)

    def test_diagonal_allocation(self):
        # eigen-aligned case: diagonal channel, opponent silent
        ch = make_channel(0, M=2, N=2, P=2.0)
        ch.H[(1, 2)] = np.diag([2.0, 1.0]).astype(complex)
        br = best_response(ch, 1, np.zeros((2, 2)))
        g = ch.eta[(1, 2)] * np.array([4.0, 1.0])
        mu = (ch.P[1] + (1 / g).sum()) / 2
        expected = np.maximum(mu - 1 / g, 0.0)
        assert np.allclose(np.sort(np.diag(br.Q).real),
                           np.sort(expected), atol=1e-6)

    def test_full_budget_and_kkt(self):
        rng = np.random.default_rng(1)
        for seed in range(25):
            ch = make_channel(seed)
            Q2 = random_Q(3, 10.0, rng)
            br = best_response(ch, 1, Q2)
            assert np.trace(br.Q).real == pytest.approx(ch.P[1], abs=1e-9)
            # KKT: water level equalized over active modes
            W = br.effective_channel
            lam, U = np.linalg.eigh(W)
            p = np.diag(U.conj().T @ br.Q @ U).real
            for lk, pk in zip(lam, p):
                if pk > 1e-9:
                    assert 1.0 / lk + pk == pytest.approx(br.water_level,
                                                          rel=1e-8)

    def test_degenerate_zero_channel(self):
        ch = make_channel(2)
        ch.H[(1, 2)] = np.zeros((3, 3), dtype=complex)
        br = best_response(ch, 1, np.zeros((3, 3)))
        assert br.degenerate
        assert np.allclose(br.Q, (ch.P[1] / 3) * np.eye(3))

    def test_effective_channel_definition(self):
        ch = make_channel(3)
        Q2 = random_Q(3, 10.0, np.random.default_rng(4))
        W = best_response(ch, 1, Q2).effective_channel
        S2 = interference_covariance(ch, 2, Q2)
        H12 = ch.H[(1, 2)]
        expected = ch.eta[(1, 2)] * H12.conj().T @ np.linalg.inv(S2) @ H12
        assert np.allclose(W, expected, atol=1e-10)


class TestIwfa:
    def test_sync_converges_to_fixed_point(self):
        ch = make_channel(5)
        tr = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))))
        assert tr.converged
        image = phi_mapping(ch, tr.final)
        d = np.linalg.norm(image[0] - tr.final[0]) + np.linalg.norm(
            image[1] - tr.final[1])
        assert d < 1e-6

    def test_async_agrees_with_sync(self):
        ch = make_channel(6, eta_self=1e3)
        sync = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))))
        cfg = IwfaConfig(mode="asynchronous", miss_probability=0.3,
                         rng_seed=11)
        async_tr = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))), cfg)
        assert async_tr.converged
        for k in (0, 1):
            assert np.linalg.norm(sync.final[k] - async_tr.final[k]) < 1e-6

    def test_trace_records_residuals_and_schedule(self):
        ch = make_channel(7)
        tr = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))))
        assert len(tr.residuals) == tr.iterations
        assert len(tr.iterates) == tr.iterations + 1
        assert tr.residuals[-1] < 1e-8
        assert all(f == (True, True) for f in tr.schedule)

    def test_max_iter_respected(self):
        ch = make_channel(8, eta_self=1e8)  # brutal self-interference
        cfg = IwfaConfig(max_iter=3)
        tr = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))), cfg)
        assert tr.iterations <= 3

    def test_config_validation(self):
        for delta in (0.0, float("inf")):
            with pytest.raises(ValueError):
                IwfaConfig(delta=delta)
        with pytest.raises(ValueError):
            IwfaConfig(miss_probability=1.0)
        with pytest.raises(ValueError):
            IwfaConfig(mode="sideways")
        for max_iter in (0, 2.5, "10", None):
            with pytest.raises(ValueError):
                IwfaConfig(max_iter=max_iter)
        assert IwfaConfig(max_iter=np.int64(7)).max_iter == 7


class TestUniqueness:
    def test_low_self_interference_holds(self):
        ch = make_channel(9, eta_self=1.0, eta_dir=1.0, beta=1e-6)
        rep = uniqueness_condition(ch)
        assert rep.holds
        assert rep.product == pytest.approx(rep.alpha[0] * rep.alpha[1])

    def test_fixture_radius_and_branch(self):
        ch = counterexample_channel()
        rep = uniqueness_condition(ch)
        for rad in rep.bound_radius:
            assert rad == pytest.approx(0.46567581566655, abs=1e-10)
        assert rep.branch == ("general", "general")
        assert not rep.holds

    def test_fixture_contraction_witness(self):
        ch = counterexample_channel()
        pairs = counterexample_probe_pairs(2000, np.random.default_rng(12))
        out = contraction_check(ch, pairs)
        assert out["max_ratio"] > 1.0
        assert out["witness"] is not None

    def test_contraction_skips_identical_pairs(self):
        ch = make_channel(13)
        Q = random_Q(3, 10.0, np.random.default_rng(14))
        out = contraction_check(ch, [((Q, Q), (Q, Q))])
        assert out["skipped"] == 1


class TestRayleighRatio:
    def test_cdf_against_monte_carlo(self):
        rng = np.random.default_rng(15)
        n = 10 ** 6
        a = np.abs(rng.normal(size=n) + 1j * rng.normal(size=n))
        b = np.abs(rng.normal(size=n) + 1j * rng.normal(size=n))
        t = a / b
        for x in (0.3, 1.0, 2.5):
            assert rayleigh_ratio_cdf(x) == pytest.approx(
                np.mean(t < x), abs=3e-3)

    def test_edge_cases(self):
        assert rayleigh_ratio_cdf(0.0) == 0.0
        assert rayleigh_ratio_cdf(1.0) == 0.5
        with pytest.raises(ValueError):
            rayleigh_ratio_cdf(-1.0)

    def test_circulant_probability(self):
        assert circulant_uniqueness_probability(3, 1.0, 1.0) == pytest.approx(
            0.125)
        assert circulant_uniqueness_probability(3, 1e6, 1.0) == pytest.approx(
            1.0, abs=1e-5)
        with pytest.raises(ValueError):
            circulant_uniqueness_probability(3, 0.0, 1.0)


class TestMisoNe:
    def test_fixed_point_and_rates(self):
        ch = make_channel(16, N=1, P=1.0)
        prof = miso_ne(ch)
        image = phi_mapping(ch, prof)
        for k in (0, 1):
            assert np.linalg.norm(image[k] - prof[k]) < 1e-8
            assert np.trace(prof[k]).real == pytest.approx(ch.P[k + 1])

    def test_rejects_mimo(self):
        ch = make_channel(17, N=2)
        with pytest.raises(ValueError):
            miso_ne(ch)


class TestExportTrace:
    def test_csv_columns(self):
        ch = make_channel(18)
        tr = iwfa(ch, (np.zeros((3, 3)), np.zeros((3, 3))))
        buf = io.StringIO()
        export_trace_csv(ch, tr, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("iter,residual,r1_bits,r2_bits,"
                            "updated_node1,updated_node2")
        assert len(lines) == tr.iterations + 1


# Reference iteration: the per-node best response and the IWFA loop as
# they were before the fused kernel, each node solved on its own through
# Sigma = I + beta eta_jj H_jj diag(Q_j) H_jj^H and a sequential
# water-level search.

def seed_best_response(ch, i, Q_j):
    j = other(i)
    Hjj = ch.H[(j, j)]
    D = np.diag(np.diag(Q_j).real)
    Sigma_j = np.eye(ch.N) + ch.beta * ch.eta[(j, j)] * (
        Hjj @ D @ Hjj.conj().T)
    Hij = ch.H[(i, j)]
    W = ch.eta[(i, j)] * Hij.conj().T @ np.linalg.solve(Sigma_j, Hij)
    W = (W + W.conj().T) / 2
    P = ch.P[i]
    lam, U = np.linalg.eigh(W)
    lam = lam[::-1]
    U = U[:, ::-1]
    pos = (lam > 1e-14 * max(float(lam.max()), 1.0) if lam.max() > 0
           else lam > np.inf)
    if not np.any(pos):
        return (P / ch.M) * np.eye(ch.M), 0.0, W, True
    inv = 1.0 / lam[pos]
    k = inv.size
    while k > 0:
        mu = (P + inv[:k].sum()) / k
        if mu > inv[k - 1]:
            break
        k -= 1
    p = np.zeros(ch.M)
    p[np.where(pos)[0][:k]] = mu - inv[:k]
    Q = (U * p) @ U.conj().T
    return (Q + Q.conj().T) / 2, float(mu), W, False


def seed_iwfa(ch, init, cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    profile = (np.asarray(init[0], dtype=complex),
               np.asarray(init[1], dtype=complex))
    iterations, converged = 0, False
    for _ in range(cfg.max_iter):
        if cfg.mode == "synchronous":
            flags = (True, True)
        else:
            flags = tuple(rng.random() >= cfg.miss_probability
                          for _ in (1, 2))
        new = (seed_best_response(ch, 1, profile[1])[0] if flags[0]
               else profile[0],
               seed_best_response(ch, 2, profile[0])[0] if flags[1]
               else profile[1])
        residual = float(np.sqrt(np.linalg.norm(new[0] - profile[0]) ** 2
                                 + np.linalg.norm(new[1] - profile[1]) ** 2))
        iterations += 1
        profile = new
        if residual < cfg.delta and all(flags):
            converged = True
            break
    return profile, converged, iterations


def ne_vs_tdma_channel(seed, eta_direct_db, eta_self_db, M=3):
    """A channel drawn as the ne_vs_tdma experiment draws it."""
    eta_d = float(db_to_linear(eta_direct_db))
    eta_s = float(db_to_linear(eta_self_db))
    ch = sample_channel(M, M, {(1, 1): eta_s, (2, 2): eta_s,
                               (1, 2): eta_d, (2, 1): eta_d},
                        float(db_to_linear(-60.0)), {1: 10.0, 2: 10.0},
                        np.random.default_rng(seed), symmetric=True)
    return FdChannelModel(H={k: v / np.sqrt(M) for k, v in ch.H.items()},
                          eta=ch.eta, beta=ch.beta, P=ch.P)


class TestKernelEquivalence:
    def _compare(self, ch, cfg):
        zero = (np.zeros((ch.M, ch.M)), np.zeros((ch.M, ch.M)))
        ref, ref_converged, ref_iterations = seed_iwfa(ch, zero, cfg)
        tr = iwfa(ch, zero, cfg)
        iterates = list(tr.iterates)
        if tr.cycle is not None:
            # the full run goes on around the cycle up to max_iter
            period = tr.cycle[1]
            while len(iterates) <= cfg.max_iter:
                iterates.append(iterates[-period])
        assert tr.converged == ref_converged
        assert len(iterates) - 1 == ref_iterations
        for k in (0, 1):
            assert np.max(np.abs(iterates[-1][k] - ref[k])) <= 1e-9
        return tr

    @staticmethod
    def _check_cycle(ch, tr, cfg):
        """A cycled trace ends at the revisit, and the mapping takes its
        last iterate to the one after the revisited iterate, bit for bit."""
        start, period = tr.cycle
        assert period >= 2 and not tr.converged
        assert tr.iterations == start + period == len(tr.residuals)
        assert len(tr.iterates) == tr.iterations + 1
        assert tr.schedule == [(True, True)] * tr.iterations
        assert np.array_equal(np.stack(tr.iterates[start]),
                              np.stack(tr.iterates[-1]))
        assert np.array_equal(np.stack(phi_mapping(ch, tr.iterates[-1])),
                              np.stack(tr.iterates[start + 1]))
        assert min(tr.residuals[start:]) >= cfg.delta

    def test_sync_matches_reference_on_220_channels(self):
        cfg = IwfaConfig(delta=1e-8, max_iter=500)
        outcomes, cycles = [], []
        for t in range(220):
            eta_self_db = 40.0 + 2.0 * (t % 21)
            eta_direct_db = (0.0, 10.0)[(t // 21) % 2]
            ch = ne_vs_tdma_channel([1234, t], eta_direct_db, eta_self_db)
            tr = self._compare(ch, cfg)
            outcomes.append(tr.converged)
            if tr.cycle is not None:
                self._check_cycle(ch, tr, cfg)
            elif not tr.converged:
                assert tr.iterations == cfg.max_iter
            if not tr.converged:
                cycles.append(tr.cycle is not None)
        # both branches of the loop exit are exercised
        assert any(outcomes) and not all(outcomes)
        # and both ways of not converging: a revisit, and the full budget
        assert any(cycles) and not all(cycles)

    def test_async_matches_reference(self):
        for t in range(12):
            ch = ne_vs_tdma_channel([4321, t], 0.0, 40.0 + 3.0 * t)
            cfg = IwfaConfig(delta=1e-8, max_iter=300, mode="asynchronous",
                             miss_probability=0.3, rng_seed=t)
            assert self._compare(ch, cfg).cycle is None

    def test_best_response_matches_reference(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            ch = make_channel(seed, M=3, N=2 + seed % 2)
            Q2 = random_Q(3, 10.0, rng)
            Q, mu, W, degenerate = seed_best_response(ch, 1, Q2)
            br = best_response(ch, 1, Q2)
            assert np.max(np.abs(br.Q - Q)) <= 1e-12
            assert np.max(np.abs(br.effective_channel - W)) <= 1e-12
            assert br.water_level == pytest.approx(mu, rel=1e-13)
            assert br.degenerate == degenerate
            assert br.rate == pytest.approx(
                achievable_rate(ch, 1, (Q, Q2)), abs=1e-12)
