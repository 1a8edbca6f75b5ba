import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtwoway.channel import (FdChannelModel, achievable_rate,
                              channel_from_dict, channel_to_dict,
                              db_to_linear, interference_covariance,
                              linear_to_db, load_channel, one_way_capacity,
                              other, sample_channel, save_channel,
                              simulate_frame, tdma_sum_rate)
from fdtwoway.linalg import water_fill
from covariance_checks import check_covariance


def make_channel(M=3, N=2, beta=1e-4, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    return sample_channel(M, N, {(1, 1): 1e2, (2, 2): 2e2,
                                 (1, 2): 1.0, (2, 1): 1.5},
                          beta, {1: 2.0, 2: 3.0}, rng, symmetric=symmetric)


LINKS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def _model(shape=(2, 3), entry=None, eta=1.0, beta=1e-3, P=1.0):
    """FdChannelModel of N x M = shape matrices, with H21[0, 0] = entry if
    it is given, gain eta on link (1, 2), beta, and node 2's budget P."""
    rng = np.random.default_rng(0)
    H = {k: rng.normal(size=shape) + 1j * rng.normal(size=shape)
         for k in LINKS}
    if entry is not None:
        H[(2, 1)][0, 0] = entry
    return FdChannelModel(H=H, eta={**dict.fromkeys(LINKS, 1.0), (1, 2): eta},
                          beta=beta, P={1: 1.0, 2: P})


def random_Q(M, P, rng):
    G = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    Q = G @ G.conj().T
    return Q * (P / np.trace(Q).real)


def miso_rate(ch, i, profile):
    """Oracle: the N = 1 closed form log2(1 + eta_ij h_ij^H Q_i h_ij /
    (1 + beta eta_jj h_jj^H diag(Q_j) h_jj))."""
    Q = {1: np.asarray(profile[0], dtype=complex),
         2: np.asarray(profile[1], dtype=complex)}
    j = other(i)
    h_ij = ch.h(i, j)
    h_jj = ch.h(j, j)
    signal = ch.eta[(i, j)] * float((h_ij.conj() @ Q[i] @ h_ij).real)
    self_noise = ch.beta * ch.eta[(j, j)] * float(
        (h_jj.conj() * np.diag(Q[j]).real * h_jj).sum().real)
    return float(np.log2(1.0 + signal / (1.0 + self_noise)))


def region_sample(ch, profiles):
    """Rate pairs (R1, R2) for each strategy profile, order preserved."""
    out = []
    for Q1, Q2 in profiles:
        check_covariance(Q1, ch.P[1])
        check_covariance(Q2, ch.P[2])
        out.append((achievable_rate(ch, 1, (Q1, Q2)),
                    achievable_rate(ch, 2, (Q1, Q2))))
    return out


class TestDbConversion:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-120, max_value=120))
    def test_round_trip(self, x_db):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db,
                                                                 abs=1e-9)

    def test_known_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-60.0) == pytest.approx(1e-6)


class TestChannelModel:
    def test_gamma(self):
        ch = make_channel()
        assert ch.gamma(1) == pytest.approx(ch.eta[(2, 1)] / ch.eta[(1, 1)])

    def test_symmetric_draw(self):
        ch = make_channel(symmetric=True)
        assert np.array_equal(ch.H[(1, 2)], ch.H[(2, 1)])
        assert np.array_equal(ch.H[(1, 1)], ch.H[(2, 2)])

    def test_check_covariance_rejects(self):
        with pytest.raises(ValueError):
            check_covariance(np.array([[1.0, 0.0], [0.0, -0.5]]), 10.0)
        with pytest.raises(ValueError):
            check_covariance(np.eye(2), 1.0)  # trace over budget

    @pytest.mark.parametrize("build, valid", [
        (lambda: _model(shape=(1, 0)), False),
        (lambda: _model(shape=(0, 1)), False),
        (lambda: _model(entry=np.nan), False),
        (lambda: _model(entry=np.inf), False),
        (lambda: _model(eta=np.nan), False),
        (lambda: _model(eta=np.inf), False),
        (lambda: _model(eta=0.0), False),
        (lambda: _model(eta=-1.0), False),
        (lambda: _model(beta=np.nan), False),
        (lambda: _model(beta=np.inf), False),
        (lambda: _model(beta=-1e-3), False),
        (lambda: _model(P=np.nan), False),
        (lambda: _model(P=np.inf), False),
        (lambda: _model(P=0.0), False),
        (lambda: sample_channel(3, 3, dict.fromkeys(LINKS, 1.0), 1e-3,
                                {1: 1.0, 2: np.nan},
                                np.random.default_rng(0)), False),
        (lambda: _model(shape=(1, 1)), True),
        (lambda: _model(beta=0.0), True),
    ], ids=["M-0", "N-0", "nan-entry", "inf-entry", "nan-eta", "inf-eta",
            "zero-eta", "negative-eta", "nan-beta", "inf-beta",
            "negative-beta", "nan-P", "inf-P", "zero-P",
            "sample-channel-nan-P", "M-N-1", "zero-beta"])
    def test_construction_checks_every_channel(self, build, valid):
        if not valid:
            with pytest.raises(ValueError):
                build()
            return
        ch = build()    # and it computes a finite rate
        assert np.isfinite(tdma_sum_rate(ch))


class TestRates:
    def test_rate_against_direct_formula(self):
        ch = make_channel(seed=1)
        rng = np.random.default_rng(2)
        Q1, Q2 = random_Q(3, 2.0, rng), random_Q(3, 3.0, rng)
        S2 = interference_covariance(ch, 2, Q2)
        H12 = ch.H[(1, 2)]
        inner = np.eye(3) + ch.eta[(1, 2)] * H12.conj().T @ np.linalg.inv(
            S2) @ H12 @ Q1
        expected = np.log2(np.linalg.det(inner).real)
        assert achievable_rate(ch, 1, (Q1, Q2)) == pytest.approx(expected,
                                                                 abs=1e-10)

    def test_interference_covariance_definition(self):
        ch = make_channel(seed=3)
        Q = random_Q(3, 2.0, np.random.default_rng(4))
        S = interference_covariance(ch, 1, Q)
        H11 = ch.H[(1, 1)]
        expected = np.eye(2) + ch.beta * ch.eta[(1, 1)] * (
            H11 @ np.diag(np.diag(Q)) @ H11.conj().T)
        assert np.allclose(S, expected, atol=1e-12)

    def test_miso_rate_matches_general_rate(self):
        rng = np.random.default_rng(6)
        for seed in (5, 21, 22, 23):
            ch = make_channel(M=2 + seed % 3, N=1, seed=seed)
            prof = (random_Q(ch.M, 2.0, rng), random_Q(ch.M, 3.0, rng))
            for i in (1, 2):
                assert achievable_rate(ch, i, prof) == pytest.approx(
                    miso_rate(ch, i, prof), abs=1e-10)

    def test_stacked_profiles_match_single_calls(self):
        for N in (1, 2):
            ch = make_channel(N=N, seed=24)
            rng = np.random.default_rng(25)
            profs = [(random_Q(3, 2.0, rng), random_Q(3, 3.0, rng))
                     for _ in range(6)]
            stack = tuple(np.array(Qs).reshape(2, 3, 3, 3)
                          for Qs in zip(*profs))
            for i in (1, 2):
                rates = achievable_rate(ch, i, stack)
                assert rates.shape == (2, 3)
                assert np.allclose(
                    rates.ravel(),
                    [achievable_rate(ch, i, prof) for prof in profs],
                    rtol=1e-13, atol=0.0)

    def test_rejects_wrong_shape(self):
        ch = make_channel(seed=26)
        with pytest.raises(ValueError):
            achievable_rate(ch, 1, (np.eye(3), np.eye(2)))

    def test_rate_nonnegative(self):
        ch = make_channel(seed=7)
        zero = (np.zeros((3, 3)), np.zeros((3, 3)))
        assert achievable_rate(ch, 1, zero) == 0.0


def _waterfill_capacity(gains, P):
    """(capacity in bits, powers) of the water-filling allocation."""
    powers, _ = water_fill(gains, P)
    return float(np.log2(1.0 + gains * powers).sum()), powers


class TestWaterfill:
    def test_budget_and_kkt(self):
        gains = np.array([3.0, 1.0, 0.2])
        P = 2.0
        cap, powers = _waterfill_capacity(gains, P)
        assert np.sum(powers) == pytest.approx(P, abs=1e-12)
        # oracle: dense scan over the simplex
        best = 0.0
        n = 120
        for a in np.linspace(0, P, n):
            for b in np.linspace(0, P - a, n):
                c = P - a - b
                best = max(best, np.log2(1 + 3.0 * a) + np.log2(1 + b)
                           + np.log2(1 + 0.2 * c))
        assert cap >= best - 1e-3
        assert cap == pytest.approx(best, abs=2e-2)

    def test_single_mode(self):
        cap, powers = _waterfill_capacity(np.array([2.0]), 3.0)
        assert cap == pytest.approx(np.log2(7.0))
        assert powers == pytest.approx([3.0])

    def test_zero_gains(self):
        cap, powers = _waterfill_capacity(np.zeros(3), 5.0)
        assert cap == 0.0
        assert np.all(powers == 0.0)


class TestBaselines:
    def test_tdma_is_half_sum_of_capacities(self):
        ch = make_channel(seed=8)
        assert tdma_sum_rate(ch) == pytest.approx(
            0.5 * one_way_capacity(ch, 1) + 0.5 * one_way_capacity(ch, 2))

    def test_one_way_capacity_beats_any_profile_rate(self):
        ch = make_channel(seed=9, beta=0.0)
        rng = np.random.default_rng(10)
        prof = (random_Q(3, 2.0, rng), np.zeros((3, 3)))
        assert one_way_capacity(ch, 1) >= achievable_rate(ch, 1, prof) - 1e-9

    def test_region_sample_order(self):
        ch = make_channel(seed=11)
        rng = np.random.default_rng(12)
        profs = [(random_Q(3, 2.0, rng), random_Q(3, 3.0, rng))
                 for _ in range(3)]
        pairs = region_sample(ch, profs)
        assert len(pairs) == 3
        for (r1, r2), prof in zip(pairs, profs):
            assert r1 == pytest.approx(achievable_rate(ch, 1, prof))
            assert r2 == pytest.approx(achievable_rate(ch, 2, prof))


class TestSimulateFrame:
    def test_received_signal_composition(self):
        ch = make_channel(seed=13)
        rng = np.random.default_rng(14)
        prof = (random_Q(3, 2.0, rng), random_Q(3, 3.0, rng))
        s1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        s2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        out = simulate_frame(ch, prof, s1, s2, np.random.default_rng(15))
        y1_expected = (np.sqrt(ch.eta[(2, 1)]) * ch.H[(2, 1)] @ out["s"][2]
                       + np.sqrt(ch.eta[(1, 1)]) * ch.H[(1, 1)] @ out["e"][1]
                       + out["n"][1])
        assert np.allclose(out["y"][1], y1_expected, atol=1e-12)

    def test_batched_received_signal_composition(self):
        ch = make_channel(seed=13)
        rng = np.random.default_rng(14)
        prof = (random_Q(3, 2.0, rng), random_Q(3, 3.0, rng))
        K = 7
        s1 = rng.normal(size=(K, 3)) + 1j * rng.normal(size=(K, 3))
        s2 = rng.normal(size=(K, 3)) + 1j * rng.normal(size=(K, 3))
        out = simulate_frame(ch, prof, s1, s2, np.random.default_rng(15))
        for i in (1, 2):
            j = other(i)
            assert out["e"][i].shape == (K, ch.M)
            assert out["n"][i].shape == out["y"][i].shape == (K, ch.N)
            for k in range(K):
                expected = (np.sqrt(ch.eta[(j, i)]) * ch.H[(j, i)]
                            @ out["s"][j][k]
                            + np.sqrt(ch.eta[(i, i)]) * ch.H[(i, i)]
                            @ out["e"][i][k] + out["n"][i][k])
                assert np.allclose(out["y"][i][k], expected, atol=1e-12)

    def test_batch_of_one_draws_like_one_symbol(self):
        ch = make_channel(seed=13)
        rng = np.random.default_rng(14)
        prof = (random_Q(3, 2.0, rng), random_Q(3, 3.0, rng))
        s1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        s2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        one = simulate_frame(ch, prof, s1, s2, np.random.default_rng(15))
        batch = simulate_frame(ch, prof, s1[None], s2[None],
                               np.random.default_rng(15))
        for key in ("e", "n"):
            for i in (1, 2):
                assert np.array_equal(batch[key][i][0], one[key][i])

    def test_front_end_noise_statistics(self):
        ch = make_channel(seed=16)
        Q1 = np.diag([1.5, 0.4, 0.1]).astype(complex)
        prof = (Q1, random_Q(3, 3.0, np.random.default_rng(17)))
        rng = np.random.default_rng(18)
        samples = np.array([simulate_frame(ch, prof, np.zeros(3), np.zeros(3),
                                           rng)["e"][1] for _ in range(4000)])
        emp = np.mean(np.abs(samples) ** 2, axis=0)
        assert np.allclose(emp, ch.beta * np.diag(Q1).real, rtol=0.15)


class TestSerialization:
    def test_dict_round_trip(self):
        ch = make_channel(seed=19)
        ch2 = channel_from_dict(channel_to_dict(ch))
        for key in ch.H:
            assert np.allclose(ch.H[key], ch2.H[key], atol=1e-12)
            assert ch.eta[key] == pytest.approx(ch2.eta[key], rel=1e-12)
        assert ch.beta == pytest.approx(ch2.beta, rel=1e-12)
        assert ch.P == ch2.P

    def test_file_round_trip(self, tmp_path):
        ch = make_channel(seed=20, beta=0.0)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        ch2 = load_channel(path)
        assert ch2.beta == 0.0
        assert np.allclose(ch.H[(1, 2)], ch2.H[(1, 2)], atol=1e-12)
