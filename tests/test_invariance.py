"""Exact relations of the model that pin its conventions.

Relabelling the nodes 1 <-> 2 swaps every result bit for bit. A transmit
phase or permutation per node (H_ij -> H_ij T_i, strategies Q_i ->
T_i^H Q_i T_i) and a receive unitary per node (H_ij -> U_j H_ij) leave
the rates unchanged, up to rounding: the front-end noise beta diag(Q)
commutes with a diagonal phase and is permuted with the antennas. A
general transmit unitary does not commute with diag(Q), so at beta > 0 it
is not a symmetry, which pins that the noise covariance uses diag(Q).
"""

import numpy as np
import pytest

from fdtwoway.channel import (FdChannelModel, achievable_rate, db_to_linear,
                              sample_channel, tdma_sum_rate)
from fdtwoway.nash import (IwfaConfig, best_response, iwfa, miso_ne,
                           phi_mapping, uniqueness_condition)
from fdtwoway.pareto import pareto_boundary

# relative tolerance of the relations that hold up to rounding
RTOL = 1e-12
SWAP = {1: 2, 2: 1}
NODES = (1, 2)


def draw(seed, N=3, M=3, beta=1e-6, eta_self_db=(50.0, 70.0)):
    """An asymmetric channel: self-interference gains drawn in
    eta_self_db, direct gains in 0-10 dB, unequal budgets."""
    rng = np.random.default_rng([1515, seed])
    es = db_to_linear(rng.uniform(*eta_self_db, size=2))
    ed = db_to_linear(rng.uniform(0.0, 10.0, size=2))
    return sample_channel(M, N, {(1, 1): es[0], (2, 2): es[1],
                                 (1, 2): ed[0], (2, 1): ed[1]},
                          beta, {1: 10.0, 2: 7.0}, rng)


def relabel(ch):
    return FdChannelModel(
        H={(SWAP[i], SWAP[j]): H for (i, j), H in ch.H.items()},
        eta={(SWAP[i], SWAP[j]): g for (i, j), g in ch.eta.items()},
        beta=ch.beta, P={SWAP[i]: p for i, p in ch.P.items()})


def transform(ch, tx=None, rx=None):
    """The channel with H_ij -> rx[j] H_ij tx[i]; a missing dict is the
    identity."""
    tx = tx or dict.fromkeys(NODES, np.eye(ch.M))
    rx = rx or dict.fromkeys(NODES, np.eye(ch.N))
    return FdChannelModel(H={(i, j): rx[j] @ H @ tx[i]
                             for (i, j), H in ch.H.items()},
                          eta=ch.eta, beta=ch.beta, P=ch.P)


def unitary(n, rng):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def phases(n, rng):
    return np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))


def permutation(n, rng):
    return np.eye(n)[rng.permutation(n)]


def zeros(ch):
    return np.zeros((2, ch.M, ch.M))


def rates(ch, profile):
    return np.array([achievable_rate(ch, i, profile) for i in NODES])


def ne_rates(ch):
    tr = iwfa(ch, zeros(ch))
    assert tr.converged
    return rates(ch, tr.final)


def close(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.max(np.abs(a - b)) <= RTOL * max(np.max(np.abs(b)), 1.0)


SEEDS = range(8)
ASYNC = IwfaConfig(miss_probability=0.3, rng_seed=5)
TRANSMIT, TRANSMIT_IDS = [phases, permutation], ["phase", "permutation"]


class TestRelabel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iwfa_trace_swaps_bit_for_bit(self, seed):
        ch = draw(seed)
        tr, sw = iwfa(ch, zeros(ch)), iwfa(relabel(ch), zeros(ch))
        assert (sw.converged, sw.cycle) == (tr.converged, tr.cycle)
        for (a1, a2), (b1, b2) in zip(tr.iterates, sw.iterates,
                                      strict=True):
            assert np.array_equal(a1, b2) and np.array_equal(a2, b1)
        # a residual sums the same squares in the other node order
        assert close(sw.residuals, tr.residuals)

    def test_best_response_tdma_and_uniqueness_swap(self):
        rng = np.random.default_rng(151)
        for seed in SEEDS:
            ch = draw(seed, N=2)
            sw = relabel(ch)
            Q = unitary(ch.M, rng) @ np.diag([6.0, 3.0, 1.0])
            Q = Q @ Q.conj().T / 10.0
            for i in NODES:
                a, b = best_response(ch, i, Q), best_response(sw, SWAP[i], Q)
                assert np.array_equal(a.Q, b.Q) and a.rate == b.rate
            assert tdma_sum_rate(ch) == tdma_sum_rate(sw)
            a, b = uniqueness_condition(ch), uniqueness_condition(sw)
            assert a.alpha == b.alpha[::-1]
            assert a.bound_radius == b.bound_radius[::-1]

    def test_miso_ne_and_pareto_boundary_swap(self):
        for seed in SEEDS[:4]:
            ch = draw(seed, N=1)
            sw = relabel(ch)
            ne, ne_sw = miso_ne(ch), miso_ne(sw)
            assert np.array_equal(ne[0], ne_sw[1])
            assert np.array_equal(ne[1], ne_sw[0])
            pts = {(p.r1, p.r2) for p in pareto_boundary(ch, grid=(30, 20))}
            swapped = {(p.r2, p.r1)
                       for p in pareto_boundary(sw, grid=(20, 30))}
            assert pts == swapped


class TestTransmitSymmetries:
    """H_ij -> H_ij T_i maps each equilibrium Q_i to T_i^H Q_i T_i."""

    @pytest.mark.parametrize("transmit", TRANSMIT, ids=TRANSMIT_IDS)
    @pytest.mark.parametrize("cfg", [None, ASYNC], ids=["sync", "async"])
    def test_iwfa(self, transmit, cfg):
        rng = np.random.default_rng(152)
        for seed in SEEDS:
            ch = draw(seed)
            T = {i: transmit(ch.M, rng) for i in NODES}
            moved_ch = transform(ch, tx=T)
            tr = iwfa(ch, zeros(ch), cfg)
            moved = iwfa(moved_ch, zeros(ch), cfg)
            assert moved.converged and tr.converged
            assert moved.iterations == tr.iterations
            for i in NODES:
                assert close(T[i] @ moved.final[i - 1] @ T[i].conj().T,
                             tr.final[i - 1])
            assert close(rates(moved_ch, moved.final), rates(ch, tr.final))

    @pytest.mark.parametrize("transmit", TRANSMIT, ids=TRANSMIT_IDS)
    def test_best_response_tdma_uniqueness_miso(self, transmit):
        rng = np.random.default_rng(153)
        for seed in SEEDS:
            ch = draw(seed, N=1 + seed % 3)
            T = {i: transmit(ch.M, rng) for i in NODES}
            moved = transform(ch, tx=T)
            Q2 = T[2] @ np.diag([4.0, 2.0, 1.0]) @ T[2].conj().T
            br = best_response(ch, 1, Q2)
            br_moved = best_response(moved, 1, T[2].conj().T @ Q2 @ T[2])
            assert close(T[1] @ br_moved.Q @ T[1].conj().T, br.Q)
            assert close(br_moved.rate, br.rate)
            assert close(tdma_sum_rate(moved), tdma_sum_rate(ch))
            assert close(uniqueness_condition(moved).alpha,
                         uniqueness_condition(ch).alpha)
            if ch.N == 1:
                assert close(rates(moved, miso_ne(moved)),
                             rates(ch, miso_ne(ch)))

    def test_pareto_boundary_phase(self):
        rng = np.random.default_rng(154)
        for seed in SEEDS[:4]:
            ch = draw(seed, N=1)
            T = {i: phases(ch.M, rng) for i in NODES}
            pts = pareto_boundary(ch, grid=(30, 30))
            moved = pareto_boundary(transform(ch, tx=T), grid=(30, 30))
            assert len(moved) == len(pts)
            assert close([(p.r1, p.r2) for p in moved],
                         [(p.r1, p.r2) for p in pts])


class TestReceiveUnitary:
    """H_ij -> U_j H_ij leaves every effective channel, so every strategy,
    unchanged."""

    @pytest.mark.parametrize("cfg", [None, ASYNC], ids=["sync", "async"])
    def test_iwfa_and_best_response(self, cfg):
        rng = np.random.default_rng(155)
        for seed in SEEDS:
            ch = draw(seed)
            moved = transform(ch, rx={i: unitary(ch.N, rng) for i in NODES})
            tr = iwfa(ch, zeros(ch), cfg)
            tr_moved = iwfa(moved, zeros(ch), cfg)
            assert tr_moved.iterations == tr.iterations
            assert close(np.stack(tr_moved.final), np.stack(tr.final))
            Q2 = np.diag([5.0, 1.0, 1.0])
            assert close(best_response(moved, 1, Q2).Q,
                         best_response(ch, 1, Q2).Q)
            assert close(tdma_sum_rate(moved), tdma_sum_rate(ch))
            assert close(uniqueness_condition(moved).alpha,
                         uniqueness_condition(ch).alpha)


class TestGeneralTransmitUnitary:
    """Negative control: H_ij -> H_ij V_i with a general unitary V_i is a
    symmetry only for an ideal front end (beta = 0)."""

    def _shifts(self, beta):
        rng = np.random.default_rng(156)
        shifts = []
        for seed in SEEDS:
            ch = draw(seed, beta=beta, eta_self_db=(60.0, 60.0))
            V = {i: unitary(ch.M, rng) for i in NODES}
            shifts.append(abs(ne_rates(transform(ch, tx=V)).sum()
                              - ne_rates(ch).sum()))
        return np.array(shifts)

    def test_symmetry_at_beta_zero(self):
        assert self._shifts(0.0).max() <= 1e-12

    def test_not_a_symmetry_at_beta_positive(self):
        assert np.median(self._shifts(1e-6)) > 0.01


def test_phi_mapping_stack_equals_single_calls():
    """Phi on a stack of K profiles gives the K single images bit for bit,
    including a row where node 1's best response is degenerate."""
    rng = np.random.default_rng(157)
    ch = draw(0)
    # the noise at receiver 2 is I + 1e3 diag(Q2), so node 1's gains, 1e-13
    # against a silent node 2, stay above the water-filling threshold 1e-14
    # while node 2 transmits 1e-3 and fall below it at node 2's full power
    ch = FdChannelModel(
        H={**ch.H, (2, 2): np.eye(3)},
        eta={**ch.eta, (2, 2): 1e9,
             (1, 2): 1e-13 / np.linalg.norm(ch.H[(1, 2)], 2) ** 2},
        beta=1e-6, P=ch.P)
    profiles = []
    for _ in range(5):
        Q = [unitary(3, rng) @ np.diag(rng.uniform(size=3)) for _ in NODES]
        profiles.append([1e-3 * q @ q.conj().T / np.trace(q @ q.conj().T)
                         for q in Q])
    profiles[2][1] = (ch.P[2] / 3) * np.eye(3)
    stack = np.array(profiles)
    images = phi_mapping(ch, stack)
    assert images.shape == stack.shape
    for k, profile in enumerate(profiles):
        single = phi_mapping(ch, tuple(profile))
        assert isinstance(single, tuple)
        assert np.array_equal(images[k], np.stack(single))
    uniform = (ch.P[1] / 3) * np.eye(3)
    assert [np.array_equal(image[0], uniform) for image in images] == [
        False, False, True, False, False]
    # a stack of stacks maps the same way
    assert np.array_equal(phi_mapping(ch, stack.reshape(5, 1, 2, 3, 3))[:, 0],
                          images)
