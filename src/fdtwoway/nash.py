"""Competitive optimality: water-filling best responses, iterative
water-filling (sync and async), Nash-equilibrium uniqueness conditions
and contraction diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (_check_value, _effective_channel, _herm,
                      _log2det, _node_constants, _powers, _strategies,
                      _write_csv, achievable_rate, other)
from .linalg import pseudo_inverse, spectral_radius, water_fill

DEFAULT_DELTA = 1e-8
DEFAULT_MAX_ITER = 500


@dataclass
class BestResponseResult:
    Q: np.ndarray
    water_level: float
    effective_channel: np.ndarray
    rate: float
    degenerate: bool = False


def _best_responses(nodes, d):
    """Water-filling best responses of the stacked nodes against opponent
    transmit powers d (..., nodes, M), whose leading axes are a batch of
    profiles. Returns (Q, water level, effective channel W = eta_ij H_ij^H
    Sigma_j^-1 H_ij, degenerate); a zero effective channel gives the
    uniform strategy, flagged degenerate."""
    P = nodes[-1]
    W = _effective_channel(nodes, d)
    W = (W + _herm(W)) / 2
    lam, U = np.linalg.eigh(W)
    # strongest mode first: this summation order reproduces the per-node
    # reference in the tests to the last bit, which matters because
    # trials that do not converge amplify last-bit differences
    lam, U = lam[..., ::-1], U[..., ::-1]
    p, mu = water_fill(lam, P)
    Q = (U * p[..., None, :]) @ _herm(U)
    Q = (Q + _herm(Q)) / 2
    degenerate = mu == 0.0
    if degenerate.any():
        M = Q.shape[-1]
        P = np.broadcast_to(P, degenerate.shape)
        Q[degenerate] = (P[degenerate, None, None] / M) * np.eye(M)
    return Q, mu, W, degenerate


def best_response(ch, i, Q_j):
    """Rate-maximizing strategy against a fixed opponent.

    Water-fills the eigenmodes of the effective channel: p_k =
    max(mu - 1/lambda_k, 0) with mu solving the power-budget equation
    exactly on the sorted eigenvalues. Uses the full budget whenever the
    effective channel is nonzero; a zero effective channel returns the
    uniform strategy flagged degenerate.
    """
    Q_j = _strategies(ch, (Q_j,))
    Q, mu, W, degenerate = _best_responses(_node_constants(ch, (i,)),
                                           _powers(Q_j))
    return BestResponseResult(
        Q=Q[0], water_level=float(mu[0]), effective_channel=W[0],
        rate=float(_log2det(W, Q)[0]), degenerate=bool(degenerate[0]))


def phi_mapping(ch, profile):
    """Simultaneous best-response mapping (B1(Q2), B2(Q1)).

    profile is (Q1, Q2), or a stack (..., 2, M, M) of profiles; returns a
    tuple for one profile and a stack of the images for a stack.
    """
    Q = _strategies(ch, profile)
    # node 1 faces Q2 and node 2 faces Q1
    image = _best_responses(_node_constants(ch, (1, 2)),
                            _powers(Q)[..., ::-1, :])[0]
    return (image[0], image[1]) if image.ndim == 3 else image


@dataclass
class IwfaConfig:
    delta: float = DEFAULT_DELTA
    max_iter: int = DEFAULT_MAX_ITER
    # a run is asynchronous iff miss_probability > 0
    miss_probability: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        _check_value("delta", "positive", self.delta)
        _check_value("max_iter", 1, self.max_iter)
        if not (0.0 <= self.miss_probability < 1.0):
            raise ValueError("miss_probability must be in [0, 1)")


@dataclass
class IwfaTrace:
    iterates: list
    residuals: list
    converged: bool
    schedule: list = field(default_factory=list)
    # (start, period) when a synchronous run revisited iterate `start`
    # bit for bit at step start + period, its last step; None otherwise
    cycle: tuple = None

    @property
    def iterations(self):
        """The number of steps computed."""
        return len(self.residuals)

    @property
    def final(self):
        return self.iterates[-1]


def iwfa(ch, init, cfg=None):
    """Iterative water-filling from a feasible initial profile.

    A synchronous run (miss_probability 0) applies the full mapping each
    iteration and stops when ||Phi(Q) - Q||_F < delta. An asynchronous run
    (miss_probability > 0) updates each node with probability
    1 - miss_probability per iteration (seeded Bernoulli schedule), keeping
    the stale strategy on a miss, and stops on the successive-iterate
    distance of an iteration where both nodes updated (a missed update
    contributes zero movement and must not end the run).

    The synchronous mapping depends on Q alone, so once an iterate repeats
    an earlier one bit for bit the run cycles without converging (every
    residual of the cycle was already at least delta). The run stops there:
    the trace ends at the revisit, and `cycle` says how it would go on.
    """
    cfg = cfg or IwfaConfig()
    nodes = _node_constants(ch, (1, 2))
    rng = (np.random.default_rng(cfg.rng_seed)
           if cfg.miss_probability > 0 else None)
    Q = _strategies(ch, init)
    iterates = [(Q[0], Q[1])]
    residuals, schedule = [], []
    seen = {Q.tobytes(): 0} if rng is None else None
    flags = (True, True)
    converged, cycle = False, None
    for _ in range(cfg.max_iter):
        new = _best_responses(nodes, _powers(Q)[::-1])[0]
        if rng is not None:
            flags = tuple(rng.random() >= cfg.miss_probability for _ in (1, 2))
            for k in (0, 1):
                if not flags[k]:
                    new[k] = Q[k]
        step = new - Q
        residual = float(np.sqrt(np.vdot(step, step).real))
        iterates.append((new[0], new[1]))
        residuals.append(residual)
        schedule.append(flags)
        Q = new
        if residual < cfg.delta and all(flags):
            converged = True
            break
        if seen is not None:
            step = len(residuals)
            start = seen.setdefault(Q.tobytes(), step)
            if start < step:
                cycle = (start, step - start)
                break
    return IwfaTrace(iterates=iterates, residuals=residuals,
                     converged=converged, schedule=schedule, cycle=cycle)


@dataclass
class UniquenessReport:
    alpha: tuple
    product: float
    branch: tuple
    holds: bool
    bound_radius: tuple


def uniqueness_condition(ch):
    """Sufficient condition for a unique NE: alpha_1 * alpha_2 < 1.

    Per node, the tight spectral-radius bound applies when the incoming
    direct channel has full row rank; otherwise the inflated general bound
    (1 + beta eta_ii P_i rho(H_ii^H H_ii)) rho(H_ii^H H_ii)
    rho(Hji^-H Hji^-1) is used, both scaled by beta / gamma_i. The
    reported bound_radius is rho(H_ii^H Hji^-H Hji^-1 H_ii), with the
    Moore-Penrose inverse.
    """
    alphas, branches, radii = [], [], []
    for i in (1, 2):
        Hji, Hii = ch.H[(other(i), i)], ch.H[(i, i)]
        pinv = pseudo_inverse(Hji)
        rad = spectral_radius(Hii.conj().T @ pinv.conj().T @ pinv @ Hii)
        radii.append(rad)
        pref = ch.beta / ch.gamma(i)
        if np.linalg.matrix_rank(Hji) == ch.N:
            alpha = pref * rad
            branches.append("full-row-rank")
        else:
            rho_self = spectral_radius(Hii.conj().T @ Hii)
            rho_inv = spectral_radius(pinv.conj().T @ pinv)
            alpha = pref * (1.0 + ch.beta * ch.eta[(i, i)] * ch.P[i]
                            * rho_self) * rho_self * rho_inv
            branches.append("general")
        alphas.append(float(alpha))
    product = alphas[0] * alphas[1]
    return UniquenessReport(alpha=tuple(alphas), product=product,
                            branch=tuple(branches), holds=product < 1.0,
                            bound_radius=tuple(radii))


def contraction_check(ch, profile_pairs):
    """Empirical non-contractiveness probe.

    For each pair of distinct profiles (a, b) computes
    ||Phi(a) - Phi(b)|| / ||a - b|| in the block max norm
    ||(X1, X2)|| = max(||X1||_F, ||X2||_F); any ratio >= 1 demonstrates
    that the best-response mapping is not a contraction in that norm. The
    witness is the first pair of the largest ratio; identical pairs are
    skipped.
    """
    pairs = list(profile_pairs)
    if not pairs:
        return {"max_ratio": 0.0, "witness": None, "skipped": 0}
    X = _strategies(ch, pairs)      # (pairs, a/b, nodes, M, M)

    def dist(S):
        return np.linalg.norm(S[:, 0] - S[:, 1], axis=(-2, -1)).max(-1)

    den = dist(X)
    ratios = np.divide(dist(phi_mapping(ch, X)), den,
                       out=np.zeros_like(den), where=den != 0.0)
    k = int(np.argmax(ratios))
    return {"max_ratio": float(ratios[k]),
            "witness": tuple(pairs[k]) if ratios[k] > 0.0 else None,
            "skipped": int(np.count_nonzero(den == 0.0))}


def rayleigh_ratio_cdf(x):
    """CDF of A/B for independent equal-scale Rayleigh A, B.

    The ratio T = A/B has density 2t/(1+t^2)^2, hence
    P(T < x) = x^2 / (1 + x^2); scale-free and validated against Monte
    Carlo in the test suite.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    out = x ** 2 / (1.0 + x ** 2)
    return float(out) if out.ndim == 0 else out


def circulant_uniqueness_probability(M, gamma, beta):
    """Probability that a symmetric circulant FD channel satisfies the
    uniqueness condition: Gamma(sqrt(gamma/beta))^M with Gamma the
    Rayleigh-ratio CDF (gamma, beta linear)."""
    if not (0 < gamma < math.inf and 0 < beta < math.inf):
        raise ValueError(f"gamma and beta must be finite and positive, got "
                         f"{gamma!r} and {beta!r}")
    return float(rayleigh_ratio_cdf(np.sqrt(gamma / beta)) ** M)


def miso_ne(ch):
    """MISO (N = 1) Nash equilibrium: one step of the best-response mapping
    from zero profiles. Each effective channel eta_ij h_ij h_ij^H / sigma_j^2
    has rank one along h_ij whatever the opponent plays, so B_i is the
    full-power matched filter P_i h_ij h_ij^H / ||h_ij||^2 and the image is
    a fixed point; a zero h_ij gives the uniform strategy."""
    if ch.N != 1:
        raise ValueError("miso_ne requires N = 1")
    return phi_mapping(ch, np.zeros((2, ch.M, ch.M)))


def export_trace_csv(ch, trace, path_or_file):
    """CSV export: iter, residual, r1_bits, r2_bits, updated_node1,
    updated_node2. Accepts a file path or a writable text object."""
    iterates = list(zip(*trace.iterates[1:]))    # (Q1 stack, Q2 stack)
    rates = [achievable_rate(ch, i, iterates).tolist() for i in (1, 2)]
    _write_csv(path_or_file,
               ["iter", "residual", "r1_bits", "r2_bits",
                "updated_node1", "updated_node2"],
               ([k + 1, repr(trace.residuals[k]), repr(rates[0][k]),
                 repr(rates[1][k]), int(trace.schedule[k][0]),
                 int(trace.schedule[k][1])]
                for k in range(trace.iterations)))


# Rank-deficient counterexample channel: 3x2 direct channels (rank 2 < N),
# P1 = P2 = COUNTEREXAMPLE_P, beta eta_ii / eta_ji = 1 per node.
COUNTEREXAMPLE_P = 10.0
COUNTEREXAMPLE_H11 = np.array([
    [-0.1440 + 0.3203j, -0.6735 - 0.0040j],
    [-0.4009 + 0.5149j, -0.0351 + 0.6118j],
    [1.3155 + 0.5694j, -1.2339 - 0.4902j]])
COUNTEREXAMPLE_H21 = np.array([
    [1.1187 + 0.8794j, 1.0068 - 0.0645j],
    [0.1281 - 0.3943j, 0.8477 + 0.3248j],
    [1.5970 + 0.2708j, -0.3452 + 2.3450j]])
COUNTEREXAMPLE_Q1 = np.diag([0.2208, 9.7792]).astype(complex)
COUNTEREXAMPLE_Q2 = np.diag([0.4832, 9.5168]).astype(complex)


def counterexample_channel():
    """The symmetric rank-deficient fixture channel on which the tight
    uniqueness bound holds per node yet the mapping is not a contraction."""
    from .channel import FdChannelModel
    H = {(1, 1): COUNTEREXAMPLE_H11, (2, 2): COUNTEREXAMPLE_H11,
         (1, 2): COUNTEREXAMPLE_H21, (2, 1): COUNTEREXAMPLE_H21}
    return FdChannelModel(H=H, eta={(1, 1): 1.0, (2, 2): 1.0,
                                    (1, 2): 1.0, (2, 1): 1.0},
                          beta=1.0, P={i: COUNTEREXAMPLE_P for i in (1, 2)})


def counterexample_probe_pairs(n, rng):
    """Randomized probe pairs targeting the fixture's non-contractive
    region.

    The best-response water-filler switches its active eigenmode set when
    the first diagonal entry of a strategy crosses zero; expansive pairs
    for contraction_check concentrate on that boundary, near the fixture
    strategies (first entry small, the rest of the budget on entry two).
    """
    def diag_profile(d):
        d = np.clip(d, 0.0, None)
        s = d.sum()
        if s > COUNTEREXAMPLE_P:
            d = d * (COUNTEREXAMPLE_P / s)
        return np.diag(d).astype(complex)

    pairs = []
    for _ in range(n):
        d1 = np.array([abs(rng.normal(0.3, 0.3)), 9.6 + rng.normal(0, 0.3)])
        d2 = np.array([abs(rng.normal(0.05, 0.1)), 9.7 + rng.normal(0, 0.3)])
        d1b = np.abs(d1 + rng.normal(scale=0.05, size=2))
        d2b = np.abs(d2 + rng.normal(scale=0.05, size=2))
        pairs.append(((diag_profile(d1), diag_profile(d2)),
                      (diag_profile(d1b), diag_profile(d2b))))
    return pairs
