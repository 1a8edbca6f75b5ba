"""Pareto-optimal MISO beamforming.

The boundary machinery works on the per-node decoupled problem

    minimize   h_self^H diag(Q) h_self     (self-interference cost)
    subject to h_dir^H Q h_dir = z,  trace(Q) <= P,  Q >= 0,

solved in closed form by a regularized matched filter with a power
regularizer eps found by bisection, plus a KKT dual certificate and a
constructive rank-one reduction for higher-rank optimal solutions.
"""

from dataclasses import dataclass

import numpy as np

from .channel import _write_csv, achievable_rate, other

EPS_BISECT_RTOL = 1e-12
POWER_RTOL = 1e-10
CERTIFICATE_TOL = 1e-6
RANK_REDUCE_RTOL = 1e-9


@dataclass
class DecoupledProblem:
    """Data of the per-node minimization: direct channel h_dir, diagonal
    self-cost C = Diag(|h_self[k]|^2), received-power target z and power
    budget P."""

    h_dir: np.ndarray
    h_self: np.ndarray
    z: float
    P: float

    def __post_init__(self):
        self.h_dir = np.asarray(self.h_dir, dtype=complex).ravel()
        self.h_self = np.asarray(self.h_self, dtype=complex).ravel()
        if self.h_dir.shape != self.h_self.shape:
            raise ValueError("channel vectors must share length")
        if self.z < 0 or self.z > self.z_max * (1 + 1e-12):
            raise ValueError(
                f"z = {self.z} outside feasible range [0, {self.z_max}]")

    @property
    def z_max(self):
        return self.P * float(np.linalg.norm(self.h_dir) ** 2)

    @property
    def A(self):
        return np.outer(self.h_dir, self.h_dir.conj())

    @property
    def C(self):
        return np.diag(np.abs(self.h_self) ** 2)


@dataclass
class DecoupledSolution:
    Q: np.ndarray
    objective: float
    epsilon: float
    w: np.ndarray
    singular_C: bool = False


def _c_diag(prob):
    """Diagonal of C, regularized if some self-channel entry vanishes."""
    c = np.abs(prob.h_self) ** 2
    singular = bool(np.any(c <= 0.0))
    if singular:
        delta = 1e-12 * max(float(c.max()), 1.0)
        c = c + delta
    return c, singular


def epsilon_zero_condition(prob):
    """True iff the unregularized matched filter already meets the power
    budget: z <= P (h^H C^-1 h)^2 / (h^H C^-2 h)."""
    c, singular = _c_diag(prob)
    if singular:
        return False
    h = prob.h_dir
    q1 = float((np.abs(h) ** 2 / c).sum())
    q2 = float((np.abs(h) ** 2 / c ** 2).sum())
    return prob.z <= prob.P * q1 ** 2 / q2


def _weights_for_eps(prob, c, eps):
    """w(eps) = sqrt(z) (C + eps I)^-1 h / (h^H (C + eps I)^-1 h)."""
    h = prob.h_dir
    u = h / (c + eps)
    t = float((np.abs(h) ** 2 / (c + eps)).sum())
    return np.sqrt(prob.z) * u / t


def optimal_beamforming(prob):
    """Closed-form optimal rank-one solution of the decoupled problem.

    eps = 0 whenever the power constraint is slack; otherwise eps > 0 is
    found by bisection on ||w(eps)||^2 = P (the norm is strictly decreasing
    in eps). At z >= z_max the only feasible beamformers are the full-power
    matched filter sqrt(P) h / ||h|| up to phase; Slater's condition fails
    there, no finite eps attains it, and eps = inf is returned. Returns the
    covariance Q = w w^H, the self-interference objective and eps.
    """
    M = prob.h_dir.size
    if prob.z == 0.0:
        w = np.zeros(M, dtype=complex)
        return DecoupledSolution(Q=np.outer(w, w.conj()), objective=0.0,
                                 epsilon=0.0, w=w)
    h_norm = float(np.linalg.norm(prob.h_dir))
    if h_norm == 0.0:
        raise ValueError("z > 0 is infeasible for a zero direct channel")
    c, singular = _c_diag(prob)
    if prob.z >= prob.z_max:
        w, eps = np.sqrt(prob.P) * prob.h_dir / h_norm, np.inf
    else:
        w, eps = _weights_for_eps(prob, c, 0.0), 0.0
    norm2 = float(np.linalg.norm(w) ** 2)
    if eps == 0.0 and norm2 > prob.P * (1 + POWER_RTOL):
        lo, g_lo = 0.0, norm2 - prob.P          # g(0) > 0
        hi = 1.0
        while float(np.linalg.norm(_weights_for_eps(prob, c, hi)) ** 2) > prob.P:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = float(np.linalg.norm(_weights_for_eps(prob, c, mid)) ** 2) - prob.P
            if g > 0:
                lo = mid
            else:
                hi = mid
                # only the feasible endpoint is returned, so stop on its
                # residual rather than the midpoint's
                if -g < EPS_BISECT_RTOL * prob.P:
                    break
        eps = hi  # feasible side: ||w(hi)||^2 <= P
        w = _weights_for_eps(prob, c, eps)
    Q = np.outer(w, w.conj())
    objective = float((np.abs(prob.h_self) ** 2 * np.abs(w) ** 2).sum())
    achieved = float(np.abs(np.vdot(prob.h_dir, w)) ** 2)
    if abs(achieved - prob.z) > 1e-6 * max(prob.z, 1.0):
        raise ArithmeticError(
            f"received-power constraint violated: {achieved} vs z={prob.z}")
    return DecoupledSolution(Q=Q, objective=objective, epsilon=eps, w=w,
                             singular_C=singular)


@dataclass
class DualCertificate:
    lambda1: float
    lambda2: float
    Z: np.ndarray
    min_eig: float
    slack: float


def dual_certificate(prob, sol):
    """KKT certificate of global optimality for the convex decoupled
    problem.

    With Q = w w^H and eps the power regularizer, stationarity is
    Z w = 0 for Z = C - lambda1 A + lambda2 I, with lambda2 = eps (the
    trace-constraint multiplier, zero when the budget is slack) and
    lambda1 = 1 / (h^H (C + eps I)^-1 h). Certifies Z >= 0 and
    complementary slackness tr(Z Q) = 0, both to within CERTIFICATE_TOL
    times max(tr C, 1).
    """
    if np.isinf(sol.epsilon):
        raise ValueError("no dual certificate at z = z_max: Slater's "
                         "condition fails and the multipliers are unbounded")
    c, _ = _c_diag(prob)
    C = prob.C
    if prob.z == 0.0:
        Z = C
        return DualCertificate(lambda1=0.0, lambda2=0.0, Z=Z,
                               min_eig=float(np.linalg.eigvalsh(Z).min()),
                               slack=0.0)
    h = prob.h_dir
    eps = sol.epsilon
    lambda1 = 1.0 / float((np.abs(h) ** 2 / (c + eps)).sum())
    lambda2 = eps
    Z = C - lambda1 * prob.A + lambda2 * np.eye(h.size)
    min_eig = float(np.linalg.eigvalsh(Z).min())
    slack = float(np.trace(Z @ sol.Q).real)
    tol = CERTIFICATE_TOL * max(float(np.trace(C).real), 1.0)
    if min_eig < -tol or abs(slack) > tol:
        raise ArithmeticError(
            f"dual certificate failed (min_eig={min_eig:.3e}, "
            f"slack={slack:.3e}); solver bug")
    return DualCertificate(lambda1=lambda1, lambda2=lambda2, Z=Z,
                           min_eig=min_eig, slack=slack)


def rank_reduce(Q_opt, prob):
    """Rank-one solution with the received power and self-interference
    cost of an optimal solution Q_opt.

    With w = Q h / sqrt(h^H Q h), w w^H meets h^H (w w^H) h = h^H Q h, and
    Q - w w^H >= 0 (Schur complement), so w w^H costs no more
    self-interference and no more power than Q: for an optimal Q it is an
    optimal rank-one solution with the same objective. The trace does not
    increase; it is equal when Q is already rank one or the power budget
    binds, the only case in which the optimum is unique. Returns the zero
    matrix when h^H Q h = 0. Raises ArithmeticError when tr(A R) or
    tr(C R) of the result R differs from Q's by more than RANK_REDUCE_RTOL
    (relative), as for a Q that is not optimal, or when tr(R) > tr(Q).
    """
    Q = np.asarray(Q_opt, dtype=complex)
    h = prob.h_dir
    Qh = Q @ h
    s = float(np.vdot(h, Qh).real)
    w = Qh / np.sqrt(s) if s > 0.0 else np.zeros_like(h)
    R = np.outer(w, w.conj())
    target = (float(np.trace(prob.A @ Q).real),
              float(np.trace(prob.C @ Q).real))
    new = (float(np.trace(prob.A @ R).real),
           float(np.trace(prob.C @ R).real))
    drift = max(abs(a - b) for a, b in zip(target, new))
    if drift > RANK_REDUCE_RTOL * max(1.0, *map(abs, target)):
        raise ArithmeticError(f"reduction drifted feasibility by {drift:.3e}")
    if np.trace(R).real > np.trace(Q).real * (1 + RANK_REDUCE_RTOL):
        raise ArithmeticError("reduction increased the transmit power")
    return R


def _nondominated(r1, r2):
    """Mask of the rate pairs (r1[k], r2[k]) not component-wise dominated
    by a distinct pair; copies of a kept pair are all kept."""
    order = np.lexsort((-r2, -r1))      # r1 descending, then r2 descending
    s1, s2 = r1[order], r2[order]
    first = np.ones(s1.size, dtype=bool)    # first pair of each r1 group
    first[1:] = s1[1:] != s1[:-1]
    group = np.cumsum(first) - 1
    group_max = s2[first]
    # max r2 among strictly larger r1
    prev_max = np.concatenate(([-np.inf],
                               np.maximum.accumulate(group_max)[:-1]))
    keep = np.empty(s1.size, dtype=bool)
    keep[order] = (s2 >= group_max[group]) & (s2 > prev_max[group])
    return keep


def pareto_filter(points):
    """Keep exactly the rate pairs not component-wise dominated by a
    distinct point, in input order."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return [tuple(map(float, p)) for p in pts[_nondominated(*pts.T)]]


@dataclass
class ParetoPoint:
    z1: float
    z2: float
    Q1: np.ndarray
    Q2: np.ndarray
    r1: float
    r2: float
    epsilon1: float
    epsilon2: float


def pareto_boundary(ch, grid=(200, 200)):
    """Sweep the received-power targets (z1, z2) over their feasible boxes,
    solve the decoupled problems, and return the dominance-filtered rate
    pairs with their beamforming profiles, each distinct pair once, in
    row-major grid order.

    Rates follow r_i = log2(1 + eta_ij z_i / (1 + beta eta_jj G_j(z_j)))
    where G_j is the optimal self-interference cost of node j; the formula
    is verified against achievable_rate on the constructed profiles.
    """
    if ch.N != 1:
        raise ValueError("pareto_boundary requires N = 1")
    sols, zgrids = {}, {}
    for i in (1, 2):
        j = other(i)
        h_dir, h_self = ch.h(i, j), ch.h(i, i)
        z_max = ch.P[i] * float(np.linalg.norm(h_dir) ** 2)
        zs = np.linspace(0.0, z_max, grid[i - 1])
        zgrids[i] = zs
        sols[i] = [optimal_beamforming(
            DecoupledProblem(h_dir=h_dir, h_self=h_self, z=z, P=ch.P[i]))
            for z in zs]

    gam1 = np.array([s.objective for s in sols[1]])
    gam2 = np.array([s.objective for s in sols[2]])
    # r1 feels node 2's residual self-interference and vice versa
    r1 = np.log2(1.0 + ch.eta[(1, 2)] * zgrids[1][:, None] /
                 (1.0 + ch.beta * ch.eta[(2, 2)] * gam2[None, :]))
    r2 = np.log2(1.0 + ch.eta[(2, 1)] * zgrids[2][None, :] /
                 (1.0 + ch.beta * ch.eta[(1, 1)] * gam1[:, None]))

    r1, r2 = r1.ravel(), r2.ravel()
    kept = np.flatnonzero(_nondominated(r1, r2))
    # kept pairs that share r1 are equal; emit the first copy only
    _, first = np.unique(r1[kept], return_index=True)
    kept = np.sort(kept[first])
    if not kept.size:     # an empty grid
        return []
    rows, cols = np.divmod(kept, len(zgrids[2]))
    profiles = (np.array([sols[1][a].Q for a in rows]),
                np.array([sols[2][b].Q for b in cols]))
    rates = np.array([r1[kept], r2[kept]])
    direct = np.array([achievable_rate(ch, i, profiles) for i in (1, 2)])
    if np.any(np.abs(direct - rates).max(axis=0)
              > 1e-8 * np.maximum(1.0, rates.max(axis=0))):
        raise ArithmeticError(
            "boundary rate formula disagrees with achievable_rate")
    return [ParetoPoint(
        z1=float(zgrids[1][a]), z2=float(zgrids[2][b]),
        Q1=sols[1][a].Q, Q2=sols[2][b].Q, r1=float(r1[k]), r2=float(r2[k]),
        epsilon1=sols[1][a].epsilon, epsilon2=sols[2][b].epsilon)
        for k, a, b in zip(kept, rows, cols)]


def zf_beamforming(ch, i):
    """Full-power transmit weights orthogonal to the self-interference
    channel: w ~ (I - h_ii h_ii^H / ||h_ii||^2) h_ij, ||w||^2 = P_i."""
    if ch.N != 1:
        raise ValueError("zf_beamforming requires N = 1")
    if ch.M < 2:
        raise ValueError("zero forcing needs M >= 2")
    j = other(i)
    h_dir, h_self = ch.h(i, j), ch.h(i, i)
    proj = h_dir - h_self * (np.vdot(h_self, h_dir) /
                             float(np.linalg.norm(h_self) ** 2))
    nrm = float(np.linalg.norm(proj))
    if nrm <= 1e-12 * float(np.linalg.norm(h_dir)):
        raise ValueError("direct and self-interference channels are "
                         "parallel; zero forcing is infeasible")
    return np.sqrt(ch.P[i]) * proj / nrm


def export_boundary_csv(points, path_or_file):
    """CSV export: z1, z2, r1_bits, r2_bits, epsilon1, epsilon2.

    Accepts a file path or any writable text object.
    """
    _write_csv(path_or_file,
               ["z1", "z2", "r1_bits", "r2_bits", "epsilon1", "epsilon2"],
               ([repr(p.z1), repr(p.z2), repr(p.r1), repr(p.r2),
                 repr(p.epsilon1), repr(p.epsilon2)] for p in points))
