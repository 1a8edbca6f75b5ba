"""Pareto-optimal MISO beamforming.

The boundary machinery works on the per-node decoupled problem

    minimize   h_self^H diag(Q) h_self     (self-interference cost)
    subject to h_dir^H Q h_dir = z,  trace(Q) <= P,  Q >= 0,

solved in closed form by a regularized matched filter with a power
regularizer eps found by bisection, plus a KKT dual certificate and a
constructive rank-one reduction for higher-rank optimal solutions.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .channel import miso_rate, other

EPS_BISECT_RTOL = 1e-12
RANK_ONE_RATIO = 1e-8


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


def optimal_beamforming(prob, tol=1e-10):
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
    if eps == 0.0 and norm2 > prob.P * (1 + tol):
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


def dual_certificate(prob, sol, tol=1e-6):
    """KKT certificate of global optimality for the convex decoupled
    problem.

    With Q = w w^H and eps the power regularizer, stationarity is
    Z w = 0 for Z = C - lambda1 A + lambda2 I, with lambda2 = eps (the
    trace-constraint multiplier, zero when the budget is slack) and
    lambda1 = 1 / (h^H (C + eps I)^-1 h). Certifies Z >= 0 and
    complementary slackness tr(Z Q) = 0.
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
    scale = max(float(np.trace(C).real), 1.0)
    if min_eig < -tol * scale or abs(slack) > tol * scale:
        raise ArithmeticError(
            f"dual certificate failed (min_eig={min_eig:.3e}, "
            f"slack={slack:.3e}); solver bug")
    return DualCertificate(lambda1=lambda1, lambda2=lambda2, Z=Z,
                           min_eig=min_eig, slack=slack)


def _hermitian_basis(r):
    """Real basis of the r x r Hermitian space (r^2 matrices)."""
    basis = []
    for a in range(r):
        E = np.zeros((r, r), dtype=complex)
        E[a, a] = 1.0
        basis.append(E)
    for a in range(r):
        for b in range(a + 1, r):
            E = np.zeros((r, r), dtype=complex)
            E[a, b] = E[b, a] = 1.0 / np.sqrt(2)
            basis.append(E)
            E = np.zeros((r, r), dtype=complex)
            E[a, b] = -1j / np.sqrt(2)
            E[b, a] = 1j / np.sqrt(2)
            basis.append(E)
    return basis


def _numerical_rank(Q, rtol):
    vals = np.linalg.eigvalsh((Q + Q.conj().T) / 2)
    top = float(vals.max())
    if top <= 0:
        return 0, vals
    return int(np.sum(vals > rtol * top)), vals


def rank_reduce(Q_opt, prob, tol=1e-9, rank_rtol=1e-9):
    """Constructive reduction of an optimal solution to rank one.

    Writes Q = V V^H, solves the two-equation linear system
    tr(V^H A V X) = 0, tr(X) = 0 on the Hermitian space, and updates
    Q <- V (I - X / sigma_1) V^H with sigma_1 the largest-magnitude
    eigenvalue of X, until rank one. Preserves trace(Q), tr(A Q) and the
    objective exactly.
    """
    Q = np.asarray(Q_opt, dtype=complex)
    A = prob.A
    target = (float(np.trace(Q).real),
              float(np.trace(A @ Q).real),
              float(np.trace(prob.C @ Q).real))
    for _ in range(Q.shape[0] + 1):
        r, vals = _numerical_rank(Q, rank_rtol)
        if r <= 1:
            break
        lam, U = np.linalg.eigh((Q + Q.conj().T) / 2)
        order = np.argsort(lam)[::-1][:r]
        V = U[:, order] * np.sqrt(np.maximum(lam[order], 0.0))
        Mmat = V.conj().T @ A @ V
        basis = _hermitian_basis(r)
        rows = np.array([
            [float(np.trace(Mmat @ E).real) for E in basis],
            [float(np.trace(E).real) for E in basis],
        ])
        ns = null_space(rows)
        if ns.shape[1] == 0:
            raise ArithmeticError(
                "no nonzero solution to the reduction system; numerical "
                "rank misestimate, retry with a tighter rank threshold")
        coeffs = ns[:, 0]
        X = sum(c * E for c, E in zip(coeffs, basis))
        sig = np.linalg.eigvalsh(X)
        sigma1 = sig[np.argmax(np.abs(sig))]
        Q = V @ (np.eye(r) - X / sigma1) @ V.conj().T
        Q = (Q + Q.conj().T) / 2
    new = (float(np.trace(Q).real),
           float(np.trace(A @ Q).real),
           float(np.trace(prob.C @ Q).real))
    drift = max(abs(a - b) for a, b in zip(target, new))
    if drift > tol * max(1.0, *map(abs, target)):
        raise ArithmeticError(f"reduction drifted feasibility by {drift:.3e}")
    return Q


def is_rank_one(Q, ratio=RANK_ONE_RATIO):
    vals = np.sort(np.linalg.eigvalsh((Q + Q.conj().T) / 2))[::-1]
    return vals[0] > 0 and vals[1] <= ratio * vals[0]


def pareto_filter(points):
    """Keep exactly the rate pairs not component-wise dominated by a
    distinct point."""
    pts = [tuple(map(float, p)) for p in points]
    n = len(pts)
    if n <= 1:
        return list(pts)
    order = sorted(range(n), key=lambda k: (-pts[k][0], -pts[k][1]))
    keep = [False] * n
    best_r2_prev = -np.inf     # max r2 among strictly larger r1
    i = 0
    while i < len(order):
        j = i
        r1 = pts[order[i]][0]
        while j < len(order) and pts[order[j]][0] == r1:
            j += 1
        group = order[i:j]
        group_max_r2 = pts[group[0]][1]
        for k in group:
            r2 = pts[k][1]
            keep[k] = (r2 >= group_max_r2) and (r2 > best_r2_prev)
        best_r2_prev = max(best_r2_prev, group_max_r2)
        i = j
    return [pts[k] for k in range(n) if keep[k]]


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


def pareto_boundary(ch, grid=(200, 200), tol=1e-10, cross_check=True):
    """Sweep the received-power targets (z1, z2) over their feasible boxes,
    solve the decoupled problems, and return the dominance-filtered rate
    pairs with their beamforming profiles.

    Rates follow r_i = log2(1 + eta_ij z_i / (1 + beta eta_jj G_j(z_j)))
    where G_j is the optimal self-interference cost of node j; with
    cross_check the formula is verified against the direct MISO rate on the
    constructed profiles.
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
            DecoupledProblem(h_dir=h_dir, h_self=h_self, z=z, P=ch.P[i]), tol)
            for z in zs]

    gam1 = np.array([s.objective for s in sols[1]])
    gam2 = np.array([s.objective for s in sols[2]])
    # r1 feels node 2's residual self-interference and vice versa
    r1 = np.log2(1.0 + ch.eta[(1, 2)] * zgrids[1][:, None] /
                 (1.0 + ch.beta * ch.eta[(2, 2)] * gam2[None, :]))
    r2 = np.log2(1.0 + ch.eta[(2, 1)] * zgrids[2][None, :] /
                 (1.0 + ch.beta * ch.eta[(1, 1)] * gam1[:, None]))

    pairs = [(float(r1[a, b]), float(r2[a, b]))
             for a in range(len(zgrids[1])) for b in range(len(zgrids[2]))]
    surviving = set(map(tuple, pareto_filter(pairs)))
    out = []
    for a in range(len(zgrids[1])):
        for b in range(len(zgrids[2])):
            pair = (float(r1[a, b]), float(r2[a, b]))
            if pair not in surviving:
                continue
            surviving.discard(pair)   # emit each surviving pair once
            Q1, Q2 = sols[1][a].Q, sols[2][b].Q
            if cross_check:
                d1 = abs(miso_rate(ch, 1, (Q1, Q2)) - pair[0])
                d2 = abs(miso_rate(ch, 2, (Q1, Q2)) - pair[1])
                if max(d1, d2) > 1e-8 * max(1.0, pair[0], pair[1]):
                    raise ArithmeticError(
                        "boundary rate formula disagrees with miso_rate")
            out.append(ParetoPoint(
                z1=float(zgrids[1][a]), z2=float(zgrids[2][b]),
                Q1=Q1, Q2=Q2, r1=pair[0], r2=pair[1],
                epsilon1=sols[1][a].epsilon, epsilon2=sols[2][b].epsilon))
    return out


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
    if hasattr(path_or_file, "write"):
        _write_boundary_rows(points, path_or_file)
        return
    with open(path_or_file, "w", encoding="utf-8", newline="") as f:
        _write_boundary_rows(points, f)


def _write_boundary_rows(points, f):
    w = csv.writer(f)
    w.writerow(["z1", "z2", "r1_bits", "r2_bits", "epsilon1", "epsilon2"])
    for p in points:
        w.writerow([repr(p.z1), repr(p.z2), repr(p.r1), repr(p.r2),
                    repr(p.epsilon1), repr(p.epsilon2)])
