"""Covariance checks shared by several test modules; `pythonpath` in
pyproject.toml puts this directory on sys.path."""

import numpy as np

PSD_TOL = 1e-8
TRACE_TOL = 1e-8
RANK_ONE_RATIO = 1e-8


def check_covariance(Q, power_budget):
    """Validate numerical PSD-ness and the trace budget of a strategy Q."""
    Q = np.asarray(Q, dtype=complex)
    tr = float(np.trace(Q).real)
    min_eig = float(np.min(np.linalg.eigvalsh((Q + Q.conj().T) / 2)))
    if min_eig < -PSD_TOL * max(tr, 1.0):
        raise ValueError(f"Q is not PSD (min eigenvalue {min_eig:.3e})")
    if tr > power_budget * (1 + TRACE_TOL):
        raise ValueError(f"trace(Q) = {tr:.6g} exceeds budget {power_budget}")
    return Q


def is_rank_one(Q):
    vals = np.sort(np.linalg.eigvalsh((Q + Q.conj().T) / 2))[::-1]
    return vals[0] > 0 and vals[1] <= RANK_ONE_RATIO * vals[0]
