"""Complex dense matrix utilities used throughout the package.

All routines operate on plain numpy arrays and are pure: randomness only
enters through an explicit ``numpy.random.Generator``.
"""

import numpy as np

# water_fill treats gains <= this times max(largest gain, 1) as zero
WATERFILL_RTOL = 1e-14
PINV_RCOND = 1e-12


def spectral_radius(A):
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def pseudo_inverse(A):
    """Moore-Penrose pseudoinverse with singular values below
    sigma_max * PINV_RCOND truncated."""
    return np.linalg.pinv(np.asarray(A, dtype=complex), rcond=PINV_RCOND)


def weighted_max_norm(X1, X2, w):
    """max(||X1||_F / w1, ||X2||_F / w2) for positive weights (w1, w2)."""
    w1, w2 = float(w[0]), float(w[1])
    if w1 <= 0 or w2 <= 0:
        raise ValueError("weights must be positive")
    return max(np.linalg.norm(X1) / w1, np.linalg.norm(X2) / w2)


def water_fill(gains, P):
    """Powers p >= 0 with sum(p) = P maximizing sum log(1 + g p) along the
    last axis (leading axes are a batch, P broadcasts against them):
    p_k = max(mu - 1/g_k, 0). With 1/g sorted ascending, mu_k = (P +
    cumsum(1/g)_k) / k and mu is mu_k at the last k with mu_k > 1/g_(k).
    Returns (powers aligned with gains, mu); mu = 0 if no gain is usable.
    """
    g = np.asarray(gains, dtype=float)
    n = g.shape[-1]
    usable = g > WATERFILL_RTOL * np.maximum(g.max(axis=-1, keepdims=True),
                                             1.0)
    inv = np.divide(1.0, g, out=np.full(g.shape, np.inf), where=usable)
    inv_sorted = np.sort(inv, axis=-1)
    levels = ((np.asarray(P, dtype=float)[..., None]
               + np.cumsum(inv_sorted, axis=-1)) / np.arange(1, n + 1))
    above = levels > inv_sorted
    last = n - 1 - np.argmax(above[..., ::-1], axis=-1)
    mu = np.take_along_axis(levels, last[..., None], axis=-1)[..., 0]
    mu = np.where(above[..., 0], mu, 0.0)
    return np.maximum(mu[..., None] - inv, 0.0), mu


def sample_complex_gaussian(shape, rng):
    """i.i.d. circularly-symmetric CN(0, 1) entries of the given shape: real
    and imaginary parts of variance 1/2 each, all real parts drawn first."""
    if any(d <= 0 for d in shape):
        raise ValueError("dimensions must be positive")
    re = rng.normal(scale=np.sqrt(0.5), size=shape)
    im = rng.normal(scale=np.sqrt(0.5), size=shape)
    return re + 1j * im
