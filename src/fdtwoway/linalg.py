"""Complex dense matrix utilities used throughout the package.

All routines operate on plain numpy arrays and are pure: randomness only
enters through an explicit ``numpy.random.Generator``.
"""

import math

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


def water_fill(gains, P):
    """Powers p >= 0 with sum(p) = P maximizing sum log(1 + g p) along the
    last axis (leading axes are a batch, P broadcasts to their shape):
    p_k = max(mu - 1/g_k, 0). With 1/g sorted ascending, mu_k = (P +
    cumsum(1/g)_k) / k and mu is mu_k at the last k with mu_k > 1/g_(k).
    Returns (powers aligned with gains, mu); mu = 0 if no gain is usable,
    which includes every row that holds a NaN.

    The rows are filled one at a time in Python floats: IWFA calls this
    once per step on a 2 x M batch, where each numpy call would cost more
    than the arithmetic it does. The running sum is added left to right,
    the order of np.cumsum, which the IWFA traces depend on to the last
    bit; a caller with a large batch should time this loop against the
    vectorized form at its own batch size.
    """
    g = np.asarray(gains, dtype=float)
    lead = g.shape[:-1]
    budgets = (np.zeros(lead) + np.asarray(P, dtype=float)).ravel().tolist()
    powers, mus = [], []
    for row, budget in zip(g.reshape(-1, g.shape[-1]).tolist(), budgets,
                           strict=True):
        # np.max propagates a NaN; Python's max skips it unless it is first
        if any(map(math.isnan, row)):
            threshold = math.nan
        else:
            threshold = WATERFILL_RTOL * max(max(row), 1.0)
        inv = [1.0 / x if x > threshold else math.inf for x in row]
        acc = mu = 0.0
        for k, v in enumerate(sorted(inv), 1):
            acc += v
            level = (budget + acc) / k
            if level > v:
                mu = level
            elif k == 1:
                break
        powers.append([max(mu - v, 0.0) for v in inv])
        mus.append(mu)
    return np.array(powers).reshape(g.shape), np.array(mus).reshape(lead)


def sample_complex_gaussian(shape, rng):
    """i.i.d. circularly-symmetric CN(0, 1) entries of the given shape: real
    and imaginary parts of variance 1/2 each, all real parts drawn first."""
    if any(d <= 0 for d in shape):
        raise ValueError("dimensions must be positive")
    re = rng.normal(scale=np.sqrt(0.5), size=shape)
    im = rng.normal(scale=np.sqrt(0.5), size=shape)
    return re + 1j * im
