"""Complex dense matrix utilities used throughout the package.

All routines operate on plain numpy arrays and are pure: randomness only
enters through an explicit ``numpy.random.Generator``.
"""

import numpy as np

HERMITIAN_RTOL = 1e-10
# water_fill treats gains <= this times max(largest gain, 1) as zero
WATERFILL_RTOL = 1e-14


def check_hermitian(A, rtol=HERMITIAN_RTOL):
    """Validate that A is square and Hermitian within relative tolerance."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(np.linalg.norm(A), 1.0)
    if np.linalg.norm(A - A.conj().T) > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance "
                         f"(residual {np.linalg.norm(A - A.conj().T):.3e})")
    return A


def hermitian_eig(A, rtol=HERMITIAN_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted in
    descending order; eigenvector columns follow the same order.
    """
    A = check_hermitian(A, rtol)
    vals, vecs = np.linalg.eigh(A)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def spectral_radius(A):
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def pseudo_inverse(A, rcond=1e-12):
    """Moore-Penrose pseudoinverse with singular values below
    sigma_max * rcond truncated."""
    A = np.asarray(A, dtype=complex)
    return np.linalg.pinv(A, rcond=rcond)


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


def circulant_eigenvalues(first_row):
    """Eigenvalues of the circulant matrix generated by its first row.

    The circulant C has C[m, n] = first_row[(n - m) mod M]; its eigenvalues
    are the DFT of the generator, returned in DFT index order.
    """
    c = np.asarray(first_row, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("generator must be a nonempty vector")
    return np.fft.fft(c)


def sample_complex_gaussian(rows, cols, rng):
    """i.i.d. circularly-symmetric complex Gaussian entries with unit
    variance (real/imag parts each of variance 1/2)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("dimensions must be positive")
    re = rng.normal(scale=np.sqrt(0.5), size=(rows, cols))
    im = rng.normal(scale=np.sqrt(0.5), size=(rows, cols))
    return re + 1j * im
