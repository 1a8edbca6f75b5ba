import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtwoway.linalg import (check_hermitian, circulant_eigenvalues,
                             hermitian_eig, pseudo_inverse,
                             sample_complex_gaussian, spectral_radius,
                             water_fill, weighted_max_norm)


def circulant_matrix(first_row):
    """Dense circulant matrix from its first row."""
    c = np.asarray(first_row, dtype=complex)
    M = c.size
    return np.array([[c[(n - m) % M] for n in range(M)] for m in range(M)])


def random_hermitian(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


@st.composite
def hermitians(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hermitian(n, np.random.default_rng(seed))


class TestHermitianEig:
    @settings(max_examples=50, deadline=None)
    @given(hermitians())
    def test_reconstruction_and_order(self, A):
        vals, vecs = hermitian_eig(A)
        assert np.all(np.diff(vals) <= 1e-12)  # descending
        assert np.allclose((vecs * vals) @ vecs.conj().T, A, atol=1e-10)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(len(vals)),
                           atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralRadius:
    @settings(max_examples=30, deadline=None)
    @given(hypo=hermitians())
    def test_matches_abs_eigenvalues(self, hypo):
        assert spectral_radius(hypo) == pytest.approx(
            np.abs(np.linalg.eigvalsh(hypo)).max())

    def test_nonnormal(self):
        A = np.array([[0.0, 100.0], [0.0, 0.0]])
        assert spectral_radius(A) == pytest.approx(0.0, abs=1e-12)


class TestPseudoInverse:
    def test_moore_penrose_properties(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        Ap = pseudo_inverse(A)
        assert np.allclose(A @ Ap @ A, A, atol=1e-10)
        assert np.allclose(Ap @ A @ Ap, Ap, atol=1e-10)
        assert np.allclose((A @ Ap).conj().T, A @ Ap, atol=1e-10)

    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(pseudo_inverse(A), np.linalg.inv(A), atol=1e-9)


class TestCirculant:
    def test_cyclic_shift_roots_of_unity(self):
        # first row (0, 1, 0): eigenvalues are the three cube roots of unity
        vals = circulant_eigenvalues(np.array([0.0, 1.0, 0.0]))
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.allclose(sorted(vals, key=np.angle),
                           sorted(roots, key=np.angle), atol=1e-12)

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=5) + 1j * rng.normal(size=5)
        fast = np.sort_complex(circulant_eigenvalues(row))
        dense = np.sort_complex(np.linalg.eigvals(circulant_matrix(row)))
        assert np.allclose(fast, dense, atol=1e-9)


class TestWeightedMaxNorm:
    def test_definition(self):
        X1 = np.eye(2) * 3.0
        X2 = np.eye(2)
        assert weighted_max_norm(X1, X2, (1.0, 1.0)) == pytest.approx(
            np.linalg.norm(X1))
        assert weighted_max_norm(X1, X2, (6.0, 1.0)) == pytest.approx(
            np.linalg.norm(X2))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        a = [random_hermitian(3, rng) for _ in range(2)]
        b = [random_hermitian(3, rng) for _ in range(2)]
        w = (1.0, 2.0)
        lhs = weighted_max_norm(a[0] + b[0], a[1] + b[1], w)
        assert lhs <= weighted_max_norm(*a, w) + weighted_max_norm(*b, w) + 1e-12


class TestComplexGaussian:
    def test_unit_variance_and_circularity(self):
        rng = np.random.default_rng(7)
        G = sample_complex_gaussian(200, 200, rng)
        z = G.ravel()
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)
        # circular symmetry: E[z^2] = 0
        assert abs(np.mean(z ** 2)) < 0.02
        assert np.var(z.real) == pytest.approx(0.5, abs=0.02)


def loop_water_fill(gains, P):
    """Reference: the sequential water-level search over the positive
    gains, lowering the number of active modes until the level clears the
    last one. Returns (powers aligned with gains, water level)."""
    g = np.asarray(gains, dtype=float)
    p = np.zeros_like(g)
    pos = np.where(g > 0)[0]
    if pos.size == 0:
        return p, 0.0
    inv = 1.0 / g[pos]
    order = np.argsort(inv)
    inv_sorted = inv[order]
    k = pos.size
    while k > 0:
        mu = (P + inv_sorted[:k].sum()) / k
        if mu > inv_sorted[k - 1]:
            break
        k -= 1
    p_pos = np.zeros(pos.size)
    p_pos[order[:k]] = mu - inv_sorted[:k]
    p[pos] = p_pos
    return p, mu


class TestWaterFill:
    GAINS = np.array([0.0, 2.5, -1.0, 0.4, 7.0, 0.0, 1.1, -3e-3])

    def _budgets(self):
        """(k, P) with P inside the range of budgets that activates
        exactly k modes, for k = 1 .. number of positive gains."""
        inv = np.sort(1.0 / self.GAINS[self.GAINS > 0])
        # k modes are active while P lies between these breakpoints
        breaks = [float(np.sum(inv[k] - inv[:k])) for k in range(inv.size)]
        breaks.append(breaks[-1] + 10.0)
        return [(k, 0.5 * (breaks[k - 1] + breaks[k]))
                for k in range(1, inv.size + 1)]

    def test_matches_loop_at_every_active_count(self):
        for k, P in self._budgets():
            powers, mu = water_fill(self.GAINS, P)
            ref_p, ref_mu = loop_water_fill(self.GAINS, P)
            assert np.count_nonzero(powers) == k
            assert np.array_equal(powers > 0, ref_p > 0)
            assert np.allclose(powers, ref_p, rtol=1e-13, atol=1e-14)
            assert mu == pytest.approx(ref_mu, rel=1e-13)
            assert powers.sum() == pytest.approx(P, rel=1e-13)
            assert np.all(powers[self.GAINS <= 0] == 0.0)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        gains = rng.normal(size=(4, 3, 5)) ** 3
        gains[0, 0] = 0.0
        P = rng.uniform(0.1, 10.0, size=(4, 3))
        powers, mu = water_fill(gains, P)
        for idx in np.ndindex(4, 3):
            ref_p, ref_mu = loop_water_fill(gains[idx], P[idx])
            assert np.allclose(powers[idx], ref_p, rtol=1e-13, atol=1e-14)
            assert mu[idx] == pytest.approx(ref_mu, rel=1e-13)

    def test_no_positive_gain(self):
        powers, mu = water_fill(np.array([0.0, -1.0, 0.0]), 5.0)
        assert mu == 0.0
        assert np.all(powers == 0.0)

    def test_numerically_zero_gains_get_no_power(self):
        powers, _ = water_fill(np.array([1e-20, 2.0]), 1e30)
        assert powers[0] == 0.0
