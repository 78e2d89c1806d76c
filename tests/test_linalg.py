import math

import numpy as np
import pytest

from numrad import (
    BadExponent,
    NoConvergence,
    NotHermitian,
    NotSquare,
    adjoint,
    cartesian_parts,
    herm_eig,
    kernels_equal,
    polar_moduli,
    psd_power,
    singular_values,
    spectral_norm,
)
from numrad.linalg import EPS, eigh_desc, herm_eigvals, herm_norm, herm_norms, svd_desc
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_hermitian, random_unitary

SQRT5 = math.sqrt(5.0)


class TestAdjoint:
    def test_real_transpose(self):
        assert np.array_equal(adjoint([[1, 0], [1, 1]]), np.array([[1, 1], [0, 1]]))

    def test_conjugation(self):
        assert np.array_equal(adjoint([[1j]]), np.array([[-1j]]))

    def test_involution_and_hermitian_fixed_point(self, rng):
        a = random_complex(rng, 4)
        assert np.array_equal(adjoint(adjoint(a)), a)
        h = random_hermitian(rng, 4)
        assert np.allclose(adjoint(h), h, atol=0)


class TestHermEig:
    def test_diagonal_sorted_descending(self):
        eig = herm_eig(np.diag([1.0, 5.0, 4.0]))
        assert np.allclose(eig.eigenvalues, [5.0, 4.0, 1.0])

    def test_two_by_two_characteristic_polynomial(self):
        # char poly of [[2,1],[1,1]] is mu^2 - 3 mu + 1
        eig = herm_eig([[2.0, 1.0], [1.0, 1.0]])
        expected = np.sort(np.roots([1.0, -3.0, 1.0]))[::-1]
        assert np.allclose(eig.eigenvalues, expected.real, atol=1e-12)
        assert np.allclose(eig.eigenvalues, [(3 + SQRT5) / 2, (3 - SQRT5) / 2], atol=1e-12)

    def test_identity(self):
        eig = herm_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert np.linalg.norm(eig.reconstruct() - np.eye(3)) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstruction_and_unitarity(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            h = random_hermitian(rng, n)
            eig = herm_eig(h)
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(eig.reconstruct() - h) <= 1e-10 * scale
            u = eig.basis
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_a_small_non_hermitian_matrix(self):
        # The tolerance is relative to ||H||_F: this used to pass against an
        # absolute floor and return eigenvalues +-5e-12.
        with pytest.raises(NotHermitian):
            herm_eig(1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix_is_hermitian(self):
        eig = herm_eig(np.zeros((3, 3)))
        assert np.array_equal(eig.eigenvalues, np.zeros(3))

    def test_nan_tol_cannot_skip_the_hermitian_check(self):
        with pytest.raises(ValueError):
            herm_eig([[0.0, 1.0], [0.0, 0.0]], float("nan"))


class TestSpectralNorm:
    def test_shift3(self):
        assert spectral_norm(T3) == pytest.approx(2.0, abs=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_lower_triangular_2(self):
        assert spectral_norm(T2) == pytest.approx(math.sqrt((3 + SQRT5) / 2), abs=1e-12)

    def test_adjoint_symmetry(self, rng):
        for n in (2, 3, 5):
            a = random_complex(rng, n)
            x, y = spectral_norm(a), spectral_norm(adjoint(a))
            assert abs(x - y) <= 1e-10 * max(1.0, x)

    def test_stacked_herm_norms_match_single(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(6)] + [-np.eye(4), np.eye(4)])
        assert np.array_equal(herm_norms(stack), [herm_norm(h) for h in stack])
        assert herm_norms(stack)[-2] == 1.0

    def test_herm_norms_read_the_ends_of_herm_eigvals(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(6)] + [-2.0 * np.eye(4)])
        vals = herm_eigvals(stack)
        assert np.array_equal(vals, np.linalg.eigvalsh(stack))
        assert np.all(np.diff(vals, axis=-1) >= 0.0)
        assert np.array_equal(herm_norms(stack), np.maximum(-vals[:, 0], vals[:, -1]))
        assert herm_norms(stack)[-1] == 2.0

    def test_non_finite_eigenvalue_is_an_error(self):
        with pytest.raises(NoConvergence):
            herm_eigvals(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_singular_triplet_is_an_error(self):
        # numpy returns a non-finite factor for the first and raises
        # LinAlgError for the second.
        for h in (np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])):
            with pytest.raises(NoConvergence):
                svd_desc(h)

    def test_stacked_top_eigpairs_match_single(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)] + [np.diag([1.0, 3.0, 2.0, 0.0])])
        vals, vecs = eigh_desc(stack)
        assert vals.shape == (6, 4) and vecs.shape == (6, 4, 4)
        assert np.all(np.diff(vals, axis=-1) <= 0.0)
        for h, top, v, basis in zip(stack, vals[:, 0], vecs[:, :, 0], vecs):
            alone = eigh_desc(h[np.newaxis])
            assert top == alone[0][0, 0] and np.array_equal(v, alone[1][0, :, 0])
            single_vals, single_basis = eigh_desc(h)
            assert top == single_vals[0] and np.array_equal(basis, single_basis)
            assert np.linalg.norm(h @ v - top * v) <= 1e-12 * max(1.0, abs(top))
        assert vals[-1, 0] == 3.0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_eigenpair_is_an_error(self):
        cases = [
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.array([[[1.0, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]]),
            # Finite entries whose top eigenvalue, 2.4e308, overflows.
            np.full((3, 3), 8e307),
        ]
        for h in cases:
            with pytest.raises(NoConvergence, match="non-finite eigenpair"):
                eigh_desc(h)


class TestPolarModuli:
    def test_shift3_diagonal(self):
        absm, absmstar = polar_moduli(T3)
        assert np.allclose(absm, np.diag([0.0, 1.0, 2.0]), atol=1e-12)
        assert np.allclose(absmstar, np.diag([1.0, 2.0, 0.0]), atol=1e-12)

    def test_psd_fixed_point(self, rng):
        h = random_hermitian(rng, 4)
        p = h @ h.conj().T  # PSD
        absm, absmstar = polar_moduli(p)
        assert np.allclose(absm, p, atol=1e-10 * max(1, np.linalg.norm(p)))
        assert np.allclose(absmstar, p, atol=1e-10 * max(1, np.linalg.norm(p)))

    def test_square_reconstruction(self):
        absm, _ = polar_moduli(T2)
        gram = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.linalg.norm(absm @ absm - gram) <= 1e-9 * max(1, np.linalg.norm(T2) ** 2)

    def test_moduli_share_singular_values(self, rng):
        for n in (2, 4, 6):
            a = random_complex(rng, n)
            absm, absmstar = polar_moduli(a)
            s1 = np.sort(np.linalg.eigvalsh(absm))
            s2 = np.sort(np.linalg.eigvalsh(absmstar))
            assert np.all(s1 >= -1e-12)
            assert np.allclose(s1, s2, atol=1e-8)
            assert np.allclose(np.sort(singular_values(a)), s1, atol=1e-8)


@pytest.mark.parametrize("k", range(20))
def test_graded_moduli_match_their_factors(k):
    # Singular values 1e-6, 1e-12 and 0 under 1: through eig(T*T) the small
    # ones, and |T| and |T*| with them, were off by about 1e-8.
    rng = np.random.default_rng(k)
    u, v = random_unitary(rng, 5), random_unitary(rng, 5)
    sigma = np.array([1.0, 0.5, 1e-6, 1e-12, 0.0])
    a = (u * sigma) @ v.conj().T
    absm, absmstar = polar_moduli(a)
    tol = 8 * 5 * EPS
    assert np.abs(singular_values(a) - sigma).max() <= tol
    assert np.linalg.norm(absm - (v * sigma) @ v.conj().T, 2) <= tol
    assert np.linalg.norm(absmstar - (u * sigma) @ u.conj().T, 2) <= tol


class TestPsdPower:
    def test_diagonal_square_root(self):
        assert np.allclose(psd_power(np.diag([0.0, 1.0, 4.0]), 0.5), np.diag([0.0, 1.0, 2.0]))

    def test_identity_exponent(self, rng):
        h = random_hermitian(rng, 3)
        p = h @ h.conj().T
        assert np.allclose(psd_power(p, 1.0), p, atol=1e-12 * max(1, np.linalg.norm(p)))

    def test_power_multiplication(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 3)
            p = h @ h.conj().T
            prod = psd_power(p, 0.3) @ psd_power(p, 0.7)
            assert np.linalg.norm(prod - p) <= 1e-8 * max(1.0, np.linalg.norm(p))

    def test_zero_to_the_zero_is_one(self):
        # exponent 0 must act as the identity, including on the kernel
        assert np.allclose(psd_power(np.diag([0.0, 2.0]), 0.0), np.eye(2))

    def test_commutes_with_base(self, rng):
        h = random_hermitian(rng, 4)
        p = h @ h.conj().T
        q = psd_power(p, 0.4)
        assert np.linalg.norm(q @ p - p @ q) <= 1e-10 * max(1.0, np.linalg.norm(p) ** 2)

    def test_rejects_a_small_non_hermitian_matrix(self):
        with pytest.raises(NotHermitian):
            psd_power(1e-9 * np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)
        assert np.array_equal(psd_power(np.zeros((2, 2)), 0.5), np.zeros((2, 2)))

    @pytest.mark.parametrize("r", [-0.1, 1.5])
    def test_rejects_bad_exponent(self, r):
        with pytest.raises(BadExponent):
            psd_power(np.eye(2), r)


class TestCartesianParts:
    def test_lower_triangular_2(self):
        re, im = cartesian_parts(T2)
        assert np.allclose(re, [[1.0, 0.5], [0.5, 1.0]], atol=0)
        assert np.allclose(im, [[0.0, 0.5j], [-0.5j, 0.0]], atol=0)

    def test_hermitian_and_skew(self, rng):
        h = random_hermitian(rng, 3)
        re, im = cartesian_parts(h)
        assert np.allclose(re, h, atol=0) and np.allclose(im, 0, atol=0)
        re, im = cartesian_parts(1j * h)
        assert np.allclose(re, 0, atol=0) and np.allclose(im, h, atol=0)

    def test_reconstruction_and_norm_bound(self, rng):
        for n in (2, 3, 5):
            a = random_complex(rng, n)
            re, im = cartesian_parts(a)
            assert np.allclose(re + 1j * im, a, atol=1e-15 * np.linalg.norm(a))
            assert spectral_norm(re) <= spectral_norm(a) + 1e-10
            assert spectral_norm(im) <= spectral_norm(a) + 1e-10

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            cartesian_parts(np.ones((2, 3)))

    @pytest.mark.filterwarnings("error")
    def test_near_the_top_of_the_range(self):
        # Summing before halving overflowed to inf+nanj entries.
        a = 1e308 * np.ones((2, 2))
        re, im = cartesian_parts(a)
        assert np.array_equal(re, a) and np.array_equal(im, np.zeros((2, 2)))


class TestKernelsEqual:
    def test_shift3_kernels_differ(self):
        cmp = kernels_equal(T3)
        assert not cmp.equal
        assert cmp.kernel_dim == 1 and cmp.adjoint_kernel_dim == 1
        # direct solve: ker T3 = span{e1}, ker T3* = span{e3}
        assert np.allclose(T3 @ np.array([1, 0, 0]), 0)
        assert np.allclose(T3.conj().T @ np.array([0, 0, 1]), 0)

    def test_invertible(self):
        cmp = kernels_equal(T2)
        assert cmp.equal and cmp.kernel_dim == 0 and cmp.adjoint_kernel_dim == 0

    def test_normal_with_kernel(self):
        cmp = kernels_equal(np.diag([0.0, 1.0]))
        assert cmp.equal and cmp.kernel_dim == 1 and cmp.adjoint_kernel_dim == 1


# Every entry is finite, but M*M and MM* overflow.
UNIT = np.array([[1.0, 2.0j], [0.5, -1.0]])
OVERFLOWING = 1e200 * UNIT


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "helper", [singular_values, spectral_norm, polar_moduli, kernels_equal], ids=lambda f: f.__name__
)
def test_overflowing_product_is_an_error(helper):
    # Each used to warn and return NaN, then to refuse the overflowing
    # product; none of them forms M*M or MM* now, so each is the unit-scale
    # result times 1e200, with no error at all.
    big, unit = helper(OVERFLOWING), helper(UNIT)
    if helper is kernels_equal:
        assert big == unit == (True, 0, 0)
        return
    for x, y in zip(big, unit) if helper is polar_moduli else [(big, unit)]:
        # Compared at unit scale: the squares in a norm of x would overflow.
        assert np.linalg.norm(np.asarray(x) / 1e200 - y) <= 8 * len(UNIT) * EPS * np.linalg.norm(y)
