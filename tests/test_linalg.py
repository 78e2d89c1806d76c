import math

import numpy as np
import pytest

from numrad import (
    BadExponent,
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
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_hermitian

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), 1.0, math.inf])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            kernels_equal(T2, tol)
