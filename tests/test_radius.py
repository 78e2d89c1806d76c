import math

import numpy as np
import pytest

from numrad import (
    NotSquare,
    cartesian_parts,
    hermitian_section,
    numerical_radius,
    spectral_norm,
)
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_unitary

SQRT5 = math.sqrt(5.0)


def grid_oracle(a: np.ndarray, points: int = 100_000) -> float:
    """Dense theta-grid maximum of lambda_max(H(theta)), batched."""
    re, im = cartesian_parts(a)
    best = -np.inf
    thetas = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    for lo in range(0, points, 20_000):
        chunk = thetas[lo : lo + 20_000]
        stack = np.cos(chunk)[:, None, None] * re - np.sin(chunk)[:, None, None] * im
        best = max(best, float(np.linalg.eigvalsh(stack)[:, -1].max()))
    return best


class TestHermitianSection:
    def test_theta_zero_is_real_part(self, rng):
        a = random_complex(rng, 3)
        re, _ = cartesian_parts(a)
        assert np.allclose(hermitian_section(a, 0.0), re, atol=1e-15)

    def test_theta_pi_flips_sign(self, rng):
        a = random_complex(rng, 3)
        re, _ = cartesian_parts(a)
        assert np.allclose(hermitian_section(a, np.pi), -re, atol=1e-14)

    def test_lower_triangular_2_quarter_turn(self):
        expected = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        assert np.allclose(hermitian_section(T2, np.pi / 2), expected, atol=1e-15)

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            hermitian_section(np.ones((2, 3)), 0.1)


class TestNumericalRadius:
    def test_hermitian_spectral_radius(self):
        bracket = numerical_radius(np.diag([-3.0, 1.0]), 1e-10)
        assert bracket.lower == pytest.approx(3.0, abs=1e-9)
        assert bracket.upper - bracket.lower <= 1e-10

    def test_lower_triangular_2(self):
        bracket = numerical_radius(T2, 1e-8)
        assert bracket.lower == pytest.approx(1.5, abs=1e-8)
        assert bracket.upper - bracket.lower <= 1e-8

    def test_shift3(self):
        bracket = numerical_radius(T3, 1e-8)
        assert bracket.lower == pytest.approx(SQRT5 / 2, abs=1e-8)
        assert bracket.upper - bracket.lower <= 1e-8

    def test_shift3_sections_theta_invariant(self):
        # phase conjugation makes the section spectrum of a weighted
        # shift independent of theta
        for theta in (0.0, 0.7, 2.1, 4.4):
            top = np.linalg.eigvalsh(hermitian_section(T3, theta))[-1]
            assert top == pytest.approx(SQRT5 / 2, abs=1e-12)

    def test_bracket_invariants(self, rng):
        for n in (2, 3, 5):
            a = random_complex(rng, n)
            bracket = numerical_radius(a, 1e-9)
            assert 0.0 <= bracket.lower <= bracket.upper
            assert bracket.upper - bracket.lower <= 1e-9
            assert 0.0 <= bracket.argmax_angle < 2 * np.pi
            w = bracket.witness
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(w, a @ w)) == pytest.approx(bracket.lower, abs=1e-12)
            # first non-negligible component is rotated to the positive axis
            lead = w[np.flatnonzero(np.abs(w) > 1e-12)[0]]
            assert lead.imag == pytest.approx(0.0, abs=1e-12) and lead.real > 0

    def test_norm_equivalence(self, rng):
        tol = 1e-7
        for n in range(2, 9):
            a = random_complex(rng, n)
            nrm = spectral_norm(a)
            bracket = numerical_radius(a, tol)
            assert bracket.lower >= nrm / 2 - tol
            assert bracket.upper <= nrm + tol

    def test_adjoint_and_scaling_symmetry(self, rng):
        tol = 1e-8
        a = random_complex(rng, 4)
        w = numerical_radius(a, tol)
        w_adj = numerical_radius(a.conj().T, tol)
        assert abs(w.lower - w_adj.lower) <= 2 * tol
        c = complex(rng.standard_normal(), rng.standard_normal())
        w_scaled = numerical_radius(c * a, tol)
        assert abs(w_scaled.lower - abs(c) * w.lower) <= 2 * abs(c) * tol

    def test_normal_matrix_spectral_radius(self, rng):
        tol = 1e-9
        for n in (2, 4):
            u = random_unitary(rng, n)
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = u @ np.diag(lam) @ u.conj().T
            bracket = numerical_radius(a, tol)
            target = float(np.max(np.abs(lam)))
            assert bracket.lower <= target + tol
            assert bracket.upper >= target - tol

    def test_grid_oracle_agreement(self, rng):
        tol = 1e-9
        for n in (2, 3):
            for _ in range(3):
                a = random_complex(rng, n)
                bracket = numerical_radius(a, tol)
                oracle = grid_oracle(a)
                slack = tol + spectral_norm(a) * (2 * np.pi / 100_000)
                assert bracket.lower >= oracle - slack
                assert bracket.upper <= oracle + slack

    def test_zero_matrix(self):
        bracket = numerical_radius(np.zeros((3, 3)), 1e-9)
        assert bracket.lower == 0.0 and bracket.upper == 0.0

    def test_rejects_tiny_tol(self):
        with pytest.raises(ValueError):
            numerical_radius(T2, 1e-13)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError):
            numerical_radius(T2, float("nan"))

    def test_round_cap_raises_timeout(self, monkeypatch):
        import numrad.radius as radius_mod
        from numrad import Timeout

        monkeypatch.setattr(radius_mod, "MAX_ROUNDS", 0)
        with pytest.raises(Timeout):
            numerical_radius(T2, 1e-9)

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            numerical_radius(np.ones((2, 3)), 1e-9)
