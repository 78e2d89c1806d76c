import math

import numpy as np
import pytest

from numrad import (
    NotABNormal,
    Workspace,
    ab_certify,
    lower_sab,
    lower_th5,
    lower_th6,
    numerical_radius,
    spectral_norm,
)
from numrad.linalg import EPS
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_unitary

SQRT5 = math.sqrt(5.0)
# closed forms for the 2x2 lower triangular example
T2_ALPHA_SQ = (3 - SQRT5) / 2
T2_BETA_SQ = (3 + SQRT5) / 2
T2_TH5 = math.sqrt((5 - SQRT5) / 2 * (3 + SQRT5) / 2 / 4 + 1.0)
T2_SAB = math.sqrt(10 + 2 * SQRT5) / 4


class TestCertify:
    def test_lower_triangular_2(self):
        cert = ab_certify(T2)
        assert cert.is_ab_normal and cert.kernels_equal
        assert cert.alpha_best**2 == pytest.approx(T2_ALPHA_SQ, abs=1e-9)
        assert cert.beta_best**2 == pytest.approx(T2_BETA_SQ, abs=1e-9)

    def test_normal_matrix(self, rng):
        u = random_unitary(rng, 3)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = u @ np.diag(lam) @ u.conj().T
        cert = ab_certify(a)
        assert cert.is_ab_normal
        assert cert.alpha_best == pytest.approx(1.0, abs=1e-7)
        assert cert.beta_best == pytest.approx(1.0, abs=1e-7)

    def test_shift3_not_certifiable(self):
        cert = ab_certify(T3)
        assert not cert.is_ab_normal
        assert not cert.kernels_equal
        assert cert.alpha_best == 0.0
        assert math.isinf(cert.beta_best)

    def test_zero_matrix_is_normal(self):
        cert = ab_certify(np.zeros((2, 2)))
        assert cert.is_ab_normal
        assert cert.alpha_best == 1.0 and cert.beta_best == 1.0

    def test_witnesses_realize_raw_ratios(self, rng):
        for _ in range(5):
            a = random_complex(rng, 4)
            cert = ab_certify(a)
            for witness, ratio in (
                (cert.witness_min, cert.raw_min_ratio),
                (cert.witness_max, cert.raw_max_ratio),
            ):
                num = np.linalg.norm(a.conj().T @ witness)
                den = np.linalg.norm(a @ witness)
                assert num / den == pytest.approx(ratio, abs=1e-8)

    def test_certificate_vector_inequalities(self, rng):
        # 100 random unit vectors must satisfy the defining inequalities
        for _ in range(20):
            a = random_complex(rng, 4)
            cert = ab_certify(a)
            if not (cert.is_ab_normal and cert.alpha_best > 0):
                continue
            for _ in range(100):
                x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                x /= np.linalg.norm(x)
                tx = np.linalg.norm(a @ x)
                tsx = np.linalg.norm(a.conj().T @ x)
                assert cert.alpha_best * tx <= tsx + 1e-8
                assert tsx <= cert.beta_best * tx + 1e-8

    def test_hyponormal_has_beta_one(self, rng):
        # finite-dimensional matrices with PSD self-commutator are normal
        u = random_unitary(rng, 3)
        a = u @ np.diag([1.0 + 2j, -0.5j, 3.0]) @ u.conj().T
        commutator = a.conj().T @ a - a @ a.conj().T
        assert np.linalg.norm(commutator) <= 1e-10 * np.linalg.norm(a) ** 2
        cert = ab_certify(a)
        assert cert.beta_best == pytest.approx(1.0, abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 2.0**-600, 1e-160, 1e200], ids=["1e-200", "2^-600", "1e-160", "1e200"])
def test_pair_is_scale_invariant(scale):
    # Through TT* and T*T the pair was (1, 1) at 1e-200 and 2^-600, a
    # warning at 1e-160 and a refusal at 1e200.
    cert = ab_certify(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert cert.is_ab_normal and cert.kernels_equal
    assert cert.alpha_best == pytest.approx((SQRT5 - 1) / 2, rel=1e-12)
    assert cert.beta_best == pytest.approx((SQRT5 + 1) / 2, rel=1e-12)


def test_near_shift_alpha():
    # kappa(T) ~ 1e12: the pencil on T*T gave alpha = 0.9.  The reference
    # is sigma_min(T* T^-1) to 60 digits.
    t = np.diag([1.0, 0.9], 1) + 1e-12 * random_complex(np.random.default_rng(5), 3)
    assert ab_certify(t).alpha_best == pytest.approx(1.428482e-12, rel=1e-3)


class TestLowerBounds:
    def test_th5_lower_triangular_2(self):
        cert = ab_certify(T2)
        value = lower_th5(T2, cert)
        assert value == pytest.approx(T2_TH5, abs=1e-9)
        assert value <= 1.5 + 1e-9  # w(T2) = 3/2

    def test_th5_invertible_hermitian_tight(self):
        h = np.diag([2.0, -1.0])
        cert = ab_certify(h)
        assert lower_th5(h, cert) == pytest.approx(2.0, abs=1e-9)

    def test_th5_identity(self):
        cert = ab_certify(np.eye(2))
        assert lower_th5(np.eye(2), cert) == pytest.approx(1.0, abs=1e-12)

    def test_th6_lower_triangular_2(self):
        cert = ab_certify(T2)
        assert lower_th6(T2, cert) == pytest.approx(T2_SAB, abs=1e-9)

    def test_th6_direct_formula_cases(self):
        # the rotated pair contributes nothing on Hermitians, the value
        # drops to ||H|| / sqrt(2) and stays a valid (untight) bound
        h = np.diag([1.0, -1.0])
        cert = ab_certify(h)
        assert lower_th6(h, cert) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert lower_th6(h, cert) <= 1.0 + 1e-12
        eye = np.eye(2)
        cert_eye = ab_certify(eye)
        assert lower_th6(eye, cert_eye) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert lower_th5(eye, cert_eye) == pytest.approx(1.0, abs=1e-12)

    def test_sab_values(self):
        cert = ab_certify(T2)
        phi = (1 + SQRT5) / 2
        assert spectral_norm(T2) == pytest.approx(phi, abs=1e-12)
        assert lower_sab(T2, cert) == pytest.approx(T2_SAB, abs=1e-9)
        h = np.diag([2.0, -1.0])
        assert lower_sab(h, ab_certify(h)) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        eye = np.eye(2)
        assert lower_sab(eye, ab_certify(eye)) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_orderings_and_soundness(self, rng):
        for _ in range(20):
            a = random_complex(rng, 3)
            cert = ab_certify(a)
            if not cert.is_ab_normal:
                continue
            sab = lower_sab(a, cert)
            th5 = lower_th5(a, cert)
            th6 = lower_th6(a, cert)
            upper = numerical_radius(a, 1e-8).upper
            assert sab <= th5 + 1e-9
            assert sab <= th6 + 1e-9
            assert th5 <= upper + 1e-7
            assert th6 <= upper + 1e-7
            assert sab > spectral_norm(a) / 2

    @pytest.mark.filterwarnings("error")
    def test_spread_bounds_at_a_squaring_overflow(self):
        # ||T||^2 = 4e320 overflows; both bounds used to raise OverflowError.
        h = 1e160 * np.diag([1.0, 2.0])
        cert = ab_certify(h)
        assert lower_th5(h, cert) == pytest.approx(2e160, rel=4 * EPS, abs=0)
        assert lower_th6(h, cert) == pytest.approx(math.sqrt(2.0) * 1e160, rel=4 * EPS, abs=0)

    def test_spread_bounds_equal_the_unscaled_formula(self, rng):
        # The power-of-two scaling is exact, so at normal scales the bounds
        # are the plain formula's, bit for bit.
        for scale in (2.0**-40, 1.0, 1e6):
            ws = Workspace(scale * random_complex(rng, 3))
            cert = ab_certify(ws)
            f = max(1.0 + cert.alpha_best**2, 1.0 + 1.0 / cert.beta_best**2)
            (re, im), (p, q) = ws.re_im_norms, ws.half_rotated_norms
            assert lower_th5(ws, cert) == math.sqrt(f * ws.norm**2 / 4.0 + abs(re**2 - im**2) / 2.0)
            assert lower_th6(ws, cert) == math.sqrt(f * ws.norm**2 / 4.0 + abs(p**2 - q**2))

    def test_rejects_uncertified(self):
        cert = ab_certify(T3)
        with pytest.raises(NotABNormal):
            lower_th5(T3, cert)
        with pytest.raises(NotABNormal):
            lower_th6(T3, cert)
        with pytest.raises(NotABNormal):
            lower_sab(T3, cert)
