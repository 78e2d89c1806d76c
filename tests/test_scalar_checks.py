import numpy as np
import pytest

from numrad import (
    BadExponent,
    NotHermitian,
    NotUnit,
    Workspace,
    hoelder_mccarthy_slack,
    polar_moduli,
    scalar_inequality_checks,
)
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex

E1_2 = np.array([1.0, 0.0], dtype=complex)
E1_3 = np.array([1.0, 0.0, 0.0], dtype=complex)


def test_lower_triangular_2_basis_vector():
    checks = scalar_inequality_checks(T2, E1_2, E1_2, 0.5)
    assert checks.kato
    # direct arithmetic oracle: lhs is |T2[0,0]|^2 = 1, rhs from the moduli
    absm, absmstar = polar_moduli(T2)
    lhs = abs(np.vdot(E1_2, T2 @ E1_2)) ** 2
    rhs = absm[0, 0].real * absmstar[0, 0].real
    assert lhs == pytest.approx(1.0)
    assert rhs >= lhs - 1e-9


def test_kernel_vector_trivial():
    # T3 e1 = 0 makes every left side vanish
    checks = scalar_inequality_checks(T3, E1_3, E1_3, 0.3)
    assert all(checks)
    assert abs(np.vdot(E1_3, T3 @ E1_3)) == 0.0


def test_mccarthy_degenerates_to_equality_at_exponent_one(rng):
    a = random_complex(rng, 3)
    absm, _ = polar_moduli(a)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x /= np.linalg.norm(x)
    assert hoelder_mccarthy_slack(absm, x, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_mccarthy_slack_nonnegative_at_two(rng):
    for _ in range(20):
        a = random_complex(rng, 3)
        absm, _ = polar_moduli(a)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert hoelder_mccarthy_slack(absm, x, 2.0) >= -1e-9


def test_all_hold_on_random_samples(rng):
    for n in (2, 3, 5):
        for _ in range(20):
            a = random_complex(rng, n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            r = float(rng.uniform())
            assert all(scalar_inequality_checks(a, x, y, r))


def test_exponent_endpoints(rng):
    a = random_complex(rng, 3)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x /= np.linalg.norm(x)
    for r in (0.0, 1.0):
        assert all(scalar_inequality_checks(a, x, x, r))


def test_rejects_bad_inputs():
    with pytest.raises(NotUnit):
        scalar_inequality_checks(T2, 2 * E1_2, E1_2, 0.5)
    with pytest.raises(BadExponent):
        scalar_inequality_checks(T2, E1_2, E1_2, 1.5)
    with pytest.raises(BadExponent):
        hoelder_mccarthy_slack(np.eye(2), E1_2, 0.5)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_hoelder_mccarthy_rejects_non_finite_exponent(s):
    # Used to raise NoConvergence ("the matrix is too large") from the power.
    with pytest.raises(BadExponent, match="finite"):
        hoelder_mccarthy_slack(np.diag([2.0, 0.5]), E1_2, s)


def test_checks_read_every_power_off_the_cached_decomposition(rng, monkeypatch):
    # Both routes, Kato's 2r-th powers and the squared function pair
    # f(|T|) = |T|^r, g(|T*|) = |T*|^(1-r), come from the workspace's SVD;
    # the function pair used to re-decompose |T| and |T*| with one eigh each.
    a = random_complex(rng, 4)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ws = Workspace(a)
    ws.svd  # decomposed before the solvers are counted
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert all(scalar_inequality_checks(ws, x, x, 0.3))
    assert calls == []


def test_hoelder_mccarthy_validates_the_psd_matrix():
    # Both used to be hermitized and clipped silently; diag(1, -1) gave 1.0
    # at x = e2, s = 1, where <P^1 x, x> - <P x, x>^1 is 0.
    with pytest.raises(NotHermitian):
        hoelder_mccarthy_slack([[0.0, 1.0], [0.0, 0.0]], E1_2, 2.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        hoelder_mccarthy_slack(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 1.0)
