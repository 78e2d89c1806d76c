import math

import numpy as np
import pytest

import numrad.radius as radius_mod
from numrad import (
    NoConvergence,
    NotSquare,
    Timeout,
    cartesian_parts,
    hermitian_section,
    numerical_radius,
    spectral_norm,
)
from numrad.linalg import EPS, herm_eigvals
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_hermitian, random_unitary

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


def count_sections(monkeypatch) -> list[int]:
    """Patch eigvalsh to record how many section matrices each call solves."""
    sections = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        sections.append(a.shape[0] if a.ndim == 3 else 1)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return sections


def weighted_shift(n: int, scale: float, phases=None) -> np.ndarray:
    """scale * e^{i phase} on the superdiagonal; w = scale * cos(pi / (n + 1))."""
    m = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = scale * (1.0 if phases is None else np.exp(1j * phases))
    return m


def grid_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the initial grid's sections, as numerical_radius samples them."""
    thetas = np.arange(radius_mod.INITIAL_GRID) * (np.pi / radius_mod.INITIAL_GRID)
    re, im = cartesian_parts(a)
    stack = np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im
    return herm_eigvals(stack)


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

    @pytest.mark.filterwarnings("error")
    def test_finite_near_the_top_of_the_range(self):
        h = hermitian_section(1e308 * np.ones((2, 2)), 0.3)
        assert np.allclose(h, np.cos(0.3) * 1e308 * np.ones((2, 2)), rtol=1e-15, atol=0)


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
        for n in (1, 2, 3, 5, 8, 16):
            u = random_unitary(rng, n)
            normal = (u * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ u.conj().T
            for a in (random_complex(rng, n), normal, random_hermitian(rng, n)):
                bracket = numerical_radius(a, tol)
                oracle = grid_oracle(a)
                slack = tol + spectral_norm(a) * (2 * np.pi / 100_000)
                assert bracket.lower >= oracle - slack
                assert bracket.upper <= oracle + slack

    def test_bottom_sheet_witness(self):
        # ||H(0)|| = 2 is -lambda_min: the angle moves by pi, the witness is e1.
        bracket = numerical_radius(np.diag([-2.0, 1.0]), 1e-10)
        assert bracket.lower <= 2.0 <= bracket.upper
        assert bracket.argmax_angle == np.pi
        assert abs(abs(bracket.witness[0]) - 1.0) <= 1e-15 and bracket.witness[1] == 0

    def test_shift3_section_count(self, monkeypatch):
        # The plateau closes from the initial grid's 360 sections; the
        # branch-and-bound alone would evaluate 23,040 here.
        sections = count_sections(monkeypatch)
        numerical_radius(T3, 1e-8)
        assert sum(sections) == 360

    def test_coarse_start_section_count(self, monkeypatch):
        # Smooth inputs drop most of the coarse grid's intervals in round 0
        # and never fill in the initial grid.
        sections = count_sections(monkeypatch)
        for a in (T2, random_complex(np.random.default_rng(8), 8)):
            sections.clear()
            numerical_radius(a, 1e-9)
            assert sum(sections) < radius_mod.INITIAL_GRID // 3

    def test_bracket_wider_than_tol_is_refused(self):
        # At 2^40 the witness value |<Tx, x>| is only known to about 1e-4,
        # far above tol; the bracket used to come back 9.8e-4 wide.
        a = random_complex(np.random.default_rng(3), 6) * 2.0**40
        with pytest.raises(NoConvergence) as info:
            numerical_radius(a, 1e-9)
        message = str(info.value)
        assert "wide exceeds tol 1.000e-09" in message
        assert " rounds and " in message and " section matrices" in message

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
        monkeypatch.setattr(radius_mod, "MAX_ROUNDS", 0)
        with pytest.raises(Timeout):
            numerical_radius(T2, 1e-9)

    def test_timeout_names_its_counters(self, monkeypatch):
        monkeypatch.setattr(radius_mod, "MAX_ROUNDS", 0)
        with pytest.raises(Timeout) as info:
            numerical_radius(T2, 1e-9)
        message = str(info.value)
        assert "after 0 rounds" in message
        # Only the coarse start: every 8th angle of the initial grid.
        assert "45 section matrices evaluated" in message
        assert "45 intervals live" in message

    def test_requires_square(self):
        with pytest.raises(NotSquare):
            numerical_radius(np.ones((2, 3)), 1e-9)


class TestPlateauCertificate:
    """The level-set certificate that closes plateau brackets from the initial grid."""

    @pytest.mark.parametrize(
        "n, scale, seeded, tol",
        [(32, 1.0, False, 1e-12), (16, 2.0**6, True, 1e-10), (4, 1e4, False, 1e-9)],
        ids=["unit-32", "phased-16x2^6", "4x1e4"],
    )
    def test_closes_from_the_initial_grid(self, monkeypatch, n, scale, seeded, tol):
        phases = np.random.default_rng(7).uniform(0.0, 2 * np.pi, n - 1) if seeded else None
        a = weighted_shift(n, scale, phases)
        sections = count_sections(monkeypatch)
        bracket = numerical_radius(a, tol)
        assert sum(sections) <= radius_mod.INITIAL_GRID
        w = scale * math.cos(math.pi / (n + 1))
        slack = 8 * n * EPS * scale
        assert bracket.lower - slack <= w <= bracket.upper + slack
        assert bracket.upper - bracket.lower <= tol

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", [1.0, float("inf")])
    def test_not_tried_when_the_grid_closes_the_bracket(self, monkeypatch, tol):
        # The grid's own interval certificate is tighter than lower + 0.9 tol.
        calls = []
        monkeypatch.setattr(radius_mod, "_level_set_empty", lambda *args: calls.append(args) or True)
        for a in (T2, T3):
            numerical_radius(a, tol)
        assert calls == []

    @pytest.mark.parametrize("eps", [0.0, 1e-6], ids=["certified", "refined"])
    def test_fill_path_reproduces_the_initial_grid(self, monkeypatch, eps):
        # A shift drops nothing on the coarse grid, so the sweep fills in the
        # initial grid and continues exactly as a sweep that started from it.
        rng = np.random.default_rng(13)
        a = weighted_shift(8, 1.0, rng.uniform(0.0, 2 * np.pi, 7)) + eps * random_complex(rng, 8)
        seen = []
        original = radius_mod._level_set_empty

        def recording(vals, *args):
            seen.append(vals)
            return original(vals, *args)

        monkeypatch.setattr(radius_mod, "_level_set_empty", recording)
        filled = numerical_radius(a, 1e-8)
        assert len(seen) == 1 and np.array_equal(seen[0], grid_eigvals(a))
        monkeypatch.setattr(radius_mod, "_COARSE_STEP", 1)
        direct = numerical_radius(a, 1e-8)
        assert len(seen) == 2 and np.array_equal(seen[1], seen[0])
        for field in ("lower", "upper", "argmax_angle", "witness"):
            assert np.array_equal(getattr(filled, field), getattr(direct, field)), field

    def test_perturbed_shifts_overlap_the_sweep(self, monkeypatch):
        tol = 1e-8
        rng = np.random.default_rng(11)
        cases = [
            weighted_shift(n, 1.0, rng.uniform(0.0, 2 * np.pi, n - 1)) + eps * random_complex(rng, n)
            for n in (2, 3, 5, 8, 16)
            for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
            for _ in range(3)
        ]
        fired = []
        original = radius_mod._level_set_empty

        def recording(*args):
            fired.append(original(*args))
            return fired[-1]

        monkeypatch.setattr(radius_mod, "_level_set_empty", recording)
        sections = count_sections(monkeypatch)
        certified = []
        for a in cases:
            sections.clear()
            tried = len(fired)
            certified.append(numerical_radius(a, tol))
            # A certified plateau closes from the initial grid alone.
            if fired[tried:] == [True]:
                assert sum(sections) == radius_mod.INITIAL_GRID
        monkeypatch.setattr(radius_mod, "_level_set_empty", lambda *args: False)
        swept = [numerical_radius(a, tol) for a in cases]
        for a, c, s in zip(cases, certified, swept):
            assert max(c.lower, s.lower) <= min(c.upper, s.upper), (a, c, s)
        # Both outcomes occur, so both branches were compared.
        assert 0 < sum(fired) < len(fired)

    def test_refuses_within_the_rounding_floor(self):
        # 0.9 tol = 9e-10 is below the rounding allowance 16 n eps ||T||:
        # 1.5e-8 at 2^20, 0.016 at 2^40 (where it is below an ulp of w too).
        for k in (20, 40):
            norm = 2.0**k
            vals = grid_eigvals(weighted_shift(4, norm))
            top = float(np.abs(vals).max())
            assert not radius_mod._level_set_empty(vals, top + 0.9e-9, norm)
            # Refused even when the sampled spectrum is exactly theta-invariant.
            flat = np.tile(vals[0], (len(vals), 1))
            assert not radius_mod._level_set_empty(flat, top + 0.9e-9, norm)
            # A level clear of the allowance is certified.
            assert radius_mod._level_set_empty(vals, top + 0.9, norm)

    def test_refuses_an_off_grid_peak_above_the_level(self):
        # g(theta) = |cos(theta + pi/720)| peaks at w = 1 halfway between two
        # grid angles, 9.5e-6 above the grid maximum and so above the level.
        a = np.array([[np.exp(0.5j * np.pi / radius_mod.INITIAL_GRID)]])
        vals = grid_eigvals(a)
        assert not radius_mod._level_set_empty(vals, float(np.abs(vals).max()) + 0.9e-6, 1.0)
        bracket = numerical_radius(a, 1e-6)
        assert bracket.lower <= 1.0 <= bracket.upper + EPS

    def test_refuses_beyond_the_bernstein_range(self):
        # n h / 2 < 1/2 holds up to n = 114 at 360 angles.
        for n, expected in ((114, True), (115, False), (128, False)):
            vals = np.zeros((radius_mod.INITIAL_GRID, n))
            assert radius_mod._level_set_empty(vals, 1.0, 1.0) is expected

    def test_cap_wins_at_tiny_scale(self):
        scale = 2.0**-500
        a = weighted_shift(4, scale)
        bracket = numerical_radius(a, 1e-9)
        nrm = spectral_norm(a)
        w = scale * math.cos(math.pi / 5)
        assert bracket.upper <= nrm
        assert bracket.lower - 8 * 4 * EPS * scale <= w <= bracket.upper
        assert bracket.upper - bracket.lower <= 1e-9

    def test_sampled_eigenvalues_within_the_rounding_allowance(self):
        # The certificate allows 16 n eps ||T|| per sampled eigenvalue; the
        # errors against the closed form stay below 2 n eps ||T||.
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 16, 64, 114):
            vals = grid_eigvals(weighted_shift(n, 1.0, rng.uniform(0.0, 2 * np.pi, n - 1)))
            exact = np.sort(np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
            assert np.abs(vals - exact).max() <= 2 * n * EPS
