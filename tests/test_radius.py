import math
import time
import tracemalloc

import numpy as np
import pytest

import numrad.radius as radius_mod
from numrad import (
    NoConvergence,
    NotSquare,
    Timeout,
    Workspace,
    cartesian_parts,
    hermitian_section,
    numerical_radius,
    random_matrix,
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
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_theta(self, theta):
        # Used to return an all-NaN matrix (nan) or warn in cos/sin (inf).
        with pytest.raises(ValueError, match="theta must be finite"):
            hermitian_section(T2, theta)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-200, 2.0**-600], ids=["1e-200", "2^-600"])
    def test_underflowing_scale_is_bracketed(self, scale):
        # T*T underflows to zero here, and the bracket used to be [0, 0].
        bracket = numerical_radius(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        slack = 8 * 2 * EPS * scale
        assert bracket.lower - slack <= 1.5 * scale <= bracket.upper + slack
        assert bracket.lower > 0.0

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
        # The plateau closes from the initial grid's 320 sections; the
        # branch-and-bound alone would evaluate 20,480 here.
        sections = count_sections(monkeypatch)
        numerical_radius(T3, 1e-8)
        assert sum(sections) == 320

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
        # far above tol: this bracket used to end 2.4e-3 wide, and the
        # rounding floor now refuses tol before the sweep.
        a = random_complex(np.random.default_rng(5), 6) * 2.0**40
        with pytest.raises(NoConvergence) as info:
            numerical_radius(a, 1e-9)
        message = str(info.value)
        assert "of the sections (32 n eps ||T||) exceeds tol 1.000e-09" in message
        assert "rounding floor " in message

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
        # Only the coarse start: every 32nd angle of the initial grid.
        assert "10 section matrices evaluated" in message
        assert "10 intervals live" in message

    def test_tol_below_the_rounding_floor_is_refused_at_once(self, monkeypatch):
        # The 4 x 4 unit shift at 2^40 used to refine every interval until
        # the work cap stopped it, after 1.6 s; tol 1e-9 is below the floor
        # 32 n eps ||T|| = 0.031, so it is refused before any section.
        sections = count_sections(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match="rounding floor 3.125e-02 .* exceeds tol 1.000e-09"):
            numerical_radius(weighted_shift(4, 2.0**40), 1e-9)
        assert time.perf_counter() - start < 0.1
        assert sections == []

    @pytest.mark.parametrize("n, scale, tol", [(80, 1.0, 1e-12)], ids=["shift80-tol1e-12"])
    def test_work_cap_ends_a_runaway_plateau(self, monkeypatch, n, scale, tol):
        # A plateau whose bracket neither certificate closes: the level-set
        # factors are too small.  It used to refine every interval for
        # minutes; the patched solver stops a sweep that passes the cap
        # instead.
        entries = []
        original = np.linalg.eigvalsh

        def capped(a, *args, **kwargs):
            entries.append(a.size)
            assert sum(entries) <= 1 << 24, "the sweep passed the work cap"
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", capped)
        with pytest.raises(Timeout, match="section matrices evaluated.*section entries"):
            numerical_radius(weighted_shift(n, scale), tol)

    def test_section_stacks_stay_within_the_memory_cap(self):
        # Stacking the 45 coarse 64 x 64 sections at once peaked at 6.2 MiB.
        a = random_complex(np.random.default_rng(0), 64)
        tracemalloc.start()
        try:
            numerical_radius(a, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20

    @pytest.mark.parametrize("seeded", [False, True], ids=["plateau", "smooth"])
    def test_solving_in_pieces_changes_no_bit(self, monkeypatch, seeded):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 8) if seeded else weighted_shift(8, 1.0, rng.uniform(0.0, 2 * np.pi, 7))
        whole = numerical_radius(a, 1e-9)
        # Three sections per call, so the 10- and 310-angle solves end in a short piece.
        monkeypatch.setattr(radius_mod, "_SOLVE_ENTRIES", 3 * 64 + 5)
        pieces = numerical_radius(a, 1e-9)
        for field in ("lower", "upper", "argmax_angle", "witness"):
            assert np.array_equal(getattr(whole, field), getattr(pieces, field)), field

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
        # n h / 2 < 1/2 holds up to n = 101 at 320 angles.
        for n, expected in ((101, True), (102, False), (128, False)):
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


class TestBuzanoTerms:
    """The w-term sweeps behind the Buzano rows: w(|T| + i|T*|) over a quarter circle."""

    @pytest.mark.parametrize("seed", range(41))
    def test_quarter_circle_encloses_the_full_sweep(self, seed):
        # seed 40 is one n = 64 case; the others have n = 2 ... 8.
        n = 64 if seed == 40 else 2 + seed % 7
        ws = Workspace(random_complex(np.random.default_rng(seed), n))
        full, _, _ = radius_mod._sweep(ws.abs_t + 1j * ws.abs_t_star, radius_mod.W_TERM_TOL)
        delta = n * (n + 4) * EPS * ws.norm
        assert full.lower <= ws.w_mix_upper <= full.upper + radius_mod.W_TERM_TOL + 3.0 * delta

    def test_three_sweeps_section_budget(self, monkeypatch):
        # w(T), w(|T| + i|T*|) and w(|T||T*|) of a report at n = 64 took
        # about 210 section matrices from 45 angles over the full circle.
        ws = Workspace(random_complex(np.random.default_rng(0), 64) / 8)
        sections = count_sections(monkeypatch)
        numerical_radius(ws, 1e-9)
        ws.w_mix_upper
        ws.w_prod_upper
        assert sum(sections) <= 130


class TestChordCertificate:
    """The sweep's interval certificate: the top of the chord through the
    two end values plus the bulge W h^2 s (1 - s) / 2 of the convex
    g + W theta^2 / 2."""

    def test_closed_form_is_the_parabola_maximum(self):
        rng = np.random.default_rng(24)
        s = np.linspace(0.0, 1.0, 10_001)
        for case in range(400):
            bulge = float(rng.uniform(1e-3, 2.0))
            # Half the draws put |d| below the bulge (vertex inside), half above.
            d = float(rng.uniform(-1.0, 1.0)) * bulge * (0.99 if case % 2 else 3.0)
            g1 = float(rng.uniform(-2.0, 2.0))
            g2 = g1 + d
            got = float(radius_mod._chord_bound(np.array([g1]), np.array([g2]), bulge)[0])
            brute = float((g1 + d * s + bulge * s * (1.0 - s)).max())
            scale = abs(g1) + abs(g2) + bulge
            # The grid misses the vertex by at most 5e-5 in s, so by bulge * 2.5e-9.
            assert brute - 8 * EPS * scale <= got <= brute + bulge * 2.5e-9 + 8 * EPS * scale
            assert got <= max(g1, g2) + bulge / 4.0 + 8 * EPS * scale

    def test_plateau_certificate_is_unchanged(self):
        g = np.array([0.25, 1.0, 3.0])
        bulge = 0.375
        assert np.array_equal(radius_mod._chord_bound(g, g.copy(), bulge), g + bulge / 4.0)

    def test_sweep_upper_ends_enclose_a_dense_grid(self):
        # sup g on [0, pi) and -lambda_min of the moduli mix on [pi / 2, pi].
        for seed in range(60):
            n = 2 + seed % 7
            ensemble = ("ginibre", "normal", "nilpotent-shift")[seed % 3]
            ws = Workspace(random_matrix(ensemble, n, np.random.default_rng(seed)))
            thetas = np.linspace(0.0, np.pi, 20_001)
            grid = herm_eigvals(radius_mod._sections(*ws.re_im, thetas))
            g_max = float(np.maximum(-grid[:, 0], grid[:, -1]).max())
            assert radius_mod._sweep(ws, 1e-9)[0].upper >= g_max, (seed, ensemble)
            mix = Workspace(ws.abs_t + 1j * ws.abs_t_star)
            mix_grid = herm_eigvals(radius_mod._sections(*mix.re_im, thetas[10_000:]))
            assert ws.w_mix_upper >= float(-mix_grid[:, 0].min()), (seed, ensemble)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_answers_near_the_top_of_the_range(self, scale):
        # d^2 / (4 bulge) formed as d * d first overflowed at 1e160 and 1e200.
        for t in (T2, random_complex(np.random.default_rng(1), 6)):
            unit = radius_mod._sweep(t, 1e-9)[0]
            big = radius_mod._sweep(scale * t, 1e-9)[0]
            assert np.isfinite(big.upper)
            assert big.lower / scale <= unit.upper + 1e-8
            assert big.upper / scale >= unit.lower - 1e-8

    @pytest.mark.parametrize(
        "t",
        [random_complex(np.random.default_rng(6), 64) / 8, random_matrix("ginibre", 32, np.random.default_rng(109))],
        ids=["complex-64-seed-6", "ginibre-32-seed-109"],
    )
    def test_smooth_near_disks_take_no_plateau_fill(self, monkeypatch, t):
        # With max(g1, g2) + W h^2 / 8 round 0 kept every interval on these
        # near-disk numerical ranges, and the sweep filled in the 320-angle
        # grid: 364 and 369 section matrices against 44 with the chord.
        sections = count_sections(monkeypatch)
        numerical_radius(t, 1e-9)
        assert sum(sections) <= 60
