import math

import numpy as np
import pytest

from numrad import (
    BOUND_IDS,
    BadAlpha,
    NoConvergence,
    Workspace,
    bound_report,
    bound_th1,
    bound_th2,
    bound_th3_family,
    bound_th4_impr1,
    eqn5_and_classics,
    gamma_delta,
    golden_section,
    lower_general,
    numerical_radius,
    pp0_min,
    random_matrix,
    spectral_norm,
)
from numrad.bounds import GAP_TOL, KIND_LOWER_W, KIND_UPPER_W, KIND_UPPER_W2, MAX_EVALUATIONS, OBJECTIVES
from numrad.linalg import EPS
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex, random_hermitian

SQRT5 = math.sqrt(5.0)


class TestGoldenSection:
    def test_quadratic(self):
        x, val = golden_section(lambda a: (a - 0.3) ** 2 + 1.0)
        assert x == pytest.approx(0.3, abs=1e-5)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_minimum(self):
        x, val = golden_section(lambda a: a)
        assert x == 0.0 and val == 0.0

    def test_piecewise_linear_kink(self):
        x, val = golden_section(lambda a: max(1 - a, 3 * a - 1))
        assert x == pytest.approx(0.5, abs=1e-6)
        assert val == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "lo, hi, tol",
        [(0.0, 1.0, 0.0), (0.0, 1.0, -1e-3), (0.0, 1.0, float("nan")), (1.0, 0.0, 1e-6), (float("nan"), 1.0, 1e-6)],
        ids=["tol-zero", "tol-negative", "tol-nan", "reversed", "lo-nan"],
    )
    def test_rejects_bad_interval_or_tol(self, lo, hi, tol):
        # tol = 0 never returned; the others returned the best of 4 points.
        with pytest.raises(ValueError, match="tol > 0 and lo <= hi"):
            golden_section(lambda a: (a - 0.3) ** 2, lo, hi, tol)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0)], ids=["hi-inf", "lo-minus-inf"])
    def test_rejects_infinite_interval(self, lo, hi):
        # These returned (0.0, 0.09) and (1.0, 0.49).
        with pytest.raises(ValueError, match="both finite"):
            golden_section(lambda a: (a - 0.3) ** 2, lo, hi)

    def test_evaluation_count_caps_the_joint_search(self):
        calls = []
        golden_section(lambda a: calls.append(a) or (a - 0.3) ** 2)
        assert len(calls) == MAX_EVALUATIONS == 52


class TestTh1:
    def test_shift3_alpha_one_half_exponent(self):
        assert bound_th1(T3, 1.0, 0.5) == pytest.approx(9 / 4, abs=1e-12)

    def test_alpha_zero_collapses_to_norm_squared(self):
        for r in (0.0, 0.3, 1.0):
            assert bound_th1(T3, 0.0, r) == pytest.approx(4.0, abs=1e-12)

    def test_shift3_interior_alpha(self):
        assert bound_th1(T3, 12 / 13, 0.5) == pytest.approx(28 / 13, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BadAlpha):
            bound_th1(T3, -0.1, 0.5)
        from numrad import BadExponent

        with pytest.raises(BadExponent):
            bound_th1(T3, 0.5, 1.3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_power_is_an_error_not_nan(self):
        # |T|^4 overflows at this scale although T*T does not; no warning first.
        with pytest.raises(NoConvergence):
            bound_th1(1e100 * T2, 1.0, 1.0)


class TestGammaDelta:
    def test_shift3_closed_forms(self):
        gamma, delta, a_g, a_d = gamma_delta(T3)
        assert gamma**2 == pytest.approx(28 / 13, abs=1e-9)
        assert delta == pytest.approx(1.5, abs=1e-9)
        assert a_g == pytest.approx(12 / 13, abs=1e-4)
        assert a_d == pytest.approx(1.0, abs=1e-4)

    def test_hermitian_constant_objective(self, rng):
        h = random_hermitian(rng, 3)
        gamma, delta, _, _ = gamma_delta(h)
        nrm = spectral_norm(h)
        assert gamma == pytest.approx(nrm, abs=1e-9)
        assert delta == pytest.approx(nrm, abs=1e-9)

    def test_zero(self):
        gamma, delta, _, _ = gamma_delta(np.zeros((2, 2)))
        assert gamma == 0.0 and delta == 0.0


class TestTh2AndPp0:
    def test_alpha_zero_both_branches_norm_squared(self, rng):
        a = random_complex(rng, 3)
        assert bound_th2(a, 0.0) == pytest.approx(spectral_norm(a) ** 2, rel=1e-12)

    def test_shift3_midpoint(self):
        assert bound_th2(T3, 0.5) == pytest.approx(5 / 2, abs=1e-12)

    def test_pp0_shift3(self):
        value, a_star = pp0_min(T3)
        assert value == pytest.approx(16 / 7, abs=1e-9)
        assert a_star == pytest.approx(4 / 7, abs=1e-4)


class TestTh3Family:
    def test_shift3_alpha_one(self):
        th3, cor3, cor4 = bound_th3_family(T3, 1.0)
        assert cor4 == pytest.approx(19 / 8, abs=1e-8)
        assert th3 == pytest.approx(19 / 8, abs=1e-8)
        assert cor3 == pytest.approx(19 / 8, abs=1e-8)

    def test_identity_tight(self):
        for alpha in (0.0, 0.4, 1.0):
            th3, cor3, cor4 = bound_th3_family(np.eye(3), alpha)
            assert th3 == pytest.approx(1.0, abs=1e-8)
            assert cor3 == pytest.approx(1.0, abs=1e-8)
            assert cor4 == pytest.approx(1.0, abs=1e-8)

    def test_alpha_zero_collapse(self, rng):
        a = random_complex(rng, 3)
        th3, _, _ = bound_th3_family(a, 0.0)
        assert th3 == pytest.approx(spectral_norm(a) ** 2, rel=1e-10)


class TestEqn5AndClassics:
    def test_shift3(self):
        eqn5, kitt_sum, kitt_mod = eqn5_and_classics(T3)
        assert eqn5 == pytest.approx(19 / 8, abs=1e-8)
        assert kitt_sum == pytest.approx(5 / 2, abs=1e-12)
        assert kitt_mod == pytest.approx(3 / 2, abs=1e-12)

    def test_identity(self):
        assert eqn5_and_classics(np.eye(2)) == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_hermitian_moduli_tight(self, rng):
        h = random_hermitian(rng, 4)
        _, _, kitt_mod = eqn5_and_classics(h)
        assert kitt_mod == pytest.approx(spectral_norm(h), rel=1e-10)

    def test_chain(self, rng):
        for n in (2, 3, 4):
            a = random_complex(rng, n)
            eqn5, kitt_sum, _ = eqn5_and_classics(a)
            assert eqn5 <= kitt_sum + 1e-9


class TestTh4Impr1:
    def test_shift3(self):
        inner, a_star, impr1 = bound_th4_impr1(T3)
        assert inner == pytest.approx(4 / 3, abs=1e-9)
        assert a_star == pytest.approx(2 / 3, abs=1e-4)
        assert impr1 == pytest.approx(math.sqrt(8 / 3), abs=1e-9)

    def test_hermitian_tight(self, rng):
        h = random_hermitian(rng, 3)
        inner, _, impr1 = bound_th4_impr1(h)
        nrm = spectral_norm(h)
        assert inner == pytest.approx(nrm, abs=1e-9)
        assert impr1 == pytest.approx(nrm, abs=1e-9)

    def test_zero(self):
        assert bound_th4_impr1(np.zeros((3, 3))) == (0.0, 0.5, 0.0)

    def test_never_exceeds_norm(self, rng):
        for n in (2, 3, 5):
            a = random_complex(rng, n)
            _, _, impr1 = bound_th4_impr1(a)
            assert impr1 <= spectral_norm(a) + 1e-9


class TestLowerGeneral:
    def test_lower_triangular_2(self):
        low1, _ = lower_general(T2)
        assert low1 == pytest.approx(1.5, abs=1e-12)

    def test_hermitian(self, rng):
        h = random_hermitian(rng, 3)
        low1, _ = lower_general(h)
        assert low1 == pytest.approx(spectral_norm(h), rel=1e-10)

    def test_shift3_rotated_pair(self):
        _, low4 = lower_general(T3)
        assert low4 == pytest.approx(SQRT5 / 2, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_rotated_pair_near_the_top_of_the_range(self):
        # ||Re T + Im T|| is about 2.07e308 here, past the largest float, but
        # LOW4 is that over sqrt(2); summing the parts before halving them
        # used to warn "overflow encountered in add" and then refuse.
        t = np.array([[1 + 1j, 0.5], [0.25, -1 + 1j]])
        _, low4 = lower_general(1e308 * t)
        assert low4 == pytest.approx(1e308 * lower_general(t)[1], rel=1e-14)


class TestBoundReport:
    def test_shift3_tightest_upper(self):
        report = bound_report(T3, 1e-9)
        assert set(e.bound_id for e in report.entries) == set(BOUND_IDS)
        # COR1_MIN equals COR1_GAMMA exactly here; lexicographic tie-break
        assert report.tightest_upper == "COR1_GAMMA"
        by_id = {e.bound_id: e for e in report.entries}
        assert by_id["COR1_GAMMA"].value_on_w_scale == by_id["COR1_MIN"].value_on_w_scale
        assert by_id["COR1_MIN"].value_on_w_scale == pytest.approx(
            math.sqrt(28 / 13), abs=1e-8
        )
        assert by_id["TH1"].value_on_w_scale == pytest.approx(1.5, abs=1e-9)
        assert by_id["TH1"].r_at == 0.5
        assert by_id["IMPR1"].value_on_w_scale == pytest.approx(
            math.sqrt(8 / 3), abs=1e-8
        )
        assert by_id["EQN5"].value_on_w_scale == pytest.approx(
            math.sqrt(19 / 8), abs=1e-8
        )
        assert by_id["KITTANEH_MODULI"].value_on_w_scale == pytest.approx(1.5, abs=1e-9)

    def test_identity_all_tight_except_rotated_lower(self):
        report = bound_report(np.eye(3), 1e-9)
        by_id = {e.bound_id: e for e in report.entries}
        for entry in report.entries:
            if entry.bound_id == "LOW4":
                continue
            assert entry.value_on_w_scale == pytest.approx(1.0, abs=1e-7)
        # the rotated-pair lower bound is valid but not tight on Hermitians
        assert by_id["LOW4"].value_on_w_scale == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert report.tightest_lower == "LOW1"

    def test_nan_row_is_never_the_tightest(self):
        # TH1 used to be NaN here and was reported as the tightest upper bound.
        with pytest.raises(NoConvergence):
            bound_report(1e100 * T2)

    def test_wide_w_terms_do_not_refuse_the_report(self):
        # At 2^12 the Buzano w-term |T||T*| (norm ~ 4e8) is swept at the
        # absolute tol 1e-9, far below its rounding floor; only its upper
        # end is read, so the report stands as long as the w(T) bracket
        # itself closes.  The floor of w(T) is 1.0047e-9, so the report
        # asks for 2e-9.
        a = random_matrix("ginibre", 8, np.random.default_rng(2)) * 2.0**12
        report = bound_report(a, 2e-9)
        lo = report.w_bracket.lower
        assert report.w_bracket.upper - lo <= 2e-9
        for entry in report.entries:
            if entry.is_upper:
                assert entry.value_on_w_scale >= lo * (1 - 1e-12), entry

    def test_lower_triangular_2_low1_tight(self):
        report = bound_report(T2, 1e-9)
        by_id = {e.bound_id: e for e in report.entries}
        assert by_id["LOW1"].value_on_w_scale == pytest.approx(1.5, abs=1e-9)
        assert report.tightest_lower == "LOW1"

    def test_soundness_and_alpha_markers(self, rng):
        for n in (2, 3, 4):
            a = random_complex(rng, n)
            report = bound_report(a, 1e-8)
            lo, up = report.w_bracket.lower, report.w_bracket.upper
            for entry in report.entries:
                if entry.is_upper:
                    assert entry.value_on_w_scale >= lo - 1e-7, entry
                else:
                    assert entry.value_on_w_scale <= up + 1e-7, entry
                if entry.alpha_at is not None:
                    assert 0.0 <= entry.alpha_at <= 1.0
        # alpha_at present exactly where a minimization happened
        marked = {e.bound_id for e in report.entries if e.alpha_at is not None}
        assert marked == {
            "COR1_GAMMA",
            "COR1_DELTA",
            "COR1_MIN",
            "TH2",
            "PP0",
            "TH3",
            "COR3",
            "COR4",
            "TH4",
            "IMPR1",
        }

    def test_kind_normalization(self):
        report = bound_report(T3, 1e-9)
        for entry in report.entries:
            if entry.kind == KIND_UPPER_W2:
                assert entry.value_on_w_scale == pytest.approx(
                    math.sqrt(max(entry.value, 0.0))
                )
            else:
                assert entry.kind in (KIND_UPPER_W, KIND_LOWER_W)
                assert entry.value_on_w_scale == entry.value


class TestMinimizationQuality:
    def test_golden_section_beats_uniform_grid(self, rng):
        # each alpha-minimized bound must not exceed any of 101 grid values
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(5):
            a = random_complex(rng, 3)
            gamma, delta, _, _ = gamma_delta(a)
            pp0_val, _ = pp0_min(a)
            inner, _, _ = bound_th4_impr1(a)
            from numrad.linalg import herm_norm as _herm_norm
            from numrad import Workspace as _Workspace

            ws = _Workspace(a)
            rc = ws.re_cross_norm
            for al in grid:
                g_val = (
                    _herm_norm((1 - 0.75 * al) * ws.gram + 0.25 * al * ws.cogram)
                    + 0.5 * al * rc
                )
                d_val = (
                    _herm_norm((1 - 0.75 * al) * ws.cogram + 0.25 * al * ws.gram)
                    + 0.5 * al * rc
                )
                assert gamma**2 <= g_val + 1e-8
                assert delta**2 <= d_val + 1e-8
                assert pp0_val <= _herm_norm(al * ws.gram + (1 - al) * ws.cogram) + 1e-8
                assert inner <= _herm_norm(al * ws.abs_t + (1 - al) * ws.abs_t_star) + 1e-8

    def test_rem1_chain(self, rng):
        from numrad.linalg import herm_norm as _herm_norm
        from numrad import Workspace as _Workspace

        for n in (2, 3, 4):
            a = random_complex(rng, n)
            ws = _Workspace(a)
            gamma, delta, _, _ = gamma_delta(ws)
            mid = 0.25 * _herm_norm(ws.gram + ws.cogram) + 0.5 * ws.re_cross_norm
            outer = 0.25 * _herm_norm(ws.gram + ws.cogram) + 0.5 * ws.w_prod_upper
            assert min(gamma**2, delta**2) <= mid + 1e-9
            assert mid <= outer + 1e-9

    def test_upper_bounds_dominate_radius(self, rng):
        for n in (2, 3):
            a = random_complex(rng, n)
            w_lo = numerical_radius(a, 1e-9).lower
            gamma, delta, _, _ = gamma_delta(a)
            assert min(gamma, delta) >= w_lo - 1e-7
            value, _ = pp0_min(a)
            assert math.sqrt(value) >= w_lo - 1e-7
            for alpha in (0.0, 0.5, 1.0):
                assert math.sqrt(bound_th2(a, alpha)) >= w_lo - 1e-7
                assert math.sqrt(bound_th1(a, alpha, 0.5)) >= w_lo - 1e-7
                th3, cor3, cor4 = bound_th3_family(a, alpha)
                assert math.sqrt(cor4) >= w_lo - 1e-7


def _search_cases():
    rng = np.random.default_rng(17)
    cases = [(f"ginibre-{n}", random_complex(rng, n)) for n in (1, 2, 3, 5, 8)]
    q, _ = np.linalg.qr(random_complex(rng, 4))
    cases.append(("normal", (q * random_complex(rng, 4)[0]) @ q.conj().T))
    cases.append(("shift", np.diag([1.0, 0.7, 0.4], 1)))
    cases.append(("hermitian", random_hermitian(rng, 4)))
    cases.append(("zero", np.zeros((3, 3))))
    return cases


SEARCH_CASES = _search_cases()


class TestJointSearch:
    """The report's one search over all six objectives, checked against a
    101-point alpha grid of each objective."""

    @pytest.mark.parametrize("a", [m for _, m in SEARCH_CASES], ids=[i for i, _ in SEARCH_CASES])
    def test_minima_and_gaps_against_the_grid(self, a):
        report = bound_report(a, 1e-9)
        ws = Workspace(a)
        assert report.search_rounds <= 52
        assert report.search_matrices <= 6 * MAX_EVALUATIONS
        assert set(report.minima) == set(report.gaps) == set(OBJECTIVES)
        for name, objective in OBJECTIVES.items():
            alpha, minimum = report.minima[name]
            gap = report.gaps[name]
            grid = min(objective(ws, al) for al in np.linspace(0.0, 1.0, 101))
            slack = 1e-12 * max(1.0, abs(grid))
            assert 0.0 <= alpha <= 1.0, name
            assert minimum == objective(ws, alpha), name
            assert minimum <= grid + slack, name
            assert gap >= 0.0, name
            assert minimum - gap <= grid + slack, name
        again = bound_report(a, 1e-9)
        assert (again.minima, again.gaps, again.search_rounds, again.search_matrices) == (
            report.minima,
            report.gaps,
            report.search_rounds,
            report.search_matrices,
        )

    def test_gaps_close_on_the_worked_examples(self):
        for a in (T2, T3):
            report = bound_report(a, 1e-9)
            for name, (_, minimum) in report.minima.items():
                assert report.gaps[name] <= 2 * GAP_TOL * minimum, name

    def test_linear_pieces_take_few_rounds(self):
        # Diagonal moduli: every objective is piecewise linear in alpha, and
        # the tangent lines' crossing lands on its kinks.
        rng = np.random.default_rng(5)
        for n in (3, 5, 8):
            shift = np.diag(np.abs(rng.standard_normal(n - 1)), 1)
            assert bound_report(shift, 1e-9).search_rounds <= 8


# One 5x5 Ginibre matrix at scales far from 1: every catalog bound is
# homogeneous, so each should read its unit-scale value once the scale
# is undone.
SCALE_CASE = random_complex(np.random.default_rng(3), 5)


@pytest.mark.parametrize("scale", [2.0**-20, 2.0**-27], ids=["2^-20", "2^-27"])
def test_alpha_minima_are_scale_free(scale):
    # The search's gap rule was GAP_TOL * max(1, value): at these scales it
    # stopped early, with pp0 3.3e-2 and 3.2e-1 high and delta 1.06e-3 high.
    pp0, _ = pp0_min(SCALE_CASE)
    assert abs(pp0_min(scale * SCALE_CASE)[0] / scale**2 - pp0) <= 4 * EPS * pp0
    unit = gamma_delta(SCALE_CASE)[:2]
    scaled = gamma_delta(scale * SCALE_CASE)[:2]
    for u, v in zip(unit, scaled):
        assert abs(v / scale - u) <= 4 * EPS * u


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3(a): W_TERM_TOL = 1e-9 is absolute, so the Buzano w-terms are loose at 2^-20",
)
def test_buzano_w_terms_are_scale_free():
    scale = 2.0**-20
    unit = bound_th3_family(SCALE_CASE, 0.5)[0]
    assert abs(bound_th3_family(scale * SCALE_CASE, 0.5)[0] / scale**2 - unit) <= 4 * EPS * unit
