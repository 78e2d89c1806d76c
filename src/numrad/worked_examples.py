"""Built-in worked examples with closed-form expected values.

Two small matrices exercise the catalog end to end: a weighted shift
whose refinement bounds have exact rational values, and a lower
triangular 2x2 whose extremal pencil ratios involve the golden ratio.
Every row compares a computed quantity against its closed form at
tolerance 1e-9; two rows additionally assert a strict inequality
(the refinement really is strict, not just non-worsening).
"""

from __future__ import annotations

import math

import numpy as np

from .abnormal import ab_certify
from .bounds import bound_th4_impr1, gamma_delta
from .ensembles import make_nilpotent_shift
from .radius import Workspace

CLOSED_FORM_TOL = 1e-9

SHIFT_3 = make_nilpotent_shift([1.0, 2.0])
LOWER_TRIANGULAR_2 = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.complex128)


def paper_examples() -> tuple[list[dict], bool]:
    """Recompute the worked examples; returns (rows, all_passed).

    Each row holds case, quantity, computed, expected, error and ok.
    Strict rows pass only when computed < expected outright.
    """
    rows: list[dict] = []

    def row(case: str, quantity: str, computed: float, expected: float, strict: bool = False):
        computed, expected = float(computed), float(expected)
        rows.append(
            {
                "case": case,
                "quantity": quantity,
                "computed": computed,
                "expected": expected,
                "error": expected - computed if strict else abs(computed - expected),
                "comparison": "strictly-below" if strict else "abs-error",
                "ok": computed < expected if strict else abs(computed - expected) <= CLOSED_FORM_TOL,
            }
        )

    shift3 = Workspace(SHIFT_3)
    gamma, delta, _, _ = gamma_delta(shift3)
    row("shift3", "gamma_sq", gamma**2, 28.0 / 13.0)
    row("shift3", "delta", delta, 1.5)
    row("shift3", "min_gamma_delta_sq", min(gamma**2, delta**2), 28.0 / 13.0)
    row("shift3", "refines_re_cross_form", min(gamma**2, delta**2), 9.0 / 4.0, strict=True)

    inner, _, impr1 = bound_th4_impr1(shift3)
    row("shift3", "moduli_mix_min", inner, 4.0 / 3.0)
    row("shift3", "impr1", impr1, math.sqrt(8.0 / 3.0))
    row("shift3", "refines_operator_norm", impr1, 2.0, strict=True)

    cert = ab_certify(LOWER_TRIANGULAR_2)
    row("lower2", "alpha_best_sq", cert.alpha_best**2, (3.0 - math.sqrt(5.0)) / 2.0)
    row("lower2", "beta_best_sq", cert.beta_best**2, (3.0 + math.sqrt(5.0)) / 2.0)

    return rows, all(r["ok"] for r in rows)
