"""Vector-level checks of the scalar inequalities behind the bound catalog.

Each check evaluates one classical inequality at concrete vectors and
reports whether it holds with slack above -1e-9: the mixed-power
Cauchy-Schwarz refinement due to Kato, its function-pair form for the
power family f(t) = t^r, g(t) = t^(1-r), the Hoelder-McCarthy moment
inequality at exponent 2, and Buzano's extension applied to the moduli
pair (|T*|x, |T|x) at e = x.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BadExponent
from .linalg import as_matrix, check_unit, eigh_desc, power_from_eig, psd_power, require_square
from .radius import Workspace

SLACK_FLOOR = -1e-9


class ScalarChecks(NamedTuple):
    kato: bool
    kittaneh_fg: bool
    mccarthy: bool
    buzano: bool


def _quad(h: np.ndarray, v: np.ndarray) -> float:
    return float(np.vdot(v, h @ v).real)


def hoelder_mccarthy_slack(p, x, s: float) -> float:
    """<P^s x, x> - <P x, x>^s for Hermitian PSD P, unit x and finite s >= 1."""
    if not 1.0 <= s < math.inf:
        raise BadExponent(f"exponent must be finite and >= 1, got {s}")
    a = require_square(as_matrix(p))
    v = check_unit(x)
    vals, vecs = eigh_desc(a)
    powered = power_from_eig(vals, vecs, float(s))
    return _quad(powered, v) - _quad(a, v) ** s


def scalar_inequality_checks(t, x, y, r: float) -> ScalarChecks:
    """Evaluate the four ingredient inequalities at (T, x, y, r).

    kato          |<Tx, y>|^2 <= <|T|^{2r} x, x> <|T*|^{2(1-r)} y, y>
    kittaneh_fg   the same bound computed through f(t) = t^r, g(t) = t^(1-r)
                  as f(|T|)^2 and g(|T*|)^2 (a distinct numerical route)
    mccarthy      <|T| x, x>^2 <= <|T|^2 x, x>
    buzano        2 |<u, x><x, v>| <= ||u|| ||v|| + |<u, v>| for
                  u = |T*| x, v = |T| x

    True means the inequality holds with slack >= -1e-9.
    """
    rr = float(r)
    if not 0.0 <= rr <= 1.0:
        raise BadExponent(f"exponent must lie in [0, 1], got {r}")
    ws = Workspace.of(t)
    a = ws.a
    vx, vy = check_unit(x), check_unit(y)

    lhs = abs(np.vdot(vy, a @ vx)) ** 2

    # Kato route: powers of the moduli squares, |T|^{2r} = (T*T)^r.
    mod_2r = ws.mod_power(2.0 * rr)
    comod_2s = ws.comod_power(2.0 * (1.0 - rr))
    kato = _quad(mod_2r, vx) * _quad(comod_2s, vy) - lhs >= SLACK_FLOOR

    # Function-pair route: square f(|T|) and g(|T*|) as matrices.
    abs_t, abs_t_star = ws.abs_t, ws.abs_t_star
    f_mat = psd_power(abs_t, rr)
    g_mat = psd_power(abs_t_star, 1.0 - rr)
    kittaneh = _quad(f_mat @ f_mat, vx) * _quad(g_mat @ g_mat, vy) - lhs >= SLACK_FLOOR

    mccarthy = _quad(ws.gram, vx) - _quad(abs_t, vx) ** 2 >= SLACK_FLOOR

    u = abs_t_star @ vx
    v = abs_t @ vx
    buz_lhs = 2.0 * abs(np.vdot(vx, u) * np.vdot(v, vx))
    buz_rhs = float(np.linalg.norm(u)) * float(np.linalg.norm(v)) + abs(np.vdot(v, u))
    buzano = buz_rhs - buz_lhs >= SLACK_FLOOR

    return ScalarChecks(bool(kato), bool(kittaneh), bool(mccarthy), bool(buzano))
