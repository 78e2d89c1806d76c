"""Catalog of numerical radius bounds.

Every bound is a named, evaluable formula on |T| = (T*T)^(1/2) and
|T*| = (TT*)^(1/2).  Bounds with a free mixing parameter are minimized
by golden-section search on [0, 1]; each such objective is the norm of
an affine matrix-valued map plus a linear term, hence convex.  Bounds
quoted on the w^2 scale are square-rooted before any comparison with
w(T).  Numerical radius terms appearing inside upper-bound formulas use
the bracket's upper endpoint so the result stays a certified upper
bound.

Report identifiers:

    TH1              power-family bound at alpha = 1, best exponent on R_GRID
    COR1_GAMMA/DELTA alpha-minimized refinements gamma, delta (w scale)
    COR1_MIN         min(gamma, delta)
    TH2              alpha-minimized two-sided moduli-square mix
    PP0              alpha-minimized ||a|T|^2 + (1-a)|T*|^2||
    TH3 / COR3       alpha-minimized Buzano-route bounds (w^2 scale)
    COR4             min of TH3 and COR3
    EQN5             the alpha = 1 member of the Buzano route
    KITTANEH_SUM     ||T*T + TT*|| / 2           (w^2 scale)
    KITTANEH_MODULI  |||T| + |T*||| / 2          (w scale)
    TH4              alpha-minimized ||a|T| + (1-a)|T*||| * ||T||
    IMPR1            sqrt of TH4 (w scale)
    LOW1             max(||Re T||, ||Im T||)      (lower)
    LOW4             max(||Re+Im||, ||Re-Im||)/sqrt(2)  (lower)

TH2 coincides with PP0 and TH4 with IMPR1^2 by construction; the
duplicated rows mirror how the optimized forms are derived from the
pointwise ones.

The catalog is one table, CATALOG, over a shared Workspace: each row
is an alpha-objective minimized once per matrix, a fixed formula, or a
min / square root of other rows.  The public bound_* functions are
views of the same objectives and formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadExponent
from .linalg import check_alpha, herm_norm
from .radius import RadiusBracket, Workspace, numerical_radius

KIND_UPPER_W2 = "upper-on-w2"
KIND_UPPER_W = "upper-on-w"
KIND_LOWER_W = "lower-on-w"

R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GOLDEN_TOL = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section(f, lo: float = 0.0, hi: float = 1.0, tol: float = GOLDEN_TOL):
    """Minimize a convex f on [lo, hi]; returns (argmin, value) at the best
    point actually evaluated (endpoints included)."""
    best_x, best_f = lo, f(lo)
    fhi = f(hi)
    if fhi < best_f:
        best_x, best_f = hi, fhi
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
            if yc < best_f:
                best_x, best_f = c, yc
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
            if yd < best_f:
                best_x, best_f = d, yd
    if yc < best_f:
        best_x, best_f = c, yc
    if yd < best_f:
        best_x, best_f = d, yd
    return float(best_x), float(best_f)


def _mix(a: float, x, y) -> float:
    return herm_norm(a * x + (1.0 - a) * y)


def _refined(ws: Workspace, a: float, x, y) -> float:
    return herm_norm((1.0 - 0.75 * a) * x + 0.25 * a * y) + 0.5 * a * ws.re_cross_norm


def _buzano(ws: Workspace, a: float, x, y) -> float:
    common = (a / 4.0) * ws.w_mix_upper**2 + (a / 4.0) * ws.w_prod_upper
    return common + herm_norm((1.0 - 7.0 * a / 8.0) * x + (a / 8.0) * y)


# The alpha-objectives, each convex in alpha on [0, 1]: the norm of an
# affine matrix family plus a linear term.
OBJECTIVES = {
    "gamma": lambda ws, a: _refined(ws, a, ws.gram, ws.cogram),
    "delta": lambda ws, a: _refined(ws, a, ws.cogram, ws.gram),
    "pp0": lambda ws, a: _mix(a, ws.gram, ws.cogram),
    "th3": lambda ws, a: _buzano(ws, a, ws.gram, ws.cogram),
    "cor3": lambda ws, a: _buzano(ws, a, ws.cogram, ws.gram),
    "moduli_mix": lambda ws, a: _mix(a, ws.abs_t, ws.abs_t_star),
}


def _minimize(ws: Workspace, name: str) -> tuple[float, float]:
    """(argmin, minimum) over alpha in [0, 1] of the objective called name."""
    if name == "moduli_mix" and ws.norm == 0.0:
        # |T| = |T*| = 0: nothing to mix, report the midpoint.
        return 0.5, 0.0
    objective = OBJECTIVES[name]
    return golden_section(lambda a: objective(ws, a))


def _th1(ws: Workspace, alpha: float, r: float) -> float:
    f4 = ws.mod_power(4.0 * r)
    g4 = ws.comod_power(4.0 * (1.0 - r))
    cross = ws.mod_power(2.0 * r) @ ws.comod_power(2.0 * (1.0 - r))
    re_cross = (cross + cross.conj().T) / 2.0
    main = herm_norm((alpha / 4.0) * (f4 + g4) + (1.0 - alpha) * ws.gram)
    return main + (alpha / 2.0) * herm_norm(re_cross)


# The catalog in report order, one row per bound: (id, kind, source, arg).
# The source says how the value is obtained:
#   "alpha-min"   the minimum of the objective named arg; alpha_at is its argmin
#   "sqrt-of"     the square root of an objective minimum or of an earlier row
#   "norm-times"  ||T|| times an objective minimum
#   "min-of"      the smallest of the earlier rows named in arg, ties to the first
#   "r-scan"      min over r in R_GRID of arg(ws, r), ties to the smaller r
#   "fixed"       arg(ws)
# Each objective is minimized at most once per report, however many rows
# read it.
CATALOG = (
    ("TH1", KIND_UPPER_W2, "r-scan", lambda ws, r: _th1(ws, 1.0, r)),
    ("COR1_GAMMA", KIND_UPPER_W, "sqrt-of", "gamma"),
    ("COR1_DELTA", KIND_UPPER_W, "sqrt-of", "delta"),
    ("COR1_MIN", KIND_UPPER_W, "min-of", ("COR1_GAMMA", "COR1_DELTA")),
    # Both orientations of the th2 mix sweep the same family, so the
    # alpha-minimized th2 equals pp0.
    ("TH2", KIND_UPPER_W2, "alpha-min", "pp0"),
    ("PP0", KIND_UPPER_W2, "alpha-min", "pp0"),
    ("TH3", KIND_UPPER_W2, "alpha-min", "th3"),
    ("COR3", KIND_UPPER_W2, "alpha-min", "cor3"),
    ("COR4", KIND_UPPER_W2, "min-of", ("TH3", "COR3")),
    ("EQN5", KIND_UPPER_W2, "fixed", lambda ws: OBJECTIVES["th3"](ws, 1.0)),
    ("KITTANEH_SUM", KIND_UPPER_W2, "fixed", lambda ws: 0.5 * herm_norm(ws.gram + ws.cogram)),
    ("KITTANEH_MODULI", KIND_UPPER_W, "fixed", lambda ws: 0.5 * herm_norm(ws.abs_t + ws.abs_t_star)),
    ("TH4", KIND_UPPER_W2, "norm-times", "moduli_mix"),
    ("IMPR1", KIND_UPPER_W, "sqrt-of", "TH4"),
    ("LOW1", KIND_LOWER_W, "fixed", lambda ws: max(ws.re_im_norms)),
    ("LOW4", KIND_LOWER_W, "fixed", lambda ws: max(ws.rotated_norms) / math.sqrt(2.0)),
)

BOUND_IDS = tuple(row[0] for row in CATALOG)
_FIXED = {bound_id: arg for bound_id, _, source, arg in CATALOG if source == "fixed"}


def bound_th1(t, alpha: float, r: float) -> float:
    """Power-family upper bound on the squared alpha-norm, hence on w^2:

        ||(a/4)(|T|^{4r} + |T*|^{4(1-r)}) + (1-a)|T|^2||
            + (a/2) ||Re(|T|^{2r} |T*|^{2(1-r)})||
    """
    alpha = check_alpha(alpha)
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise BadExponent(f"exponent must lie in [0, 1], got {r}")
    return _th1(Workspace.of(t), alpha, r)


def gamma_delta(t) -> tuple[float, float, float, float]:
    """Alpha-minimized refinement pair (gamma, delta, alpha_gamma, alpha_delta):

        gamma^2 = min_a ||(1 - 3a/4)|T|^2 + (a/4)|T*|^2|| + (a/2)||Re(|T||T*|)||

    and delta with the moduli squares swapped inside the norm.
    """
    ws = Workspace.of(t)
    a_g, g2 = _minimize(ws, "gamma")
    a_d, d2 = _minimize(ws, "delta")
    return math.sqrt(max(g2, 0.0)), math.sqrt(max(d2, 0.0)), a_g, a_d


def bound_th2(t, alpha: float) -> float:
    """min(||a|T|^2 + (1-a)|T*|^2||, ||a|T*|^2 + (1-a)|T|^2||), an upper
    bound on the squared alpha-norm."""
    alpha = check_alpha(alpha)
    ws = Workspace.of(t)
    return min(_mix(alpha, ws.gram, ws.cogram), _mix(alpha, ws.cogram, ws.gram))


def pp0_min(t) -> tuple[float, float]:
    """min over alpha of ||a|T|^2 + (1-a)|T*|^2||, with the minimizer."""
    a_star, val = _minimize(Workspace.of(t), "pp0")
    return val, a_star


def bound_th3_family(t, alpha: float) -> tuple[float, float, float]:
    """Buzano-route upper bounds (th3, cor3, cor4) on the squared alpha-norm:

        th3 = (a/4) w^2(|T| + i|T*|) + (a/4) w(|T||T*|)
              + ||(1 - 7a/8)|T|^2 + (a/8)|T*|^2||

    cor3 swaps the moduli squares inside the norm term, cor4 takes the
    smaller norm term.  The w terms use certified bracket uppers.
    """
    alpha = check_alpha(alpha)
    ws = Workspace.of(t)
    th3, cor3 = OBJECTIVES["th3"](ws, alpha), OBJECTIVES["cor3"](ws, alpha)
    return th3, cor3, min(th3, cor3)


def eqn5_and_classics(t) -> tuple[float, float, float]:
    """(eqn5, kittaneh_sum, kittaneh_moduli):

        eqn5            = the alpha = 1 member of the Buzano route (on w^2)
        kittaneh_sum    = ||T*T + TT*|| / 2                        (on w^2)
        kittaneh_moduli = |||T| + |T*||| / 2                       (on w)

    eqn5 <= kittaneh_sum always holds.
    """
    ws = Workspace.of(t)
    return tuple(_FIXED[i](ws) for i in ("EQN5", "KITTANEH_SUM", "KITTANEH_MODULI"))


def bound_th4_impr1(t) -> tuple[float, float, float]:
    """(inner_min, alpha_star, impr1) with

        inner_min = min over alpha of ||a|T| + (1-a)|T*|||
        impr1     = sqrt(inner_min * ||T||), an upper bound on w(T)
                    that never exceeds ||T||.
    """
    ws = Workspace.of(t)
    a_star, inner = _minimize(ws, "moduli_mix")
    return inner, a_star, math.sqrt(max(inner * ws.norm, 0.0))


def lower_general(t) -> tuple[float, float]:
    """General lower bounds on w(T):

        low1 = max(||Re T||, ||Im T||)
        low4 = max(||Re T + Im T||, ||Re T - Im T||) / sqrt(2)
    """
    ws = Workspace.of(t)
    return _FIXED["LOW1"](ws), _FIXED["LOW4"](ws)


@dataclass(frozen=True)
class BoundValue:
    """One catalog entry.  alpha_at is set only when the bound was
    minimized over alpha; r_at only when an exponent grid was scanned."""

    bound_id: str
    kind: str
    value: float
    alpha_at: float | None = None
    r_at: float | None = None

    @property
    def value_on_w_scale(self) -> float:
        if self.kind == KIND_UPPER_W2:
            return math.sqrt(max(self.value, 0.0))
        return self.value

    @property
    def is_upper(self) -> bool:
        return self.kind in (KIND_UPPER_W2, KIND_UPPER_W)


@dataclass(frozen=True)
class BoundReport:
    """Every catalog bound evaluated on one matrix, with the certified
    radius bracket for comparison.  minima maps each objective name to
    the (argmin, minimum) of its one golden-section search."""

    w_bracket: RadiusBracket
    norm: float
    entries: tuple[BoundValue, ...]
    tightest_upper: str
    tightest_lower: str
    minima: dict[str, tuple[float, float]]


def _catalog(ws: Workspace) -> tuple[tuple[BoundValue, ...], dict[str, tuple[float, float]]]:
    minima: dict[str, tuple[float, float]] = {}
    rows: dict[str, BoundValue] = {}

    def found(name: str) -> tuple[float, float | None]:
        """(value, alpha_at) of an earlier row or of an objective minimum."""
        if name in rows:
            return rows[name].value, rows[name].alpha_at
        if name not in minima:
            minima[name] = _minimize(ws, name)
        alpha, value = minima[name]
        return value, alpha

    for bound_id, kind, source, arg in CATALOG:
        alpha_at = r_at = None
        if source == "r-scan":
            r_at, value = min(((r, arg(ws, r)) for r in R_GRID), key=lambda p: (p[1], p[0]))
        elif source == "fixed":
            value = arg(ws)
        elif source == "min-of":
            value, alpha_at = min((found(name) for name in arg), key=lambda p: p[0])
        else:
            value, alpha_at = found(arg)
            if source == "sqrt-of":
                value = math.sqrt(max(value, 0.0))
            elif source == "norm-times":
                value = value * ws.norm
        rows[bound_id] = BoundValue(bound_id, kind, value, alpha_at, r_at)
    return tuple(rows.values()), minima


def report_from_workspace(ws: Workspace, bracket: RadiusBracket) -> BoundReport:
    """The catalog on a workspace, against an already computed w(T) bracket."""
    entries, minima = _catalog(ws)
    uppers = [e for e in entries if e.is_upper]
    lowers = [e for e in entries if not e.is_upper]
    tight_up = min(uppers, key=lambda e: (e.value_on_w_scale, e.bound_id))
    tight_lo = min(lowers, key=lambda e: (-e.value_on_w_scale, e.bound_id))
    return BoundReport(
        w_bracket=bracket,
        norm=ws.norm,
        entries=entries,
        tightest_upper=tight_up.bound_id,
        tightest_lower=tight_lo.bound_id,
        minima=minima,
    )


def bound_report(t, tol: float = 1e-9) -> BoundReport:
    """Evaluate every catalog bound on T against a certified w(T) bracket."""
    ws = Workspace.of(t)
    return report_from_workspace(ws, numerical_radius(ws, tol))
