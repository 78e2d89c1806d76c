"""Catalog of numerical radius bounds.

Every bound is a named, evaluable formula on |T| = (T*T)^(1/2) and
|T*| = (TT*)^(1/2).  Bounds with a free mixing parameter are minimums
over alpha in [0, 1] of an objective that is the top eigenvalue of an
affine PSD family plus a linear term, hence convex.  The objectives are
minimized together, one stacked eigen-solve per round: each round
evaluates every unfinished objective once, and the top eigenvector
gives its slope.  A secant step on the slopes (with the Illinois rule
for a stalled end) or, on a linear piece, the crossing of the
bracket's two tangent lines picks the next alpha.  The tangent lines
bound the minimum from below (Kelley's cutting-plane bound), so each
minimum comes with a gap.  Bounds quoted on the w^2 scale are
square-rooted before any comparison with w(T).  Numerical radius terms
appearing inside upper-bound formulas use the bracket's upper endpoint
so the result stays a certified upper bound.

Report identifiers:

    TH1              power-family bound at alpha = 1, best exponent on R_GRID
    COR1_GAMMA/DELTA alpha-minimized refinements gamma, delta (w scale)
    COR1_MIN         min(gamma, delta)
    TH2              alpha-minimized two-sided moduli-square mix
    PP0              alpha-minimized ||a|T|^2 + (1-a)|T*|^2||
    TH3 / COR3       alpha-minimized Buzano-route bounds (w^2 scale)
    COR4             min of TH3 and COR3
    EQN5             the alpha = 1 member of the Buzano route
    KITTANEH_SUM     the alpha = 1/2 member of PP0's family:
                     ||T*T + TT*|| / 2            (w^2 scale)
    KITTANEH_MODULI  the alpha = 1/2 member of TH4's inner family:
                     |||T| + |T*||| / 2           (w scale)
    TH4              alpha-minimized ||a|T| + (1-a)|T*||| * ||T||
    IMPR1            sqrt of TH4 (w scale)
    LOW1             max(||Re T||, ||Im T||)      (lower)
    LOW4             max(||Re+Im||, ||Re-Im||)/sqrt(2)  (lower)

TH2 coincides with PP0 and TH4 with IMPR1^2 by construction; the
duplicated rows mirror how the optimized forms are derived from the
pointwise ones.  EQN5 and the two Kittaneh rows are fixed members of
the objective families (th3 at alpha = 1, pp0 and moduli_mix at
alpha = 1/2), read from the same objectives the search minimizes.

The catalog is one table, CATALOG, over a shared Workspace: each row
is an alpha-objective minimized once per matrix (one joint search
covers all six), a fixed formula, or a min / square root of other
rows.  The public bound_* functions are views of the same objectives
and formulas; gamma_delta, pp0_min and bound_th4_impr1 run the same
search on their own objectives, so they equal the report's rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadExponent
from .linalg import check_alpha, eigh_desc, herm_norm, hermitian_product, require_finite
from .radius import RadiusBracket, Workspace, numerical_radius

KIND_UPPER_W2 = "upper-on-w2"
KIND_UPPER_W = "upper-on-w"
KIND_LOWER_W = "lower-on-w"

R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GOLDEN_TOL = 1e-10
# The catalog's search ends an objective once its tangent-line gap is at
# most GAP_TOL * value, relative so that it decides alike at every scale
# of T, or after MAX_EVALUATIONS points, which is golden_section's own
# count at GOLDEN_TOL.
GAP_TOL = 1e-12
MAX_EVALUATIONS = 52

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section(f, lo: float = 0.0, hi: float = 1.0, tol: float = GOLDEN_TOL):
    """Minimize a convex f on [lo, hi]; returns (argmin, value) at the best
    point actually evaluated (endpoints included).  Raises ValueError
    unless tol > 0 and lo <= hi, both finite."""
    if not (tol > 0.0 and lo <= hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"golden_section needs tol > 0 and lo <= hi, both finite, got tol={tol}, [{lo}, {hi}]")
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


class Objective(NamedTuple):
    """lambda_max(p(a) X + q(a) Y) + a c over a in [0, 1], with X and Y the
    PSD workspace matrices named x and y, p(a) = p[0] + p[1] a and
    q(a) = q[0] + q[1] a nonnegative there, and c = c(ws) >= 0.

    This is the top eigenvalue of an affine PSD family plus a linear term,
    hence convex in a.  For a unit top eigenvector v at a,
    p[1] <Xv, v> + q[1] <Yv, v> + c is a slope (subgradient) there, and
    the objective lies above the tangent line it defines.
    """

    x: str
    y: str
    p: tuple[float, float]
    q: tuple[float, float]
    c: Callable[[Workspace], float]

    def matrix(self, ws: Workspace, a: float) -> np.ndarray:
        p, q = self.p[0] + self.p[1] * a, self.q[0] + self.q[1] * a
        return p * getattr(ws, self.x) + q * getattr(ws, self.y)

    def __call__(self, ws: Workspace, a: float) -> float:
        return herm_norm(self.matrix(ws, a)) + a * self.c(ws)


def _no_linear_term(ws: Workspace) -> float:
    return 0.0


def _half_re_cross(ws: Workspace) -> float:
    return 0.5 * ws.re_cross_norm


def _buzano_w_terms(ws: Workspace) -> float:
    return (ws.w_mix_upper**2 + ws.w_prod_upper) / 4.0


# The alpha-objectives, each declared once: its value and the search's
# slope both come from this row.
OBJECTIVES = {
    "gamma": Objective("gram", "cogram", (1.0, -0.75), (0.0, 0.25), _half_re_cross),
    "delta": Objective("cogram", "gram", (1.0, -0.75), (0.0, 0.25), _half_re_cross),
    "pp0": Objective("gram", "cogram", (0.0, 1.0), (1.0, -1.0), _no_linear_term),
    "th3": Objective("gram", "cogram", (1.0, -0.875), (0.0, 0.125), _buzano_w_terms),
    "cor3": Objective("cogram", "gram", (1.0, -0.875), (0.0, 0.125), _buzano_w_terms),
    "moduli_mix": Objective("abs_t", "abs_t_star", (0.0, 1.0), (1.0, -1.0), _no_linear_term),
}


class Minimum(NamedTuple):
    """An objective's minimum over [0, 1]: the best alpha evaluated, the
    objective's value there, and the tangent-line gap, so that the true
    minimum lies in [value - gap, value] (in exact arithmetic)."""

    alpha: float
    value: float
    gap: float


class _Search:
    """One objective's state in the joint search.

    Evaluated points are (alpha, value, slope), and best is the first
    point of least value.  After round 0, ends[0] and ends[1] bracket the
    minimizer: the slope is negative at the left end and nonnegative at
    the right end.  lower is the least value of the two ends' tangent
    lines where they cross, a lower bound on the minimum.
    """

    def __init__(self, objective: Objective, ws: Workspace):
        self.objective = objective
        self.x, self.y = getattr(ws, objective.x), getattr(ws, objective.y)
        self.c = objective.c(ws)
        self.points: list[tuple[float, float, float]] = []
        self.best = (0.0, math.inf, 0.0)
        self.ends: list[tuple[float, float, float]] = []
        self.lower = -math.inf
        self.side, self.run = -1, 0  # the end replaced last, and how many times running
        self.next: tuple[float, ...] = (0.0, 1.0)

    def add(self, a: float, top: float, v: np.ndarray) -> None:
        value = float(top) + a * self.c
        slope = (
            self.objective.p[1] * np.vdot(v, self.x @ v).real
            + self.objective.q[1] * np.vdot(v, self.y @ v).real
            + self.c
        )
        require_finite((value, slope), "alpha-objective not finite: the matrix is too large")
        self.points.append((a, value, float(slope)))
        if value < self.best[1]:
            self.best = self.points[-1]

    def advance(self) -> bool:
        """Take in the round's points; True, with the next alpha set, unless finished."""
        linear = False
        if not self.ends:
            start, end = self.points
            # A slope >= 0 at 0 or <= 0 at 1 puts the minimum at that end.
            if start[2] >= 0.0 or end[2] <= 0.0:
                self.lower = start[1] if start[2] >= 0.0 else end[1]
                return False
            self.ends = [start, end]
        else:
            new = self.points[-1]
            side = int(new[2] >= 0.0)
            old = self.ends[side]
            # Equal slopes at both points: the objective is linear between them.
            linear = abs(new[2] - old[2]) <= GAP_TOL * max(abs(new[2]), abs(old[2]))
            self.run = self.run + 1 if side == self.side else 1
            self.side = side
            self.ends[side] = new
        (a, fa, ga), (b, fb, gb) = self.ends
        # Where the tangent lines cross, the smaller of the two is at most
        # the least value of their maximum, which is below the objective
        # on [a, b]; outside [a, b] the objective exceeds fa or fb.
        t = min(max((fb - fa + ga * a - gb * b) / (ga - gb), a), b)
        self.lower = min(fa + ga * (t - a), fb + gb * (t - b))
        best = self.best[1]
        if best - self.lower <= GAP_TOL * best or len(self.points) >= MAX_EVALUATIONS:
            return False
        # On a linear piece the next point is the tangent lines' crossing t,
        # which lands on a kink between two pieces.  Elsewhere it is a
        # secant step on the slopes, exact on a quadratic; the end left in
        # place k >= 2 rounds running has its slope divided by 2^(k-1)
        # (the Illinois rule), so a stalled end is moved in turn.
        if not linear:
            if self.run >= 2:
                if self.side == 0:
                    gb /= 2.0 ** (self.run - 1)
                else:
                    ga /= 2.0 ** (self.run - 1)
            t = a + (b - a) * (ga / (ga - gb))
        if not a < t < b:
            return False
        self.next = (t,)
        return True


def _minimize(ws: Workspace, names) -> tuple[dict[str, Minimum], int, int]:
    """Minimize the named objectives over alpha in [0, 1] together.

    Each round evaluates every unfinished objective at its next alpha
    with one stacked eigh_desc call; round 0 evaluates alpha = 0
    and 1.  Returns the minima by name, the rounds and the matrices
    evaluated.  The reported value is OBJECTIVES[name](ws, alpha) at the
    best alpha evaluated.
    """
    searches: dict[str, _Search] = {}
    minima: dict[str, Minimum] = {}
    for name in names:
        if name == "moduli_mix" and ws.norm == 0.0:
            # |T| = |T*| = 0: nothing to mix, report the midpoint.
            minima[name] = Minimum(0.5, 0.0, 0.0)
        else:
            searches[name] = _Search(OBJECTIVES[name], ws)
    rounds = matrices = 0
    live = list(searches.values())
    while live:
        trials = [(s, a) for s in live for a in s.next]
        vals, vecs = eigh_desc(np.stack([s.objective.matrix(ws, a) for s, a in trials]))
        rounds += 1
        matrices += len(trials)
        for (s, a), top, v in zip(trials, vals[:, 0], vecs[:, :, 0]):
            s.add(a, top, v)
        live = [s for s in live if s.advance()]
    for name, s in searches.items():
        alpha = s.best[0]
        value = OBJECTIVES[name](ws, alpha)
        minima[name] = Minimum(alpha, value, max(value - s.lower, 0.0))
    return {name: minima[name] for name in names}, rounds, matrices


def _th1(ws: Workspace, alpha: float, r: float) -> float:
    f4 = ws.mod_power(4.0 * r)
    g4 = ws.comod_power(4.0 * (1.0 - r))
    cross = hermitian_product(ws.mod_power(2.0 * r), ws.comod_power(2.0 * (1.0 - r)), "TH1 cross")
    main = herm_norm((alpha / 4.0) * (f4 + g4) + (1.0 - alpha) * ws.gram)
    return main + (alpha / 2.0) * herm_norm(cross)


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
    # Kittaneh's two bounds are the alpha = 1/2 members of the pp0 and moduli_mix families.
    ("KITTANEH_SUM", KIND_UPPER_W2, "fixed", lambda ws: OBJECTIVES["pp0"](ws, 0.5)),
    ("KITTANEH_MODULI", KIND_UPPER_W, "fixed", lambda ws: OBJECTIVES["moduli_mix"](ws, 0.5)),
    ("TH4", KIND_UPPER_W2, "norm-times", "moduli_mix"),
    ("IMPR1", KIND_UPPER_W, "sqrt-of", "TH4"),
    ("LOW1", KIND_LOWER_W, "fixed", lambda ws: max(ws.re_im_norms)),
    ("LOW4", KIND_LOWER_W, "fixed", lambda ws: max(ws.half_rotated_norms) / math.sqrt(0.5)),
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
    minima, _, _ = _minimize(Workspace.of(t), ("gamma", "delta"))
    (a_g, g2, _), (a_d, d2, _) = minima.values()
    return math.sqrt(max(g2, 0.0)), math.sqrt(max(d2, 0.0)), a_g, a_d


def bound_th2(t, alpha: float) -> float:
    """min(||a|T|^2 + (1-a)|T*|^2||, ||a|T*|^2 + (1-a)|T|^2||), an upper
    bound on the squared alpha-norm: the pp0 objective at a and at 1 - a."""
    alpha = check_alpha(alpha)
    ws = Workspace.of(t)
    return min(OBJECTIVES["pp0"](ws, alpha), OBJECTIVES["pp0"](ws, 1.0 - alpha))


def pp0_min(t) -> tuple[float, float]:
    """min over alpha of ||a|T|^2 + (1-a)|T*|^2||, with the minimizer."""
    a_star, val, _ = _minimize(Workspace.of(t), ("pp0",))[0]["pp0"]
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
    a_star, inner, _ = _minimize(ws, ("moduli_mix",))[0]["moduli_mix"]
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
    radius bracket for comparison.

    All six objectives are minimized by one joint search.  minima maps
    each objective name to its (argmin, minimum), and gaps to its
    tangent-line gap: the true minimum is at least minimum - gap.
    search_rounds counts the search's stacked eigen-solves and
    search_matrices the matrices they decomposed.
    """

    w_bracket: RadiusBracket
    norm: float
    entries: tuple[BoundValue, ...]
    tightest_upper: str
    tightest_lower: str
    minima: dict[str, tuple[float, float]]
    gaps: dict[str, float]
    search_rounds: int
    search_matrices: int


def _catalog(ws: Workspace, minima: dict[str, Minimum]) -> tuple[BoundValue, ...]:
    rows: dict[str, BoundValue] = {}

    def found(name: str) -> tuple[float, float | None]:
        """(value, alpha_at) of an earlier row or of an objective minimum."""
        if name in rows:
            return rows[name].value, rows[name].alpha_at
        return minima[name].value, minima[name].alpha

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
    return tuple(rows.values())


def report_from_workspace(ws: Workspace, bracket: RadiusBracket) -> BoundReport:
    """The catalog on a workspace, against an already computed w(T) bracket."""
    minima, rounds, matrices = _minimize(ws, OBJECTIVES)
    entries = _catalog(ws, minima)
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
        minima={name: (m.alpha, m.value) for name, m in minima.items()},
        gaps={name: m.gap for name, m in minima.items()},
        search_rounds=rounds,
        search_matrices=matrices,
    )


def bound_report(t, tol: float = 1e-9) -> BoundReport:
    """Evaluate every catalog bound on T against a certified w(T) bracket."""
    ws = Workspace.of(t)
    return report_from_workspace(ws, numerical_radius(ws, tol))
