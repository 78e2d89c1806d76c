"""Seeded property fuzzing across random matrix ensembles.

Runs every registered inequality property against per-trial matrices
drawn from counter-based streams, so results are reproducible and
independent of execution order.  Violations are data, not errors: each
record embeds the offending matrix for replay.

One diagnostic is tracked without being asserted: whether
min over alpha of ||a|T| + (1-a)|T*||| stays above w(T).  Whether that
inequality holds in general is an open problem, so candidate
counterexamples are recorded in the cell diagnostics only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bounds
from .abnormal import ab_certify, lower_sab, lower_th5, lower_th6
from .alpha_norm import alpha_norm_estimate
from .ensembles import ENSEMBLES, random_matrix, stream_rng
from .errors import BadEnsemble
from .radius import Workspace, numerical_radius
from .scalar_checks import scalar_inequality_checks

ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_TOL = 1e-7
CHAIN_TOL = 1e-9
VECTOR_PAIRS = 8
STRICT_MARGIN = 1e-12
# Few alpha-norm restarts suffice: the sandwich property only needs the
# certificate side, and the two structured starts (top singular vector,
# radius witness) already pin the endpoints.
ALPHA_RESTARTS = 2


@dataclass(frozen=True)
class FuzzConfig:
    dims: tuple[int, ...]
    trials: int
    ensembles: tuple[str, ...]
    seed: int
    tol: float = DEFAULT_TOL


@dataclass(frozen=True, eq=False)
class Violation:
    property_id: str
    trial: int
    matrix: np.ndarray
    observed: dict[str, float]

    def __eq__(self, other):
        return (
            isinstance(other, Violation)
            and self.property_id == other.property_id
            and self.trial == other.trial
            and np.array_equal(self.matrix, other.matrix)
            and self.observed == other.observed
        )


@dataclass
class FuzzSummary:
    """Result of one (ensemble, dimension) cell; violations sorted by trial."""

    trials: int
    dimension: int
    ensemble: str
    seed: int
    violations: list[Violation]
    elapsed: float
    diagnostics: dict = field(default_factory=dict)


class TrialContext:
    """Lazy per-matrix cache shared by the property checks: one workspace
    passed to every call, and one bound report read by every property."""

    def __init__(self, matrix: np.ndarray, rng: np.random.Generator, config: FuzzConfig, ensemble: str):
        self.matrix = matrix
        self.rng = rng
        self.config = config
        self.ensemble = ensemble

    @cached_property
    def workspace(self) -> Workspace:
        return Workspace(self.matrix)

    @cached_property
    def bracket(self):
        return numerical_radius(self.workspace, self.config.tol)

    @cached_property
    def report(self) -> bounds.BoundReport:
        return bounds.report_from_workspace(self.workspace, self.bracket)

    @cached_property
    def rows(self) -> dict[str, float]:
        """Report values by bound id."""
        return {e.bound_id: e.value for e in self.report.entries}

    @cached_property
    def certificate(self):
        return ab_certify(self.workspace)

    def alpha_estimate(self, alpha: float):
        return alpha_norm_estimate(
            self.workspace,
            alpha,
            restarts=ALPHA_RESTARTS,
            seed=0,
            radius_witness=self.bracket.witness,
        )

    def unit_vector(self) -> np.ndarray:
        v = self.rng.standard_normal(self.matrix.shape[0]) + 1j * self.rng.standard_normal(
            self.matrix.shape[0]
        )
        return v / np.linalg.norm(v)


def _prop_eqv1(ctx: TrialContext):
    lo, up, norm = ctx.bracket.lower, ctx.bracket.upper, ctx.workspace.norm
    tol = ctx.config.tol
    if lo < norm / 2.0 - tol or up > norm + tol:
        yield {"norm": norm, "lower": lo, "upper": up}


def _prop_eqv2(ctx: TrialContext):
    tol, norm = ctx.config.tol, ctx.workspace.norm
    for alpha in ALPHA_GRID:
        est = ctx.alpha_estimate(alpha)
        # Both realized values, w(T) and best_value, lie below upper_cert.
        if max(ctx.bracket.lower, est.best_value) - tol > est.upper_cert or est.best_value > norm + tol:
            yield {
                "alpha": alpha,
                "w_lower": ctx.bracket.lower,
                "upper_cert": est.upper_cert,
                "best_value": est.best_value,
                "norm": norm,
            }


def _prop_catalog(ctx: TrialContext):
    lo, up = ctx.bracket.lower, ctx.bracket.upper
    tol = ctx.config.tol
    for entry in ctx.report.entries:
        value = entry.value_on_w_scale
        if entry.is_upper and value < lo - tol:
            yield {"bound_id": entry.bound_id, "value": value, "w_lower": lo}
        if not entry.is_upper and value > up + tol:
            yield {"bound_id": entry.bound_id, "value": value, "w_upper": up}


def _prop_rem1_chain(ctx: TrialContext):
    ws, rows = ctx.workspace, ctx.rows
    # 0.5 * KITTANEH_SUM is ||T*T + TT*|| / 4 exactly.
    mid = 0.5 * rows["KITTANEH_SUM"] + 0.5 * ws.re_cross_norm
    outer = 0.5 * rows["KITTANEH_SUM"] + 0.5 * ws.w_prod_upper
    best = min(rows["COR1_GAMMA"] ** 2, rows["COR1_DELTA"] ** 2)
    if best > mid + CHAIN_TOL or mid > outer + CHAIN_TOL:
        yield {"min_gamma_delta_sq": best, "re_cross_form": mid, "w_prod_form": outer}


def _prop_eqn5_chain(ctx: TrialContext):
    eqn5, kitt_sum = ctx.rows["EQN5"], ctx.rows["KITTANEH_SUM"]
    if eqn5 > kitt_sum + CHAIN_TOL:
        yield {"eqn5": eqn5, "kittaneh_sum": kitt_sum}


def _prop_impr1(ctx: TrialContext):
    impr1 = ctx.rows["IMPR1"]
    if impr1 > ctx.workspace.norm + CHAIN_TOL:
        yield {"impr1": impr1, "norm": ctx.workspace.norm}


def _prop_ab_orderings(ctx: TrialContext):
    cert = ctx.certificate
    if not cert.is_ab_normal:
        return
    tol, ws = ctx.config.tol, ctx.workspace
    sab = lower_sab(ws, cert)
    th5 = lower_th5(ws, cert)
    th6 = lower_th6(ws, cert)
    up, half = ctx.bracket.upper, ws.norm / 2.0
    bad = (
        sab > th5 + CHAIN_TOL
        or sab > th6 + CHAIN_TOL
        or th5 > up + tol
        or th6 > up + tol
        or not sab > half + STRICT_MARGIN
    )
    if bad:
        yield {"sab": sab, "th5": th5, "th6": th6, "w_upper": up, "half_norm": half}
    # An invertible matrix cannot sit at w = ||T||/2.
    if ws.norm > 0.0 and up <= half:
        yield {"w_upper": up, "half_norm": half}


def _prop_hyponormal(ctx: TrialContext):
    if ctx.ensemble != "hyponormal-diag":
        return
    cert = ctx.certificate
    if abs(cert.beta_best - 1.0) > 1e-8:
        yield {"beta_best": cert.beta_best}


def _prop_scalar_checks(ctx: TrialContext):
    for k in range(VECTOR_PAIRS):
        x = ctx.unit_vector()
        y = ctx.unit_vector()
        r = float(ctx.rng.uniform(0.0, 1.0))
        checks = scalar_inequality_checks(ctx.workspace, x, y, r)
        if not all(checks):
            yield {
                "pair": k,
                "r": r,
                "kato": float(checks.kato),
                "kittaneh_fg": float(checks.kittaneh_fg),
                "mccarthy": float(checks.mccarthy),
                "buzano": float(checks.buzano),
            }


DEFAULT_PROPERTIES = (
    ("eqv1-sandwich", _prop_eqv1),
    ("eqv2-sandwich", _prop_eqv2),
    ("catalog-soundness", _prop_catalog),
    ("rem1-chain", _prop_rem1_chain),
    ("eqn5-chain", _prop_eqn5_chain),
    ("impr1-vs-norm", _prop_impr1),
    ("ab-orderings", _prop_ab_orderings),
    ("hyponormal-beta", _prop_hyponormal),
    ("scalar-ingredients", _prop_scalar_checks),
)


def _open_question_diagnostic(ctx: TrialContext, diag: dict) -> None:
    _, inner = ctx.report.minima["moduli_mix"]
    if inner >= ctx.bracket.lower - ctx.config.tol:
        diag["moduli_mix_vs_w_support"] = diag.get("moduli_mix_vs_w_support", 0) + 1
    else:
        diag.setdefault("moduli_mix_vs_w_counterexamples", []).append(
            {"inner_min": inner, "w_lower": ctx.bracket.lower}
        )


def fuzz(config: FuzzConfig, properties=None) -> list[FuzzSummary]:
    """Run the property suite; one summary per (ensemble, dimension) cell.

    Deterministic for a fixed config: trial streams depend only on
    (seed, ensemble index, dimension, trial index).
    """
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    for name in config.ensembles:
        if name not in ENSEMBLES:
            raise BadEnsemble(f"unknown ensemble {name!r}; choose one of {ENSEMBLES}")
    props = DEFAULT_PROPERTIES if properties is None else tuple(properties)

    summaries = []
    for ens_index, ensemble in enumerate(config.ensembles):
        for dim in config.dims:
            start = time.perf_counter()
            violations: list[Violation] = []
            diagnostics: dict = {}
            for trial in range(config.trials):
                rng = stream_rng(config.seed, ens_index, dim, trial)
                matrix = random_matrix(ensemble, dim, rng)
                ctx = TrialContext(matrix, rng, config, ensemble)
                for prop_id, prop in props:
                    for observed in prop(ctx):
                        violations.append(Violation(prop_id, trial, matrix, observed))
                _open_question_diagnostic(ctx, diagnostics)
            violations.sort(key=lambda v: (v.trial, v.property_id))
            summaries.append(
                FuzzSummary(
                    trials=config.trials,
                    dimension=dim,
                    ensemble=ensemble,
                    seed=config.seed,
                    violations=violations,
                    elapsed=time.perf_counter() - start,
                    diagnostics=diagnostics,
                )
            )
    return summaries


def total_violations(summaries: list[FuzzSummary]) -> int:
    return sum(len(s.violations) for s in summaries)
