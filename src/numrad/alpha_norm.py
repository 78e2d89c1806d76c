"""Alpha-norm estimation on the complex unit sphere.

The objective

    F(x) = alpha |<Tx, x>|^2 + (1 - alpha) ||Tx||^2,   ||x|| = 1,

interpolates between the squared operator norm (alpha = 0) and the
squared numerical radius (alpha = 1); its supremum over the sphere is
the squared alpha-norm.  The objective is non-convex, so the estimate
is reported as a sandwich: the best projected-ascent limit over
multistarts (a guaranteed lower bound) together with a certified upper
bound assembled from the bound catalog.  Never trust best_value as a
point value for the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_th1, bound_th2
from .linalg import check_alpha, check_unit, phase_normalize
from .radius import numerical_radius
from .workspace import Workspace

ARMIJO_C = 1e-4
GRAD_TOL = 1e-10
MAX_STEPS = 500
_WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class AlphaNormEstimate:
    """Sandwich for the alpha-norm: best_value <= ||T||_alpha <= upper_cert."""

    alpha: float
    best_value: float
    best_vector: np.ndarray
    upper_cert: float


def alpha_objective(t, alpha: float, x) -> float:
    """alpha |<Tx, x>|^2 + (1 - alpha) ||Tx||^2 for a unit vector x."""
    alpha = check_alpha(alpha)
    a = Workspace.of(t).a
    v = check_unit(x)
    tv = a @ v
    c = np.vdot(v, tv)
    return float(alpha * abs(c) ** 2 + (1.0 - alpha) * float(np.linalg.norm(tv)) ** 2)


def alpha_gradient(t, alpha: float, x) -> np.ndarray:
    """Sphere-tangent ascent direction of the objective at x.

    With c = <Tx, x>, the ambient conjugate-coordinate gradient is
    g = alpha (conj(c) Tx + c T*x) + (1 - alpha) T*Tx; the tangent part
    g - <g, x> x is returned.  The directional derivative of the
    objective along the result equals twice its squared norm.
    """
    alpha = check_alpha(alpha)
    a = Workspace.of(t).a
    v = check_unit(x)
    tv = a @ v
    c = np.vdot(v, tv)
    g = alpha * (np.conj(c) * tv + c * (a.conj().T @ v)) + (1.0 - alpha) * (
        a.conj().T @ tv
    )
    return g - np.vdot(v, g) * v


def _ascend(a: np.ndarray, alpha: float, x0: np.ndarray) -> tuple[float, np.ndarray]:
    """Projected gradient ascent with Armijo backtracking, renormalizing
    to the sphere each step.  Stops at tangent norm <= 1e-10 or 500 steps."""
    ah = a.conj().T
    rest = 1.0 - alpha

    def parts(v: np.ndarray):
        tv = a @ v
        c = np.vdot(v, tv)
        val = alpha * (c.real * c.real + c.imag * c.imag) + rest * np.vdot(tv, tv).real
        return float(val), tv, c

    x = x0 / math.sqrt(np.vdot(x0, x0).real)
    f, tx, c = parts(x)
    step = 1.0
    for _ in range(MAX_STEPS):
        g = alpha * (np.conj(c) * tx + c * (ah @ x)) + rest * (ah @ tx)
        tang = g - np.vdot(x, g) * x
        tn2 = float(np.vdot(tang, tang).real)
        if tn2 <= GRAD_TOL * GRAD_TOL:
            break
        deriv = 2.0 * tn2
        s = step
        accepted = False
        for _ in range(60):
            cand = x + s * tang
            cand = cand / math.sqrt(np.vdot(cand, cand).real)
            fc, tvc, cc = parts(cand)
            if fc >= f + ARMIJO_C * s * deriv:
                x, f, tx, c = cand, fc, tvc, cc
                step = min(s * 2.0, 1e8)
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    return f, x


def alpha_norm_estimate(
    t,
    alpha: float,
    restarts: int = 16,
    seed: int = 0,
    radius_witness: np.ndarray | None = None,
) -> AlphaNormEstimate:
    """Multistart sandwich estimate of the alpha-norm.

    The first start is the top right singular vector (exact maximizer at
    alpha = 0), the second the numerical-radius witness (near-maximizer
    at alpha = 1, recomputed unless one is passed in), the rest uniform
    draws from the complex unit sphere.  best_value is the maximum of
    the ascent limits, ties resolved toward the lowest restart index;
    upper_cert is min(||T||, sqrt(th2 bound), sqrt(th1 bound at
    exponent 1/2)) at the same alpha.
    """
    alpha = check_alpha(alpha)
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    ws = Workspace.of(t)
    a = ws.a
    n = a.shape[0]
    nrm = ws.norm
    if nrm == 0.0:
        e1 = np.eye(1, n, dtype=np.complex128)[0]
        return AlphaNormEstimate(alpha, 0.0, e1, 0.0)

    starts: list[np.ndarray] = []
    starts.append(ws.gram_eig[1][:, 0])
    if restarts >= 2:
        witness = radius_witness
        if witness is None:
            witness = numerical_radius(a, _WITNESS_TOL).witness
        starts.append(np.asarray(witness, dtype=np.complex128).reshape(-1))
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(v / np.linalg.norm(v))

    best_f = -1.0
    best_x = starts[0]
    for x0 in starts:
        f, x = _ascend(a, alpha, x0)
        if f > best_f:
            best_f, best_x = f, x

    upper = min(
        nrm,
        math.sqrt(max(bound_th2(ws, alpha), 0.0)),
        math.sqrt(max(bound_th1(ws, alpha, 0.5), 0.0)),
    )
    return AlphaNormEstimate(
        alpha=alpha,
        best_value=math.sqrt(max(best_f, 0.0)),
        best_vector=phase_normalize(best_x),
        upper_cert=upper,
    )
