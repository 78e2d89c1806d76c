"""Alpha-norm estimation on the complex unit sphere.

The objective

    F(x) = alpha |<Tx, x>|^2 + (1 - alpha) ||Tx||^2,   ||x|| = 1,

interpolates between the squared operator norm (alpha = 0) and the
squared numerical radius (alpha = 1); its supremum over the sphere is
the squared alpha-norm.  The objective is non-convex, so the estimate
is reported as a sandwich: the best ascent limit over multistarts (a
guaranteed lower bound) together with a certified upper bound assembled
from the bound catalog.  Never trust best_value as a point value for
the supremum.

The ascent is minorize-maximize.  With c = <Tx, x> at the current x,
|<Ty, y>|^2 >= 2 Re(conj(c) <Ty, y>) - |c|^2, so for every unit y

    F(y) >= <M(c)y, y> - alpha |c|^2,  M(c) = alpha (conj(c) T + c T*) + (1 - alpha) T*T,

with equality at y = x; M(c)x is also the ambient gradient of F at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import OBJECTIVES, bound_th2
from .errors import NoConvergence
from .linalg import check_alpha, check_unit, eigh_desc, phase_normalize
from .radius import Workspace

GRAD_TOL = 1e-10
MAX_STEPS = 500


@dataclass(frozen=True)
class AlphaNormEstimate:
    """Sandwich for the alpha-norm: best_value <= ||T||_alpha <= upper_cert."""

    alpha: float
    best_value: float
    best_vector: np.ndarray
    upper_cert: float


def _value(a: np.ndarray, alpha: float, x: np.ndarray) -> tuple[float, complex]:
    """(F(x), <Tx, x>) for a unit vector x; NoConvergence when F overflows."""
    tx = a @ x
    c = np.vdot(x, tx)
    f = float(alpha * (c.real * c.real + c.imag * c.imag) + (1.0 - alpha) * np.vdot(tx, tx).real)
    return (f if math.isfinite(f) else _finite(f, "the alpha objective")), c


def _apply_surrogate(a: np.ndarray, alpha: float, c: complex, y: np.ndarray) -> np.ndarray:
    """M(c) y for a vector or a block of columns y, without forming M(c)."""
    ah = a.conj().T
    ty = a @ y
    return alpha * (np.conj(c) * ty + c * (ah @ y)) + (1.0 - alpha) * (ah @ ty)


def _tangent(a: np.ndarray, alpha: float, c: complex, x: np.ndarray) -> np.ndarray:
    g = _apply_surrogate(a, alpha, c, x)
    return g - np.vdot(x, g) * x


def _finite(value, name: str):
    """value, or NoConvergence when it is not finite (an intermediate overflowed)."""
    if not np.isfinite(value).all():
        raise NoConvergence(f"{name} is not finite: the matrix is too large")
    return value


def alpha_objective(t, alpha: float, x) -> float:
    """alpha |<Tx, x>|^2 + (1 - alpha) ||Tx||^2 for a unit vector x (NoConvergence on overflow)."""
    a, alpha, v = Workspace.of(t).a, check_alpha(alpha), check_unit(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _value(a, alpha, v)[0]


def alpha_gradient(t, alpha: float, x) -> np.ndarray:
    """Sphere-tangent ascent direction of the objective at x.

    With c = <Tx, x>, the ambient conjugate-coordinate gradient is
    g = M(c)x; the tangent part g - <g, x> x is returned.  The directional
    derivative of the objective along the result equals twice its squared norm.
    Raises NoConvergence when the direction overflows.
    """
    a, alpha, v = Workspace.of(t).a, check_alpha(alpha), check_unit(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_tangent(a, alpha, _value(a, alpha, v)[1], v), "the alpha gradient")


def _ascend(a: np.ndarray, alpha: float, x0: np.ndarray) -> tuple[float, np.ndarray]:
    """Minorize-maximize ascent from x0; returns (F(x), x) at its limit.

    A step moves to the unit y in span(x, t, s) that maximizes <M(c)y, y>:
    Q times the top eigenvector of the 3x3 matrix Q* M(c) Q, Q an
    orthonormal basis, t the tangent part of M(c)x, s the previous step
    (zero at first).  x is in the span, so F(y) >= <M(c)y, y> - alpha |c|^2
    >= <M(c)x, x> - alpha |c|^2 = F(x): no step lowers F or needs a step
    size.  Stops at tangent norm <= GRAD_TOL * F(x), when F stops
    strictly rising, or after MAX_STEPS steps.  F and the tangent both
    scale as s^2 under T -> sT, so the first test decides alike at every
    scale; it compares norms, not squares, so that the threshold never
    overflows.  Raises NoConvergence when F or the tangent step is not
    finite (an intermediate overflowed).
    """
    x = x0 / math.sqrt(np.vdot(x0, x0).real)
    with np.errstate(over="ignore", invalid="ignore"):
        f, c = _value(a, alpha, x)
        s = np.zeros_like(x)
        for _ in range(MAX_STEPS):
            t = _tangent(a, alpha, c, x)
            tt = np.vdot(t, t).real
            if not math.isfinite(tt):
                # Only a non-finite step is refused; a finite one whose square overflows goes on.
                _finite(t, "the alpha ascent step")
            if math.sqrt(tt) <= GRAD_TOL * f:
                break
            q = np.linalg.qr(np.stack([x, t, s], axis=1))[0]
            y = q @ eigh_desc(q.conj().T @ _apply_surrogate(a, alpha, c, q))[1][:, 0]
            fy, cy = _value(a, alpha, y)
            if not fy > f:
                break
            x, s, f, c = y, y - x, fy, cy
    return f, x


def alpha_norm_estimate(
    t,
    alpha: float,
    restarts: int = 16,
    seed: int = 0,
    radius_witness: np.ndarray | None = None,
) -> AlphaNormEstimate:
    """Multistart sandwich estimate of the alpha-norm.

    The first start is the top right singular vector V[:, 0] of the
    workspace's decomposition (exact maximizer at alpha = 0), the second
    the numerical-radius witness (near-maximizer at alpha = 1,
    recomputed unless one is passed in; a passed-in one that is not a
    finite nonzero vector of length n raises ValueError when
    restarts >= 2, the only case that uses it), the rest uniform draws
    from the complex unit sphere.  best_value is the maximum of
    the ascent limits, ties resolved toward the lowest restart index;
    upper_cert is min(||T||, sqrt(th2 bound), sqrt(gamma)) at the same
    alpha, where gamma is the catalog's COR1 objective: the th1 bound
    at exponent 1/2, since |T|^2 = T*T.
    """
    alpha = check_alpha(alpha)
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    ws = Workspace.of(t)
    a = ws.a
    n = a.shape[0]
    starts = [ws.svd[2][:, 0]]
    if restarts >= 2:
        if radius_witness is None:
            radius_witness = ws.radius_witness
        witness = np.asarray(radius_witness, dtype=np.complex128).reshape(-1)
        if witness.size != n:
            raise ValueError(f"radius_witness must have length {n}, got {witness.size}")
        # The ascent divides by the witness norm: it must be positive and finite.
        if not 0.0 < np.vdot(witness, witness).real < math.inf:
            raise ValueError("radius_witness must be finite and nonzero")
        starts.append(witness)
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(v / np.linalg.norm(v))

    best_f, best_x = max((_ascend(a, alpha, x0) for x0 in starts), key=lambda fx: fx[0])

    # The square root is monotone, so one root of the smaller w^2 bound serves both.
    squared = min(bound_th2(ws, alpha), OBJECTIVES["gamma"](ws, alpha))
    upper = min(ws.norm, math.sqrt(max(squared, 0.0)))
    return AlphaNormEstimate(
        alpha=alpha,
        best_value=math.sqrt(max(best_f, 0.0)),
        best_vector=phase_normalize(best_x),
        upper_cert=upper,
    )
