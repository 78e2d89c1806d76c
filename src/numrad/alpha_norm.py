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

All starts ascend in lockstep, as the block form of LOBPCG advances
its vectors (Knyazev, SIAM J. Sci. Comput. 23, 2001), whose
three-vector subspace the Ritz steps use.  The products of T with a
start's basis Q give the surrogate's Ritz matrix at every centre c, so
a round takes two steps in it, the second re-centred at the first's
<Ty, y>: one stacked QR, products of T with every live start's basis
as one block of rows, two stacked eigh_desc calls of 3x3 matrices and
one batched F, and each start retires by its own rules.  The block
stops once the best F reached is within a relative 4 eps of the
squared sandwich cap min(||T||^2, th2, gamma), the square of
upper_cert: no ascent rises past the cap, so no further step could
raise best_value by more than about 4 ulps.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import OBJECTIVES, bound_th2
from .linalg import EPS, check_alpha, check_unit, eigh_desc, phase_normalize, require_finite
from .radius import Workspace

GRAD_TOL = 1e-10
MAX_STEPS = 500
_TOO_LARGE = "is not finite: the matrix is too large"


@dataclass(frozen=True)
class AlphaNormEstimate:
    """Sandwich for the alpha-norm: best_value <= ||T||_alpha <= upper_cert."""

    alpha: float
    best_value: float
    best_vector: np.ndarray
    upper_cert: float


def _values(a: np.ndarray, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, <Tx, x>, Tx) for each unit row x of a block, Tx as rows; NoConvergence when an F overflows."""
    tx = x @ a.T
    c = np.einsum("ij,ij->i", x.conj(), tx)
    f = alpha * (c.real * c.real + c.imag * c.imag) + (1.0 - alpha) * np.einsum("ij,ij->i", tx.conj(), tx).real
    return require_finite(f, f"the alpha objective {_TOO_LARGE}"), c, tx


def _apply_surrogate(a: np.ndarray, alpha: float, c, y: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Rows M(c) y for a block of rows y, given ty = T y as rows, without
    forming M(c); c broadcasts against the rows."""
    return alpha * np.conj(c) * ty + (alpha * c * y + (1.0 - alpha) * ty) @ a.conj()


def _tangents(a: np.ndarray, alpha: float, x: np.ndarray, c: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Rows g - <x, g> x, g = M(c) x, for unit rows x with their <Tx, x> and Tx."""
    g = _apply_surrogate(a, alpha, c[:, None], x, tx)
    return g - np.einsum("ij,ij->i", x.conj(), g)[:, None] * x


def _ritz_blocks(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q* T Q, (TQ)* (TQ)) for a stack of orthonormal bases Q, (k, n, m),
    from one (k m, n) block of products with T."""
    k, n, m = q.shape
    rows = q.transpose(0, 2, 1).reshape(k * m, n)
    tq = (rows @ a.T).reshape(k, m, n)
    return rows.conj().reshape(k, m, n) @ tq.transpose(0, 2, 1), tq.conj() @ tq.transpose(0, 2, 1)


def _ritz(alpha: float, c: np.ndarray, a_q: np.ndarray, b_q: np.ndarray) -> np.ndarray:
    """The Ritz matrices Q* M(c) Q = alpha (conj(c) A + c A*) + (1 - alpha) B
    of the blocks (A, B) from _ritz_blocks, one centre c per basis."""
    c = c[:, None, None]
    return alpha * (np.conj(c) * a_q + c * a_q.conj().transpose(0, 2, 1)) + (1.0 - alpha) * b_q


def _rows(mask: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of each block where mask holds; the blocks themselves when it holds everywhere."""
    return blocks if mask.all() else tuple(b[mask] for b in blocks)


def alpha_objective(t, alpha: float, x) -> float:
    """alpha |<Tx, x>|^2 + (1 - alpha) ||Tx||^2 for a unit vector x (NoConvergence on overflow)."""
    a, alpha, v = Workspace.of(t).a, check_alpha(alpha), check_unit(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_values(a, alpha, v[None])[0][0])


def alpha_gradient(t, alpha: float, x) -> np.ndarray:
    """Sphere-tangent ascent direction of the objective at x.

    With c = <Tx, x>, the ambient conjugate-coordinate gradient is
    g = M(c)x; the tangent part g - <g, x> x is returned.  The directional
    derivative of the objective along the result equals twice its squared norm.
    Raises NoConvergence when the direction overflows.
    """
    a, alpha, v = Workspace.of(t).a, check_alpha(alpha), check_unit(x)
    with np.errstate(over="ignore", invalid="ignore"):
        _, c, tx = _values(a, alpha, v[None])
        return require_finite(_tangents(a, alpha, v[None], c, tx)[0], f"the alpha gradient {_TOO_LARGE}")


def _ascend(a: np.ndarray, alpha: float, x0: np.ndarray, cap: Callable[[], float]) -> tuple[np.ndarray, np.ndarray]:
    """Minorize-maximize ascent from every row of the block x0, in
    lockstep; returns (F, x) at each start's limit, one row per start.

    A round takes two surrogate steps in span(x, t, s), Q an orthonormal
    basis of it, t the tangent part of M(c)x and s the previous round's
    move (zero at first).  The Ritz matrix Q* M(c) Q is
    alpha (conj(c) A + c A*) + (1 - alpha) B with A = Q* T Q and
    B = (TQ)* (TQ), so once TQ is formed the surrogate at any c costs a
    3x3 matrix and no product with T.  The first step takes the top
    eigenvector z1 of the Ritz matrix at c = <Tx, x>, the second
    re-centres at c1 = z1* A z1 = <T Q z1, Q z1> and moves to y = Q z2,
    z2 the top eigenvector there.  Each is a minorize-maximize step
    within the span, which holds x and Q z1, so
    F(y) >= <M(c1) Q z2, Q z2> - alpha |c1|^2 >= F(Q z1)
    >= <M(c) x, x> - alpha |c|^2 = F(x): no step lowers F or needs a
    step size.  A round steps every live start at once: one stacked QR
    of the [x, t, s] blocks, products of T with all the bases as one
    (3k, n) block of rows, two stacked eigh_desc calls of the k Ritz
    matrices and one batched F.  Each start keeps its own rules and
    retires on its own: at tangent norm <= GRAD_TOL * F(x), when F stops
    strictly rising over a round, or after MAX_STEPS rounds.  F and the
    tangent both scale as s^2 under T -> sT, so the first test decides
    alike at every scale;
    it compares norms, not squares, so that the threshold never
    overflows.  When ||t||^2 is not a normal float (zero, subnormal or
    not finite) it may have under- or overflowed, and ||t|| is taken
    from hypot's rescaled reduction of |t_i| instead; otherwise the test
    reads sqrt(||t||^2) with no extra work.

    cap() is the squared sandwich cap, an upper bound on sup F; it is
    called once, after the first round's tangent test, so that an
    overflow in the ascent is refused before the cap's own products
    form.  The whole block stops once the best F reached is within a
    relative 4 eps of the cap: no start can rise past the cap (beyond
    the rounding of its bound), so further steps could not raise the
    best square root by more than about 2 eps relative, 4 ulps.  Raises
    NoConvergence when F or a tangent step is not finite (an
    intermediate overflowed).
    """
    x = x0 / np.linalg.norm(x0, axis=1)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        f, c, tx = _values(a, alpha, x)
        limit_f, limit_x = f.copy(), x.copy()
        live, s = np.arange(len(x)), np.zeros_like(x)
        for step in range(MAX_STEPS):
            t = _tangents(a, alpha, x, c, tx)
            tt = np.einsum("ij,ij->i", t.conj(), t).real
            norm = np.sqrt(tt)
            odd = ~((tt >= sys.float_info.min) & (tt < math.inf))
            if odd.any():
                # ||t||^2 is not a normal float: hypot rescales at every step, so ||t|| cannot under- or overflow.
                t_odd = require_finite(t[odd], f"the alpha ascent step {_TOO_LARGE}")
                norm[odd] = np.hypot.reduce(np.abs(t_odd), axis=1)
            if step == 0:
                stop = cap() * (1.0 - 4.0 * EPS)
            go = norm > GRAD_TOL * f
            if not go.any() or limit_f.max() >= stop:
                break
            live, x, t, s, f, c = _rows(go, live, x, t, s, f, c)
            q = np.linalg.qr(np.stack([x, t, s], axis=2))[0]
            a_q, b_q = _ritz_blocks(a, q)
            z = eigh_desc(_ritz(alpha, c, a_q, b_q))[1][:, :, 0]
            c1 = np.einsum("ki,kij,kj->k", z.conj(), a_q, z)
            z = eigh_desc(_ritz(alpha, c1, a_q, b_q))[1][:, :, 0]
            y = (q @ z[:, :, None])[:, :, 0]
            fy, cy, ty = _values(a, alpha, y)
            live, x, s, f, c, tx = _rows(fy > f, live, y, y - x, fy, cy, ty)
            limit_f[live], limit_x[live] = f, x
    return limit_f, limit_x


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
    from the complex unit sphere.  All starts ascend together, in
    lockstep rounds (_ascend).  best_value is the maximum of the ascent
    limits, ties resolved toward the lowest restart index; upper_cert
    is min(||T||, sqrt(th2 bound), sqrt(gamma)) at the same alpha,
    where gamma is the catalog's COR1 objective: the th1 bound at
    exponent 1/2, since |T|^2 = T*T.  Its square is the ascent's cap:
    the ascent stops once some start's F is within a relative 4 eps of
    it, which lowers best_value by at most about 4 ulps, and only where
    the sandwich is already closed to that width.
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

    # One evaluation of the squared bound serves the ascent's cap and upper_cert.
    squared = functools.cache(lambda: min(bound_th2(ws, alpha), OBJECTIVES["gamma"](ws, alpha)))
    limits, vectors = _ascend(a, alpha, np.stack(starts), lambda: min(ws.norm * ws.norm, squared()))
    best = int(np.argmax(limits))  # the first maximal limit

    # The square root is monotone, so one root of the smaller w^2 bound serves both.
    upper = min(ws.norm, math.sqrt(max(squared(), 0.0)))
    return AlphaNormEstimate(
        alpha=alpha,
        best_value=math.sqrt(max(float(limits[best]), 0.0)),
        best_vector=phase_normalize(vectors[best]),
        upper_cert=upper,
    )
