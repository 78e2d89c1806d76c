"""Certified numerical radius via an angle sweep.

w(T) = max_theta lambda_max(H(theta)) where

    H(theta) = (e^{i theta} T + e^{-i theta} T*) / 2
             = cos(theta) Re(T) - sin(theta) Im(T).

A branch-and-bound refinement brackets the maximum.  Every evaluated
value g(theta) = lambda_max(H(theta)) equals <H(theta) x, x> for the
top eigenvector x, hence is a valid lower bound for w(T).  An interval
[t1, t2] of width h carries the certificate

    sup over the interval <= max(g(t1), g(t2)) + min(L h / 2, W h^2 / 8)

with L = ||T|| a Lipschitz constant of g and W any already proven upper
bound for w(T).  The quadratic term holds because g is a supremum of
sinusoids |<Tx, x>| cos(theta + phi_x) whose amplitude never exceeds
w(T) <= W, so g(theta) + W theta^2 / 2 is convex.  Without it, matrices
whose section spectrum is theta-invariant (weighted shifts, where g is
constant) would need ~2^20 eigenvalue evaluations to certify a 1e-8
bracket; with it a handful of rounds suffice.  Plateaus still refine
every interval, so cost grows like 2^rounds there; the round cap keeps
that bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, Timeout
from .linalg import (
    as_matrix,
    cartesian_parts,
    phase_normalize,
    require_square,
    spectral_norm,
)

INITIAL_GRID = 720
MAX_ROUNDS = 40
_EVAL_CHUNK = 1 << 15
_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RadiusBracket:
    """Certified enclosure of w(T).

    lower is |<T x, x>| at the best section eigenvector found (always a
    genuine lower bound), upper comes from the interval certificates,
    and witness is that eigenvector, phase-normalized so its first
    non-negligible component is real positive.
    """

    lower: float
    upper: float
    argmax_angle: float
    witness: np.ndarray


def hermitian_section(t, theta: float) -> np.ndarray:
    """The Hermitian section (e^{i theta} T + e^{-i theta} T*) / 2."""
    a = require_square(as_matrix(t))
    h = np.exp(1j * float(theta)) * a
    return (h + h.conj().T) / 2.0


def _section_top_eigs(re: np.ndarray, im: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of cos(t) Re - sin(t) Im for a batch of angles, chunked."""
    out = np.empty(thetas.size)
    for lo in range(0, thetas.size, _EVAL_CHUNK):
        chunk = thetas[lo : lo + _EVAL_CHUNK]
        stack = np.cos(chunk)[:, None, None] * re - np.sin(chunk)[:, None, None] * im
        try:
            out[lo : lo + chunk.size] = np.linalg.eigvalsh(stack)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"section eigensolver failed: {exc}") from exc
    return out


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def numerical_radius(t, tol: float = 1e-9) -> RadiusBracket:
    """Certified bracket [lower, upper] around w(T) with upper - lower <= tol.

    Starts from 720 equispaced angles on [0, 2pi), keeps every interval
    whose certified local maximum could still exceed the proven lower
    bound, and halves those intervals until the bracket closes or the
    round cap is hit (Timeout).  Deterministic: ties in the running
    maximum are resolved toward the smallest angle.
    """
    tol = float(tol)
    if not tol >= 1e-12:
        raise ValueError("tol must be at least 1e-12")
    a = require_square(as_matrix(t))
    n = a.shape[0]
    nrm = spectral_norm(a)
    if nrm == 0.0:
        e1 = np.eye(1, n, dtype=np.complex128)[0]
        return RadiusBracket(0.0, 0.0, 0.0, e1)

    re, im = cartesian_parts(a)
    h = _TWO_PI / INITIAL_GRID
    thetas = np.arange(INITIAL_GRID) * h
    g = _section_top_eigs(re, im, thetas)

    best = int(np.argmax(g))
    best_theta = float(thetas[best])
    lower = float(g[best])

    left, right = thetas, thetas + h
    gl, gr = g, np.roll(g, -1)

    # Any proven upper bound works for the curvature certificate.
    cap = min(nrm, lower + nrm * h / 2.0)
    upper = cap

    converged = False
    for _ in range(MAX_ROUNDS):
        slack = min(nrm * h / 2.0, cap * h * h / 8.0)
        certs = np.maximum(gl, gr) + slack
        upper = min(cap, max(lower, float(certs.max())))
        cap = upper
        # A small internal margin keeps the final bracket within tol even
        # after the witness inner product replaces the grid lower bound.
        if upper - lower <= 0.9 * tol:
            converged = True
            break
        keep = certs > lower
        if not keep.any():
            upper = lower
            converged = True
            break
        left, right = left[keep], right[keep]
        gl, gr = gl[keep], gr[keep]
        mid = (left + right) / 2.0
        gm = _section_top_eigs(re, im, mid)
        j = int(np.argmax(gm))
        if float(gm[j]) > lower:
            lower = float(gm[j])
            best_theta = float(mid[j])
        left = _interleave(left, mid)
        right = _interleave(mid, right)
        gl = _interleave(gl, gm)
        gr = _interleave(gm, gr)
        h /= 2.0
    if not converged:
        raise Timeout(
            f"radius bracket still {upper - lower:.3e} wide after {MAX_ROUNDS} rounds"
        )

    section = np.cos(best_theta) * re - np.sin(best_theta) * im
    try:
        _, vecs = np.linalg.eigh(section)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"witness eigensolver failed: {exc}") from exc
    witness = phase_normalize(vecs[:, -1])
    lower_final = float(abs(np.vdot(witness, a @ witness)))
    return RadiusBracket(
        lower=lower_final,
        upper=max(upper, lower_final),
        argmax_angle=float(best_theta % _TWO_PI),
        witness=witness,
    )
