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

The sweep runs on a Workspace, the per-matrix cache through which
every public function takes its matrix in; it sits here, under the
sweep, because its two Buzano w-terms are radius brackets themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, Timeout
from .linalg import (
    as_matrix,
    cartesian_parts,
    eigh_desc,
    herm_norm,
    phase_normalize,
    power_from_eig,
    require_square,
)

INITIAL_GRID = 720
MAX_ROUNDS = 40
W_TERM_TOL = 1e-9
_EVAL_CHUNK = 1 << 15
_TWO_PI = 2.0 * np.pi


def _gram(x: np.ndarray, y: np.ndarray, name: str) -> np.ndarray:
    """The hermitized product x @ y, refused when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x @ y
        h = (g + g.conj().T) / 2.0
    if not np.isfinite(h).all():
        raise NoConvergence(f"{name} has a non-finite entry: the matrix is too large to square")
    return h


class Workspace:
    """Cached spectral objects for one square matrix, each computed on
    first use, so a workspace built for one call adds no eigen-solves.

    The moduli squares are taken directly from the hermitized Gram
    products (|T|^2 = T*T exactly) rather than squaring the computed
    square roots.  eigh_desc hermitizes its input the same way, so each
    eigensystem is bit-identical to eigh_desc(T*T) or eigh_desc(TT*).
    A Gram product that overflows raises NoConvergence.
    """

    def __init__(self, t):
        self.a = require_square(as_matrix(t))

    @classmethod
    def of(cls, t) -> Workspace:
        """t itself when it is already a workspace, else a new one for t."""
        return t if isinstance(t, cls) else cls(t)

    @cached_property
    def gram(self) -> np.ndarray:
        return _gram(self.a.conj().T, self.a, "T*T")

    @cached_property
    def cogram(self) -> np.ndarray:
        return _gram(self.a, self.a.conj().T, "TT*")

    @cached_property
    def gram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of T*T descending, with matching eigenvector columns."""
        return eigh_desc(self.gram)

    @cached_property
    def cogram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return eigh_desc(self.cogram)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Singular values, descending."""
        return np.sqrt(np.clip(self.gram_eig[0], 0.0, None))

    @cached_property
    def norm(self) -> float:
        return float(self.sigma[0])

    def mod_power(self, e: float) -> np.ndarray:
        """|T|**e via the Gram eigenbasis (exponent may exceed 1)."""
        vals, vecs = self.gram_eig
        return power_from_eig(vals, vecs, e / 2.0)

    def comod_power(self, e: float) -> np.ndarray:
        """|T*|**e via the co-Gram eigenbasis."""
        vals, vecs = self.cogram_eig
        return power_from_eig(vals, vecs, e / 2.0)

    @cached_property
    def abs_t(self) -> np.ndarray:
        return self.mod_power(1.0)

    @cached_property
    def abs_t_star(self) -> np.ndarray:
        return self.comod_power(1.0)

    @cached_property
    def re_im(self) -> tuple[np.ndarray, np.ndarray]:
        return cartesian_parts(self.a)

    @cached_property
    def re_im_norms(self) -> tuple[float, float]:
        """(||Re T||, ||Im T||)."""
        return tuple(map(herm_norm, self.re_im))

    @cached_property
    def rotated_norms(self) -> tuple[float, float]:
        """(||Re T + Im T||, ||Re T - Im T||)."""
        re, im = self.re_im
        return herm_norm(re + im), herm_norm(re - im)

    @cached_property
    def re_cross(self) -> np.ndarray:
        cross = self.abs_t @ self.abs_t_star
        return (cross + cross.conj().T) / 2.0

    @cached_property
    def re_cross_norm(self) -> float:
        return herm_norm(self.re_cross)

    @cached_property
    def w_mix_upper(self) -> float:
        """Upper endpoint of the bracket for w(|T| + i |T*|)."""
        return numerical_radius(self.abs_t + 1j * self.abs_t_star, W_TERM_TOL).upper

    @cached_property
    def w_prod_upper(self) -> float:
        """Upper endpoint of the bracket for w(|T| |T*|)."""
        return numerical_radius(self.abs_t @ self.abs_t_star, W_TERM_TOL).upper


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

    T is a matrix or its Workspace.  Starts from 720 equispaced angles
    on [0, 2pi), keeps every interval whose certified local maximum
    could still exceed the proven lower bound, and halves those
    intervals until the bracket closes or the round cap is hit
    (Timeout).  Deterministic: ties in the running maximum are resolved
    toward the smallest angle.
    """
    tol = float(tol)
    if not tol >= 1e-12:
        raise ValueError("tol must be at least 1e-12")
    ws = Workspace.of(t)
    a, nrm = ws.a, ws.norm
    if nrm == 0.0:
        e1 = np.eye(1, a.shape[0], dtype=np.complex128)[0]
        return RadiusBracket(0.0, 0.0, 0.0, e1)

    re, im = ws.re_im
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
