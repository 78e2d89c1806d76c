"""Dense complex matrix primitives.

Everything downstream (radius sweeps, bound formulas, the (alpha, beta)
certificate) is built from a handful of spectral operations collected
here: the three checked routes to numpy's solvers (eigh_desc for
Hermitian eigenpairs, herm_eigvals, with its view herm_norms, for
Hermitian eigenvalues, each on one matrix or a stack, and svd_desc for
singular triplets; each refuses a non-finite result with
NoConvergence), checked Hermitian products, PSD powers and Cartesian
parts.  The per-matrix helpers built on them (polar_moduli,
hermitian_section, kernels_equal) read a radius.Workspace.  All
functions are pure, take array-likes, and return fresh complex128
ndarrays, so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadAlpha, BadExponent, NoConvergence, NotHermitian, NotSquare, NotUnit

EPS = float(np.finfo(np.float64).eps)  # 2**-52


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty matrix")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def check_unit(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise NotUnit(f"vector norm {np.linalg.norm(v):.12g} is not 1 within 1e-10")
    return v


def adjoint(m) -> np.ndarray:
    """Conjugate transpose M*."""
    return as_matrix(m).conj().T.copy()


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def _hermitize(h: np.ndarray) -> np.ndarray:
    """(h + h*) / 2 over the last two axes; an overflow leaves a non-finite
    entry for the caller's check rather than a RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (h + h.conj().swapaxes(-1, -2)) / 2.0


def eigh_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitize and decompose one matrix or a stack of them; eigenvalues
    descending along the last axis, eigenvector columns matching.

    Raises NoConvergence rather than return a non-finite eigenvalue or
    eigenvector.
    """
    try:
        vals, vecs = np.linalg.eigh(_hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    # count_nonzero costs half of .all() on small arrays, and this runs per Ritz step.
    if np.count_nonzero(np.isfinite(vals)) + np.count_nonzero(np.isfinite(vecs)) < vals.size + vecs.size:
        raise NoConvergence("non-finite eigenpair: an intermediate matrix overflowed")
    return vals[..., ::-1].copy(), vecs[..., ::-1].copy()


def herm_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending along the last axis, of one Hermitian matrix or a stack of them.

    Only the lower triangle of each matrix is read.  Raises NoConvergence
    rather than return a non-finite eigenvalue.
    """
    try:
        vals = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NoConvergence("non-finite eigenvalue: an intermediate matrix overflowed")
    return vals


def herm_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms max |eigenvalue| of one Hermitian matrix or a stack of them (see herm_eigvals)."""
    vals = herm_eigvals(stack)
    return np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))


def herm_norm(h: np.ndarray) -> float:
    """Spectral norm of a (numerically) Hermitian matrix, hermitized first."""
    return float(herm_norms(_hermitize(h)))


def hermitian_product(x: np.ndarray, y: np.ndarray, name: str) -> np.ndarray:
    """Re(x @ y) = (xy + (xy)*) / 2, refused (NoConvergence) when it overflows.

    The result is exactly Hermitian, so hermitizing it again (as
    eigh_desc does) changes no bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hermitize(x @ y)
    if not np.isfinite(h).all():
        raise NoConvergence(f"{name} has a non-finite entry: the matrix is too large")
    return h


@dataclass(frozen=True)
class HermitianEig:
    """Decomposition H = U diag(eigenvalues) U* with eigenvalues descending.

    Invariants: reconstruction and unitarity residuals stay below
    1e-10 relative to max(1, ||H||_F).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.conj().T


def herm_eig(h, tol: float = 1e-10) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when ||H - H*||_F exceeds tol * max(1, ||H||_F),
    and NoConvergence when the underlying solver gives up.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a = require_square(as_matrix(h))
    scale = max(1.0, frobenius(a))
    if frobenius(a - a.conj().T) > tol * scale:
        raise NotHermitian(f"matrix is not Hermitian within tolerance {tol}")
    vals, vecs = eigh_desc(a)
    return HermitianEig(vals, vecs)


def svd_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition M = U diag(sigma) V*, sigma descending.

    Raises NoConvergence rather than return a non-finite factor.  No
    product such as M*M is formed, so the backward error is normwise in
    M and sigma is accurate to about eps ||M|| at every scale of M.
    """
    try:
        u, sigma, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value decomposition failed: {exc}") from exc
    if not (np.isfinite(sigma).all() and np.isfinite(u).all() and np.isfinite(vh).all()):
        raise NoConvergence("non-finite singular triplet")
    return u, sigma, vh.conj().T


def spectral_norm(m) -> float:
    """Operator norm: the largest singular value."""
    return float(singular_values(m)[0])


def singular_values(m) -> np.ndarray:
    """Singular values, descending, from svd_desc."""
    return svd_desc(as_matrix(m))[1]


def power_from_eig(vals: np.ndarray, vecs: np.ndarray, r: float) -> np.ndarray:
    # 0**0 == 1 under np.power, which is the convention we want: the r -> 0
    # limit of t**r is 1 for t > 0 and the exponent-0 member of a power
    # family f(t) g(t) = t must act as the identity on the support.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = vecs * np.power(np.clip(vals, 0.0, None), r)
    return hermitian_product(scaled, vecs.conj().T, f"the power {r} of a PSD matrix")


def psd_power(p, r: float) -> np.ndarray:
    """P**r for Hermitian PSD P and r in [0, 1], with 0**0 := 1.

    Eigenvalues down to -1e-10 * ||P|| are treated as rounding and clamped
    to zero; anything more negative is rejected.
    """
    if not 0.0 <= float(r) <= 1.0:
        raise BadExponent(f"exponent must lie in [0, 1], got {r}")
    eig = herm_eig(p, tol=1e-8)
    top = float(max(abs(eig.eigenvalues[0]), abs(eig.eigenvalues[-1])))
    if float(eig.eigenvalues[-1]) < -1e-10 * top:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return power_from_eig(eig.eigenvalues, eig.basis, float(r))


def cartesian_parts(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian pair (Re(M), Im(M)) with M = Re(M) + i Im(M).

    Re(M) = (M + M*)/2 and Im(M) = (M - M*)/(2i); both are Hermitian
    entry by entry, no symmetrization needed.  M is halved first, so
    the sums cannot overflow for any finite M.
    """
    h = require_square(as_matrix(m)) / 2.0
    re = h + h.conj().T
    im = (h - h.conj().T) * (-1j)
    return re, im


class KernelComparison(NamedTuple):
    equal: bool
    kernel_dim: int
    adjoint_kernel_dim: int


def phase_normalize(x: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first non-negligible component is real positive.

    Adding 0 turns every negative zero into +0, so a witness reads the
    same whichever factorization left signed zeros in it.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1).copy()
    for c in x:
        if abs(c) > 1e-12:
            x *= np.conj(c) / abs(c)
            break
    return x + 0.0
