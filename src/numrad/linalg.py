"""Dense complex matrix primitives.

Everything downstream (radius sweeps, bound formulas, the (alpha, beta)
certificate) is built from a handful of spectral operations collected
here: the three checked routes to numpy's solvers (eigh_desc for
Hermitian eigenpairs, herm_eigvals, with its view herm_norms, for
Hermitian eigenvalues, each on one matrix or a stack, and svd_desc for
singular triplets; each refuses a non-finite result with
NoConvergence through require_finite, the one such check), checked
Hermitian products, PSD powers and Cartesian parts.  A PSD matrix
passed in from outside has one validated decomposition, psd_eig,
behind every power of it; the workspace's polar powers come from its
singular value decomposition instead.  The per-matrix helpers built
on these (polar_moduli and hermitian_section in radius, kernels_equal
in abnormal) read a radius.Workspace.  All functions are pure, take
array-likes, and return fresh complex128 ndarrays, so values are safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def require_finite(value, message: str):
    """value, or NoConvergence(message) when an entry of it is not finite.

    value is an array, a float, or a tuple of them of any shapes.
    """
    for part in value if isinstance(value, tuple) else (value,):
        # count_nonzero costs half of .all() on small arrays, and eigh_desc runs this per Ritz step.
        if np.count_nonzero(np.isfinite(part)) < np.size(part):
            raise NoConvergence(message)
    return value


def _hermitize(h: np.ndarray) -> np.ndarray:
    """h / 2 + (h / 2)* over the last two axes.  h is halved first, so the
    sum cannot overflow for a finite h; outside the subnormal range it
    equals (h + h*) / 2 bit for bit.  The sum is written into the halved
    copy, so hermitizing a stack holds two new copies of it, not three."""
    h = h / 2.0
    return np.add(h, h.conj().swapaxes(-1, -2), out=h)


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
    require_finite((vals, vecs), "non-finite eigenpair: an intermediate matrix overflowed")
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
    return require_finite(vals, "non-finite eigenvalue: an intermediate matrix overflowed")


def herm_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms max |eigenvalue| of one Hermitian matrix or a stack of them (see herm_eigvals)."""
    vals = herm_eigvals(stack)
    return np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))


def herm_norm(h: np.ndarray) -> float:
    """Spectral norm of a (numerically) Hermitian matrix, hermitized first."""
    return float(herm_norms(_hermitize(h)))


def hermitian_product(x: np.ndarray, y: np.ndarray, name: str) -> np.ndarray:
    """Re(x @ y) = (xy + (xy)*) / 2, refused (NoConvergence) when xy overflows.

    The result is exactly Hermitian, so hermitizing it again (as
    eigh_desc does) changes no bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hermitize(x @ y)
    return require_finite(h, f"{name} has a non-finite entry: the matrix is too large")


@dataclass(frozen=True)
class HermitianEig:
    """Decomposition H = U diag(eigenvalues) U* with eigenvalues descending.

    Invariants: the reconstruction residual stays below 1e-10 ||H||_F
    and the unitarity residual below 1e-10.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.conj().T


def herm_eig(h, tol: float = 1e-10) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when ||H - H*||_F exceeds tol * ||H||_F, a test
    that decides alike at every scale of H (the zero matrix passes), and
    NoConvergence when the underlying solver gives up.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a = require_square(as_matrix(h))
    if frobenius(a - a.conj().T) > tol * frobenius(a):
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
    require_finite((u, sigma, vh), "non-finite singular triplet")
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


def psd_eig(p) -> tuple[np.ndarray, np.ndarray]:
    """Validated decomposition (eigenvalues descending, eigenvectors) of a
    Hermitian PSD matrix P, the one route to powers of a matrix passed in
    from outside.

    Raises NotHermitian when ||P - P*||_F exceeds 1e-8 * ||P||_F,
    and ValueError when an eigenvalue lies below -1e-10 * ||P||; eigenvalues
    above that are rounding, which power_from_eig clamps to zero.
    """
    eig = herm_eig(p, tol=1e-8)
    if eig.eigenvalues[-1] < -1e-10 * np.abs(eig.eigenvalues).max():
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return eig.eigenvalues, eig.basis


def psd_power(p, r: float) -> np.ndarray:
    """P**r for Hermitian PSD P (validated by psd_eig) and r in [0, 1], with 0**0 := 1."""
    if not 0.0 <= float(r) <= 1.0:
        raise BadExponent(f"exponent must lie in [0, 1], got {r}")
    return power_from_eig(*psd_eig(p), float(r))


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
