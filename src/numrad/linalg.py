"""Dense complex matrix primitives.

Everything downstream (radius sweeps, bound formulas, pencil
certificates) is built from a handful of spectral operations collected
here: Hermitian eigendecomposition, polar moduli, PSD powers, Cartesian
parts and numerical-kernel comparison.  All functions are pure, take
array-likes, and return fresh complex128 ndarrays, so values are safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadAlpha, BadExponent, NoConvergence, NotHermitian, NotSquare, NotUnit

EPS = float(np.finfo(np.float64).eps)  # 2**-52

# Sine of the largest allowed principal angle between kernel spans.
KERNEL_ANGLE_TOL = 1e-8


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


def eigh_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize and decompose; eigenvalues descending, columns matching."""
    sym = (h + h.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def herm_norm(h: np.ndarray) -> float:
    """Spectral norm of a (numerically) Hermitian matrix: max |eigenvalue|.

    Raises NoConvergence rather than return a non-finite norm.
    """
    try:
        vals = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    if not np.isfinite(vals).all():
        raise NoConvergence("non-finite eigenvalue: an intermediate matrix overflowed")
    return float(max(abs(vals[0]), abs(vals[-1]))) if vals.size else 0.0


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


def spectral_norm(m) -> float:
    """Operator norm: largest singular value, sqrt(lambda_max(M* M))."""
    return float(singular_values(m)[0])


def singular_values(m) -> np.ndarray:
    """Singular values, descending: square roots of eig(M* M) clamped at 0."""
    a = as_matrix(m)
    vals, _ = eigh_desc(a.conj().T @ a)
    return np.sqrt(np.clip(vals, 0.0, None))


def polar_moduli(m) -> tuple[np.ndarray, np.ndarray]:
    """Polar moduli (|M|, |M*|) = ((M*M)^(1/2), (MM*)^(1/2)), both Hermitian PSD."""
    a = require_square(as_matrix(m))
    return (
        power_from_eig(*eigh_desc(a.conj().T @ a), 0.5),
        power_from_eig(*eigh_desc(a @ a.conj().T), 0.5),
    )


def power_from_eig(vals: np.ndarray, vecs: np.ndarray, r: float) -> np.ndarray:
    # 0**0 == 1 under np.power, which is the convention we want: the r -> 0
    # limit of t**r is 1 for t > 0 and the exponent-0 member of a power
    # family f(t) g(t) = t must act as the identity on the support.
    powered = np.power(np.clip(vals, 0.0, None), r)
    out = (vecs * powered) @ vecs.conj().T
    return (out + out.conj().T) / 2.0


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
    entry by entry, no symmetrization needed.
    """
    a = require_square(as_matrix(m))
    re = (a + a.conj().T) / 2.0
    im = (a - a.conj().T) * (-0.5j)
    return re, im


class KernelComparison(NamedTuple):
    equal: bool
    kernel_dim: int
    adjoint_kernel_dim: int


def kernel_cutoff(tol: float | None, n: int) -> float:
    """Relative singular value cutoff in (0, 1) for numerical kernels (default n * 2**-52)."""
    rel = float(tol) if tol is not None else n * EPS
    if not 0 < rel < 1:
        raise ValueError("tol must lie in (0, 1)")
    return rel


def kernels_equal(m, tol: float | None = None) -> KernelComparison:
    """Compare the numerical kernels of M and M*.

    The kernel of M is spanned by right singular vectors whose singular
    value falls below tol * sigma_max (default tol: n * 2**-52); the
    kernel of M* by the matching left singular vectors.  Spans are
    called equal when the dimensions agree and every principal angle
    between them is below 1e-8 (tested through the sine, which stays
    well conditioned for tiny angles).  In finite dimension equal
    kernels are equivalent to equal ranges of M and M*.
    """
    a = require_square(as_matrix(m))
    rel = kernel_cutoff(tol, a.shape[0])
    return compare_kernels(eigh_desc(a.conj().T @ a), eigh_desc(a @ a.conj().T), rel)


def compare_kernels(gram_eig, cogram_eig, rel: float) -> KernelComparison:
    """kernels_equal from the descending eigensystems of M*M and MM*."""
    (gvals, gvecs), (cvals, cvecs) = gram_eig, cogram_eig
    n = gvals.size
    sigma = np.sqrt(np.clip(gvals, 0.0, None))
    sigma_star = np.sqrt(np.clip(cvals, 0.0, None))
    smax = float(max(sigma[0], sigma_star[0]))
    if smax == 0.0:
        return KernelComparison(True, n, n)
    cutoff = rel * smax
    k1 = gvecs[:, sigma < cutoff]
    k2 = cvecs[:, sigma_star < cutoff]
    d1, d2 = k1.shape[1], k2.shape[1]
    if d1 != d2:
        return KernelComparison(False, d1, d2)
    if d1 == 0:
        return KernelComparison(True, 0, 0)
    resid = k1 - k2 @ (k2.conj().T @ k1)
    sine = spectral_norm(resid)
    return KernelComparison(bool(sine < KERNEL_ANGLE_TOL), d1, d2)


def phase_normalize(x: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first non-negligible component is real positive."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1).copy()
    for c in x:
        if abs(c) > 1e-12:
            x *= np.conj(c) / abs(c)
            break
    return x
