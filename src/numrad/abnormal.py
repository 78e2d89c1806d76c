"""(alpha, beta)-normality certification and the matching lower bounds.

T is (alpha, beta)-normal, 0 <= alpha <= 1 <= beta, when

    alpha ||Tx|| <= ||T*x|| <= beta ||Tx||   for all x,

equivalently alpha^2 T*T <= TT* <= beta^2 T*T.  In finite dimension such
a pair exists iff the kernels of T and T* coincide (equivalently, the
ranges coincide).  The extremal ratios ||T*x|| / ||Tx|| are the square
roots of the generalized eigenvalues of the pencil (TT*, T*T) restricted
to the orthogonal complement of ker(T); restricting removes the
spurious infinite eigenvalues a common kernel would inject.  Raw ratios
are clamped into the parameter ranges (alpha <= 1 <= beta), which only
weakens the defining inequalities; the raw extremes stay available as
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotABNormal
from .linalg import compare_kernels, eigh_desc, kernel_cutoff, phase_normalize
from .radius import Workspace


@dataclass(frozen=True)
class ABNormalCertificate:
    """Extremal ratio certificate for one matrix.

    beta_best is infinite when the kernels differ (no finite beta
    works); witness vectors realize the raw extremal ratios.
    """

    alpha_best: float
    beta_best: float
    kernels_equal: bool
    is_ab_normal: bool
    witness_min: np.ndarray
    witness_max: np.ndarray
    raw_min_ratio: float
    raw_max_ratio: float


def ab_certify(t, tol: float | None = None) -> ABNormalCertificate:
    """Certify (alpha, beta)-normality through the pencil (TT*, T*T).

    tol is the relative singular value cutoff for the numerical kernel
    (default n * 2**-52).  When the kernels of T and T* differ no alpha
    above zero works, so the certificate reports is_ab_normal False with
    alpha_best 0 rather than a degenerate pair.
    """
    ws = Workspace.of(t)
    n = ws.a.shape[0]
    rel = kernel_cutoff(tol, n)
    comparison = compare_kernels(ws.gram_eig, ws.cogram_eig, rel)

    if ws.norm == 0.0:
        # The zero matrix is normal: both defining inequalities are 0 <= 0.
        e1 = np.eye(1, n, dtype=np.complex128)[0]
        return ABNormalCertificate(1.0, 1.0, True, True, e1, e1, 1.0, 1.0)

    keep = ws.sigma > rel * ws.norm
    v = ws.gram_eig[1][:, keep]
    sk = ws.sigma[keep]
    pencil = (v.conj().T @ ws.cogram @ v) / np.outer(sk, sk)
    mu, y = eigh_desc(pencil)
    mu = np.clip(mu, 0.0, None)
    raw_max = math.sqrt(float(mu[0]))
    raw_min = math.sqrt(float(mu[-1]))

    def lift(col: np.ndarray) -> np.ndarray:
        x = v @ (col / sk)
        return phase_normalize(x / np.linalg.norm(x))

    witness_max = lift(y[:, 0])
    witness_min = lift(y[:, -1])

    if comparison.equal:
        alpha_best = min(raw_min, 1.0)
        beta_best = max(raw_max, 1.0)
        is_ab = True
    else:
        alpha_best = 0.0
        beta_best = math.inf
        is_ab = False
    return ABNormalCertificate(
        alpha_best=alpha_best,
        beta_best=beta_best,
        kernels_equal=comparison.equal,
        is_ab_normal=is_ab,
        witness_min=witness_min,
        witness_max=witness_max,
        raw_min_ratio=raw_min,
        raw_max_ratio=raw_max,
    )


def _factor(cert: ABNormalCertificate) -> float:
    if not cert.is_ab_normal:
        raise NotABNormal("certificate does not establish (alpha, beta)-normality")
    return max(1.0 + cert.alpha_best**2, 1.0 + 1.0 / cert.beta_best**2)


def lower_th5(t, cert: ABNormalCertificate) -> float:
    """sqrt(max(1 + a^2, 1 + 1/b^2) ||T||^2 / 4 + | ||Re T||^2 - ||Im T||^2 | / 2),
    a lower bound on w(T) for certified matrices."""
    factor = _factor(cert)
    ws = Workspace.of(t)
    re_norm, im_norm = ws.re_im_norms
    spread = abs(re_norm**2 - im_norm**2)
    return math.sqrt(factor * ws.norm**2 / 4.0 + spread / 2.0)


def lower_th6(t, cert: ABNormalCertificate) -> float:
    """Like lower_th5 but spread through the rotated Cartesian pair:
    | ||Re+Im||^2 - ||Re-Im||^2 | / 4 under the square root."""
    factor = _factor(cert)
    ws = Workspace.of(t)
    plus_norm, minus_norm = ws.rotated_norms
    spread = abs(plus_norm**2 - minus_norm**2)
    return math.sqrt(factor * ws.norm**2 / 4.0 + spread / 4.0)


def lower_sab(t, cert: ABNormalCertificate) -> float:
    """max(sqrt(1 + a^2), sqrt(1 + 1/b^2)) ||T|| / 2; strictly above
    ||T|| / 2 whenever the certificate is non-degenerate, and never above
    lower_th5 or lower_th6."""
    return math.sqrt(_factor(cert)) * Workspace.of(t).norm / 2.0
