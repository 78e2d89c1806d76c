"""(alpha, beta)-normality certification and the matching lower bounds.

T is (alpha, beta)-normal, 0 <= alpha <= 1 <= beta, when

    alpha ||Tx|| <= ||T*x|| <= beta ||Tx||   for all x,

equivalently alpha^2 T*T <= TT* <= beta^2 T*T.  In finite dimension such
a pair exists iff the kernels of T and T* coincide (equivalently, the
ranges coincide).  Both come from the workspace's singular value
decomposition T = U diag(sigma) V*.  Off the kernel, x = V diag(sigma)^-1 c
has ||Tx|| = ||c||, so the extremal ratios ||T*x|| / ||Tx|| are the
extreme singular values of B = T* V diag(sigma)^-1; restricting to the
directions off the kernel removes the infinite ratios a common kernel
would inject.  No product such as TT* is formed, so the ratios do not
depend on the scale of T.  Raw ratios are clamped into the parameter
ranges (alpha <= 1 <= beta), which only weakens the defining
inequalities; the raw extremes stay available as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotABNormal
from .linalg import EPS, phase_normalize, spectral_norm, svd_desc
from .radius import Workspace

# Sine of the largest allowed principal angle between kernel spans.
KERNEL_ANGLE_TOL = 1e-8


class KernelComparison(NamedTuple):
    equal: bool
    kernel_dim: int
    adjoint_kernel_dim: int


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


def kernels_equal(t) -> KernelComparison:
    """Compare the numerical kernels of T and T*.

    The kernel of T is spanned by the trailing right singular vectors
    whose singular value falls below n * 2**-52 * sigma_max, the kernel
    of T* by the matching left singular vectors, so the two dimensions
    agree by construction.  Spans are called equal when every principal
    angle between them is below 1e-8 (tested through the sine, which
    stays well conditioned for tiny angles).  In finite dimension equal
    kernels are equivalent to equal ranges of T and T*.  The answer is
    a decision at these tolerances, not a certificate: a perturbation
    below the cutoff can change it.
    """
    ws = Workspace.of(t)
    n = ws.a.shape[0]
    u, sigma, v = ws.svd
    if ws.norm == 0.0:
        return KernelComparison(True, n, n)
    drop = sigma < n * EPS * ws.norm
    dim = int(np.count_nonzero(drop))
    if dim == 0:
        return KernelComparison(True, 0, 0)
    k1, k2 = v[:, drop], u[:, drop]
    sine = spectral_norm(k1 - k2 @ (k2.conj().T @ k1))
    return KernelComparison(bool(sine < KERNEL_ANGLE_TOL), dim, dim)


def ab_certify(t) -> ABNormalCertificate:
    """Certify (alpha, beta)-normality from the singular value decomposition of T.

    The ratios are read on the r singular directions outside the
    numerical kernel of kernels_equal (relative cutoff n * 2**-52), as
    the singular values of B = T* V_r diag(sigma_r)^-1.  Column j of B
    is T*x / ||Tx|| at x = v_j, so its norm is at most
    sigma_1 / sigma_r <= 2**52 / n.  The witnesses are
    V_r diag(sigma_r / sigma_1)^-1 times the extreme right singular
    vectors of B, normalized; that scaling keeps them from over- or
    underflowing.  When the kernels of T and T* differ no alpha above
    zero works, so the certificate reports is_ab_normal False with
    alpha_best 0 rather than a degenerate pair.
    """
    ws = Workspace.of(t)
    n = ws.a.shape[0]
    comparison = kernels_equal(ws)

    if ws.norm == 0.0:
        # The zero matrix is normal: both defining inequalities are 0 <= 0.
        e1 = np.eye(1, n, dtype=np.complex128)[0]
        return ABNormalCertificate(1.0, 1.0, True, True, e1, e1, 1.0, 1.0)

    # The kernel is the last kernel_dim singular directions.
    r = n - comparison.kernel_dim
    _, sigma, v = ws.svd
    v = v[:, :r]
    _, ratios, y = svd_desc((ws.a.conj().T @ v) / sigma[:r])
    rel = sigma[:r] / ws.norm
    raw_max, raw_min = float(ratios[0]), float(ratios[-1])

    def lift(col: np.ndarray) -> np.ndarray:
        x = v @ (col / rel)
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
