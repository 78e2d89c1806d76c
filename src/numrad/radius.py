"""Certified numerical radius via a half-period angle sweep.

With H(theta) = (e^{i theta} T + e^{-i theta} T*) / 2
              = cos(theta) Re(T) - sin(theta) Im(T)

we have H(theta + pi) = -H(theta), so

    w(T) = max over [0, 2pi) of lambda_max(H(theta))
         = max over [0, pi) of g(theta),   g(theta) = ||H(theta)||,

and g(theta) = max(lambda_max H(theta), lambda_max H(theta + pi)) is
one Hermitian norm per angle.  A branch-and-bound refinement brackets
the maximum.  Every evaluated value g(theta) equals <H(phi) x, x> for
phi = theta and the top eigenvector x, or phi = theta + pi and the
bottom one, hence is a valid lower bound for w(T).  An interval
[t1, t2] of width h carries the certificate

    sup over the interval <= max(g(t1), g(t2)) + W h^2 / 8

with W any already proven upper bound for w(T).  Each sheet
theta -> lambda_max H(theta) is a supremum of sinusoids
|<Tx, x>| cos(theta + phi_x) whose amplitude never exceeds
w(T) <= W, so it plus W theta^2 / 2 is convex; the maximum of the two
sheets g keeps that property.  g is also L-Lipschitz with L = ||T||,
but the bound L h / 2 it gives never beats W h^2 / 8: W <= L and
h <= pi / 45 < 4.  L serves only the first cap, lower + L h / 2 on the
coarse grid, before any W is proven.  Without the quadratic term,
matrices whose section spectrum is theta-invariant (weighted shifts,
where g is constant) would need ~2^20 eigenvalue evaluations to
certify a 1e-8 bracket; with it a handful of rounds suffice.

The certificate holds at any spacing, so the sweep starts coarse, from
every 8th angle of the INITIAL_GRID = 360 angles (45 angles,
h = pi / 45): on smooth inputs round 0 already drops most intervals.
When it drops none and does not close the bracket, the sweep fills in
the other 315 angles (one stacked eigvalsh, the 45 coarse spectra
kept), takes its lower bound from the filled-in grid and tries the
level-set certificate below on it; when that refuses, the refinement
goes on from the 45 coarse intervals.  A live interval is an integer k
at spacing h_r = (pi / 45) / 2^r, so every angle is exactly k h_r and
round 3 samples the initial grid's angles as the same floats.

On a plateau no interval certificate ever falls below the others, so
branch and bound would refine every interval until W h^2 / 8 fits
the tolerance.  A global level-set certificate closes it from the
initial grid instead: for a level u just above the grid maximum,
p(theta) = det(u I - H(theta)) is a real trigonometric polynomial of
degree <= n (up to the factor 2^n, the polynomial z^-n det(z^2 T -
2 u z I + T*) whose unit-circle roots are the angles where some
eigenvalue of H reaches u).  Its samples on the grid are products of
the computed eigenvalues, and Bernstein's inequality bounds p between
them; when that bound stays positive, no eigenvalue ever reaches u and
w(T) < u.  It is tried once, on the filled-in initial grid before the
first refinement, when round 0 has neither closed the bracket nor
dropped an interval; when it does not hold, the branch-and-bound runs
unchanged.

The sweep's work is capped: every stacked solve is checked
first against MAX_SECTION_ENTRIES (2^24 section entries, section
matrices times n^2, per sweep), and one that would pass it raises
Timeout, as do MAX_ROUNDS rounds.  The round cap keeps every angle
exact, since k < 45 2^MAX_ROUNDS < 2^53.

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
    EPS,
    as_matrix,
    cartesian_parts,
    eigh_desc,
    herm_eigvals,
    herm_norm,
    hermitian_product,
    phase_normalize,
    power_from_eig,
    require_square,
    svd_desc,
)

INITIAL_GRID = 360
_COARSE_STEP = 8  # the sweep starts from every 8th angle of INITIAL_GRID
MAX_ROUNDS = 40
# The work cap: section matrices times n^2 per sweep.
MAX_SECTION_ENTRIES = 1 << 24
W_TERM_TOL = 1e-9
_TWO_PI = 2.0 * np.pi


class Workspace:
    """Cached spectral objects for one square matrix, each computed on
    first use, so a workspace built for one call adds no solves.

    One checked singular value decomposition T = U diag(sigma) V* gives
    sigma, the norm and every polar power: |T|**e = V diag(sigma**e) V*
    and |T*|**e = U diag(sigma**e) U*, so none of them passes through a
    squared product.  The Gram products T*T and TT*, which the catalog's
    objectives read, are formed directly and hermitized.  A product or
    power that overflows raises NoConvergence.
    """

    def __init__(self, t):
        self.a = require_square(as_matrix(t))

    @classmethod
    def of(cls, t) -> Workspace:
        """t itself when it is already a workspace, else a new one for t."""
        return t if isinstance(t, cls) else cls(t)

    @cached_property
    def gram(self) -> np.ndarray:
        return hermitian_product(self.a.conj().T, self.a, "T*T")

    @cached_property
    def cogram(self) -> np.ndarray:
        return hermitian_product(self.a, self.a.conj().T, "TT*")

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, sigma, V) with T = U diag(sigma) V*, sigma descending."""
        return svd_desc(self.a)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Singular values, descending."""
        return self.svd[1]

    @cached_property
    def norm(self) -> float:
        return float(self.sigma[0])

    def mod_power(self, e: float) -> np.ndarray:
        """|T|**e = V diag(sigma**e) V* (exponent may exceed 1)."""
        _, sigma, v = self.svd
        return power_from_eig(sigma, v, e)

    def comod_power(self, e: float) -> np.ndarray:
        """|T*|**e = U diag(sigma**e) U*."""
        u, sigma, _ = self.svd
        return power_from_eig(sigma, u, e)

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
    def re_cross_norm(self) -> float:
        """||Re(|T| |T*|)||."""
        return herm_norm(hermitian_product(self.abs_t, self.abs_t_star, "|T| |T*|"))

    @cached_property
    def w_mix_upper(self) -> float:
        """Upper endpoint of the bracket for w(|T| + i |T*|)."""
        return _sweep(self.abs_t + 1j * self.abs_t_star, W_TERM_TOL)[0].upper

    @cached_property
    def w_prod_upper(self) -> float:
        """Upper endpoint of the bracket for w(|T| |T*|)."""
        return _sweep(self.abs_t @ self.abs_t_star, W_TERM_TOL)[0].upper

    @cached_property
    def radius_witness(self) -> np.ndarray:
        """Witness vector of the w(T) sweep at W_TERM_TOL (a start for the
        alpha-norm ascent, so the bracket's width is not checked)."""
        return _sweep(self, W_TERM_TOL)[0].witness


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


def polar_moduli(t) -> tuple[np.ndarray, np.ndarray]:
    """Polar moduli (|T|, |T*|) = ((T*T)^(1/2), (TT*)^(1/2)), both Hermitian PSD."""
    ws = Workspace.of(t)
    return ws.abs_t.copy(), ws.abs_t_star.copy()


def _sections(re: np.ndarray, im: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The stack of sections cos(t) Re - sin(t) Im, one per angle t."""
    return np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im


def hermitian_section(t, theta: float) -> np.ndarray:
    """The section (e^{i theta} T + e^{-i theta} T*) / 2 = cos(theta) Re T - sin(theta) Im T.

    Raises ValueError for a non-finite theta."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return _sections(*Workspace.of(t).re_im, np.array([theta]))[0]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _level_set_empty(vals: np.ndarray, level: float, norm: float) -> bool:
    """True when no section H(theta) has an eigenvalue equal to level,
    certified from vals, the ascending eigenvalues of H at the
    INITIAL_GRID angles theta_j = j pi / INITIAL_GRID; norm is ||T||.

    p(theta) = det(level I - H(theta)) is a real trigonometric
    polynomial of degree <= n.  vals gives it at 2 INITIAL_GRID
    equispaced angles: p(theta_j) = prod(level - lambda_i) and
    p(theta_j + pi) = prod(level + lambda_i).  With spacing
    h = pi / INITIAL_GRID every angle is within h / 2 of a sample, so
    Bernstein's inequality ||p'|| <= n ||p|| gives
    min p >= min_j p_j - rho max_j p_j, rho = (n h/2) / (1 - n h/2).
    When that is positive, p never vanishes; since every factor is
    positive on the grid, every eigenvalue of every section stays below
    level, so w(T) < level.

    Rounding.  Each computed eigenvalue is within gamma = 16 n eps ||T||
    of the exact eigenvalue of H at the exact angle theta_j (Weyl's
    inequality over three perturbations).  Forming Re T, Im T and the
    section costs entrywise errors of 2 eps (|Re_ij| + |Im_ij|), at most
    4 sqrt(n) eps ||T|| in norm.  The computed angle, its cosine and its
    sine are within 6 eps of the exact ones: 12 eps ||T||.  Since
    4 sqrt(n) + 12 <= 14 n for n >= 2, that leaves at least
    2 n eps ||H|| for the backward error of eigvalsh, which LAPACK's
    error bounds take as eps ||H|| (a 1 x 1 eigvalsh is exact).
    Measured total errors, against a 40-digit reference on Ginibre
    sections and against the closed form on shifts up to n = 114, stay
    below 0.9 n eps ||T||.  Under gradual underflow errors are absolute,
    but then ||T|| is far below every factor, which is at least
    0.9 tol >= 9e-13.  Each sample p_j is bounded below and above by the
    factors (f -+ gamma) / f, in log space so that nothing over- or
    underflows, and the comparison keeps a margin of
    8 n^2 eps (2 + max |log f| + |log rho|) for rounding in the logs and
    their sums of n terms.  Refused (False) unless every factor exceeds
    2 gamma and n h / 2 < 1/2 (n <= 114 at 360 angles).
    """
    n = vals.shape[-1]
    half = n * np.pi / (2 * INITIAL_GRID)
    gamma = 16 * n * EPS * norm
    f = np.concatenate([level - vals, level + vals])
    if not (half < 0.5 and f.min() > 2.0 * gamma):
        return False
    logs = np.log(f)
    lo = (logs + np.log1p(-gamma / f)).sum(axis=1)
    hi = (logs + np.log1p(gamma / f)).sum(axis=1)
    log_rho = float(np.log(half / (1.0 - half)))
    margin = 8 * n * n * EPS * (2.0 + float(np.abs(logs).max()) + abs(log_rho))
    return bool(lo.min() - hi.max() > log_rho + margin)


def numerical_radius(t, tol: float = 1e-9) -> RadiusBracket:
    """Certified bracket [lower, upper] around w(T) with upper - lower <= tol.

    T is a matrix or its Workspace.  Sweeps g(theta) = ||H(theta)||
    over [0, pi), which carries the same certificate as lambda_max over
    [0, 2pi) (see the module docstring): starts from 45 equispaced
    angles, every 8th of the INITIAL_GRID = 360.  When that grid's
    interval certificates neither close the bracket nor drop any
    interval (as on plateaus such as weighted shifts), it fills in the
    other 315 angles and takes the lower bound from all 360 (the
    spacing of 720 on the full circle).  If their eigenvalues certify
    that no section reaches the level u = lower + 0.9 tol
    (_level_set_empty), the bracket closes at once with upper = u, or
    the coarse grid's proven bound if that is smaller.  Otherwise it
    keeps every interval whose certified local maximum, the larger end
    value plus W h^2 / 8 with W the running upper end and h the width,
    could still exceed the proven lower bound, and halves those
    intervals, from the 45 coarse ones, until the bracket closes.  The
    first upper end is min(||T||, lower + ||T|| h / 2) on the coarse
    grid.  It raises Timeout, whose message gives the rounds, the
    section matrices evaluated and the intervals still live, after
    MAX_ROUNDS rounds or before a stacked solve that would take the
    sweep past MAX_SECTION_ENTRIES section entries (section matrices
    times n^2), so a plateau that no certificate closes stops within
    bounded time and memory.
    Deterministic: ties in the running maximum are resolved toward the
    smallest angle.

    Raises NoConvergence when the bracket around the witness value is
    still wider than tol: tol is then below the rounding error of the
    sections (about n eps ||T||), as for a Ginibre matrix scaled by
    2^40 at tol 1e-9.

    The witness is the top eigenvector of H at the best angle, or the
    bottom one, with argmax_angle moved by pi, when -lambda_min is
    strictly larger; an exact tie keeps the top eigenvector, so
    argmax_angle lies in [0, 2pi).
    """
    bracket, rounds, sections = _sweep(t, tol)
    width = bracket.upper - bracket.lower
    if width > tol:
        raise NoConvergence(
            f"radius bracket {width:.3e} wide exceeds tol {tol:.3e} after {rounds} rounds"
            f" and {sections} section matrices: tol is below the rounding of the sections"
        )
    return bracket


def _sweep(t, tol: float) -> tuple[RadiusBracket, int, int]:
    """numerical_radius without its width check, with the rounds and the
    section matrices it took.  When tol is below the rounding of the
    sections the bracket may come back wider than tol, but upper is
    still a proven upper bound and lower a realized value |<Tx, x>|;
    callers that read only upper or the witness use it directly.
    """
    tol = float(tol)
    if not tol >= 1e-12:
        raise ValueError("tol must be at least 1e-12")
    ws = Workspace.of(t)
    a, nrm = ws.a, ws.norm
    if nrm == 0.0:
        e1 = np.eye(1, a.shape[0], dtype=np.complex128)[0]
        return RadiusBracket(0.0, 0.0, 0.0, e1), 0, 0

    re, im = ws.re_im
    # Live interval k is [k h, (k + 1) h], and h halves each round, so every
    # angle is exactly k h: the initial grid's angles j pi / INITIAL_GRID
    # come back as the same floats once h has halved down to their spacing.
    h = np.pi * _COARSE_STEP / INITIAL_GRID
    k = np.arange(INITIAL_GRID // _COARSE_STEP)
    lower, upper, rounds, sections = 0.0, nrm, 0, 0

    def timeout(why: str = "") -> Timeout:
        return Timeout(
            f"radius bracket still {upper - lower:.3e} wide after {rounds} rounds:"
            f" {sections} section matrices evaluated, {k.size} intervals live{why}"
        )

    def solve(thetas: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of the sections at thetas, within the work cap."""
        nonlocal sections
        if (sections + thetas.size) * a.size > MAX_SECTION_ENTRIES:
            raise timeout(f"; {thetas.size} more would pass the cap of {MAX_SECTION_ENTRIES} section entries")
        sections += thetas.size
        return herm_eigvals(_sections(re, im, thetas))

    spectra = solve(k * h)
    gl = np.maximum(np.abs(spectra[:, 0]), np.abs(spectra[:, -1]))
    gr = np.roll(gl, -1)
    best = int(np.argmax(gl))
    lower, best_theta = float(gl[best]), best * h
    # Every angle is within h / 2 of a sample, so the L-Lipschitz g gives a first cap.
    upper = min(nrm, lower + nrm * h / 2.0)
    while True:
        if rounds == MAX_ROUNDS:
            raise timeout()
        # Any proven upper bound works for the curvature certificate.
        certs = np.maximum(gl, gr) + upper * h * h / 8.0
        upper = min(upper, max(lower, float(certs.max())))
        # A small internal margin keeps the final bracket within tol even
        # after the witness inner product replaces the grid lower bound.
        if upper - lower <= 0.9 * tol:
            break
        keep = certs > lower
        if rounds == 0 and keep.all():
            # Nothing dropped, as on a plateau: fill in the initial grid,
            # keeping the coarse spectra, take the lower bound from it and
            # try the level-set certificate on its eigenvalues.
            fill = np.flatnonzero(np.arange(INITIAL_GRID) % _COARSE_STEP)
            full = np.empty((INITIAL_GRID, spectra.shape[1]))
            full[::_COARSE_STEP] = spectra
            full[fill] = solve(fill * (h / _COARSE_STEP))
            g = np.maximum(np.abs(full[:, 0]), np.abs(full[:, -1]))
            best = int(np.argmax(g))
            lower, best_theta = float(g[best]), best * (h / _COARSE_STEP)
            # upper is already a proven bound, so the certificate can only tighten it.
            if _level_set_empty(full, lower + 0.9 * tol, nrm):
                upper = min(upper, lower + 0.9 * tol)
                break
        # Not closed, so some interval is kept: at the check above upper > lower
        # and upper <= max(lower, certs.max()); a plateau keeps all of them.
        k, gl, gr = k[keep], gl[keep], gr[keep]
        h /= 2.0
        mid = 2 * k + 1
        spectra = solve(mid * h)
        gm = np.maximum(np.abs(spectra[:, 0]), np.abs(spectra[:, -1]))
        j = int(np.argmax(gm))
        if float(gm[j]) > lower:
            lower = float(gm[j])
            best_theta = float(mid[j] * h)
        k = _interleave(2 * k, mid)
        gl = _interleave(gl, gm)
        gr = _interleave(gm, gr)
        rounds += 1

    vals, vecs = eigh_desc(_sections(re, im, np.array([best_theta]))[0])
    col = 0
    if -vals[-1] > vals[0]:
        col, best_theta = -1, best_theta + np.pi
    witness = phase_normalize(vecs[:, col])
    lower_final = float(abs(np.vdot(witness, a @ witness)))
    return (
        RadiusBracket(
            lower=lower_final,
            upper=max(upper, lower_final),
            argmax_angle=float(best_theta % _TWO_PI),
            witness=witness,
        ),
        rounds,
        sections,
    )
