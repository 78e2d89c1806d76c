"""One spectral workspace per matrix.

Every catalog bound, the alpha-norm certificate, the pencil certificate
and the scalar checks are functions of T*T, TT* and their eigensystems,
the moduli |T| and |T*|, and the Cartesian parts.  A Workspace computes
each on first use and keeps it: consumers that share one never decompose
a matrix twice, and one built for a single call adds no eigen-solves.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import as_matrix, cartesian_parts, eigh_desc, herm_norm, power_from_eig, require_square
from .radius import numerical_radius

W_TERM_TOL = 1e-9


class Workspace:
    """Cached spectral objects for one square matrix.

    The moduli squares are taken directly from the hermitized Gram
    products (|T|^2 = T*T exactly) rather than squaring the computed
    square roots.  eigh_desc hermitizes its input the same way, so each
    eigensystem is bit-identical to eigh_desc(T*T) or eigh_desc(TT*).
    """

    def __init__(self, t):
        self.a = require_square(as_matrix(t))

    @classmethod
    def of(cls, t) -> Workspace:
        """t itself when it is already a workspace, else a new one for t."""
        return t if isinstance(t, cls) else cls(t)

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.a.conj().T @ self.a
        return (g + g.conj().T) / 2.0

    @cached_property
    def cogram(self) -> np.ndarray:
        g = self.a @ self.a.conj().T
        return (g + g.conj().T) / 2.0

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
