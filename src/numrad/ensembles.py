"""Random matrix ensembles with counter-based per-trial streams.

Streams are derived from (master seed, spawn key) through Philox, so a
trial's draw depends only on its own indices, never on execution order.
"""

from __future__ import annotations

import numpy as np

from .errors import BadEnsemble

ENSEMBLES = ("ginibre", "normal", "nilpotent-shift", "hyponormal-diag")


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal samples (unit total variance)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a Ginibre draw with phase fixing."""
    q, r = np.linalg.qr(complex_gaussians(rng, (n, n)))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def make_nilpotent_shift(weights) -> np.ndarray:
    """Strictly upper bidiagonal matrix with the given superdiagonal."""
    w = np.asarray(weights, dtype=np.complex128).reshape(-1)
    n = w.size + 1
    a = np.zeros((n, n), dtype=np.complex128)
    for i, wi in enumerate(w):
        a[i, i + 1] = wi
    return a


def random_matrix(ensemble: str, dim: int, seed) -> np.ndarray:
    """Draw one matrix; deterministic for a fixed (ensemble, dim, seed).

    ginibre          i.i.d. standard complex Gaussian entries
    normal           U diag(complex Gaussians) U* with Haar-ish U
    nilpotent-shift  strictly upper bidiagonal, positive Gaussian-magnitude
                     weights
    hyponormal-diag  block-diagonal normal blocks of size 1 or 2; in finite
                     dimension a PSD self-commutator T*T - TT* forces
                     normality (its trace is zero), so this is the whole
                     hyponormal cone and exercises the beta = 1 path
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(int(seed))
    if ensemble == "ginibre":
        return complex_gaussians(rng, (dim, dim))
    if ensemble == "normal":
        u = haar_unitary(rng, dim)
        return u @ np.diag(complex_gaussians(rng, dim)) @ u.conj().T
    if ensemble == "nilpotent-shift":
        if dim == 1:
            return np.zeros((1, 1), dtype=np.complex128)
        return make_nilpotent_shift(np.abs(rng.standard_normal(dim - 1)))
    if ensemble == "hyponormal-diag":
        a = np.zeros((dim, dim), dtype=np.complex128)
        pos = 0
        while pos < dim:
            size = int(rng.integers(1, 3)) if dim - pos >= 2 else 1
            if size == 1:
                a[pos, pos] = complex_gaussians(rng, ())
            else:
                u = haar_unitary(rng, 2)
                block = u @ np.diag(complex_gaussians(rng, 2)) @ u.conj().T
                a[pos : pos + 2, pos : pos + 2] = block
            pos += size
        return a
    raise BadEnsemble(f"unknown ensemble {ensemble!r}; choose one of {ENSEMBLES}")
