import math

import numpy as np
import pytest

import numrad.alpha_norm as alpha_norm_mod
from numrad import (
    BadAlpha,
    NoConvergence,
    NotUnit,
    alpha_gradient,
    alpha_norm_estimate,
    alpha_objective,
    bound_report,
    numerical_radius,
    random_matrix,
    spectral_norm,
    stream_rng,
)
from numrad.alpha_norm import _ascend
from numrad.linalg import EPS, phase_normalize
from numrad.radius import Workspace
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


def normalized(v):
    return v / np.linalg.norm(v)


def sphere_oracle(a: np.ndarray, alpha: float, samples: int = 1_000_000, seed: int = 7) -> float:
    """Best objective value over a large sphere sample, polished by ascent."""
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    best_val = -np.inf
    best_x = None
    for lo in range(0, samples, 250_000):
        count = min(250_000, samples - lo)
        x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        tx = x @ a.T
        quad = np.einsum("ij,ij->i", np.conj(x), tx)
        vals = alpha * np.abs(quad) ** 2 + (1 - alpha) * np.einsum(
            "ij,ij->i", np.conj(tx), tx
        ).real
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = x[k]
    f = _ascend(a, alpha, best_x[None], lambda: math.inf)[0][0]
    return math.sqrt(max(f, best_val))


class TestObjective:
    def test_kernel_vector(self):
        for alpha in (0.0, 0.3, 1.0):
            assert alpha_objective(T3, alpha, E1) == 0.0

    def test_shift_basis_vector(self):
        for alpha in (0.0, 0.25, 1.0):
            assert alpha_objective(T3, alpha, E2) == pytest.approx(1 - alpha, abs=1e-15)

    def test_identity(self, rng):
        x = normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for alpha in (0.0, 0.5, 1.0):
            assert alpha_objective(np.eye(4), alpha, x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_alpha(self, rng):
        a = random_complex(rng, 3)
        for _ in range(10):
            x = normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            vals = [alpha_objective(a, al, x) for al in np.linspace(0, 1, 11)]
            assert all(u >= v - 1e-14 for u, v in zip(vals, vals[1:]))

    def test_homogeneity(self, rng):
        a = random_complex(rng, 3)
        x = normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        c = complex(0.7, -1.3)
        scale = abs(c) ** 2
        base = alpha_objective(a, 0.4, x)
        assert alpha_objective(c * a, 0.4, x) == pytest.approx(scale * base, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(BadAlpha):
            alpha_objective(T3, 1.2, E1)
        with pytest.raises(NotUnit):
            alpha_objective(T3, 0.5, 2 * E1)


# Every entry is finite, but <Tx, x> and ||Tx|| square to overflow.
OVERFLOWING = 1e200 * np.array([[1.0, 2.0j], [0.5, -1.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [alpha_objective, alpha_gradient], ids=lambda f: f.__name__)
def test_overflow_is_an_error(f):
    # Each used to warn and return NaN.
    with pytest.raises(NoConvergence):
        f(OVERFLOWING, 0.5, np.array([1.0, 1.0j]) / math.sqrt(2.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [math.sqrt(5e307 / 3), 1e160, 1e200])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_alpha_ascent_refuses_a_non_finite_intermediate(scale, alpha):
    # At the first scale T*T and its top eigenvalue are finite, but the
    # ascent's step overflows; it used to warn "invalid value".
    with pytest.raises(NoConvergence, match="alpha"):
        alpha_norm_estimate(scale * np.ones((3, 3)), alpha)


class TestGradient:
    def test_identity_constant_objective(self, rng):
        x = normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        g = alpha_gradient(np.eye(4), 0.7, x)
        assert np.linalg.norm(g) <= 1e-12

    def test_stationary_at_converged_maximizer(self):
        est = alpha_norm_estimate(T2, 0.5, restarts=8, seed=3)
        g = alpha_gradient(T2, 0.5, est.best_vector)
        assert np.linalg.norm(g) <= 1e-6

    def test_estimate_ends_at_a_stationary_point(self):
        # The Ginibre matrices of acceptance criterion 5's stream; the
        # nilpotent shifts are left out because their maximum is degenerate.
        for dim in (2, 3, 4, 5, 6):
            for trial in range(20):
                a = random_matrix("ginibre", dim, stream_rng(42, 0, dim, trial))
                witness = numerical_radius(a, 1e-7).witness
                scale = max(1.0, spectral_norm(a) ** 2)
                for alpha in (0.25, 0.5, 0.75):
                    est = alpha_norm_estimate(a, alpha, restarts=2, radius_witness=witness)
                    g = alpha_gradient(a, alpha, est.best_vector)
                    assert np.linalg.norm(g) <= 1e-6 * scale, (dim, trial, alpha)

    def test_finite_difference_match(self):
        # directional derivative along the returned tangent equals twice
        # its squared norm; compare against central differences on the
        # renormalized objective
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = random_complex(rng, n)
            x = normalized(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            alpha = float(rng.uniform())
            tang = alpha_gradient(a, alpha, x)
            analytic = 2.0 * float(np.vdot(tang, tang).real)
            plus = alpha_objective(a, alpha, normalized(x + step * tang))
            minus = alpha_objective(a, alpha, normalized(x - step * tang))
            fd = (plus - minus) / (2 * step)
            assert analytic >= 0.0
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))


class TestEstimate:
    def test_alpha_zero_is_operator_norm(self):
        est = alpha_norm_estimate(T3, 0.0, restarts=4, seed=0)
        assert est.best_value == pytest.approx(2.0, abs=1e-6)

    def test_alpha_one_is_numerical_radius(self):
        est = alpha_norm_estimate(T2, 1.0, restarts=4, seed=0)
        assert est.best_value == pytest.approx(1.5, abs=1e-6)

    def test_sphere_oracle_dim3(self):
        est = alpha_norm_estimate(T3, 0.5, restarts=16, seed=0)
        oracle = sphere_oracle(T3, 0.5)
        assert est.best_value == pytest.approx(oracle, abs=1e-4)

    def test_sandwich_and_adjoint_symmetry(self, rng):
        for n in (2, 3):
            a = random_complex(rng, n)
            nrm = spectral_norm(a)
            w_lower = numerical_radius(a, 1e-8).lower
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                est = alpha_norm_estimate(a, alpha, restarts=8, seed=1)
                est_adj = alpha_norm_estimate(a.conj().T, alpha, restarts=8, seed=1)
                assert w_lower - 1e-7 <= est.upper_cert
                assert est.best_value <= nrm + 1e-7
                assert est.best_value <= est.upper_cert + 1e-9
                assert abs(est.best_value - est_adj.best_value) <= 1e-5

    def test_witness_start_at_a_large_scale(self):
        # The radius witness only seeds an ascent, so a w(T) bracket wider
        # than tol (tol 1e-9 below the rounding at norm ~ 8e7) is no error.
        a = random_matrix("ginibre", 8, np.random.default_rng(0)) * 2.0**24
        est = alpha_norm_estimate(a, 0.5, restarts=2)
        assert est.best_value <= est.upper_cert * (1 + 1e-12)

    def test_zero_matrix(self):
        est = alpha_norm_estimate(np.zeros((2, 2)), 0.5)
        assert est.best_value == 0.0 and est.upper_cert == 0.0
        assert np.array_equal(est.best_vector, [1.0 + 0j, 0.0 + 0j])

    def test_deterministic(self):
        a = alpha_norm_estimate(T2, 0.3, restarts=6, seed=9)
        b = alpha_norm_estimate(T2, 0.3, restarts=6, seed=9)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_vector, b.best_vector)

    def test_invariants(self):
        est = alpha_norm_estimate(T3, 0.6, restarts=6, seed=2)
        assert np.linalg.norm(est.best_vector) == pytest.approx(1.0, abs=1e-12)
        recomputed = math.sqrt(alpha_objective(T3, 0.6, est.best_vector))
        assert est.best_value == pytest.approx(recomputed, abs=1e-12)

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError):
            alpha_norm_estimate(T2, 0.5, restarts=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "witness, match",
        [
            (np.ones(2), "must have length 3, got 2"),
            (np.zeros(3), "finite and nonzero"),
            (np.array([1.0, np.nan, 0.0]), "finite and nonzero"),
            (np.array([np.inf, 0.0, 0.0]), "finite and nonzero"),
        ],
        ids=["short", "zero", "nan", "inf"],
    )
    def test_rejects_bad_witness(self, witness, match):
        # A zero witness used to warn and end in NoConvergence from the
        # eigensolver; a short one in a raw numpy matmul error.
        with pytest.raises(ValueError, match=match):
            alpha_norm_estimate(T3, 0.5, restarts=2, radius_witness=witness)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3(a): T*T, TT* and the squared catalog rows underflow to 0 at 1e-200",
)
def test_upper_certificates_at_an_underflowing_scale():
    t = 1e-200 * np.array([[1.0, 1.0], [0.0, 1.0]])
    w_lower = numerical_radius(t).lower
    assert w_lower == pytest.approx(1.5e-200, rel=1e-12)
    assert alpha_norm_estimate(t, 0.5).upper_cert >= w_lower
    uppers = [e.value_on_w_scale for e in bound_report(t).entries if e.kind.startswith("upper")]
    assert min(uppers) >= w_lower


@pytest.mark.parametrize(
    "scale",
    [
        2.0**-20,
        2.0**-27,
        2.0**465,
        2.0**-300,
    ],
    ids=["2^-20", "2^-27", "2^465", "2^-300"],
)
def test_ascent_is_scale_free(scale):
    # The ascent stopped at an absolute tangent norm GRAD_TOL: at 2^-20 and
    # 2^-27 best_value came out 4.14e-2 low.  At 2^465 a squared threshold
    # (GRAD_TOL F)^2 overflows a Python float, so the rule compares norms.
    # At 2^-300 the squared tangent norm underflowed to 0 and stopped every ascent.
    t = random_complex(np.random.default_rng(3), 5)
    unit = alpha_norm_estimate(t, 0.5, restarts=4, seed=0).best_value
    scaled = alpha_norm_estimate(scale * t, 0.5, restarts=4, seed=0).best_value
    assert abs(scaled / scale - unit) <= 4 * EPS * unit


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_lockstep_starts_do_not_affect_each_other(n):
    # Each start of a block ascends as it would alone: the stacked QR and
    # eigh and the (3k, n) products keep the rows apart.  An infinite cap
    # keeps the sandwich open, so every start runs to its own limit.
    rng = np.random.default_rng(n)
    for a in (random_complex(rng, n), random_matrix("normal", n, rng)):
        starts = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            block = _ascend(a, alpha, starts, lambda: math.inf)[0]
            for i, x0 in enumerate(starts):
                alone = _ascend(a, alpha, x0[None], lambda: math.inf)[0][0]
                assert abs(block[i] - alone) <= 8 * n * EPS * alone, (alpha, i)


def test_ties_go_to_the_lowest_start(monkeypatch):
    def tied(a, alpha, x0, cap):
        return np.ones(len(x0)), x0 / np.linalg.norm(x0, axis=1)[:, None]

    monkeypatch.setattr(alpha_norm_mod, "_ascend", tied)
    ws = Workspace(T3)
    est = alpha_norm_estimate(ws, 0.5, restarts=4)
    assert np.array_equal(est.best_vector, phase_normalize(ws.svd[2][:, 0]))


def test_sandwich_stop_skips_the_crawl(monkeypatch):
    # A 2x2 nilpotent shift of criterion 5's stream at alpha = 1/2: the
    # V[:, 0] start already meets upper_cert, and the witness start used
    # to crawl through all 500 Ritz steps of a degenerate maximum.
    a = random_matrix("nilpotent-shift", 2, stream_rng(42, 1, 2, 0))
    witness = numerical_radius(a, 1e-9).witness
    uncapped = _ascend(a, 0.5, np.stack([Workspace(a).svd[2][:, 0], witness]), lambda: math.inf)[0]
    calls = []
    original = alpha_norm_mod.eigh_desc
    monkeypatch.setattr(alpha_norm_mod, "eigh_desc", lambda h: calls.append(h) or original(h))
    est = alpha_norm_estimate(a, 0.5, restarts=2, radius_witness=witness)
    assert len(calls) <= 2
    assert est.best_value >= math.sqrt(uncapped.max()) * (1 - 4 * EPS)


def test_ritz_matrix_from_the_blocks_matches_the_explicit_surrogate():
    # alpha (conj(c) A + c A*) + (1 - alpha) B, with A = Q* T Q and
    # B = (TQ)* (TQ), is Q* M(c) Q with no further product with T.
    rng = np.random.default_rng(24)
    for n in (2, 3, 8, 32):
        a = random_complex(rng, n)
        norm = spectral_norm(a)
        q = np.linalg.qr(random_complex(rng, n, 3)[None])[0]
        x = normalized(random_complex(rng, n, 1)[:, 0])
        c = np.array([np.vdot(x, a @ x)])
        for alpha in (0.0, 0.3, 0.5, 1.0):
            got = alpha_norm_mod._ritz(alpha, c, *alpha_norm_mod._ritz_blocks(a, q))[0]
            cols = q[0].T
            explicit = cols.conj() @ alpha_norm_mod._apply_surrogate(a, alpha, c, cols, cols @ a.T).T
            assert np.abs(got - explicit).max() <= 8 * n * EPS * norm * norm


@pytest.mark.parametrize("n", [2, 3, 6, 16])
def test_ascent_never_lowers_the_objective(monkeypatch, n):
    # One start at a time, so the values _values sees are F at the start
    # and after each round: two minorize-maximize steps never lower F.
    seen = []
    original = alpha_norm_mod._values

    def recording(a, alpha, x):
        out = original(a, alpha, x)
        seen.append(out[0].copy())
        return out

    monkeypatch.setattr(alpha_norm_mod, "_values", recording)
    rng = np.random.default_rng(n)
    for a in (random_complex(rng, n), random_matrix("nilpotent-shift", n, rng)):
        for alpha in (0.0, 0.5, 0.9, 1.0):
            x0 = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
            seen.clear()
            _ascend(a, alpha, x0, lambda: math.inf)
            values = np.concatenate(seen)
            assert values.size >= 2
            assert np.all(values[1:] >= values[:-1] * (1 - 8 * n * EPS)), alpha


def test_round_budget_at_n_64(monkeypatch):
    # Each round takes one stacked QR; one Ritz step per round took 74.
    calls = []
    original = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda m, *args, **kwargs: calls.append(m) or original(m, *args, **kwargs))
    alpha_norm_estimate(random_complex(np.random.default_rng(0), 64) / 8, 0.5, restarts=16, seed=0)
    assert len(calls) <= 60
