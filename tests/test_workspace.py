"""One workspace per matrix: shared results equal the bare-matrix calls,
each catalog objective is minimized once, and a Gram product that
overflows is an error where the matrix is taken in."""

import numpy as np
import pytest

import numrad.bounds as bounds_mod
from numrad import (
    FuzzConfig,
    NoConvergence,
    Workspace,
    ab_certify,
    alpha_norm_estimate,
    bound_report,
    bound_th3_family,
    bound_th4_impr1,
    eqn5_and_classics,
    fuzz,
    gamma_delta,
    lower_general,
    lower_th5,
    lower_th6,
    numerical_radius,
    pp0_min,
)
from numrad.linalg import eigh_desc
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex

MATRICES = [T3, T2] + [
    random_complex(np.random.default_rng(seed), n) for seed, n in ((11, 2), (12, 3), (13, 4))
]
IDS = ["shift3", "lower2", "random2", "random3", "random4"]


@pytest.fixture
def golden_calls(monkeypatch):
    calls = []
    original = bounds_mod.golden_section

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "golden_section", counting)
    return calls


class TestSingleComputation:
    def test_report_minimizes_each_objective_once(self, golden_calls):
        bound_report(MATRICES[3], 1e-9)
        assert len(golden_calls) == 6

    def test_fuzz_cell_reads_the_report(self, golden_calls):
        fuzz(FuzzConfig(dims=(3,), trials=1, ensembles=("ginibre",), seed=4))
        assert len(golden_calls) == 6

    def test_lower_bound_needs_only_the_gram_eigensystem(self):
        ws = Workspace(T2)
        lower_th5(ws, ab_certify(T2))
        assert "gram_eig" in vars(ws)
        assert "cogram_eig" not in vars(ws)

    def test_lower_bounds_reuse_the_report_cartesian_norms(self, monkeypatch):
        ws = Workspace(MATRICES[3])
        cert = ab_certify(ws)
        bound_report(ws)
        calls = []
        original = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        lower_th5(ws, cert)
        lower_th6(ws, cert)
        assert calls == []

    def test_report_reuses_the_norm_of_its_workspace(self, monkeypatch):
        ws = Workspace(MATRICES[3])
        ws.norm
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        bound_report(ws)
        # TT*, the sweep's witness, and the norm and witness of each w-term.
        assert len(calls) == 6

    def test_gram_eigensystem_is_the_plain_decomposition(self):
        a = MATRICES[4]
        ws = Workspace(a)
        for (v1, u1), (v2, u2) in (
            (ws.gram_eig, eigh_desc(a.conj().T @ a)),
            (ws.cogram_eig, eigh_desc(a @ a.conj().T)),
        ):
            assert np.array_equal(v1, v2) and np.array_equal(u1, u2)


@pytest.mark.parametrize("m", MATRICES, ids=IDS)
def test_views_equal_report_rows(m):
    report = bound_report(m, 1e-9)
    rows = {e.bound_id: e for e in report.entries}

    def row(bound_id):
        return rows[bound_id].value, rows[bound_id].alpha_at

    gamma, delta, a_g, a_d = gamma_delta(m)
    assert (gamma, a_g) == row("COR1_GAMMA")
    assert (delta, a_d) == row("COR1_DELTA")
    assert pp0_min(m) == row("PP0") == row("TH2")
    assert bound_th3_family(m, rows["TH3"].alpha_at)[0] == rows["TH3"].value
    assert bound_th3_family(m, rows["COR3"].alpha_at)[1] == rows["COR3"].value
    assert bound_th3_family(m, 1.0)[0] == rows["EQN5"].value
    assert eqn5_and_classics(m) == tuple(
        rows[i].value for i in ("EQN5", "KITTANEH_SUM", "KITTANEH_MODULI")
    )
    inner, a4, impr1 = bound_th4_impr1(m)
    assert (inner * report.norm, a4) == row("TH4")
    assert (impr1, a4) == row("IMPR1")
    assert report.minima["moduli_mix"] == (a4, inner)
    assert lower_general(m) == (rows["LOW1"].value, rows["LOW4"].value)


@pytest.mark.parametrize("m", MATRICES, ids=IDS)
def test_workspace_calls_equal_bare_matrix_calls(m):
    ws = Workspace(m)
    for alpha in (0.0, 0.5, 1.0):
        shared = alpha_norm_estimate(ws, alpha, restarts=3)
        bare = alpha_norm_estimate(m, alpha, restarts=3)
        assert shared.best_value == bare.best_value
        assert shared.upper_cert == bare.upper_cert
        assert np.array_equal(shared.best_vector, bare.best_vector)
    for shared, bare in ((ab_certify(ws), ab_certify(m)), (numerical_radius(ws), numerical_radius(m))):
        for field in shared.__dataclass_fields__:
            assert np.array_equal(getattr(shared, field), getattr(bare, field)), field


# A matrix whose Gram products overflow at scale 1e160 and above.
OVERFLOWING = np.array([[1.0, 2.0j], [0.5, -1.0]])


class TestOverflowIsAnError:
    def test_radius_of_an_overflowing_matrix(self):
        # Used to return a zero-width bracket built from NaN comparisons.
        with pytest.raises(NoConvergence, match="T\\*T"):
            numerical_radius(1e200 * OVERFLOWING)

    def test_report_of_an_overflowing_matrix(self):
        # Used to raise "matrix entries must be finite" on a valid input.
        with pytest.raises(NoConvergence):
            bound_report(1e200 * OVERFLOWING)

    def test_alpha_norm_of_an_overflowing_matrix(self):
        # Used to return NaN for both sides of the sandwich.
        with pytest.raises(NoConvergence):
            alpha_norm_estimate(1e160 * OVERFLOWING, 0.5, restarts=3)

    def test_co_gram_is_checked_too(self):
        with pytest.raises(NoConvergence, match="TT\\*"):
            Workspace(1e200 * OVERFLOWING).cogram
