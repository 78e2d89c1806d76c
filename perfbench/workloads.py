"""The three seeded workloads: request generation, execution and checks.

A workload owns one *cycle*: a list of requests generated from the
benchmark seed alone.  A run replays that cycle until its time is up, so
every run of one seed does the same work per cycle, and the per-layer
counts of a traced run do not depend on how many cycles fitted.  The
library receives only the generated matrices (or their text forms); the
benchmark builds them with its own numpy generator, so later changes to
`numrad.ensembles` do not change the inputs.

Each workload provides
    requests            the cycle, a list of request objects
    run(req)            the library calls of one request, returns its output
    check(req, out)     list of problems; empty means the request passed
    fingerprint(out)    text of the certified outputs, hashed into the digest
    matrices(req)       matrices completed by the request (the "item")
    warmup()            one small request, run during set-up
"""

from __future__ import annotations

import json
import math

import numpy as np

import numrad

EPS = float(np.finfo(np.float64).eps)

# Radius brackets and the closed form are compared up to this many
# units of n * eps * ||T||.  numrad does not yet count rounding in its
# certificates (ROADMAP item 2), and the witness value |<Tx, x>| can
# exceed the exact w(T) by a few ulps; the defects the checks look for
# are many orders of magnitude larger.
ROUNDING_ULPS = 8.0


def _rounding(n: int, scale: float) -> float:
    return ROUNDING_ULPS * n * EPS * scale


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def _normal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    eig = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    return (q * eig) @ q.conj().T


def render_format_a(m: np.ndarray) -> str:
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return json.dumps({"n": m.shape[0], "m": m.shape[1], "entries": entries})


def render_format_b(m: np.ndarray) -> str:
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def _bracket_problems(b, tol: float) -> list[str]:
    out = []
    if not (math.isfinite(b.lower) and math.isfinite(b.upper)):
        out.append(f"bracket not finite: [{b.lower}, {b.upper}]")
    elif b.lower > b.upper:
        out.append(f"bracket lower {b.lower!r} > upper {b.upper!r}")
    elif b.upper - b.lower > tol:
        out.append(f"bracket width {b.upper - b.lower:.3e} > tol {tol:.0e}")
    return out


def _fmt(x: float) -> str:
    return f"{x:.9e}"


class FuzzCells:
    """`fuzz()` calls of one matrix each, 16 per (ensemble, dim) cell, FuzzConfig defaults."""

    name = "fuzz-cells"
    ENSEMBLES = ("ginibre", "normal", "nilpotent-shift")
    DIMS = (2, 3, 4, 5, 6)
    # One matrix per call and 16 calls per cell: the latency quantiles then
    # rest on 240 distinct matrices per cycle, not on a single cell's time.
    TRIALS = 1
    CALLS_PER_CELL = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        cells = [
            (ens, dim, int(rng.integers(2**31)))
            for _ in range(self.CALLS_PER_CELL)
            for ens in self.ENSEMBLES
            for dim in self.DIMS
        ]
        order = rng.permutation(len(cells))
        self.requests = [cells[i] for i in order]
        # Replaced by timed wrappers in the traced run; None means defaults.
        self.properties = None

    def run(self, req):
        ens, dim, fuzz_seed = req
        config = numrad.FuzzConfig(dims=(dim,), trials=self.TRIALS, ensembles=(ens,), seed=fuzz_seed)
        return numrad.fuzz(config, properties=self.properties)

    def warmup(self):
        self.run(("ginibre", 2, 0))

    def check(self, req, out) -> list[str]:
        ens, dim, _ = req
        if len(out) != 1:
            return [f"expected one summary, got {len(out)}"]
        s = out[0]
        problems = []
        if (s.ensemble, s.dimension, s.trials) != (ens, dim, self.TRIALS):
            problems.append(f"summary for {(s.ensemble, s.dimension, s.trials)}")
        for v in s.violations:
            problems.append(f"violation {v.property_id} trial {v.trial}: {v.observed}")
        return problems

    def fingerprint(self, out) -> str:
        s = out[0]
        diag = s.diagnostics
        examples = [
            (_fmt(c["inner_min"]), _fmt(c["w_lower"]))
            for c in diag.get("moduli_mix_vs_w_counterexamples", [])
        ]
        support = diag.get("moduli_mix_vs_w_support", 0)
        return f"{s.ensemble} {s.dimension} {s.seed} {len(s.violations)} {support} {examples}"

    def matrices(self, req) -> int:
        return self.TRIALS


class DenseQueries:
    """Text in, full certified report out, for n in {16, 32, 64}."""

    name = "dense-queries"
    SIZES = (16, 32, 64)
    # Two Ginibre matrices per normal one put the median among the n = 32
    # Ginibre requests instead of on the gap between the faster normal
    # and the slower Ginibre ones; four repeats give it 8 of them to sit in.
    ENSEMBLES = ("ginibre", "ginibre", "normal")
    REPEATS = 4
    REPORT_TOL = 1e-9
    ALPHA = 0.5
    RESTARTS = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        cases = []
        for _ in range(self.REPEATS):
            for n in self.SIZES:
                for ens in self.ENSEMBLES:
                    m = _ginibre(rng, n) if ens == "ginibre" else _normal(rng, n)
                    render = render_format_a if rng.integers(2) == 0 else render_format_b
                    cases.append((n, ens, m, render(m)))
        order = rng.permutation(len(cases))
        self.requests = [cases[i] for i in order]

    def _query(self, text: str):
        m = numrad.parse_matrix(text)
        report = numrad.bound_report(m, tol=self.REPORT_TOL)
        est = numrad.alpha_norm_estimate(
            m, self.ALPHA, restarts=self.RESTARTS, seed=0, radius_witness=report.w_bracket.witness
        )
        cert = numrad.ab_certify(m)
        lowers = None
        if cert.is_ab_normal:
            lowers = (
                numrad.lower_th5(m, cert),
                numrad.lower_th6(m, cert),
                numrad.lower_sab(m, cert),
            )
        return m, report, est, cert, lowers

    def run(self, req):
        return self._query(req[3])

    def warmup(self):
        small = min(self.requests, key=lambda r: r[0])
        self._query(small[3])

    def check(self, req, out) -> list[str]:
        n, _, expected, _ = req
        m, report, est, cert, lowers = out
        if not np.array_equal(m, expected):
            return ["parse_matrix did not round-trip the generated matrix"]
        b = report.w_bracket
        problems = _bracket_problems(b, self.REPORT_TOL)
        tol = self.REPORT_TOL
        for e in report.entries:
            v = e.value_on_w_scale
            if not (math.isfinite(e.value) and math.isfinite(v)):
                problems.append(f"{e.bound_id} not finite: {e.value}")
            elif e.is_upper and v < b.lower - tol:
                problems.append(f"{e.bound_id} upper {v!r} < w_lower {b.lower!r}")
            elif not e.is_upper and v > b.upper + tol:
                problems.append(f"{e.bound_id} lower {v!r} > w_upper {b.upper!r}")
        if not (math.isfinite(est.best_value) and math.isfinite(est.upper_cert)):
            problems.append(f"alpha sandwich not finite: {est.best_value}, {est.upper_cert}")
        elif est.best_value > est.upper_cert + _rounding(n, report.norm):
            problems.append(f"alpha best {est.best_value!r} > upper_cert {est.upper_cert!r}")
        if lowers is not None:
            for name, v in zip(("TH5", "TH6", "SAB"), lowers):
                if not math.isfinite(v) or v > b.upper + tol:
                    problems.append(f"{name} lower {v!r} > w_upper {b.upper!r}")
        return problems

    def fingerprint(self, out) -> str:
        _, report, est, cert, lowers = out
        b = report.w_bracket
        parts = [_fmt(b.lower), _fmt(b.upper), report.tightest_upper, report.tightest_lower]
        parts += [f"{e.bound_id}={_fmt(e.value)}" for e in report.entries]
        parts += [_fmt(est.best_value), _fmt(est.upper_cert)]
        parts += [str(cert.is_ab_normal), _fmt(cert.alpha_best), _fmt(cert.beta_best)]
        parts += [_fmt(v) for v in lowers or ()]
        return " ".join(parts)

    def matrices(self, req) -> int:
        return 1


def unit_shift(n: int, scale: float, phases: np.ndarray) -> np.ndarray:
    """Nilpotent shift with superdiagonal scale * e^{i phase}.  A diagonal
    unitary similarity maps it to the real unit shift, so its numerical
    radius is scale * cos(pi / (n + 1)) whatever the phases."""
    m = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = scale * np.exp(1j * phases)
    return m


def closed_form_w(n: int, k: int) -> float:
    return math.ldexp(math.cos(math.pi / (n + 1)), k)


class RadiusPlateau:
    """numerical_radius on unit-weight shifts, where g(theta) is constant."""

    name = "radius-plateau"
    # (n, k, tol): the shift is scaled by 2**k.  Heavier plateaus wait for
    # a work budget in the sweep (ROADMAP item 2): n = 16 at 2**6 takes 7 s
    # at tol 1e-9 and 29 s and 520 MB at 1e-10; n = 8 and n = 4 at 2**6
    # with tol 1e-10 take 8 s and 3 s.
    CASES = (
        (4, 0, 1e-9),
        (4, 0, 1e-10),
        (4, 6, 1e-9),
        (8, 0, 1e-9),
        (8, 0, 1e-10),
        (8, 6, 1e-9),
        (16, 0, 1e-9),
    )
    # Underflow probe: at 2**-600 the Gram matrix underflows to zero and
    # numerical_radius returns the false certificate [0, 0] (ROADMAP
    # item 2).  It runs outside the measured requests; see README.md.
    PROBE_K = -600
    PROBE_CASES = ((4, PROBE_K, 1e-9), (8, PROBE_K, 1e-9), (16, PROBE_K, 1e-9))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])

        def case(n, k, tol):
            return n, k, tol, unit_shift(n, math.ldexp(1.0, k), rng.uniform(0, 2 * math.pi, n - 1))

        cases = [case(*c) for c in self.CASES]
        order = rng.permutation(len(cases))
        self.requests = [cases[i] for i in order]
        self.probes = [case(*c) for c in self.PROBE_CASES]

    def run(self, req):
        _, _, tol, m = req
        return numrad.numerical_radius(m, tol)

    def warmup(self):
        small = min(self.requests, key=lambda r: (r[0], r[1], -r[2]))
        self.run(small)

    def check(self, req, out) -> list[str]:
        n, k, tol, _ = req
        problems = _bracket_problems(out, tol)
        w = closed_form_w(n, k)
        slack = _rounding(n, math.ldexp(1.0, k))
        if not out.lower - slack <= w <= out.upper + slack:
            problems.append(f"[{out.lower!r}, {out.upper!r}] misses w = {w!r} (n={n}, 2^{k})")
        return problems

    def fingerprint(self, out) -> str:
        return f"{_fmt(out.lower)} {_fmt(out.upper)}"

    def matrices(self, req) -> int:
        return 1


WORKLOADS = {w.name: w for w in (FuzzCells, DenseQueries, RadiusPlateau)}
