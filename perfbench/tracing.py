"""Spans around numrad's public functions and numpy's Hermitian eigensolvers.

The traced run patches names from the outside and never edits `src/`.
A function is wrapped in every numrad namespace that binds it, so
`numrad.fuzzing.numerical_radius`, `numrad.bounds.numerical_radius` and
`numrad.alpha_norm.bound_th1` are all caught: calls between modules go
through the caller's module globals.  `numpy.linalg.eigh` and `eigvalsh`
are wrapped on `numpy.linalg` itself, the boundary every module crosses.

Spans live in memory as (name, start, end, parent, request, outermost,
matrices, n) and are written out once, after the run.  Self time is a
span's duration minus its children's, so the self times of one request
sum to its root span.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import statistics
import sys
import time

import numpy as np

import numrad

# (defining module, function) pairs whose calls become spans.
TRACED = (
    ("radius", "numerical_radius"),
    ("bounds", "bound_report"),
    ("bounds", "golden_section"),
    ("bounds", "bound_th1"),
    ("bounds", "bound_th2"),
    ("alpha_norm", "alpha_norm_estimate"),
    ("abnormal", "ab_certify"),
    ("matio", "parse_matrix"),
    ("scalar_checks", "scalar_inequality_checks"),
    ("fuzzing", "fuzz"),
)
EIGEN = ("eigvalsh", "eigh")
REQUEST = "bench.request"

NAME, START, END, PARENT, REQ, OUTER, MATS, DIM = range(8)
MS = 1e3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.request = -1
        self.eig_calls = 0
        self.eig_distinct = 0
        self._seen: set[bytes] = set()
        self.sandwich_gaps: list[float] = []

    def _enter(self, name: str, matrices: int = 0, n: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self._stack.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, self.request, depth == 0, matrices, n])
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        self._stack.pop()
        self._depth[span[NAME]] -= 1

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        self.request = request_id
        self._seen.clear()
        idx = self._enter(REQUEST)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if isinstance(out, numrad.AlphaNormEstimate):
                self.sandwich_gaps.append(out.upper_cert - out.best_value)
            return out

        return traced

    def wrap_eigen(self, name: str, fn):
        def traced(a, *args, **kwargs):
            arr = np.ascontiguousarray(a)
            h = hashlib.blake2b(str((arr.shape, arr.dtype)).encode(), digest_size=16)
            h.update(arr.data)
            key = h.digest()
            self.eig_calls += 1
            if key not in self._seen:
                self._seen.add(key)
                self.eig_distinct += 1
            n = arr.shape[-1]
            idx = self._enter(name, arr.size // (n * n), n)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def wrap_properties(self, properties):
        """Timed copies of fuzz property pairs, for fuzz's `properties` argument."""

        def timed(prop_id, prop):
            name = f"fuzzing.property.{prop_id}"

            def run(ctx):
                idx = self._enter(name)
                try:
                    found = list(prop(ctx))
                finally:
                    self._exit(idx)
                yield from found

            return prop_id, run

        return tuple(timed(pid, prop) for pid, prop in properties)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        modules = [m for key, m in sys.modules.items() if key == "numrad" or key.startswith("numrad.")]
        patches = []
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"numrad.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    patches.append((mod, fn_name, original, wrapper))
        for fn_name in EIGEN:
            original = getattr(np.linalg, fn_name)
            patches.append((np.linalg, fn_name, original, self.wrap_eigen(f"linalg.{fn_name}", original)))
        try:
            for mod, name, _, wrapper in patches:
                setattr(mod, name, wrapper)
            yield
        finally:
            for mod, name, original, _ in patches:
                setattr(mod, name, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("name\tstart_s\tend_s\tparent\trequest\tmatrices\tn\n")
            for s in self.spans:
                f.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[REQ]}\t{s[MATS]}\t{s[DIM]}\n")


def eig_flops_times3(name: str, matrices: int, n: int) -> int:
    """Three times the modelled flops, kept integral so that the per-matrix
    figure does not depend on summation order.  A model, not a measurement:
    complex Householder tridiagonalisation costs 16n^3/3 real flops, and
    eigenvectors add about 8n^3 for the back-transformation."""
    per = 16 * n**3
    if name == "linalg.eigh":
        per += 24 * n**3
    return matrices * per


def summarize(tracer: Tracer, items: int) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-item (per-matrix) layer metrics as name -> (value, unit), and
    the relative gap between the summed self times and the request time."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_t: dict[str, float] = {}
    mats: dict[str, int] = {}
    flops3 = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        if s[OUTER]:
            busy[name] = busy.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        if s[MATS]:
            mats[name] = mats.get(name, 0) + s[MATS]
            flops3 += eig_flops_times3(name, s[MATS], s[DIM])

    def per(d, name, scale=1.0):
        return d.get(name, 0) * scale / items

    calls_u, ms_u = "calls/matrix", "ms/matrix"
    eig_busy = busy.get("linalg.eigvalsh", 0.0) + busy.get("linalg.eigh", 0.0)
    out = {
        "linalg.eigvalsh.calls": (per(calls, "linalg.eigvalsh"), calls_u),
        "linalg.eigvalsh.matrices": (per(mats, "linalg.eigvalsh"), "matrices/matrix"),
        "linalg.eigh.calls": (per(calls, "linalg.eigh"), calls_u),
        "linalg.eig.busy_ms": (eig_busy * MS / items, ms_u),
        "linalg.eig.distinct_ratio": (
            tracer.eig_distinct / tracer.eig_calls if tracer.eig_calls else 0.0, "ratio"),
        "linalg.eig.flops_computed": (flops3 / (3 * items), "flop/matrix"),
        "bounds.golden_section.calls": (per(calls, "bounds.golden_section"), calls_u),
        "bounds.golden_section.busy_ms": (per(busy, "bounds.golden_section", MS), ms_u),
    }
    for name in ("bounds.bound_report", "alpha_norm.alpha_norm_estimate", "radius.numerical_radius"):
        out[f"{name}.calls"] = (per(calls, name), calls_u)
        out[f"{name}.busy_ms"] = (per(busy, name, MS), ms_u)
        out[f"{name}.self_ms"] = (per(self_t, name, MS), ms_u)
    gaps = tracer.sandwich_gaps
    out["alpha_norm.sandwich_gap_p50"] = (statistics.median(gaps) if gaps else 0.0, "w-scale")
    for name in ("scalar_checks.scalar_inequality_checks", "abnormal.ab_certify", "matio.parse_matrix"):
        out[f"{name}.calls"] = (per(calls, name), calls_u)
        out[f"{name}.busy_ms"] = (per(busy, name, MS), ms_u)
    out["fuzzing.fuzz.ms_per_matrix"] = (per(busy, "fuzzing.fuzz", MS), ms_u)
    for prop_id, _ in numrad.fuzzing.DEFAULT_PROPERTIES:
        name = f"fuzzing.property.{prop_id}"
        out[f"{name}.self_ms"] = (per(self_t, name, MS), ms_u)
    out[f"{REQUEST}.self_ms"] = (per(self_t, REQUEST, MS), ms_u)
    total_request = busy.get(REQUEST, 0.0)
    self_sum_error = abs(sum(self_t.values()) - total_request) / total_request if total_request else 0.0
    return out, self_sum_error
