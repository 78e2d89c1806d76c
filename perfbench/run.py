"""numrad benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload fuzz-cells --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; numrad is imported from its `src/`.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced pass.  Everything
else on stdout is for people: the machine, every metric by name and
unit, the sample counts, the failures and the output digest.
See perfbench/README.md for why each workload exists.
"""

import os

# One BLAS thread, set in this process's own environment before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def machine(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def setup(workload_cls, seed: int, numrad):
    """Worked examples, input generation and warm-up; returns (workload, seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _, all_ok = numrad.paper_examples()
        if not all_ok:
            raise SystemExit("set-up failed: paper_examples() is not all_ok")
        workload = workload_cls(seed)
        workload.warmup()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_cycles(workload, seconds: float, cycles: int | None = None, tracer=None):
    """Replay the request cycle until `seconds` have passed (or exactly
    `cycles` times).  Returns latencies, outcomes and the loop's wall time."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for req in workload.requests:
            rid = len(latencies)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(req)
                else:
                    with tracer.request_span(rid):
                        out = workload.run(req)
                latencies.append(time.perf_counter() - t0)
                problems = workload.check(req, out)
            except Exception as exc:  # a request that raises is a failed request
                latencies.append(time.perf_counter() - t0)
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            outcomes.append((req, out, problems))
        done += 1
        elapsed = time.perf_counter() - start
        if (cycles is None and elapsed >= seconds) or done == cycles:
            return latencies, outcomes, elapsed, done


def digest(workload, outcomes) -> str:
    """Hash of the certified outputs of the first cycle."""
    h = hashlib.sha256()
    for _, out, _ in outcomes[: len(workload.requests)]:
        h.update((workload.fingerprint(out) if out is not None else "raised").encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def report_failures(outcomes) -> int:
    failed = 0
    for i, (_, _, problems) in enumerate(outcomes):
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED request {i}: {'; '.join(problems)}")
    return failed


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")


def probe_underflow(workload) -> None:
    """Known defect, reported on its own line and kept out of the counts."""
    probes = getattr(workload, "probes", ())
    if probes:
        wrong = sum(1 for req in probes if workload.check(req, workload.run(req)))
        print(f"known defect (ROADMAP item 2): {wrong} of {len(probes)} shifts scaled by "
              f"2^{workload.PROBE_K} get a bracket that misses w(T)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)

    sys.path.insert(0, str(SRC))
    try:
        import numrad
    except ImportError as exc:
        print(f"cannot import numrad from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not pathlib.Path(numrad.__file__).resolve().is_relative_to(SRC):
        print(f"numrad imported from {numrad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine(args.seed)))

    workload, setup_s = setup(WORKLOADS[args.workload], args.seed, numrad)

    if args.trace == 0:
        latencies, outcomes, wall, cycles = run_cycles(workload, args.seconds)
    else:
        # Untraced pass for half the time, then the same cycles traced.
        base_lat, _, _, cycles = run_cycles(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        if hasattr(workload, "properties"):
            workload.properties = tracer.wrap_properties(numrad.fuzzing.DEFAULT_PROPERTIES)
        with tracer.installed():
            latencies, outcomes, wall, _ = run_cycles(workload, 0, cycles=cycles, tracer=tracer)

    items = sum(workload.matrices(req) for req, _, _ in outcomes)
    failed = report_failures(outcomes)
    print(f"workload {workload.name}: {cycles} cycles of {len(workload.requests)} requests, "
          f"{len(outcomes)} requests, {items} matrices, digest {digest(workload, outcomes)}")
    probe_underflow(workload)
    print(f"  {'fail_ratio':48s} {failed / len(outcomes):14.6g} ratio ({failed} of {len(outcomes)})")
    print(f"  latency samples: {len(latencies)}")

    if args.trace == 0:
        metrics = {
            "throughput_per_s": {"value": items / wall, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": import_s + setup_s, "unit": "s"},
        }
        correct = failed == 0
    else:
        layers, self_sum_error = tracing.summarize(tracer, items)
        overhead = (sum(latencies) - sum(base_lat)) * 1e3 / items
        layers["bench.trace_overhead_ms"] = (overhead, "ms/matrix")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}; "
              f"self times sum to request time within {self_sum_error:.1e}")
        correct = failed == 0 and self_sum_error < 1e-9
    print_metrics(metrics)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
