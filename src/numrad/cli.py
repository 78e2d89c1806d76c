"""Command line interface.

Commands write their machine-readable product (JSON, or CSV/table for
report) to stdout; progress notes go to stderr.  For a fixed input the
stdout bytes are identical across runs except for fields named
"elapsed".

Exit codes: 0 success, 1 inequality violation or worked-example
mismatch, 2 input or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .abnormal import ab_certify
from .alpha_norm import alpha_norm_estimate
from .bounds import BoundReport, bound_report
from .errors import (
    BadAlpha,
    BadEnsemble,
    DimensionMismatch,
    NoConvergence,
    NotSquare,
    ParseError,
    Timeout,
)
from .fuzzing import FuzzConfig, fuzz, total_violations
from .matio import parse_matrix
from .radius import numerical_radius
from .worked_examples import paper_examples

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _jsonable(obj):
    """JSON form of a result: a dataclass becomes a dict of its fields, a
    1-D array a list of [re, im] pairs, a 2-D array {"n", "m", "entries"}
    and a non-finite float null; dicts, lists and tuples are walked."""
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            n, m = obj.shape
            return {"n": n, "m": m, "entries": _jsonable(obj.reshape(-1))}
        return [[_jsonable(float(v.real)), _jsonable(float(v.imag))] for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True)


def _load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _cmd_radius(args) -> int:
    print(_dump(numerical_radius(_load_matrix(args.file), args.tol)))
    return EXIT_OK


def _cmd_alpha_norm(args) -> int:
    est = alpha_norm_estimate(
        _load_matrix(args.file), args.alpha, restarts=args.restarts, seed=args.seed
    )
    print(_dump(est))
    return EXIT_OK


def _cmd_abnormal(args) -> int:
    print(_dump(ab_certify(_load_matrix(args.file))))
    return EXIT_OK


def _report_rows(report: BoundReport) -> list[dict]:
    rows = []
    for entry in report.entries:
        rows.append(
            {
                "bound_id": entry.bound_id,
                "kind": entry.kind,
                "value_on_w_scale": entry.value_on_w_scale,
                "alpha_at": entry.alpha_at,
                "r_at": entry.r_at,
                "slack_vs_w_lower": entry.value_on_w_scale - report.w_bracket.lower,
            }
        )
    return rows


def _report_csv(report: BoundReport) -> str:
    rows = _report_rows(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        # Strings as they are, floats by repr (bit-exact), None as an empty field.
        cells = (v if isinstance(v, str) else "" if v is None else repr(v) for v in row.values())
        writer.writerow(cells)
    return buf.getvalue()


def _report_table(report: BoundReport) -> str:
    lines = [
        f"w(T) in [{report.w_bracket.lower:.12g}, {report.w_bracket.upper:.12g}]"
        f"   ||T|| = {report.norm:.12g}",
        f"tightest upper: {report.tightest_upper}   tightest lower: {report.tightest_lower}",
        "",
        f"{'bound':<16} {'kind':<12} {'value on w':>16} {'alpha*':>10} {'r*':>6} {'slack':>12}",
    ]
    for row in _report_rows(report):
        alpha_at = f"{row['alpha_at']:.4f}" if row["alpha_at"] is not None else "-"
        r_at = f"{row['r_at']:.2f}" if row["r_at"] is not None else "-"
        lines.append(
            f"{row['bound_id']:<16} {row['kind']:<12} {row['value_on_w_scale']:>16.10f}"
            f" {alpha_at:>10} {r_at:>6} {row['slack_vs_w_lower']:>12.3e}"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    report = bound_report(_load_matrix(args.file), args.tol)
    if args.format == "table":
        print(_report_table(report))
    elif args.format == "json":
        print(
            _dump(
                {
                    "w_lower": report.w_bracket.lower,
                    "w_upper": report.w_bracket.upper,
                    "norm": report.norm,
                    "tightest_upper": report.tightest_upper,
                    "tightest_lower": report.tightest_lower,
                    "entries": _report_rows(report),
                }
            )
        )
    else:
        sys.stdout.write(_report_csv(report))
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    ensembles = tuple(args.ensemble.split(","))
    config = FuzzConfig(
        dims=dims, trials=args.trials, ensembles=ensembles, seed=args.seed, tol=args.tol
    )
    summaries = fuzz(config)
    bad = total_violations(summaries)
    print(
        _dump(
            {
                "config": config,
                "total_violations": bad,
                "cells": summaries,
            }
        )
    )
    print(
        f"fuzz: {len(summaries)} cells, {sum(s.trials for s in summaries)} trials,"
        f" {bad} violations",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if bad else EXIT_OK


def _cmd_paper_examples(args) -> int:
    rows, all_ok = paper_examples()
    if args.format == "json":
        print(_dump({"rows": rows, "all_ok": all_ok}))
    else:
        print(f"{'case':<8} {'quantity':<26} {'computed':>20} {'expected':>20}  result")
        for row in rows:
            mark = "PASS" if row["ok"] else "FAIL"
            rel = "<" if row["comparison"] == "strictly-below" else "=="
            print(
                f"{row['case']:<8} {row['quantity']:<26} {row['computed']:>20.12f}"
                f" {rel} {row['expected']:>18.12f}  {mark}"
            )
        print("all rows pass" if all_ok else "MISMATCH: some rows failed")
    return EXIT_OK if all_ok else EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numrad",
        description="Numerical radius brackets, alpha-norm sandwiches and the bound catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="evaluate every catalog bound on a matrix file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("radius", help="certified numerical radius bracket")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_radius)

    p = sub.add_parser("alpha-norm", help="alpha-norm sandwich estimate")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_alpha_norm)

    p = sub.add_parser("abnormal", help="(alpha, beta)-normality certificate")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_abnormal)

    p = sub.add_parser("fuzz", help="seeded property fuzzing")
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ensemble", default="ginibre,normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "paper-examples", help="reproduce the built-in worked examples"
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, DimensionMismatch, NotSquare, BadAlpha, BadEnsemble, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoConvergence, Timeout) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
