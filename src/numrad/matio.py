"""Matrix file formats.

Format A (JSON): an object with integer fields "n", "m" and "entries",
an array of n*m two-element arrays [re, im] in row-major order.

Format B (plain text): a first line "n m", then n lines each holding
2m whitespace-separated reals, real and imaginary parts interleaved.

Floats are rendered with repr, so parse(render(M)) round-trips bit
exactly for finite values.
"""

from __future__ import annotations

import json
import re as _re

import numpy as np

from .errors import DimensionMismatch, ParseError
from .linalg import as_matrix

_INT_RE = _re.compile(r"[+-]?\d+$")


def render_matrix(m, form: str = "json") -> str:
    """Serialize a matrix in format A ("json") or format B ("text")."""
    a = as_matrix(m)
    n, cols = a.shape
    if form == "json":
        entries = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
        return json.dumps({"n": n, "m": cols, "entries": entries})
    if form == "text":
        lines = [f"{n} {cols}"]
        for row in a:
            lines.append(" ".join(f"{repr(float(v.real))} {repr(float(v.imag))}" for v in row))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown matrix format {form!r}")


def parse_matrix(source: str) -> np.ndarray:
    """Parse either matrix format, auto-detected from the first character."""
    stripped = source.lstrip()
    if not stripped:
        raise ParseError("empty matrix source")
    if stripped[0] == "{":
        return _parse_json(source)
    return _parse_text(source)


def _parse_json(source: str) -> np.ndarray:
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object with fields n, m, entries")
    for key in ("n", "m", "entries"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
    n, m = obj["n"], obj["m"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ParseError("fields 'n' and 'm' must be positive integers")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ParseError("field 'entries' must be an array")
    if len(entries) != n * m:
        raise DimensionMismatch(
            f"expected {n * m} entries for a {n}x{m} matrix, got {len(entries)}"
        )
    flat = np.empty(n * m, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair)
        ):
            raise ParseError(f"entry {i} must be a two-element array [re, im]")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise ParseError(f"entry {i} is too large for a float") from exc
    return as_matrix(flat.reshape(n, m))


def _tokens_with_columns(line: str) -> list[tuple[str, int]]:
    return [(match.group(), match.start() + 1) for match in _re.finditer(r"\S+", line)]


def _parse_text(source: str) -> np.ndarray:
    lines = source.splitlines()
    idx = 0
    header = None
    while idx < len(lines):
        toks = _tokens_with_columns(lines[idx])
        idx += 1
        if toks:
            header = toks
            break
    if header is None:
        raise ParseError("missing header line 'n m'")
    if len(header) != 2 or not all(_INT_RE.match(t) for t, _ in header):
        raise ParseError("header must be two integers 'n m'", idx, header[0][1])
    n, m = int(header[0][0]), int(header[1][0])
    if n < 1 or m < 1:
        raise ParseError("matrix dimensions must be positive", idx)

    rows = []
    row_count = 0
    while idx < len(lines) and row_count < n:
        lineno = idx + 1
        toks = _tokens_with_columns(lines[idx])
        idx += 1
        if not toks:
            continue
        if len(toks) != 2 * m:
            raise DimensionMismatch(
                f"line {lineno}: expected {2 * m} values for a row of width {m}, got {len(toks)}"
            )
        row = np.empty(m, dtype=np.complex128)
        for j in range(m):
            (re_tok, re_col), (im_tok, _) = toks[2 * j], toks[2 * j + 1]
            try:
                row[j] = complex(float(re_tok), float(im_tok))
            except ValueError as exc:
                raise ParseError(
                    f"cannot parse number {re_tok!r} {im_tok!r}", lineno, re_col
                ) from exc
        rows.append(row)
        row_count += 1
    if row_count != n:
        raise DimensionMismatch(f"expected {n} rows, found {row_count}")
    trailing = [t for line in lines[idx:] for t in _tokens_with_columns(line)]
    if trailing:
        raise DimensionMismatch(f"unexpected trailing data after {n} rows")
    return as_matrix(np.vstack(rows))
