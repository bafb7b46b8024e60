"""Deterministic artifact writers: CSV, JSON, SVG plots, schema validation.

Byte determinism contract: fixed (config, seed, build) must reproduce CSV and
report JSON byte-for-byte.  Floats are serialized with `repr` (shortest
round-trip), JSON keys are sorted, and nothing time- or path-dependent enters
these files (wall time goes to a separate, non-deterministic timing file).

Writes are atomic: temp file in the target directory, then rename.
"""
from __future__ import annotations

import json
import os
import tempfile

CSV_COLUMNS = ("step", "time", "sup_lambda", "inf_tR", "ke_residual",
               "min_eig", "phi_prime_min", "phi_prime_max")

SCHEMA_VERSION = "1"


def fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_run_csv(path, rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c, "")) for c in CSV_COLUMNS))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_run_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = []
        for line in f:
            vals = line.rstrip("\n").split(",")
            rows.append({k: (float(v) if v not in ("", "true", "false") else v)
                         for k, v in zip(header, vals)})
    return rows


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1,
                                       ensure_ascii=True) + "\n")


# ---------------------------------------------------------------------------
# minimal structural schema validation (shipped schemas, no extra deps)
# ---------------------------------------------------------------------------

def _load_schema(name):
    path = os.path.join(os.path.dirname(__file__), "schemas", name)
    with open(path) as f:
        return json.load(f)


REPORT_SCHEMA = _load_schema("report.schema.json")
TABLE_SCHEMA = _load_schema("table.schema.json")

def _type_ok(obj, t):
    if t == "boolean":
        return isinstance(obj, bool)
    if t == "integer":
        return isinstance(obj, int) and not isinstance(obj, bool)
    if t == "number":
        return isinstance(obj, (int, float)) and not isinstance(obj, bool)
    checks = {"string": str, "object": dict, "array": list}
    if t in checks:
        return isinstance(obj, checks[t])
    if t == "null":
        return obj is None
    return False


def validate_schema(obj, schema, path="$"):
    """Structural validation against the shipped schema subset; returns
    a list of violations (empty when valid)."""
    errors = []
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        if not any(_type_ok(obj, x) for x in types):
            errors.append(f"{path}: expected {t}, got {type(obj).__name__}")
            return errors
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                errors.extend(validate_schema(obj[key], sub, f"{path}.{key}"))
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            errors.extend(validate_schema(item, schema["items"], f"{path}[{i}]"))
    return errors


# ---------------------------------------------------------------------------
# self-contained SVG line plots
# ---------------------------------------------------------------------------

def svg_line_plot(xs, ys, title, width=640, height=400, margin=50):
    pts = [(x, y) for x, y in zip(xs, ys)
           if isinstance(y, (int, float)) and y == y]
    if not pts:
        return None
    xv = [p[0] for p in pts]
    yv = [p[1] for p in pts]
    x0, x1 = min(xv), max(xv)
    y0, y1 = min(yv), max(yv)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + (abs(y0) or 1.0) * 1e-3
    W, H = width - 2 * margin, height - 2 * margin

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * W

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * H

    # one polyline per phase: a two-phase run.csv holds phase 1's rows in t
    # and then phase 2's in s, so the clock restarts where x decreases
    segments = [[pts[0]]]
    for prev, p in zip(pts, pts[1:]):
        if p[0] < prev[0]:
            segments.append([])
        segments[-1].append(p)
    polys = [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in seg)
             for seg in segments]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *(f'<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
          for poly in polys),
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<text x="{margin}" y="{height-margin+20}" font-family="monospace" '
        f'font-size="11">{fmt(float(x0))}</text>',
        f'<text x="{width-margin}" y="{height-margin+20}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{fmt(float(x1))}</text>',
        f'<text x="{margin-5}" y="{height-margin}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{fmt(float(y0))}</text>',
        f'<text x="{margin-5}" y="{margin+5}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{fmt(float(y1))}</text>',
        '</svg>',
    ]
    return "\n".join(parts)


def plot_run_csv(run_dir, out_dir=None):
    """One SVG per monitored quantity from a run directory's run.csv."""
    rows = read_run_csv(os.path.join(run_dir, "run.csv"))
    out_dir = out_dir or os.path.join(run_dir, "plots")
    written = []
    xs = [r["time"] for r in rows]
    for col in CSV_COLUMNS[2:]:
        ys = [r.get(col, "") for r in rows]
        svg = svg_line_plot(xs, ys, col)
        if svg is None:
            continue
        path = os.path.join(out_dir, f"{col}.svg")
        atomic_write_text(path, svg)
        written.append(path)
    return written

