#!/usr/bin/env python3
"""Fold BENCH_*.json baselines into one metric trend table.

Usage:
    python3 scripts/bench_history.py FILE.json [FILE.json ...]

Each input is either a metrics dump (``--metrics``: a top-level
``metrics`` object whose entries carry kind/stability/value) or a
versioned run report (``--report``: ``metrics`` maps names straight to
numbers, histograms to ``{total, bounds, counts}``). Output is one row
per metric name, one column per file — the committed baselines read as
a trajectory.

After the metric table, any ``perf.<class>.speedup_x100`` metrics are
folded into a per-class speedup trend section: one line per workload
class charting the auto-vs-best-fixed-engine ratio across the committed
baselines in the order given, with the net change since the oldest
column that has the metric (older baselines that predate a class show
as ``-``).

Arguments may be glob patterns (``BENCH_*.json``), expanded here so the
script behaves the same when a shell passes the unmatched pattern
through verbatim. When nothing matches at all the script prints a clear
note and exits 0 — a repo without committed baselines has no trend to
lint, which is not an error. A literal path that is missing still
fails: naming one exact file is a claim that it exists.

Stdlib only (glob/json/sys); exits non-zero with a diagnostic on
malformed input, which is what lets scripts/ci.sh run it as a lint over
the committed BENCH_*.json files.
"""

import glob
import json
import sys


def load_metrics(path):
    """Return {metric name: value} for one dump or report file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(
            f"{path}: no \"metrics\" object (not a metrics dump or run report)"
        )
    out = {}
    for name, value in metrics.items():
        if isinstance(value, (int, float)):
            out[name] = value
        elif isinstance(value, dict):
            scalar = value.get("value", value.get("total"))
            if isinstance(scalar, (int, float)):
                out[name] = scalar
    return out


def format_cell(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value)) if isinstance(value, float) else str(value)


SPEEDUP_PREFIX = "perf."
SPEEDUP_SUFFIX = ".speedup_x100"


def speedup_trends(paths, columns):
    """Per-class speedup trend lines across the baseline columns.

    Returns printable lines, or [] when no column carries a
    ``perf.<class>.speedup_x100`` metric.
    """
    classes = sorted({
        name[len(SPEEDUP_PREFIX):-len(SPEEDUP_SUFFIX)]
        for col in columns
        for name in col
        if name.startswith(SPEEDUP_PREFIX) and name.endswith(SPEEDUP_SUFFIX)
    })
    if not classes:
        return []
    lines = ["", "speedup trend (auto engine vs best fixed, x):"]
    width = max(len(c) for c in classes)
    for cls in classes:
        key = f"{SPEEDUP_PREFIX}{cls}{SPEEDUP_SUFFIX}"
        cells = [
            f"{col[key] / 100:.2f}" if key in col else "-" for col in columns
        ]
        have = [(p, col[key]) for p, col in zip(paths, columns) if key in col]
        if len(have) >= 2 and have[0][1] > 0:
            pct = 100.0 * (have[-1][1] - have[0][1]) / have[0][1]
            net = f"  ({pct:+.1f}% since {have[0][0]})"
        else:
            net = ""
        lines.append(f"  {cls.rjust(width)}  {' -> '.join(cells)}{net}")
    return lines


def expand_globs(args):
    """Expand glob-pattern arguments; literal paths pass through."""
    paths = []
    for arg in args:
        if not any(ch in arg for ch in "*?["):
            paths.append(arg)
            continue
        matches = sorted(glob.glob(arg))
        if matches:
            paths.extend(matches)
        else:
            print(f"bench_history: no baselines match '{arg}'",
                  file=sys.stderr)
    return paths


def main(argv):
    args = argv[1:]
    if not args:
        print("usage: bench_history.py FILE.json [FILE.json ...]",
              file=sys.stderr)
        return 64
    paths = expand_globs(args)
    if not paths:
        print("bench_history: no baselines to fold (nothing matched); "
              "run a bench with --metrics to create one")
        return 0
    try:
        columns = [load_metrics(p) for p in paths]
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65

    names = sorted(set().union(*(c.keys() for c in columns)))
    header = ["metric"] + paths
    rows = [
        [name] + [
            format_cell(col[name]) if name in col else "-" for col in columns
        ]
        for name in names
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    def emit(cells):
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    emit(header)
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        emit(row)
    for line in speedup_trends(paths, columns):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
