"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

prints one row per (workload, metric) with both medians and the ratio
B/A (base: A).  A metric with a bound gets a verdict: ``worse`` when B's
median is worse than A's by more than the bound, ``unresolved`` when it
is not but the run-to-run spread inside either file exceeds the bound
(unless every run of B reads better than every run of A), else ``ok``.
Bounds come from ``BENCHMARK.json`` (end-to-end metrics) and from
``attribution.json`` (``bounded``: the issue's end-to-end metrics that
only some workloads have, which the traced run reports).  Exact metrics
(unit ``count`` or ``sim_s``) must match to the digit for runs of the
same workload and seed in both files, or the row reads ``differs``.
Other per-layer metrics are listed with their ratio and no verdict.
Exits nonzero on any ``worse`` or ``differs`` row.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXACT_UNITS = ("count", "sim_s")


def spread(values):
    """Interquartile range (plain range under four runs) over the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def verdict(a_values, b_values, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
    if sign * (b_mid - a_mid) > bound * abs(a_mid):
        return "worse"
    if max(spread(a_values), spread(b_values)) > bound:
        every_b_better = max(sign * b for b in b_values) < min(sign * a for a in a_values)
        return "ok" if every_b_better else "unresolved"
    return "ok"


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def load_bounds():
    """``{metric: (better, bound)}`` for every bounded metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declaration = json.load(handle)
    with open(os.path.join(HERE, "attribution.json"), encoding="utf-8") as handle:
        bounded = json.load(handle)["bounded"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declaration["end_to_end"]}
    for metric in declaration["per_layer"]:
        if metric["name"] in bounded:
            bounds[metric["name"]] = (metric["better"], bounded[metric["name"]]["bound"])
    return bounds


def compare(a_runs, b_runs, bounds):
    """Rows ``(workload, metric, a_median, b_median, ratio, verdict)``."""
    rows = []
    by_key = {}
    for side, runs in (("a", a_runs), ("b", b_runs)):
        for run in runs:
            by_key.setdefault((run["workload"], run["trace"]), {"a": [], "b": []})[side].append(run)
    for (workload, _), sides in sorted(by_key.items()):
        if not sides["a"] or not sides["b"]:
            continue
        b_by_seed = {run["seed"]: run for run in sides["b"]}
        for name, metric in sides["a"][0]["metrics"].items():
            a_values = [run["metrics"][name]["value"] for run in sides["a"]]
            b_values = [run["metrics"][name]["value"] for run in sides["b"]]
            a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
            if metric["unit"] in EXACT_UNITS:
                same = all(
                    run["metrics"][name]["value"] == b_by_seed[run["seed"]]["metrics"][name]["value"]
                    for run in sides["a"]
                    if run["seed"] in b_by_seed
                )
                status = "ok" if same else "differs"
            else:
                status = "-"
            if status != "differs" and name in bounds:
                status = verdict(a_values, b_values, *bounds[name])
            ratio = b_mid / a_mid if a_mid else float("nan")
            rows.append((workload, name, a_mid, b_mid, ratio, status))
    return rows


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    rows = compare(load_runs(paths[0]), load_runs(paths[1]), load_bounds())
    print(f"{'workload':16s} {'metric':32s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    for workload, name, a_mid, b_mid, ratio, status in rows:
        print(f"{workload:16s} {name:32s} {a_mid:14.4f} {b_mid:14.4f} {ratio:8.3f}  {status}")
    bad = [row for row in rows if row[5] in ("worse", "differs")]
    print(f"{len(rows)} rows, {len(bad)} worse or differing (ratios are B/A, base A)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
