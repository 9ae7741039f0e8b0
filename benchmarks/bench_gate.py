"""Gate a change on the end-to-end benchmark's exact metrics.

    python3 benchmarks/bench_gate.py BASE.json CHANGE.json ALLOW.txt

``BASE.json`` and ``CHANGE.json`` are ``benchmarks/e2e/run.py --smoke
--out`` files written at the merge base and at the change.  Every row of
``benchmarks/e2e/compare.py`` is printed.  The gate fails only on a
``differs`` row — an exact metric (``calls_invoked``, ``service_sim_s``,
any ``count`` / ``sim_s`` unit) that changed for some seed — whose
``workload metric`` pair ``ALLOW.txt`` does not list.  ``ALLOW.txt``
holds one ``workload metric  # reason`` per line; a change that moves an
exact metric on purpose says so there.  ``worse`` rows are printed and
do not gate: a smoke run is one unit, too short to judge wall time,
which stays with the interleaved local protocol.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))

import compare  # noqa: E402


def allowed(path: str) -> set[tuple[str, str]]:
    """The ``(workload, metric)`` pairs an allow-list names."""
    pairs = set()
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{number}: expected 'workload metric  # reason', "
                    f"got {line.strip()!r}"
                )
            pairs.add((fields[0], fields[1]))
    return pairs


def failing(rows, allow: set[tuple[str, str]]) -> list:
    """The ``differs`` rows the allow-list does not excuse."""
    return [
        row for row in rows if row[5] == "differs" and (row[0], row[1]) not in allow
    ]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 3:
        print(__doc__)
        return 2
    base, change, allow_path = paths
    rows = compare.compare(
        compare.load_runs(base), compare.load_runs(change), compare.load_bounds()
    )
    for workload, name, a_mid, b_mid, ratio, status in rows:
        print(f"{workload:16s} {name:32s} {a_mid:14.4f} {b_mid:14.4f} {ratio:8.3f}  {status}")
    bad = failing(rows, allowed(allow_path))
    for workload, name, a_mid, b_mid, _, _ in bad:
        print(f"DIFFERS {workload} {name}: {a_mid} -> {b_mid} (not in {allow_path})")
    print(f"{len(rows)} rows, {len(bad)} unexcused exact-metric changes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
