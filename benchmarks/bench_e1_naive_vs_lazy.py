"""E1 — Naive vs lazy evaluation time, sweeping document size.

Paper claim (abstract / Section 1): "compared to the naive approach,
the pruning of irrelevant service calls may reduce the overall query
evaluation time by orders of magnitude."

Regenerates: total evaluation time (simulated service time + measured
analysis time) and invocation counts for the Figure 4 query over
``hotels(n)`` documents, for the naive and NFQ strategies and the NFQs
typed by the lenient oracle (``lazy-nfq+lenient``).
"""

import pytest

from bench_harness import evaluate_workload, print_table, run_once
from repro.lazy.config import Strategy, TypingMode
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

SIZES = [10, 25, 50, 100, 200]
STRATEGIES = [
    ("naive", dict(strategy=Strategy.NAIVE)),
    ("lazy-nfq", dict(strategy=Strategy.LAZY_NFQ)),
    (
        "lazy-nfq+lenient",
        dict(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
    ),
]


def workload_of(n):
    # Constant selectivity: the query targets the same 3 hotels however
    # large the document grows — the regime where laziness pays most
    # (cf. the intro's going-out example).
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n,
            extra_hotels_via_service=2,
            target_hotel_count=3,
        )
    )


def sweep():
    rows = []
    for n in SIZES:
        wl = workload_of(n)
        per_strategy = {}
        for name, cfg in STRATEGIES:
            outcome, _ = evaluate_workload(wl, **cfg)
            per_strategy[name] = outcome.metrics
        naive = per_strategy["naive"]
        for name, _ in STRATEGIES:
            m = per_strategy[name]
            rows.append(
                (
                    n,
                    name,
                    m.calls_invoked,
                    m.total_time_s,
                    m.total_time_parallel_s,
                    f"{naive.total_time_s / max(m.total_time_s, 1e-9):.1f}x",
                )
            )
    return rows


def test_e1_report(benchmark, capsys):
    rows = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E1: naive vs lazy (hotels(n), selective query)",
            ["n_hotels", "strategy", "calls", "time_s", "time_par_s", "speedup"],
            rows,
            note="time_s = simulated service time + measured analysis time",
        )
    # Qualitative claim: lazy wins everywhere and the gap grows with n.
    by_key = {(r[0], r[1]): r for r in rows}
    for n in SIZES:
        assert by_key[(n, "lazy-nfq")][3] < by_key[(n, "naive")][3]
        assert by_key[(n, "lazy-nfq+lenient")][2] <= by_key[(n, "lazy-nfq")][2]
    small_gap = by_key[(SIZES[0], "naive")][3] / by_key[(SIZES[0], "lazy-nfq")][3]
    big_gap = by_key[(SIZES[-1], "naive")][3] / by_key[(SIZES[-1], "lazy-nfq")][3]
    assert big_gap > small_gap


@pytest.mark.parametrize(
    "name,cfg", STRATEGIES, ids=[name for name, _ in STRATEGIES]
)
def test_e1_benchmark(benchmark, name, cfg):
    wl = workload_of(50)

    def run():
        outcome, _ = evaluate_workload(wl, **cfg)
        return outcome.metrics.calls_invoked

    benchmark(run)
