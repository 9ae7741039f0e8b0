"""E2 — How many calls does each relevance criterion fire?

Paper claims: LPQs "actually compute a superset of the relevant function
calls" (Section 3.1); NFQs retrieve "precisely" the relevant calls under
the any-output assumption (Proposition 1); types "rule out more
irrelevant calls" (Section 5).

Regenerates: invocation counts per strategy on the hotels and nightlife
scenarios — the invocation-count hierarchy
``NFQ+lenient <= NFQ <= LPQ <= top-down/naive``.
"""

import pytest

from bench_harness import evaluate_workload, print_table, run_once
from repro.lazy.config import Strategy, TypingMode
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload
from repro.workloads.nightlife import NightlifeParams, build_nightlife_workload
from repro.workloads.queries import hotels_broad_query, hotels_rating_only_query

STRATEGIES = [
    ("naive", dict(strategy=Strategy.NAIVE)),
    # Section 1's top-down baseline: the LPQs, one call per round.
    (
        "top-down",
        dict(strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False),
    ),
    ("lazy-lpq", dict(strategy=Strategy.LAZY_LPQ)),
    ("lazy-nfq-relaxed", dict(strategy=Strategy.LAZY_NFQ, drop_value_joins=True)),
    ("lazy-nfq", dict(strategy=Strategy.LAZY_NFQ)),
    (
        "lazy-nfq+lenient",
        dict(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
    ),
]


def scenarios():
    hotels = build_hotels_workload(HotelsWorkloadParams(n_hotels=40, seed=11))
    nightlife = build_nightlife_workload(
        NightlifeParams(n_theaters=12, n_restaurants=30)
    )
    return [
        ("hotels/selective", hotels, hotels.query),
        ("hotels/broad", hotels, hotels_broad_query()),
        ("hotels/rating-only", hotels, hotels_rating_only_query()),
        ("nightlife", nightlife, nightlife.query),
    ]


def sweep():
    rows = []
    counts = {}
    for scenario_name, workload, query in scenarios():
        for strategy_name, cfg in STRATEGIES:
            outcome, _ = evaluate_workload(workload, query=query, **cfg)
            rows.append(
                (
                    scenario_name,
                    strategy_name,
                    outcome.metrics.calls_invoked,
                    len(outcome.rows),
                )
            )
            counts[(scenario_name, strategy_name)] = outcome.metrics.calls_invoked
    return rows, counts


def test_e2_report(benchmark, capsys):
    rows, counts = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E2: service calls invoked per relevance criterion",
            ["scenario", "strategy", "calls", "rows"],
            rows,
        )
    for scenario_name, _, _ in [(s, None, None) for s, *_ in scenarios()]:
        assert (
            counts[(scenario_name, "lazy-nfq+lenient")]
            <= counts[(scenario_name, "lazy-nfq")]
            <= counts[(scenario_name, "lazy-nfq-relaxed")]
            <= counts[(scenario_name, "lazy-lpq")]
            <= counts[(scenario_name, "naive")]
        ), scenario_name
        # Top-down fires the same set as LPQ (same positional criterion).
        assert counts[(scenario_name, "top-down")] == counts[
            (scenario_name, "lazy-lpq")
        ], scenario_name


@pytest.mark.parametrize(
    "name,cfg",
    [s for s in STRATEGIES if s[0] != "naive"],
    ids=[s[0] for s in STRATEGIES if s[0] != "naive"],
)
def test_e2_benchmark(benchmark, name, cfg):
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=25, seed=11))

    def run():
        outcome, _ = evaluate_workload(wl, **cfg)
        return outcome.metrics.calls_invoked

    benchmark(run)
