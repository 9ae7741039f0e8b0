"""E7 (ablation) — containment-based multi-query de-duplication.

Paper note (Section 4.1): relevance queries are handed to a query
processor which can "eliminate redundant queries using containment
checking as in [20]"; "techniques for multi-query optimization are
essential to avoid performance penalties".

Regenerates: the number of relevance queries before/after containment
de-duplication, and the resulting evaluation effort, for queries of
growing width and depth.  The engine always de-duplicates; the
un-de-duplicated runs are the same engine under the ``undeduplicated()``
reference seam (``tests/references.py``).
"""

import contextlib

import pytest

from bench_harness import evaluate_workload, print_table, run_once, undeduplicated
from repro.lazy.config import Strategy
from repro.lazy.relevance import NFQBuilder, linear_path_queries
from repro.pattern.parse import parse_pattern
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload
from repro.workloads.queries import hotels_broad_query

QUERIES = [
    ("paper", None),  # filled with the workload's own query
    ("broad", hotels_broad_query()),
    (
        "wide",
        parse_pattern(
            '/hotels/hotel[name="Best Western"][address][rating]'
            "/nearby//restaurant[name][address][rating]"
        ),
    ),
    (
        "deep-descendants",
        parse_pattern("/hotels//hotel//nearby//restaurant//name"),
    ),
]


def _deduplicated(dedupe):
    """The engine as it is, or under the ``undeduplicated()`` seam."""
    return contextlib.nullcontext() if dedupe else undeduplicated()


def sweep():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=30, seed=19))
    rows = []
    effort = {}
    for qname, query in QUERIES:
        query = query or wl.query
        lpq_all = linear_path_queries(query, dedupe=False)
        lpq_dedup = linear_path_queries(query, dedupe=True)
        nfq_all = NFQBuilder(query).build_all(dedupe=False)
        nfq_dedup = NFQBuilder(query).build_all(dedupe=True)
        for dedupe in (False, True):
            with _deduplicated(dedupe):
                outcome, _ = evaluate_workload(
                    wl, query=query, strategy=Strategy.LAZY_NFQ
                )
            effort[(qname, dedupe)] = outcome.metrics
        rows.append(
            (
                qname,
                len(lpq_all),
                len(lpq_dedup),
                len(nfq_all),
                len(nfq_dedup),
                effort[(qname, False)].relevance_evaluations,
                effort[(qname, True)].relevance_evaluations,
            )
        )
    return rows, effort


def test_e7_report(benchmark, capsys):
    rows, effort = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E7: containment-based de-duplication of relevance queries",
            [
                "query",
                "lpq",
                "lpq-dedup",
                "nfq",
                "nfq-dedup",
                "evals",
                "evals-dedup",
            ],
            rows,
        )
    for qname, *_ in QUERIES:
        with_dedup = effort[(qname, True)]
        without = effort[(qname, False)]
        # De-duplication never changes the answer...
        assert with_dedup.result_rows == without.result_rows, qname
        assert with_dedup.calls_invoked == without.calls_invoked, qname
        # ...and never increases the evaluation effort.
        assert (
            with_dedup.relevance_evaluations <= without.relevance_evaluations
        ), qname
    # At least one workload benefits visibly.
    assert any(row[1] > row[2] or row[3] > row[4] for row in rows)


@pytest.mark.parametrize("dedupe", [False, True], ids=["no-dedup", "dedup"])
def test_e7_benchmark(benchmark, dedupe):
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=20, seed=19))
    query = parse_pattern("/hotels//hotel//nearby//restaurant//name")

    def run():
        with _deduplicated(dedupe):
            outcome, _ = evaluate_workload(
                wl, query=query, strategy=Strategy.LAZY_NFQ
            )
        return outcome.metrics.relevance_evaluations

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
