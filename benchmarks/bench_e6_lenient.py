"""E6 — Exact vs lenient relevance analysis: the accuracy/speed trade.

Paper claims (Sections 5-6.1): exact satisfiability is exponential in
schema+query ("unlikely that an algorithm with a lower time complexity
exists"); the implementation uses "a lenient description of the output
types ... tested in time polynomial in the size of the schema", trading
"accuracy for efficiency, running somewhat more lenient (but faster)
analysis, that invokes all relevant calls but possibly some more".

Regenerates: per-oracle analysis wall time and invocation counts on the
hotels scenario, plus a micro-benchmark of the two satisfiability tests
on a schema where they disagree.
"""

import time

import pytest

from bench_harness import evaluate_workload, print_table, run_once
from repro.lazy.config import TypingMode
from repro.pattern.parse import parse_pattern
from repro.schema.graphschema import LenientSatisfiability
from repro.schema.satisfiability import ExactSatisfiability
from repro.schema.schema import parse_schema
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

TYPINGS = [
    ("lazy-nfq", dict(typing=TypingMode.NONE)),
    ("lazy-nfq+lenient", dict(typing=TypingMode.LENIENT)),
    ("lazy-nfq+exact", dict(typing=TypingMode.EXACT)),
]

SIZES = [20, 60, 120]

# A schema engineered to make the oracles disagree: content models with
# exclusive alternation, which the graph schema flattens.
DISAGREEMENT_SCHEMA = parse_schema(
    """
    functions:
      getBlock = [in: data, out: block*]
    elements:
      root  = block*.getBlock*
      block = (left | right)
      left  = data
      right = data
    """
)
DISAGREEMENT_QUERY = parse_pattern("/block[left][right]")


def sweep():
    rows = []
    stats = {}
    for n in SIZES:
        wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=n, seed=9))
        for name, cfg in TYPINGS:
            outcome, _ = evaluate_workload(wl, **cfg)
            m = outcome.metrics
            rows.append(
                (n, name, m.calls_invoked, m.analysis_wall_s * 1000, len(outcome.rows))
            )
            stats[(n, name)] = m
    return rows, stats


def test_e6_report(benchmark, capsys):
    rows, stats = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E6: relevance analysis accuracy vs cost (hotels(n))",
            ["n_hotels", "typing", "calls", "analysis_ms", "rows"],
            rows,
        )
    for n in SIZES:
        none, lenient, exact = (stats[(n, name)] for name, _ in TYPINGS)
        # Safety ladder: typing only removes invocations, never rows.
        assert exact.calls_invoked <= lenient.calls_invoked <= none.calls_invoked
        assert none.result_rows == lenient.result_rows == exact.result_rows


def test_e6_oracles_disagree_by_design(benchmark):
    lenient = LenientSatisfiability(DISAGREEMENT_SCHEMA)
    exact = ExactSatisfiability(DISAGREEMENT_SCHEMA)
    assert lenient.function_satisfies("getBlock", DISAGREEMENT_QUERY)
    assert not exact.function_satisfies("getBlock", DISAGREEMENT_QUERY)

    def both():
        l = LenientSatisfiability(DISAGREEMENT_SCHEMA)
        e = ExactSatisfiability(DISAGREEMENT_SCHEMA)
        return (
            l.function_satisfies("getBlock", DISAGREEMENT_QUERY),
            e.function_satisfies("getBlock", DISAGREEMENT_QUERY),
        )

    benchmark(both)


@pytest.mark.parametrize("oracle_name", ["lenient", "exact"])
def test_e6_oracle_microbench(benchmark, oracle_name):
    """Cold-cache satisfiability of the paper query's subtrees."""
    from repro.workloads.hotels import figure_1_schema, paper_query

    schema = figure_1_schema()
    query = paper_query()
    subtrees = [
        query.subtree_at(node)
        for node in query.nodes()
        if node.parent is not None
    ]
    names = schema.function_names()

    def run():
        oracle = (
            LenientSatisfiability(schema)
            if oracle_name == "lenient"
            else ExactSatisfiability(schema)
        )
        verdicts = 0
        for sub in subtrees:
            for fname in names:
                if oracle.function_satisfies(fname, sub):
                    verdicts += 1
        return verdicts

    benchmark(run)
