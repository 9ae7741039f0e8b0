"""E5 — Layering and parallelism: NFQ re-evaluations and rounds.

Paper claims (Sections 4.3-4.4): "Running NFQA on smaller groups may
yield much less NFQ evaluations than doing so on the initial set"; with
the independence condition "we can invoke all the returned calls in
parallel and spare the re-evaluations ... needed after triggering each
call".

Regenerates: relevance-query evaluations, invocation rounds and
simulated (parallel) time for plain NFQA vs layered NFQA vs layered +
parallel NFQA on chained-call documents of growing depth and width.
"""

import pytest

from bench_harness import evaluate_workload, print_table, run_once
from repro.lazy.config import Strategy
from repro.workloads.chains import build_chain_workload

SHAPES = [(4, 2), (6, 4), (8, 8), (10, 12)]  # (depth, width)
VARIANTS = [
    ("plain-nfqa", dict(use_layers=False, parallel=False)),
    ("layered", dict(use_layers=True, parallel=False)),
    ("layered+par", dict(use_layers=True, parallel=True)),
]


def sweep():
    rows = []
    metrics = {}
    for depth, width in SHAPES:
        wl = build_chain_workload(depth=depth, width=width)
        for name, extra in VARIANTS:
            outcome, _ = evaluate_workload(
                wl, strategy=Strategy.LAZY_NFQ, **extra
            )
            m = outcome.metrics
            rows.append(
                (
                    f"d={depth},w={width}",
                    name,
                    m.calls_invoked,
                    m.relevance_evaluations,
                    m.invocation_rounds,
                    m.simulated_parallel_s,
                )
            )
            metrics[(depth, width, name)] = m
    return rows, metrics


def test_e5_report(benchmark, capsys):
    rows, metrics = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E5: layering & parallelism on chained calls",
            ["chain", "variant", "calls", "nfq_evals", "rounds", "par_time_s"],
            rows,
        )
    for depth, width in SHAPES:
        plain = metrics[(depth, width, "plain-nfqa")]
        layered = metrics[(depth, width, "layered")]
        parallel = metrics[(depth, width, "layered+par")]
        # Same work is done (relevant rewritings invoke the same calls)...
        assert (
            plain.calls_invoked
            == layered.calls_invoked
            == parallel.calls_invoked
        )
        # ...with fewer NFQ evaluations once layered,
        assert layered.relevance_evaluations < plain.relevance_evaluations
        # and fewer rounds + less elapsed time once parallelised.
        assert parallel.invocation_rounds < layered.invocation_rounds
        assert parallel.simulated_parallel_s < layered.simulated_parallel_s
        # Parallel rounds equal the chain depth: one round per level.
        assert parallel.invocation_rounds == depth


@pytest.mark.parametrize(
    "name,extra", VARIANTS, ids=[name for name, _ in VARIANTS]
)
def test_e5_benchmark(benchmark, name, extra):
    wl = build_chain_workload(depth=6, width=6)

    def run():
        outcome, _ = evaluate_workload(wl, strategy=Strategy.LAZY_NFQ, **extra)
        return outcome.metrics.relevance_evaluations

    benchmark(run)
