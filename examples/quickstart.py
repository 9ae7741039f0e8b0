#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Builds the Figure 1 hotels document, registers the mock services behind
its embedded calls, and evaluates the Figure 4 query

    /hotels/hotel[name="Best Western"][rating="5"]
           /nearby//restaurant[name=$X][address=$Y][rating="5"]

first naively (materialise everything, then query) and then lazily with
node-focused queries — showing that both agree on the answer while the
lazy evaluator invokes a fraction of the calls.

Run:  python examples/quickstart.py
"""

import repro
from repro import (
    EngineConfig,
    InMemorySink,
    ServiceBus,
    Strategy,
    compare_strategies,
    format_comparison,
    format_trace_profile,
)
from repro.workloads import (
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)


def evaluate(strategy: Strategy, trace=None):
    # The one-shot facade: query + document + services in, outcome out.
    # (A pre-built bus is passed so we can inspect its invocation log;
    # a plain list of services or a registry works just as well.)
    # A config written out is obeyed as written: LAZY_NFQ stays
    # untyped (without one, the given schema would type it, Section 5).
    bus = ServiceBus(figure_1_registry())
    outcome = repro.evaluate(
        paper_query(),
        figure_1_document(),
        services=bus,
        config=EngineConfig(strategy=strategy),
        schema=figure_1_schema(),
        trace=trace,
    )
    return outcome, bus


def main() -> None:
    query = paper_query()
    print("Document: the paper's Figure 1 (4 hotels, 11 reachable calls)")
    print(f"Query   : {query.to_string()}")
    print()

    for strategy in (Strategy.NAIVE, Strategy.LAZY_NFQ, Strategy.LAZY_NFQ_TYPED):
        outcome, bus = evaluate(strategy)
        print(f"--- {strategy.value} ---")
        print(f"  calls invoked : {outcome.metrics.calls_invoked}")
        print(f"  per service   : {bus.log.calls_by_service()}")
        print(f"  bytes moved   : {outcome.metrics.total_bytes}")
        print(f"  simulated time: {outcome.metrics.simulated_sequential_s:.2f}s "
              f"(parallel rounds: {outcome.metrics.simulated_parallel_s:.2f}s)")
        print("  five-star restaurants near five-star Best Westerns:")
        for name, address in sorted(outcome.value_rows()):
            print(f"    - {name} @ {address}")
        print()

    print(
        "Same answers; the lazy evaluator skipped every call under the\n"
        "hotels that cannot match, and the typed one also skipped the\n"
        "museum services whose output type cannot produce restaurants."
    )

    rows = compare_strategies(
        [
            EngineConfig(strategy=Strategy.NAIVE),
            EngineConfig(strategy=Strategy.TOP_DOWN),
            EngineConfig(strategy=Strategy.LAZY_LPQ),
            EngineConfig(strategy=Strategy.LAZY_NFQ),
            EngineConfig(strategy=Strategy.LAZY_NFQ_TYPED),
        ],
        query,
        document_factory=figure_1_document,
        bus_factory=lambda: ServiceBus(figure_1_registry()),
        schema=figure_1_schema(),
    )
    print()
    print(format_comparison(rows, title="all strategies, side by side"))

    # Where did the time go?  Attach a trace sink and print the
    # per-phase breakdown (wall clock and simulated service clock).
    sink = InMemorySink()
    evaluate(Strategy.LAZY_NFQ, trace=sink)
    print()
    print(format_trace_profile(sink, title="lazy-nfq phase profile"))


if __name__ == "__main__":
    main()
