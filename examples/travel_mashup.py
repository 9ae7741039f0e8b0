#!/usr/bin/env python3
"""A mediator-style travel mash-up with query pushing.

A travel portal aggregates hotel data that arrives *entirely* through
services (the document starts with a single getHotels call), including
nested calls several levels deep.  The scenario exercises:

* dynamic nesting — call results bring new calls (Figure 3's pattern);
* query pushing (Section 7) — the engine ships the restaurant subquery
  with each getNearbyRestos invocation, so only five-star restaurants'
  name/address bindings travel back instead of whole restaurant lists.

Run:  python examples/travel_mashup.py
"""

from repro import (
    C,
    E,
    EngineConfig,
    LazyQueryEvaluator,
    PushMode,
    ServiceBus,
    Strategy,
    V,
    build_document,
)
from repro.workloads import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)


def make_intensional_workload():
    """The hotels workload, but the document is a single call."""
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=0,
            extra_hotels_via_service=25,
            target_name_fraction=0.4,
            intensional_restos_fraction=1.0,
            restaurants_per_hotel=12,
            five_star_fraction=0.25,
            seed=2024,
        )
    )


def main() -> None:
    workload = make_intensional_workload()
    query = paper_query()
    print("Document: <hotels> with a single embedded getHotels call —")
    print("          every hotel arrives intensionally.")
    print(f"Query   : {query.to_string()}")
    print()

    results = {}
    for push_mode in (PushMode.NONE, PushMode.FILTERED, PushMode.BINDINGS):
        bus = workload.make_bus()
        engine = LazyQueryEvaluator(
            bus,
            schema=workload.schema,
            config=EngineConfig(
                strategy=Strategy.LAZY_NFQ_TYPED, push_mode=push_mode
            ),
        )
        outcome = engine.evaluate(query, workload.make_document())
        results[push_mode] = outcome.value_rows()
        pushed = sum(1 for r in bus.log.records if r.push_mode != "none")
        print(f"--- push mode: {push_mode.value} ---")
        print(f"  calls invoked       : {outcome.metrics.calls_invoked}")
        print(f"  invocations pushed  : {pushed}")
        print(f"  bytes received      : {outcome.metrics.bytes_received}")
        print(f"  result rows         : {len(outcome.rows)}")
        if push_mode is PushMode.BINDINGS:
            as_tuples = sum(1 for r in bus.log.records if r.returned_bindings)
            print(f"  replies as bindings : {as_tuples}")
        print()

    assert results[PushMode.NONE] == results[PushMode.FILTERED]
    assert results[PushMode.NONE] == results[PushMode.BINDINGS]
    sample = sorted(results[PushMode.BINDINGS])[:5]
    print("Answers agree across push modes.  A few of them:")
    for name, address in sample:
        print(f"  - {name} @ {address}")


if __name__ == "__main__":
    main()
