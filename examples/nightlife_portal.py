#!/usr/bin/env python3
"""The introduction's night-life portal.

"Consider a Web site about your city's night-life ... containing
information about, say, movies and restaurants."  The query asks for the
schedule of *The Hours*; the document's restaurants section is fed by
service calls (a restaurant list whose entries each embed a getMenu
call) that a lazy evaluator must never touch — "there is no point in
invoking any calls found below the path /goingout/restaurants".

Run:  python examples/nightlife_portal.py
"""

from repro import EngineConfig, LazyQueryEvaluator, Strategy
from repro.workloads import NightlifeParams, build_nightlife_workload


def main() -> None:
    workload = build_nightlife_workload(
        NightlifeParams(n_theaters=8, n_restaurants=40, seed=7)
    )
    print(f"Workload: {workload.name}")
    print(f"Query   : {workload.query.to_string()}")
    print()

    for config in (
        EngineConfig(strategy=Strategy.NAIVE),
        EngineConfig(strategy=Strategy.LAZY_NFQ),
        EngineConfig(strategy=Strategy.LAZY_NFQ, typing="lenient"),
    ):
        bus = workload.make_bus()
        engine = LazyQueryEvaluator(bus, schema=workload.schema, config=config)
        outcome = engine.evaluate(workload.query, workload.make_document())
        services = bus.log.calls_by_service()
        print(f"--- {config.label} ---")
        print(f"  services invoked: {services}")
        touched_restaurants = any(
            name in services for name in ("getRestaurantList", "getMenu")
        )
        print(f"  touched the restaurants section: {touched_restaurants}")
        schedules = sorted(
            child.label
            for row in outcome.rows
            for child in row.nodes[0].children
        )
        print(f"  schedules found: {len(schedules)}")
        for schedule in schedules:
            print(f"    - {schedule}")
        print()

    print(
        "The lazy evaluators answered from the movies section alone;\n"
        "with signatures, even the theaters' getReviews calls (which\n"
        "positionally *could* have returned shows) are pruned."
    )


if __name__ == "__main__":
    main()
