#!/usr/bin/env python3
"""A tour of the relevance machinery's internals.

Walks through what the engine does under the hood on the paper's
example: the LPQ family (Section 3.1), the NFQs (Figure 5), the
may-influence relation and layers (Section 4), the F-guide (Section 6.2)
and a step-by-step relevant rewriting.

Run:  python examples/fguide_tour.py
"""

from repro import (
    FGuide,
    InvocationPolicy,
    RetryPolicy,
    ServiceBus,
    ServiceCall,
)
from repro.lazy.influence import InfluenceAnalyzer
from repro.lazy.layers import compute_layers
from repro.lazy.relevance import build_nfqs, linear_path_queries
from repro.pattern.match import Matcher
from repro.workloads import (
    figure_1_document,
    figure_1_registry,
    paper_query,
)


def main() -> None:
    query = paper_query()
    document = figure_1_document()

    print(f"Query: {query.to_string()}\n")

    print("1. Linear path queries (Section 3.1):")
    for rq in linear_path_queries(query, dedupe=False):
        print(f"   {rq.pattern.to_string()}")

    nfqs = build_nfqs(query)
    print("\n2. Node-focused queries (Figure 5), after de-duplication:")
    for rq in nfqs:
        print(f"   [{rq.target.render()}] {rq.pattern.to_string()}")

    analyzer = InfluenceAnalyzer(nfqs)
    layers = compute_layers(nfqs, analyzer)
    print("\n3. May-influence layers (Sections 4.2-4.3):")
    targets = {n.uid: n for n in query.nodes()}
    for layer in layers:
        members = ", ".join(
            targets[rq.target_uid].render() for rq in layer.queries
        )
        parallel = "parallel" if layer.fully_parallel else "sequential"
        print(f"   layer {layer.index}: {{{members}}} ({parallel})")

    guide = FGuide(document)
    print(f"\n4. F-guide (Section 6.2): {guide.size()} trie nodes summarise "
          f"{guide.call_count()} calls:")
    for path in guide.paths():
        print(f"   /{'/'.join(path)}")

    print("\n5. A relevant rewriting, one invocation at a time:")
    bus = ServiceBus(figure_1_registry())
    step = 1
    while True:
        relevant = {}
        for rq in nfqs:
            for node in Matcher(rq.pattern).evaluate(document).distinct_nodes():
                relevant[node.node_id] = node
        if not relevant:
            break
        call = relevant[min(relevant)]
        outcome = bus.invoke(
            ServiceCall(
                service=call.label,
                parameters=call.children,
                call_node_id=call.node_id,
            ),
            policy=InvocationPolicy(retry=RetryPolicy(max_attempts=1)),
        )
        reply, record = outcome.reply, outcome.record
        document.replace_call(call, reply.forest)
        print(
            f"   step {step}: invoked {call.label} "
            f"({len(relevant)} relevant calls pending, "
            f"{record.response_bytes}B returned)"
        )
        step += 1

    print("\n6. The document is now complete for the query; its snapshot")
    print("   result is the full result:")
    for row in Matcher(query).evaluate(document):
        name, address = row.values()
        print(f"   - {name} @ {address}")
    guide.detach()


if __name__ == "__main__":
    main()
