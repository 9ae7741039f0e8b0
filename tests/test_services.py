"""Unit tests for services: reply protocols, catalog, accounting."""

import pytest

from repro.axml.builder import C, E, V
from repro.pattern.nodes import EdgeKind
from repro.pattern.parse import parse_pattern
from repro.services.catalog import (
    EmptyService,
    FailingService,
    SequenceService,
    ServiceFault,
    StaticService,
    TableService,
    first_value,
    make_signature,
)
from repro.services.registry import (
    ServiceBus,
    ServiceCall,
    ServiceRegistry,
    UnknownServiceError,
)
from repro.services.service import CallableService, PushMode
from repro.services.simulation import NetworkModel


def restos_template():
    return [
        E("restaurant", E("name", V("good")), E("rating", V("5"))),
        E("restaurant", E("name", V("bad")), E("rating", V("2"))),
        E("restaurant", E("name", V("maybe")), E("rating", C("getRating", V("k")))),
    ]


def test_static_service_clones_template():
    svc = StaticService("s", [E("a", V("1"))])
    first = svc.produce([])
    second = svc.produce([])
    assert first[0] is not second[0]
    assert first[0].structurally_equal(second[0])
    assert svc.invocation_count == 0  # produce() alone does not count


def test_table_service_keys_on_first_value():
    svc = TableService("t", {"k1": [E("a")], "k2": [E("b")]}, default=[E("d")])
    assert svc.produce([V("k1")])[0].label == "a"
    assert svc.produce([E("wrap", V("k2"))])[0].label == "b"
    assert svc.produce([V("nope")])[0].label == "d"
    assert svc.produce([])[0].label == "d"


def test_first_value_scans_parameters():
    assert first_value([E("x"), E("y", V("deep"))]) == "deep"
    assert first_value([]) is None


def test_sequence_service_steps_then_repeats():
    svc = SequenceService("seq", [[E("a")], [E("b")]])
    assert svc.produce([])[0].label == "a"
    assert svc.produce([])[0].label == "b"
    assert svc.produce([])[0].label == "b"


def test_empty_and_callable_services():
    assert EmptyService("e").produce([]) == []
    svc = CallableService("c", lambda params: [V(str(len(params)))])
    assert svc.produce([E("x"), E("y")])[0].label == "2"


def test_invoke_counts_invocations():
    svc = StaticService("s", [])
    svc.invoke([])
    svc.invoke([])
    assert svc.invocation_count == 2


def test_failing_service_recovers():
    svc = FailingService("f", StaticService("inner", [E("ok")]), failures=2)
    with pytest.raises(ServiceFault):
        svc.produce([])
    with pytest.raises(ServiceFault):
        svc.produce([])
    assert svc.produce([])[0].label == "ok"


def test_plain_invoke_returns_full_forest():
    svc = StaticService("s", restos_template())
    reply = svc.invoke([])
    assert len(reply.forest) == 3
    assert reply.push_mode is PushMode.NONE
    assert not reply.is_bindings


def test_filtered_push_keeps_matches_and_intensional_trees():
    svc = StaticService("s", restos_template())
    pushed = parse_pattern('/restaurant[rating="5"][name=$X]')
    reply = svc.invoke([], pushed=pushed, push_mode=PushMode.FILTERED)
    names = []
    for tree in reply.forest:
        names.append(tree.children[0].children[0].label)
    # "good" matches; "maybe" has an embedded call (kept conservatively);
    # "bad" is provably useless and dropped.
    assert names == ["good", "maybe"]


def test_bindings_push_on_extensional_results():
    svc = StaticService("s", restos_template()[:2])  # drop intensional one
    pushed = parse_pattern('/restaurant[rating="5"][name=$X]')
    reply = svc.invoke([], pushed=pushed, push_mode=PushMode.BINDINGS)
    assert reply.is_bindings
    assert reply.forest == []
    assert [row.as_dict() for row in reply.bindings] == [{"X": "good"}]


def test_bindings_push_degrades_with_intensional_results():
    svc = StaticService("s", restos_template())
    pushed = parse_pattern('/restaurant[rating="5"][name=$X]')
    reply = svc.invoke([], pushed=pushed, push_mode=PushMode.BINDINGS)
    assert not reply.is_bindings
    assert reply.push_mode is PushMode.FILTERED


def test_push_respects_descendant_anchor():
    svc = StaticService("s", [E("wrap", E("hit", V("x")))])
    pushed = parse_pattern("/hit")
    child = svc.invoke([], pushed=pushed, push_mode=PushMode.FILTERED)
    assert child.forest == []
    deep = svc.invoke(
        [],
        pushed=pushed,
        push_mode=PushMode.FILTERED,
        anchor_edge=EdgeKind.DESCENDANT,
    )
    assert len(deep.forest) == 1


def test_push_capability_flag():
    svc = StaticService("s", restos_template(), supports_push=False)
    reply = svc.invoke(
        [], pushed=parse_pattern('/restaurant[rating="5"]'),
        push_mode=PushMode.FILTERED,
    )
    assert len(reply.forest) == 3  # ignored the push


def test_registry_resolution():
    registry = ServiceRegistry([StaticService("a", []), StaticService("b", [])])
    assert registry.knows("a")
    assert registry.names() == ["a", "b"]
    assert len(registry) == 2
    with pytest.raises(UnknownServiceError):
        registry.resolve("c")
    with pytest.raises(ValueError):
        registry.register(StaticService("a", []))


def test_registry_merges_signatures_into_schema():
    sig = make_signature("s", "data", "a*")
    registry = ServiceRegistry([StaticService("s", [], signature=sig)])
    schema = registry.schema_with_signatures()
    assert schema.signature("s").output_type == sig.output_type


def test_bus_accounts_bytes_and_time():
    svc = StaticService("s", [E("payload", V("x" * 100))], latency_s=0.5)
    bus = ServiceBus(ServiceRegistry([svc]), network=NetworkModel(per_kb_s=1.0))
    outcome = bus.invoke(
        ServiceCall(service="s", parameters=[V("key")], call_node_id=7)
    )
    reply, record = outcome.reply, outcome.record
    assert record.service_name == "s"
    assert record.call_node_id == 7
    assert record.request_bytes == 3
    assert record.response_bytes > 100
    assert record.simulated_time_s > 0.5
    assert bus.log.call_count == 1
    assert bus.log.total_bytes == record.request_bytes + record.response_bytes


def test_bus_counts_pushed_query_in_request_bytes():
    svc = StaticService("s", [])
    bus = ServiceBus(ServiceRegistry([svc]))
    plain = bus.invoke(ServiceCall(service="s", parameters=[V("k")])).record
    pushed = bus.invoke(
        ServiceCall(
            service="s",
            parameters=[V("k")],
            pushed=parse_pattern('/restaurant[rating="5"]'),
            push_mode=PushMode.FILTERED,
        )
    ).record
    assert pushed.request_bytes > plain.request_bytes
    assert pushed.pushed_query is not None


def test_bus_counts_new_calls_in_reply():
    svc = StaticService("s", [E("a", C("f"), C("g"))])
    bus = ServiceBus(ServiceRegistry([svc]))
    record = bus.invoke(ServiceCall(service="s")).record
    assert record.new_calls == 2


def test_new_invoke_rejects_stray_positionals():
    svc = StaticService("s", [E("a")])
    bus = ServiceBus(ServiceRegistry([svc]))
    with pytest.raises(TypeError):
        bus.invoke(ServiceCall(service="s"), [V("k")])


def test_log_aggregates():
    bus = ServiceBus(
        ServiceRegistry(
            [StaticService("a", [E("x", V("1"))]), StaticService("b", [])]
        )
    )
    records = [
        bus.invoke(ServiceCall(service=name, parameters=[V(key)])).record
        for name, key in (("a", "k1"), ("a", "key2"), ("b", "k3"))
    ]
    log = bus.log
    assert log.records == records
    assert [r.sequence for r in records] == [0, 1, 2]
    assert log.calls_by_service() == {"a": 2, "b": 1}
    assert log.total_request_bytes == sum(r.request_bytes for r in records)
    assert log.total_response_bytes == 2 * records[0].response_bytes > 0
    assert records[2].response_bytes == 0
    log.reset()
    assert log.call_count == 0
