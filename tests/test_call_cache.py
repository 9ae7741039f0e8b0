"""Call-result memoization: keys, TTL, invalidation, engine wiring.

The cache treats a service as a function of its request — service
name, argument forest, and the pushed-subquery shape.  Everything here
guards the two ways that assumption can go wrong in practice: stale
replies after the world changes (TTL + invalidation) and shared trees
between the cache and live documents (clone-in/clone-out).
"""

from __future__ import annotations

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import call as call_node
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.obs.trace import (
    EVENT_CACHE_HIT,
    INVOCATION,
    InMemorySink,
    tracer_for,
)
from repro.pattern.parse import parse_pattern
from repro.services.catalog import (
    FlakyService,
    SequenceService,
    StaticService,
)
from repro.services.registry import ServiceBus, ServiceCall, ServiceRegistry
from repro.services.resilience import InvocationPolicy, RetryPolicy
from repro.services import scheduler
from repro.services.scheduler import CallCache, cache_key
from repro.workloads.chains import build_chain_workload

from .test_scheduler import invoke_batch

# ------------------------------------------------------------------- the key


def test_cache_key_depends_on_service_and_arguments():
    a = ServiceCall(service="s", parameters=[V("x")])
    same = ServiceCall(service="s", parameters=[V("x")], call_node_id=99)
    other_arg = ServiceCall(service="s", parameters=[V("y")])
    other_svc = ServiceCall(service="t", parameters=[V("x")])
    assert cache_key(a) == cache_key(same)  # node identity is irrelevant
    assert cache_key(a) != cache_key(other_arg)
    assert cache_key(a) != cache_key(other_svc)


def test_cache_key_sees_tree_arguments_and_pushed_queries():
    tree = ServiceCall(service="s", parameters=[E("arg", V("x"))])
    value = ServiceCall(service="s", parameters=[V("x")])
    assert cache_key(tree) != cache_key(value)
    pushed = parse_pattern("/a/$B", name="sub")
    with_push = ServiceCall(service="s", parameters=[V("x")], pushed=pushed)
    assert cache_key(with_push) != cache_key(value)


# --------------------------------------------------------- the cache proper


def reply_of(bus, service="s"):
    return bus.invoke(ServiceCall(service=service)).reply


def static_bus(**kwargs):
    return ServiceBus(
        ServiceRegistry([StaticService("s", [E("item", V("1"))])]), **kwargs
    )


def test_ttl_expires_on_the_simulated_clock():
    cache = CallCache(ttl_s=10.0)
    reply = reply_of(static_bus())
    cache.store("k", reply, now_s=0.0)
    assert cache.lookup("k", now_s=5.0) is not None
    assert cache.lookup("k", now_s=10.5) is None  # expired
    assert cache.lookup("k", now_s=5.0) is None  # expiry evicted it
    assert cache.hits == 1 and cache.misses == 2


def test_invalidate_all_and_per_service():
    cache = CallCache()
    reply = reply_of(static_bus())
    cache.store("alpha|d1", reply, 0.0)
    cache.store("alpha|d2", reply, 0.0)
    cache.store("beta|d1", reply, 0.0)
    assert cache.invalidate("alpha") == 2
    assert cache.lookup("beta|d1", 0.0) is not None
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_bounded_cache_evicts_the_stalest_entry(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_ENTRIES", 2)
    cache = CallCache()
    reply = reply_of(static_bus())
    cache.store("a", reply, 0.0)
    cache.store("b", reply, 1.0)
    cache.store("c", reply, 2.0)  # evicts "a"
    assert len(cache) == 2
    assert cache.lookup("a", 3.0) is None
    assert cache.lookup("b", 3.0) is not None


def test_a_restore_makes_its_key_the_last_evicted(monkeypatch):
    """A re-stored key is the most recently stored: the next store at
    capacity evicts the other one, and a lookup moves nothing."""
    monkeypatch.setattr(scheduler, "MAX_ENTRIES", 2)
    cache = CallCache()
    reply = reply_of(static_bus())
    cache.store("a", reply, 0.0)
    cache.store("b", reply, 1.0)
    cache.store("a", reply, 2.0)  # "a" is now the last to go
    assert cache.lookup("b", 2.0) is not None
    cache.store("c", reply, 3.0)  # evicts "b"
    assert cache.lookup("b", 3.0) is None
    assert cache.lookup("a", 3.0) is not None
    cache.store("d", reply, 4.0)  # then "a"
    assert cache.lookup("a", 4.0) is None
    assert len(cache) == 2


def test_hits_are_clones_not_shared_trees():
    cache = CallCache()
    reply = reply_of(static_bus())
    cache.store("k", reply, 0.0)
    first = cache.lookup("k", 0.0)
    # Mutating a hit (as document splicing does) must not leak back.
    first.forest[0].children.clear()
    second = cache.lookup("k", 0.0)
    assert second.forest[0].children, "cache entry was corrupted by a hit"
    assert second.forest is not reply.forest


# ------------------------------------------------------------- bus wiring


def test_bus_cache_hit_is_free_and_traced():
    bus = static_bus(cache=CallCache())
    sink = InMemorySink()
    tracer = tracer_for(sink, sim_clock=lambda: bus.clock_s)
    call = ServiceCall(service="s")
    miss = bus.invoke(call)
    clock_after_miss = bus.clock_s
    with tracer.span("caller"):
        hit = bus.invoke(call, trace=tracer)
    assert miss.succeeded and hit.succeeded
    assert hit.cache_hit and not miss.cache_hit
    assert bus.clock_s == clock_after_miss  # a hit costs no simulated time
    assert bus.log.call_count == 1  # and no invocation-log entry
    assert [n.label for n in hit.reply.forest] == ["item"]
    # The bus opens the ``invocation`` span of every call, so the hit
    # is an event of that span, not of whatever span the caller had open.
    (root,) = sink.roots
    (invocation,) = root.children
    assert root.event_names() == []
    assert invocation.name == INVOCATION
    assert invocation.event_names() == [EVENT_CACHE_HIT]


def test_nondeterministic_service_is_pinned_by_the_cache():
    # The paper notes two calls to the same service may differ (a stock
    # ticker); memoization deliberately pins the first answer until
    # TTL/invalidation — that is the documented trade-off.
    seq = SequenceService("tick", [[V("1")], [V("2")]])
    bus = ServiceBus(ServiceRegistry([seq]), cache=CallCache())
    first = bus.invoke(ServiceCall(service="tick"))
    second = bus.invoke(ServiceCall(service="tick"))
    assert first.reply.forest[0].label == "1"
    assert second.reply.forest[0].label == "1"  # pinned, not "2"
    assert bus.invalidate_cache("tick") == 1
    third = bus.invoke(ServiceCall(service="tick"))
    assert third.reply.forest[0].label == "2"


def test_batch_coalesces_duplicates_into_one_execution():
    bus = static_bus(cache=CallCache())
    calls = [ServiceCall(service="s") for _ in range(4)]
    outcomes = invoke_batch(bus, calls, max_concurrency=4).outcomes
    assert all(o.succeeded for o in outcomes)
    assert bus.log.call_count == 1  # one live execution
    assert sum(o.cache_hit for o in outcomes) == 3  # coalesced duplicates
    assert bus.cache.stores == 1


@pytest.mark.parametrize("width", [1, 4, None])
def test_one_lookup_per_submitted_call_at_every_width(width):
    # Regression: the batch path counted every coalesced duplicate as a
    # miss up front and as a hit on replay (hits 4 / misses 5 at width 4).
    bus = static_bus(cache=CallCache())
    invoke_batch(bus, [ServiceCall(service="s")] * 5, max_concurrency=width)
    cache = bus.cache
    assert (cache.hits, cache.misses, cache.stores) == (4, 1, 1)


@pytest.mark.parametrize("width", [1, 2, 4, None])
@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
def test_lookups_equal_calls_submitted_across_fault_and_width(rate, width):
    services = [
        FlakyService(
            StaticService(name, [E("item", V(name))]), fault_rate=rate, seed=11
        )
        for name in ("s", "t")
    ]
    bus = ServiceBus(ServiceRegistry(services), cache=CallCache())
    calls = [ServiceCall(service=name) for name in "sstsstts"]
    outcomes = []
    for _ in range(3):  # later rounds meet what earlier ones stored
        outcomes += invoke_batch(
            bus,
            calls,
            policy=InvocationPolicy(retry=RetryPolicy(max_attempts=1)),
            max_concurrency=width,
        ).outcomes
    cache = bus.cache
    assert cache.hits + cache.misses == len(outcomes) == 24
    assert cache.hits == sum(o.cache_hit for o in outcomes)
    assert cache.stores == sum(
        o.succeeded and not o.cache_hit for o in outcomes
    )


# ---------------------------------------------------------- engine wiring


def test_engine_config_attaches_cache_and_counts_hits():
    workload = build_chain_workload(depth=3, width=6, distinct_keys=2)
    bus = ServiceBus(workload.registry)
    config = EngineConfig(strategy=Strategy.LAZY_NFQ, call_cache=60.0)
    engine = LazyQueryEvaluator(bus, schema=workload.schema, config=config)
    outcome = engine.evaluate(workload.query, workload.make_document())
    assert bus.cache is not None and bus.cache.ttl_s == 60.0
    # 6 branches over 2 distinct keys: ~2/3 of the work is memoized.
    assert outcome.metrics.cache_hits > 0
    assert bus.cache.hits == outcome.metrics.cache_hits


@pytest.mark.parametrize("shared", ["bus-built", "earlier-evaluator"])
def test_an_expiry_the_bus_cache_does_not_have_is_refused(shared):
    """A numeric ``call_cache`` is obeyed or refused, never ignored:
    a bus already carrying a cache of another expiry cannot honour it.
    ``True`` still means "the bus's cache", whatever its expiry."""
    workload = build_chain_workload(depth=3, width=6, distinct_keys=2)
    if shared == "bus-built":
        bus = ServiceBus(workload.registry, cache=CallCache())
    else:
        bus = ServiceBus(workload.registry)
        LazyQueryEvaluator(
            bus, schema=workload.schema, config=EngineConfig(call_cache=True)
        ).evaluate(workload.query, workload.make_document())
    assert bus.cache.ttl_s is None

    def evaluate(call_cache):
        engine = LazyQueryEvaluator(
            bus,
            schema=workload.schema,
            config=EngineConfig(call_cache=call_cache),
        )
        return engine.evaluate(workload.query, workload.make_document())

    with pytest.raises(ValueError, match="call_cache"):
        evaluate(5.0)
    assert evaluate(True).metrics.cache_hits > 0
    assert bus.cache.ttl_s is None


def test_a_matching_expiry_shares_the_bus_cache():
    workload = build_chain_workload(depth=3, width=6, distinct_keys=2)
    cache = CallCache(ttl_s=5.0)
    bus = ServiceBus(workload.registry, cache=cache)
    engine = LazyQueryEvaluator(
        bus, schema=workload.schema, config=EngineConfig(call_cache=5)
    )
    outcome = engine.evaluate(workload.query, workload.make_document())
    assert bus.cache is cache
    assert outcome.metrics.cache_hits == cache.hits > 0


def test_continuous_query_invalidates_cache_on_stale_refresh():
    seq = SequenceService("feed", [[E("v", V("old"))], [E("v", V("new"))]])
    bus = ServiceBus(ServiceRegistry([seq]), cache=CallCache())
    document = build_document(
        E("root", C("feed")), name="feed-doc"
    )
    engine = LazyQueryEvaluator(
        bus, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    query = parse_pattern("/root/v/$X", name="feed-query")
    standing = ContinuousQuery(engine, query, document)
    assert standing.value_rows() == {("old",)}
    # Mutate the document out from under the standing query: the next
    # refresh must drop memoized replies before re-evaluating.
    document.insert_subtree(document.root, call_node("feed"))
    before = bus.cache.invalidations
    standing.refresh()
    assert bus.cache.invalidations > before
    assert standing.value_rows() == {("old",), ("new",)}
