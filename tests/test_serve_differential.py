"""Differential harness for the serving layer.

The :class:`~repro.serve.QueryServer` exists to make many standing
queries cheap — shared cross-tenant relevance passes, maintained-answer
serves, admission control — but none of that machinery may be
*observable* in the answers.  The oracle here is the obvious
unoptimized deployment: N independent
:class:`~repro.lazy.continuous.ContinuousQuery` loops over one shared
engine, refreshed in registration order.  A server hosting the same N
subscriptions over a twin document, driven by :meth:`run_round`, must
produce — per subscriber, per round —

* identical value rows, and
* an identical cumulative invocation log (service, call site, fault,
  in order): the batching may only *avoid* engine runs that would have
  invoked nothing, never change or reorder the ones that invoke.

The oracle's engines also re-match the whole document on every
relevance retrieval (``full_relevance()``), so the server's per-scope
quiet map and its refresh engines' per-scope stores are both held to
the unmaintained reference.

Workloads are random synthetic worlds mutated by random splice
sequences, replayed structurally on both twins (the same machinery as
``test_differential``).
"""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import Activation
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.serve import QueryServer, RefreshStatus
from repro.services.catalog import FlakyService, TableService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.synthetic import SyntheticWorld

from .references import full_relevance

# Engine axes under test: the serving preset (fast path armed), the
# same strategy without maintenance (every refresh runs the engine),
# the LPQ strategy (a different relevance-family shape), and BINDINGS
# pushing (replies spliced as witness forests, so its subscriptions are
# fast-capable like any other).
AXES = {
    "serving": lambda: EngineConfig.serving(strategy=Strategy.LAZY_NFQ),
    "no-maintenance": lambda: EngineConfig(strategy=Strategy.LAZY_NFQ),
    "serving-lpq": lambda: EngineConfig.serving(strategy=Strategy.LAZY_LPQ),
    "serving-bindings": lambda: EngineConfig.serving(
        strategy=Strategy.LAZY_NFQ, push_mode="bindings"
    ),
}


def _spot_path(rng: random.Random, document) -> list[int]:
    """A structural (child-index) path to a random element node."""
    node, path = document.root, []
    while True:
        elements = [
            (i, c) for i, c in enumerate(node.children) if c.is_element
        ]
        if not elements or rng.random() < 0.5:
            return path
        index, node = rng.choice(elements)
        path.append(index)


def _node_at(document, path: list[int]):
    node = document.root
    for index in path:
        node = node.children[index]
    return node


def _apply_mutation(world, rng_seed: str, step: int, documents) -> None:
    """One random splice, replayed structurally on every document."""
    rng = random.Random(f"{rng_seed}|{step}")
    kind = rng.choice(("insert", "insert", "insert-call", "remove"))
    path = _spot_path(rng, documents[0])
    if kind == "remove" and path:
        for document in documents:
            document.remove_subtree(_node_at(document, path))
        return
    if kind == "insert-call":
        name = rng.choice(world.service_names)
        key = f"1:mut-{step}-{rng.randint(0, 9999)}"
        subtree = C(name, V(key))
    else:
        subtree = world._random_tree(
            rng, depth=2, call_budget=1, salt=f"mut-{step}"
        )
    for document in documents:
        document.insert_subtree(_node_at(document, path), subtree.clone())


def _log(bus: ServiceBus):
    return [
        (r.service_name, r.call_node_id, r.fault) for r in bus.log.records
    ]


@given(
    world_seed=st.integers(min_value=0, max_value=2_000),
    doc_seed=st.integers(min_value=0, max_value=20),
    mutation_seed=st.integers(min_value=0, max_value=300),
    n_subs=st.integers(min_value=2, max_value=3),
    n_rounds=st.integers(min_value=1, max_value=3),
    axis=st.sampled_from(sorted(AXES)),
)
def test_server_rounds_match_independent_refresh_loops(
    world_seed, doc_seed, mutation_seed, n_subs, n_rounds, axis
):
    """One QueryServer round == N independent refreshes, exactly."""
    world = SyntheticWorld(seed=world_seed)
    probe = world.make_document(doc_seed)
    queries = [
        world.sample_query(probe, doc_seed + i) for i in range(n_subs)
    ]

    # The oracle: independent standing queries on one shared engine,
    # refreshed in registration order — the deployment the server
    # replaces.
    oracle_bus = ServiceBus(world.registry())
    oracle_engine = LazyQueryEvaluator(oracle_bus, config=AXES[axis]())
    oracle_doc = world.make_document(doc_seed)
    with full_relevance():
        loops = [
            ContinuousQuery(oracle_engine, query, oracle_doc)
            for query in queries
        ]

    # The system under test: the same subscriptions, same order, over a
    # twin document on a twin bus.
    server_bus = ServiceBus(world.registry())
    server = QueryServer(server_bus, config=AXES[axis]())
    server_doc = world.make_document(doc_seed)
    subs = [
        server.subscribe(query, server_doc, name=f"sub-{i}")
        for i, query in enumerate(queries)
    ]

    # Eager construction must already agree call for call.
    assert _log(oracle_bus) == _log(server_bus)

    seed_text = f"{world_seed}|{doc_seed}|{mutation_seed}"
    for rnd in range(n_rounds):
        _apply_mutation(
            world, seed_text, rnd, (oracle_doc, server_doc)
        )
        with full_relevance():
            expected = [set(loop.refresh().value_rows()) for loop in loops]
        server.run_round()
        assert [set(sub.rows) for sub in subs] == expected, (axis, rnd)
        assert _log(oracle_bus) == _log(server_bus), (axis, rnd)

    for loop in loops:
        loop.close()
    server.close()


@given(
    world_seed=st.integers(min_value=0, max_value=2_000),
    doc_seed=st.integers(min_value=0, max_value=20),
    mutation_seed=st.integers(min_value=0, max_value=300),
    n_rounds=st.integers(min_value=1, max_value=3),
)
def test_on_demand_refresh_matches_loops(
    world_seed, doc_seed, mutation_seed, n_rounds
):
    """Subscription.refresh() (no round) is just as invisible."""
    world = SyntheticWorld(seed=world_seed)
    probe = world.make_document(doc_seed)
    query = world.sample_query(probe, doc_seed)

    oracle_bus = ServiceBus(world.registry())
    oracle_engine = LazyQueryEvaluator(
        oracle_bus, config=EngineConfig.serving()
    )
    oracle_doc = world.make_document(doc_seed)
    with full_relevance():
        loop = ContinuousQuery(oracle_engine, query, oracle_doc)

    server_bus = ServiceBus(world.registry())
    server = QueryServer(server_bus, config=EngineConfig.serving())
    server_doc = world.make_document(doc_seed)
    sub = server.subscribe(query, server_doc)

    seed_text = f"{world_seed}|{doc_seed}|{mutation_seed}"
    for rnd in range(n_rounds):
        _apply_mutation(world, seed_text, rnd, (oracle_doc, server_doc))
        with full_relevance():
            expected = set(loop.refresh().value_rows())
        outcome = sub.refresh()
        assert outcome.served
        assert set(sub.rows) == expected, rnd
        assert _log(oracle_bus) == _log(server_bus), rnd
    loop.close()
    server.close()


# ---------------------------------------------------------------------------
# NAIVE: no arena — the quiet verdict reads calls off the document
# ---------------------------------------------------------------------------


def _naive_world():
    registry = ServiceRegistry(
        [
            TableService("restos", {"k": [E("resto", V("Nobu"))]}, default=[]),
            FlakyService(TableService("down", {}, default=[]), fault_rate=1.0),
        ]
    )
    document = build_document(
        E(
            "hotels",
            E("hotel", E("name", V("Ritz")), E("nearby", C("restos", V("k")))),
            E("hotel", E("name", V("Savoy")), E("nearby")),
        )
    )
    return ServiceBus(registry), document


def test_naive_server_matches_loops_through_insert_freeze_remove():
    """A ``NAIVE`` server's quiet verdict ("any live call?") is read off
    the document's arena, which it keeps an exact mirror.  Through a
    call insert, a fault that freezes a call, quiet data, the frozen
    call's removal and another call insert, it serves the rows and the
    invocation order of independent refresh loops."""
    config = EngineConfig.serving(strategy=Strategy.NAIVE)
    queries = [
        parse_pattern("/hotels/hotel/nearby/resto/$R"),
        parse_pattern("/hotels/hotel/name/$N"),
    ]
    oracle_bus, oracle_doc = _naive_world()
    oracle_engine = LazyQueryEvaluator(oracle_bus, config=config)
    loops = [ContinuousQuery(oracle_engine, q, oracle_doc) for q in queries]
    server_bus, server_doc = _naive_world()
    server = QueryServer(server_bus, config=config)
    subs = [server.subscribe(q, server_doc) for q in queries]
    assert _log(oracle_bus) == _log(server_bus)

    # What each round inserts under the second hotel's ``nearby`` —
    # ``None`` removes the frozen call instead — and how the round
    # must serve the first subscriber.
    trace = [
        (C("restos", V("k")), RefreshStatus.EVALUATED),
        (C("down", V("x")), RefreshStatus.EVALUATED),
        # Only a frozen call is left: quiet, served without the engine.
        (E("resto", V("Katz")), RefreshStatus.MAINTAINED),
        (None, None),
        (C("restos", V("k")), RefreshStatus.EVALUATED),
    ]
    for step, (subtree, status) in enumerate(trace):
        for document in (oracle_doc, server_doc):
            if subtree is not None:
                nearby = document.root.children[1].children[1]
                document.insert_subtree(nearby, subtree.clone())
                continue
            (frozen,) = [
                c
                for c in document.function_nodes()
                if c.activation is Activation.FROZEN
            ]
            document.remove_subtree(frozen)
        expected = [set(loop.refresh().value_rows()) for loop in loops]
        report = server.run_round()
        assert [set(sub.rows) for sub in subs] == expected, step
        assert _log(oracle_bus) == _log(server_bus), step
        if status is not None:
            assert report.outcomes[0].status is status, step
    assert subs[0].rows == {("Nobu",), ("Katz",)}
    assert any(fault for _, _, fault in _log(server_bus))
    assert server_doc.arena.consistency_errors() == []
    assert oracle_doc.arena.consistency_errors() == []
    for loop in loops:
        loop.close()
    server.close()


# ---------------------------------------------------------------------------
# Non-lockstep load: the factory's bursty multi-tenant arrival trace
# ---------------------------------------------------------------------------

from repro.workloads.factory import fuzz_spec, generate  # noqa: E402


@given(seed=st.integers(min_value=0, max_value=2_000))
def test_bursty_arrival_trace_matches_loops(seed):
    """Serving under non-lockstep load: only the documents named by the
    factory's jittered/bursty arrival trace move each round (sometimes
    none, sometimes all), so most rounds leave some subscriptions
    untouched.  Per round: untouched subscriptions keep their rows,
    served ones match the independent-loop oracle, and the cumulative
    invocation logs stay identical."""
    gen = generate(fuzz_spec("bursty-tenants", seed))
    spec = gen.spec
    config = EngineConfig.serving(strategy=Strategy.LAZY_NFQ)

    oracle_bus = gen.make_bus()
    oracle_engine = LazyQueryEvaluator(oracle_bus, config=config)
    oracle_docs = [gen.make_document(i) for i in range(spec.n_documents)]
    server_bus = gen.make_bus()
    server = QueryServer(server_bus, config=config)
    server_docs = [gen.make_document(i) for i in range(spec.n_documents)]

    loops = []
    subs = []
    for i in range(spec.n_queries):
        query = gen.query_for(i)
        doc = gen.document_for_query(i)
        with full_relevance():
            loops.append(
                (doc, ContinuousQuery(oracle_engine, query, oracle_docs[doc]))
            )
        subs.append(
            server.subscribe(
                gen.query_for(i),
                server_docs[doc],
                tenant=gen.tenant_for(i),
                name=f"sub-{i}",
            )
        )
    # Eager construction must already agree call for call.
    assert _log(oracle_bus) == _log(server_bus)

    for rnd, due_docs in enumerate(gen.arrival_trace()):
        for doc in due_docs:
            gen.apply_mutation(
                f"round{rnd}|doc{doc}",
                (oracle_docs[doc], server_docs[doc]),
            )
        # The oracle refreshes exactly the loops whose document moved,
        # in registration order — the server must discover the same due
        # set on its own (via document versions).
        with full_relevance():
            for doc, loop in loops:
                if doc in due_docs:
                    loop.refresh()
        server.run_round()
        expected = [set(loop.peek().value_rows()) for _, loop in loops]
        assert [set(sub.rows) for sub in subs] == expected, rnd
        assert _log(oracle_bus) == _log(server_bus), rnd

    for _, loop in loops:
        loop.close()
    server.close()
