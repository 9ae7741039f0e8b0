"""Call-level independence: the oracle of the definite-call round rule.

Section 4.4 lets relevant calls fire together when no order of firing
them can make one irrelevant (Definition 4).  Condition (*) establishes
that per *query*; the engine also establishes it per *call*: a call
retrieved by its NFQ with every function alternative stripped from the
condition branches has a witness embedding through data nodes only,
which no sibling's reply can take away (``docs/internals.md``,
"Definitely relevant calls").  These tests hold the rule to the
definition rather than to the argument:

* every batch the engine fires is replayed one call at a time, in
  other orders, on a twin document — each member must still be
  retrieved by one of the layer's NFQs when its turn comes;
* the definite set is a subset of the relevant set in every round;
* over the factory regimes, hotels and chains: rows equal the naive
  oracle, never more invocations than "just in case" rounds
  (``just_in_case()``), and the invoked calls of strictly sequential
  NFQA — except on the worlds in ``ORDER_EFFECTS``, listed call by call;
* the precondition: opaque parameters (a data node inside another
  call's parameters is no witness).
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.lazy.analysis import QueryAnalysis
from repro.lazy.config import EngineConfig, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator, _EvaluationState
from repro.obs.trace import RELEVANCE_CHECK, ROUND, InMemorySink
from repro.pattern.match import Matcher
from repro.pattern.parse import parse_pattern
from repro.schema.graphschema import LenientSatisfiability
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.chains import build_chain_workload
from repro.workloads.factory import REGIMES, fuzz_spec, generate
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)

from .references import just_in_case, object_walk

FACTORY = tuple(name for name in REGIMES if not name.startswith("large"))
FAULT_FREE = tuple(name for name in FACTORY if REGIMES[name].fault_plan == "none")
HOTEL_QUERIES = (
    None,  # the paper's query
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/name/$X',
    "/hotels/hotel/nearby/restaurant[rating=\"4\"]/name/$X",
)


@dataclasses.dataclass
class World:
    """One (query, document, services) triple; documents and buses are
    rebuilt per run, with identical node ids."""

    query: object
    make_document: object
    make_bus: object
    config: object = EngineConfig
    schema: object = None

    def run(self, **overrides):
        """``(outcome, [(service, call node id), ...])`` on fresh state."""
        bus = self.make_bus()
        engine = LazyQueryEvaluator(
            bus, schema=self.schema, config=self.config(**overrides)
        )
        outcome = engine.evaluate(self.query, self.make_document())
        return outcome, [
            (r.service_name, r.call_node_id) for r in bus.log.records
        ]


def world_of(source: str, seed: int, index: int) -> World:
    if source == "hotels":
        wl = build_hotels_workload(
            HotelsWorkloadParams(n_hotels=4 + seed % 5, seed=seed)
        )
        text = HOTEL_QUERIES[index % len(HOTEL_QUERIES)]
        query = paper_query() if text is None else parse_pattern(text)
        return World(query, wl.make_document, wl.make_bus, schema=wl.schema)
    if source == "chains":
        wl = build_chain_workload(depth=2 + seed % 4, width=1 + index)
        return World(wl.query, wl.make_document, wl.make_bus, schema=wl.schema)
    gen = generate(
        dataclasses.replace(fuzz_spec(source, seed), root_subtrees=(3, 5))
    )
    document = gen.document_for_query(index)
    return World(
        gen.query_for(index),
        lambda: gen.make_document(document),
        gen.make_bus,
        config=gen.engine_config,
    )


worlds = st.tuples(
    st.sampled_from((*FACTORY, "hotels", "chains")),
    st.integers(min_value=0, max_value=79),
    st.integers(min_value=0, max_value=2),
)

# -- spying on the decision point ---------------------------------------------------


@contextlib.contextmanager
def spied(on_choice=None, on_batch=None):
    """Run engines with every round decision / lazy batch shown to the
    callbacks, at the moment it is made."""
    choose, invoke = _EvaluationState._choose, _EvaluationState._invoke_round

    def choosing(state, layer, relevant):
        chosen, rule, definite = choose(state, layer, relevant)
        if on_choice is not None and relevant:
            on_choice(state, layer, relevant, chosen, rule, definite)
        return chosen, rule, definite

    def invoking(state, batch, layer_index=None):
        if on_batch is not None and layer_index is not None:
            on_batch(state, batch, layer_index)
        return invoke(state, batch, layer_index)

    with mock.patch.object(_EvaluationState, "_choose", choosing):
        with mock.patch.object(_EvaluationState, "_invoke_round", invoking):
            yield


def _replay_serialised(state, batch, layer_index, orders):
    """Definition 4 on twins: fire the batch one call at a time, in
    each of ``orders``; every member must still be retrieved by one of
    the layer's relevance queries when its turn comes."""
    if len(batch) < 2:
        return 0
    document = state.document
    slots = {
        id(node): slot for slot, node in enumerate(document.function_nodes())
    }
    members = [slots[id(call)] for call, _ in batch]
    layer = state.analysis.layers[layer_index]
    patterns = [q.pattern for q in state._layer_queries(layer)]
    registry = state.bus.registry
    for order in orders(members):
        twin = document.copy()
        calls = twin.function_nodes()
        for slot in order:
            call = calls[slot]
            retrieved = {
                id(row.nodes[0])
                for pattern in patterns
                for row in Matcher(pattern).evaluate(twin).rows
            }
            assert id(call) in retrieved, (
                f"{call.label} (slot {slot}) is no longer relevant when "
                f"fired in the order {order} of the batch {members}"
            )
            twin.replace_call(
                call, registry.resolve(call.label).produce(call.children)
            )
    return len(batch)


def _other_orders(members):
    rng = random.Random(len(members))
    shuffled = list(members)
    rng.shuffle(shuffled)
    return (list(reversed(members)), shuffled)


# -- (a) Definition 4, batch by batch ---------------------------------------------------


@given(
    source=st.sampled_from((*FAULT_FREE, "hotels", "chains")),
    seed=st.integers(min_value=0, max_value=79),
    index=st.integers(min_value=0, max_value=2),
)
def test_every_batch_member_is_relevant_under_every_serialisation(
    source, seed, index
):
    world = world_of(source, seed, index)

    def on_batch(state, batch, layer_index):
        _replay_serialised(state, batch, layer_index, _other_orders)

    with spied(on_batch=on_batch):
        world.run()


def test_the_replay_oracle_sees_wide_definite_batches_and_catches_a_wrong_one():
    """Non-vacuity, twice: the hotels run fires batches the oracle
    replays, and "just in case" batches — which are *not* exact — fail
    the same replay on the world built to waste a call."""
    replayed = []

    def on_batch(state, batch, layer_index):
        replayed.append(
            _replay_serialised(state, batch, layer_index, _other_orders)
        )

    rules = []
    with spied(
        on_choice=lambda *args: rules.append(args[4]), on_batch=on_batch
    ):
        world_of("hotels", 4, 0).run()
    assert max(replayed) > 2 and "definite" in rules

    # rating=getRating() returns 2: the restaurants call is relevant only
    # until its sibling answers — fired after it, it no longer is.
    document = build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("rating", C("getRating", V("a"))),
                E("nearby", C("getNearbyRestos", V("a"))),
            ),
        )
    )
    registry = ServiceRegistry(
        [
            StaticService("getRating", [V("2")]),
            StaticService("getNearbyRestos", [E("restaurant", E("name", V("r")))]),
        ]
    )
    query = parse_pattern(
        '/hotels/hotel[name="Best Western"][rating="5"]/nearby//restaurant/name/$X'
    )
    world = World(query, document.copy, lambda: ServiceBus(registry))
    caught = []

    def failing(state, batch, layer_index):
        try:
            _replay_serialised(state, batch, layer_index, lambda m: [m])
        except AssertionError as error:
            caught.append(str(error))

    with just_in_case(), spied(on_batch=failing):
        outcome, _ = world.run(use_layers=False)
    assert outcome.metrics.calls_invoked == 2 and len(caught) == 1
    assert "getNearbyRestos" in caught[0]
    # The exact rule fires the rating call alone and spares the other.
    outcome, log = world.run()
    assert [service for service, _ in log] == ["getRating"]


# -- (c) definite is a subset of relevant ------------------------------------------------


@given(world=worlds)
def test_definite_calls_are_relevant_calls_in_every_round(world):
    def on_choice(state, layer, relevant, chosen, rule, definite):
        assert chosen and chosen <= set(relevant)
        if definite is not None:
            assert definite <= set(relevant)
            assert rule == "definite" or definite <= chosen
        if rule == "single":
            assert chosen == {min(relevant)}

    with spied(on_choice=on_choice):
        world_of(*world).run()


# -- (b) against naive, "just in case" and strictly sequential NFQA ------------------------

ORDER_EFFECTS = {
    # Relevant rewritings are order-dependent (Section 4.1): firing a
    # definite call before a smaller-id sibling can make that sibling
    # irrelevant.  (source, seed, query) -> the calls only the sequential
    # order invokes, as (service, node id in the initial document or
    # ``None`` for a call that arrived in a reply); the default order
    # never invokes a call the sequential one spares.
    ("multi-root-standing", 13, 2): {("svc1", None)},
    ("multi-root-standing", 77, 1): {("svc2", 6)},
}


@given(world=worlds)
@example(world=("multi-root-standing", 13, 2))
@example(world=("multi-root-standing", 77, 1))
def test_rows_calls_and_invoked_sets_against_the_other_orders(world):
    made = world_of(*world)
    default, default_log = made.run()
    with object_walk():
        naive, _ = made.run(strategy=Strategy.NAIVE, push_mode="none")
    assert default.value_rows() == naive.value_rows()
    with just_in_case():
        bet, _ = made.run(use_layers=False)
    assert default.metrics.calls_invoked <= bet.metrics.calls_invoked
    assert default.metrics.invocation_rounds >= bet.metrics.invocation_rounds
    sequential, sequential_log = made.run(parallel=False)
    assert default.metrics.invocation_rounds <= (
        sequential.metrics.invocation_rounds
    )
    # Initial calls keep their ids across orders; calls that arrive in
    # replies are numbered in splice order, so compare them by service.
    initial = {n.node_id for n in made.make_document().function_nodes()}

    def invoked(log):
        return Counter(
            (service, node_id if node_id in initial else None)
            for service, node_id in set(log)  # a retried call, once
        )

    only_default = invoked(default_log) - invoked(sequential_log)
    only_sequential = invoked(sequential_log) - invoked(default_log)
    assert not only_default, f"only the default order invokes {only_default}"
    assert set(only_sequential) == ORDER_EFFECTS.get(world, set()), (
        f"only the sequential order invokes {only_sequential}"
    )


# -- (d) typed families: stripped forms leave with the families ------------------------------


def test_new_service_names_clear_the_stripped_forms_with_the_families():
    """Under typing the output node of a stripped form lists service
    names like its NFQ's; a reply bringing a name outside the universe
    outdates both, and the rebuilt form retrieves the newcomers."""

    def ghosts():
        return [C("ghost", V("x")), C("ghost", V("y")), E("b")]

    registry = ServiceRegistry(
        [
            StaticService("list", ghosts()),
            StaticService("ghost", [E("c", V("1"))]),
        ]
    )
    query = parse_pattern("/r/a[b]/c/$X")
    bus = ServiceBus(registry)
    analysis = QueryAnalysis(
        query,
        EngineConfig(typing=TypingMode.LENIENT),
        LenientSatisfiability(bus.registry.schema_with_signatures()),
        ["list"],
    )
    (c_query,) = [
        q for q in analysis.family().values() if q.target.label == "c"
    ]
    before = analysis.definite(c_query)
    assert analysis.definite(c_query) is before  # memoised per target
    assert before.output.function_names == {"list"}
    assert analysis.add_function_names(["ghost"])
    (c_query,) = [
        q for q in analysis.family().values() if q.target.label == "c"
    ]
    after = analysis.definite(c_query)
    assert after is not before
    assert after.output.function_names == {"ghost", "list"}

    # End to end: both ghosts arrive in one reply, next to the ``b``
    # that makes them definite; a stale stripped form would not name
    # them and they would fire one per round.
    sink = InMemorySink()
    engine = LazyQueryEvaluator(
        bus, config=EngineConfig(typing=TypingMode.LENIENT, trace=sink)
    )
    document = build_document(E("r", E("a", C("list", V("k")))))
    outcome = engine.evaluate(query, document)
    assert outcome.value_rows() == {("1",)}
    widths = [len(r.calls) for r in outcome.rounds]
    assert widths == [1, 2]
    rules = [s.tags["rule"] for s in sink.roots[0].find_all(ROUND) if "rule" in s.tags]
    assert rules == ["single", "definite"]


# -- preconditions ----------------------------------------------------------------------


def test_a_witness_inside_a_calls_parameters_is_no_witness():
    """``g``'s only data candidate for ``[p//b]`` lies inside ``f``'s
    parameters, which matching never enters: ``g`` is relevant only
    through ``f``, so the definite set is asked for and comes back
    empty, and ``f`` fires alone.  (Un-layered NFQA, so that the two
    calls meet in one pseudo-layer.)"""
    document = build_document(
        E("r", E("p", C("f", E("b"))), E("a", C("g", V("k"))))
    )
    bus = ServiceBus(
        ServiceRegistry(
            [StaticService("f", [E("z")]), StaticService("g", [E("c", V("1"))])]
        )
    )
    engine = LazyQueryEvaluator(bus, config=EngineConfig(use_layers=False))
    asked = []
    with spied(on_choice=lambda *args: asked.append(args[5])):
        outcome = engine.evaluate(parse_pattern("/r[p//b]/a/c/$X"), document)
    assert outcome.value_rows() == set()
    assert [r.service_name for r in bus.log.records] == ["f"]
    assert asked[0] == set()


# -- bookkeeping and legibility ---------------------------------------------------------------


def test_a_round_records_the_width_that_fired():
    """A batch member consumed as an outer member's parameter is gone
    by its turn: the round fired one call and says so.  (A naive sweep
    batches every call present, nested ones included.)"""
    document = build_document(E("r", C("f", C("g", V("k")))))
    registry = ServiceRegistry(
        [StaticService("f", [E("x")]), StaticService("g", [E("x")])]
    )
    sink = InMemorySink()
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(strategy=Strategy.NAIVE, trace=sink),
    )
    outcome = engine.evaluate(parse_pattern("/r//x"), document)
    (sweep,) = sink.roots[0].find_all(ROUND)
    assert sweep.tags["calls"] == 2
    (record,) = outcome.rounds
    assert len(record.calls) == 1 and not record.parallel
    assert outcome.metrics.batch_count == 0


def test_spans_say_which_rule_set_a_rounds_width():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8, seed=4))

    def rules(**config):
        sink = InMemorySink()
        engine = LazyQueryEvaluator(
            wl.make_bus(),
            schema=wl.schema,
            config=EngineConfig(trace=sink, **config),
        )
        outcome = engine.evaluate(paper_query(), wl.make_document())
        (root,) = sink.roots
        rounds = [s for s in root.find_all(ROUND) if s.find_all(RELEVANCE_CHECK)]
        fired = [s for s in rounds if "rule" in s.tags]
        # Every round that invoked says why; the quiet ones say nothing.
        assert len(fired) == outcome.metrics.invocation_rounds
        for span in fired:
            (check,) = span.find_all(RELEVANCE_CHECK)
            if span.tags["rule"] == "definite":
                assert 0 < check.tags["definite_calls"] <= check.tags["relevant_calls"]
        return outcome, Counter(s.tags["rule"] for s in fired)

    default, default_rules = rules()
    assert {"definite"} <= set(default_rules) <= {
        "single",
        "independent",
        "definite",
    }
    sequential, sequential_rules = rules(parallel=False)
    assert set(sequential_rules) == {"single"}
    with just_in_case():
        bet, bet_rules = rules(use_layers=False)
    assert set(bet_rules) == {"just-in-case"}
    assert (
        bet.metrics.invocation_rounds
        <= default.metrics.invocation_rounds
        < sequential.metrics.invocation_rounds
    )
    assert default.metrics.calls_invoked == sequential.metrics.calls_invoked
    # Stripped-form retrievals are relevance evaluations like the rest.
    metrics = default.metrics
    assert metrics.relevance_cache_hits + metrics.queries_reevaluated == (
        metrics.relevance_evaluations
    )
