"""One query analysis per process (``repro.lazy.analysis``).

A :class:`~repro.lazy.analysis.QueryAnalysis` is keyed by the query's
shape, the configuration fields it reads, the schema's text and the
bus's service names and signatures, held while anyone holds it and kept
among the ones released most recently (:data:`repro.kept.analyses`).
A later evaluation of an equal key — another ``repro.evaluate`` call,
another evaluator, another document — revives the kept one instead of
deriving the NFQ family, its layers and its plans again.  Held here:
a kept analysis answers exactly what a fresh one does, and the table
is bounded.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

from hypothesis import given, strategies as st

import repro
from repro import kept
from repro.axml.builder import E, build_document
from repro.lazy import analysis as analyses
from repro.lazy.config import EngineConfig
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.relevance import NFQBuilder
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import SharedTable
from repro.schema.schema import Schema, parse_schema
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.service import PushMode
from repro.workloads.factory import fuzz_spec, generate
from repro.workloads.hotels import (
    HOTELS_SCHEMA_TEXT,
    PAPER_QUERY_TEXT,
    HotelsWorkloadParams,
    build_hotels_workload,
)

REGIMES = ("baseline", "deep-recursion", "wide-flat", "cache-flood")
HOTEL_QUERIES = (
    PAPER_QUERY_TEXT,
    "/hotels/hotel/nearby//name/$N",
    '/hotels/hotel[rating="5"]/name/$N',
)
#: What an in-place ``declare_function`` may give a name: a narrow
#: type, a data type, or one no world's element matches.
OUTPUTS = ("data", "zzz*", "name*")


@contextlib.contextmanager
def _empty_table():
    """The run inside sees an emptied analysis table and no kept
    analyses; the sequence's, with what they keep, are back afterwards."""
    table, parked = analyses._analyses, kept.analyses
    analyses._analyses, kept.analyses = SharedTable(), kept.Bounded(parked.bound)
    try:
        yield
    finally:
        analyses._analyses, kept.analyses = table, parked


def _with_extras(services, variant):
    """The world's services as they are (0), plus a service no schema
    types (1), or plus one whose signature the merged schema carries
    (2)."""
    extras = (
        (),
        (StaticService("mystery", [E("zzz")]),),
        (StaticService("omega", [E("zzz")], signature=_signature("omega")),),
    )[variant]
    return ServiceRegistry([*services, *extras])


def _signature(name):
    schema = Schema()
    schema.declare_function(name, "data", "zzz*")
    return schema.functions[name]


class _FuzzWorld:
    """A downsized factory regime: its queries, documents, services
    and a schema of its own, changed in place between steps."""

    def __init__(self, name, seed):
        self.gen = generate(fuzz_spec(name, seed))
        spec = self.gen.spec
        self.texts = [
            self.gen.query_for(i).to_string() for i in range(spec.n_queries)
        ]
        self.documents = spec.n_documents
        self.schema = Schema()
        self.schema.declare_function("zeta", "data", "zzz*")
        self.names = ["zeta", "eta", *self.gen.service_names[:2]]

    def document(self, index):
        return self.gen.make_document(index % self.documents)

    def registry(self, variant):
        base = self.gen.registry()  # fresh: fault wrappers carry state
        return _with_extras([base.resolve(n) for n in base.names()], variant)

    def config(self, **fields):
        return self.gen.engine_config(**fields)


class _HotelsWorld:
    def __init__(self, seed):
        self.workload = build_hotels_workload(
            HotelsWorkloadParams(n_hotels=4, seed=seed)
        )
        self.texts = list(HOTEL_QUERIES)
        self.schema = parse_schema(HOTELS_SCHEMA_TEXT)
        self.names = ["zeta", "getRating", "getNearbyMuseums"]

    def document(self, index):
        return self.workload.make_document()

    def registry(self, variant):
        registry = self.workload.registry
        return _with_extras(
            [registry.resolve(n) for n in registry.names()], variant
        )

    def config(self, **fields):
        return EngineConfig(**fields)


def _observe(world, step):
    """One evaluation of ``step`` on fresh inputs: its rows, its
    invocation log (service, call, order, round), and its counts."""
    (_, query, doc, variant, typing, push, layered, facade, _) = step
    text = world.texts[query % len(world.texts)]
    bus = ServiceBus(world.registry(variant))
    config = world.config(typing=typing, push_mode=push, use_layers=layered)
    document = world.document(doc)
    if facade:
        outcome = repro.evaluate(
            text, document, services=bus, schema=world.schema, config=config
        )
    else:
        engine = LazyQueryEvaluator(bus, schema=world.schema, config=config)
        outcome = engine.evaluate(parse_pattern(text), document)
    metrics = outcome.metrics
    return (
        outcome.value_rows(),
        [
            (r.service_name, r.call_node_id, r.attempt, r.fault)
            for r in bus.log.records
        ],
        [(r.layer_index, r.calls) for r in outcome.rounds],
        metrics.calls_invoked,
        metrics.relevance_queries_built,
        metrics.layers,
    )


STEPS = st.tuples(
    st.integers(0, 1),  # world
    st.integers(0, 2),  # query text
    st.integers(0, 2),  # document
    st.integers(0, 2),  # registry variant
    st.sampled_from(("none", "lenient", "exact")),
    st.sampled_from(list(PushMode)),
    st.booleans(),  # use_layers
    st.booleans(),  # repro.evaluate, else LazyQueryEvaluator.evaluate
    st.one_of(  # a declare_function on the world's schema first
        st.none(),
        st.tuples(st.integers(0, 2), st.sampled_from(OUTPUTS)),
    ),
)


@given(
    regime=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(STEPS, min_size=2, max_size=6),
)
def test_kept_analyses_answer_what_fresh_ones_do(regime, seed, steps):
    """A sequence of one-shot evaluations over two worlds, mixing query
    texts, documents, registries, typing modes, push modes, layering
    and both front doors, with schemas changed in place between steps:
    after each step, the run on the table the sequence built equals the
    same run on an emptied table — rows, invocation log and order,
    rounds, calls invoked, relevance queries built and layers."""
    worlds = (_FuzzWorld(regime, seed), _HotelsWorld(seed))
    for index, step in enumerate(steps):
        world = worlds[step[0]]
        change = step[-1]
        if change is not None:
            name = world.names[change[0]]
            world.schema.declare_function(name, "data", change[1])
        warm = _observe(world, step)
        with _empty_table():
            fresh = _observe(world, step)
        assert warm == fresh, (index, step)
    assert len(analyses._analyses) == 0  # one-shot runs hold nothing after


# -- the bound ------------------------------------------------------------------


def _kept():
    """The released analyses still kept, least recently released first."""
    return list(kept.analyses.values())


def _engine():
    return LazyQueryEvaluator(ServiceBus(ServiceRegistry([])))


def _query(index):
    return parse_pattern(f"/r/a{index}//b/$X")


def test_released_analyses_leave_in_lru_order():
    engine = _engine()
    bound = kept.analyses.bound
    made = []
    for index in range(bound + 2):
        made.append(engine.acquire(_query(index)))
    for analysis in made:
        engine.release(analysis)
    assert _kept() == made[2:]  # the two released first are gone
    # An acquire of a kept key revives its analysis; its release makes
    # it the most recently released.
    revived = engine.acquire(_query(2))
    assert revived is made[2] and made[2] not in _kept()
    engine.release(revived)
    assert _kept()[-1] is made[2]
    # An evicted key derives afresh (an equal shape, not the same object).
    again = engine.acquire(_query(0))
    assert again is not made[0] and again.query.shape == made[0].query.shape
    engine.release(again)
    assert len(_kept()) == bound


def test_a_held_analysis_is_never_evicted():
    engine = _engine()
    held = engine.acquire(_query(0))
    for index in range(1, 3 * kept.analyses.bound):
        engine.release(engine.acquire(_query(index)))
    assert held not in _kept()
    twin = _engine().acquire(_query(0))  # another evaluator, same key
    assert twin is held
    engine.release(twin)
    engine.release(held)
    assert _kept()[-1] is held


def test_the_key_is_content_not_identity():
    """A schema changed in place misses the table; another schema
    object with the same content hits it; each analysis owns an oracle
    over the schema it was derived for."""
    schema = parse_schema(HOTELS_SCHEMA_TEXT)
    config = EngineConfig(typing="lenient")
    engine = LazyQueryEvaluator(
        ServiceBus(ServiceRegistry([])), schema=schema, config=config
    )
    query = parse_pattern(PAPER_QUERY_TEXT)
    first = engine.acquire(query)
    engine.release(first)
    schema.declare_function("getRating", "data", "zzz*")
    changed = engine.acquire(query)
    assert changed is not first
    assert changed.key != first.key
    engine.release(changed)
    # The original content, in a new schema object: the first revives.
    same = LazyQueryEvaluator(
        ServiceBus(ServiceRegistry([])),
        schema=parse_schema(HOTELS_SCHEMA_TEXT),
        config=config,
    ).acquire(parse_pattern(PAPER_QUERY_TEXT))
    assert same is first
    assert first._builder.oracle is not changed._builder.oracle
    engine.release(same)
    # The fields the analysis reads are in the key; the others are not.
    for other in (
        EngineConfig(typing="exact"),
        EngineConfig(typing="lenient", use_layers=False),
        EngineConfig(typing="lenient", drop_value_joins=True),
    ):
        probe = LazyQueryEvaluator(engine.bus, schema=schema, config=other)
        analysis = probe.acquire(query)
        assert analysis is not changed
        probe.release(analysis)
    sequential = LazyQueryEvaluator(
        engine.bus,
        schema=schema,
        config=EngineConfig(typing="lenient", parallel=False),
    )
    assert sequential.acquire(query) is changed
    sequential.release(changed)
    # A service registered later changes the names and signatures read.
    engine.bus.registry.register(
        StaticService("late", [E("zzz")], signature=_signature("late"))
    )
    late = engine.acquire(query)
    assert late is not changed
    engine.release(late)


def test_an_evicted_or_forgotten_analysis_is_garbage():
    """What the table lets go, nothing else keeps: an evicted or a
    forgotten analysis is collected with its family, layers and plans."""
    engine = _engine()

    def released(index):
        analysis = engine.acquire(_query(index))
        analysis.layers
        engine.release(analysis)
        return weakref.ref(analysis)

    evicted, forgotten = released(0), released(1)
    gc.collect()
    assert evicted() is not None and forgotten() is not None  # kept
    for index in range(2, 1 + kept.analyses.bound):
        released(index)
    gc.collect()
    assert evicted() is None and forgotten() is not None
    kept.forget()
    gc.collect()
    assert forgotten() is None


def test_forget_empties_the_keeper_but_never_a_held_analysis():
    """``kept.forget()`` empties the kept texts and the released
    analyses; a held analysis stays held, and its key still hands it
    out."""
    engine = _engine()
    held = engine.acquire(_query(0))
    engine.release(engine.acquire(_query(1)))
    repro.parse_document("<r><a>1</a></r>")
    assert len(kept.texts) == 1 and len(kept.analyses) == 1
    kept.forget()
    assert len(kept.texts) == 0 and len(kept.analyses) == 0
    assert len(analyses._analyses) == 1
    twin = engine.acquire(_query(0))
    assert twin is held
    engine.release(twin)
    engine.release(held)
    assert _kept() == [held]


def test_an_unclosed_standing_query_lets_go_when_collected():
    """The table is the process's, so a standing query dropped without
    ``close()`` must not pin its analysis: once collected it has let go
    of its hold, and the analysis is kept like any released one."""
    document = build_document(E("r", E("a0", E("b"))))
    standing = ContinuousQuery(_engine(), _query(0), document, eager=False)
    analysis = standing.analysis
    del standing
    gc.collect()
    assert len(analyses._analyses) == 0 and _kept() == [analysis]


def test_one_shot_evaluations_derive_the_family_once(monkeypatch):
    """The gain itself: a second ``repro.evaluate`` of an equal query
    text, on another document, builds no NFQ family and lays out no
    layers."""
    derived = []
    build_all, compute_layers = NFQBuilder.build_all, analyses.compute_layers
    monkeypatch.setattr(
        NFQBuilder,
        "build_all",
        lambda self, *a, **kw: derived.append("family") or build_all(self, *a, **kw),
    )
    monkeypatch.setattr(
        analyses,
        "compute_layers",
        lambda queries: derived.append("layers") or compute_layers(queries),
    )
    workload = build_hotels_workload(HotelsWorkloadParams(n_hotels=6))
    schema = parse_schema(HOTELS_SCHEMA_TEXT)

    def evaluate():
        return repro.evaluate(
            PAPER_QUERY_TEXT,
            workload.make_document(),
            services=workload.registry,
            schema=schema,
        )

    first = evaluate()
    assert "family" in derived and "layers" in derived
    del derived[:]
    second = evaluate()
    assert derived == []
    assert first.value_rows() == second.value_rows()
    assert first.metrics.calls_invoked == second.metrics.calls_invoked
    assert second.query is not first.query  # the caller's object, each time
