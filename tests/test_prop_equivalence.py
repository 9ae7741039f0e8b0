"""Property: every strategy computes the same full result.

The central correctness invariant of the whole system — lazy evaluation
with any combination of refinements must agree with naive
materialisation on arbitrary (seeded random) worlds, documents and
queries.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.services.service import PushMode
from repro.workloads.synthetic import SyntheticWorld

LAZY_VARIANTS = [
    dict(strategy=Strategy.LAZY_LPQ),
    dict(strategy=Strategy.LAZY_NFQ),
    dict(strategy=Strategy.LAZY_NFQ, use_layers=False),
    dict(strategy=Strategy.LAZY_NFQ, parallel=False),
    dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.FILTERED),
    dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS),
]


def full_result(world, doc_seed, query, **config_kwargs):
    document = world.make_document(doc_seed)
    bus = world.bus()
    engine = LazyQueryEvaluator(bus, config=EngineConfig(**config_kwargs))
    outcome = engine.evaluate(query, document)
    return outcome


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=50),
)
def test_nfq_agrees_with_naive(world_seed, doc_seed):
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    naive = full_result(world, doc_seed, query, strategy=Strategy.NAIVE)
    lazy = full_result(world, doc_seed, query, strategy=Strategy.LAZY_NFQ)
    assert lazy.value_rows() == naive.value_rows()
    assert lazy.metrics.calls_invoked <= naive.metrics.calls_invoked


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=20),
    variant=st.sampled_from(range(len(LAZY_VARIANTS))),
)
def test_all_lazy_variants_agree_with_naive(world_seed, doc_seed, variant):
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    naive = full_result(world, doc_seed, query, strategy=Strategy.NAIVE)
    bus = world.bus()
    engine = LazyQueryEvaluator(
        bus, config=EngineConfig(**LAZY_VARIANTS[variant])
    )
    lazy = engine.evaluate(query, world.make_document(doc_seed))
    assert lazy.value_rows() == naive.value_rows()
    # What a reply brought is in the document, pushed or not: asking
    # again invokes nothing and finds the same rows.
    invoked = len(bus.log.records)
    again = engine.evaluate(query, lazy.document)
    assert again.value_rows() == naive.value_rows()
    assert len(bus.log.records) == invoked


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=30),
)
def test_nfq_never_invokes_more_than_lpq(world_seed, doc_seed):
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    lpq = full_result(world, doc_seed, query, strategy=Strategy.LAZY_LPQ)
    nfq = full_result(world, doc_seed, query, strategy=Strategy.LAZY_NFQ)
    assert nfq.metrics.calls_invoked <= lpq.metrics.calls_invoked


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=30),
)
def test_lazy_leaves_a_complete_document(world_seed, doc_seed):
    """After the rewriting, re-running the NFQs finds nothing
    (Proposition 2: the obtained document is complete for the query)."""
    from repro.lazy.relevance import build_nfqs
    from repro.pattern.match import Matcher

    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    lazy = full_result(world, doc_seed, query, strategy=Strategy.LAZY_NFQ)
    for rq in build_nfqs(query):
        leftovers = Matcher(rq.pattern).evaluate(lazy.document).distinct_nodes()
        assert not leftovers


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=20),
)
def test_speculative_and_typed_combos_agree(world_seed, doc_seed):
    """The richer option combinations also preserve the full result."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    naive = full_result(world, doc_seed, query, strategy=Strategy.NAIVE)
    for kwargs in (
        dict(strategy=Strategy.LAZY_NFQ, use_layers=False),
        dict(strategy=Strategy.LAZY_NFQ, drop_value_joins=True),
        dict(
            strategy=Strategy.LAZY_NFQ_TYPED,
            use_layers=False,
            push_mode=PushMode.BINDINGS,
        ),
    ):
        lazy = full_result(world, doc_seed, query, **kwargs)
        assert lazy.value_rows() == naive.value_rows(), kwargs
