"""Matcher reuse across document evolution: the compiled-once path.

A standing query's answer reader keeps one :class:`Matcher` and
re-uses it refresh after refresh — one query at a time, or a whole NFQ
family kept side by side.  Re-use is only sound if a matcher carries no
state from one evaluation into the next — this property pins that
down: a single compiled matcher evaluated across successive splices
must agree, state by state, with a matcher constructed fresh for every
document state.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.pattern.match import Matcher
from repro.lazy.relevance import build_nfqs
from repro.services.registry import ServiceCall
from repro.workloads.synthetic import SyntheticWorld


def _rows(match_set):
    return sorted(
        (tuple(n.node_id for n in row.nodes), row.bindings)
        for row in match_set.rows
    )


def _splice_one(document, bus):
    """Invoke the lowest-id live call and splice its result; returns
    False when the document has no calls left."""
    calls = sorted(document.function_nodes(), key=lambda n: n.node_id)
    if not calls:
        return False
    call = calls[0]
    outcome = bus.invoke(
        ServiceCall(
            service=call.label,
            parameters=call.children,
            call_node_id=call.node_id,
        )
    )
    assert outcome.reply is not None
    document.replace_call(call, outcome.reply.forest)
    return True


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=50),
)
def test_reused_matcher_tracks_fresh_matcher_across_splices(
    world_seed, doc_seed
):
    """Re-evaluate == construct fresh, on every splice state."""
    world = SyntheticWorld(seed=world_seed)
    document = world.make_document(doc_seed)
    query = world.sample_query(document, doc_seed)
    bus = world.bus()

    reused = Matcher(query)
    for _ in range(4):
        assert _rows(reused.evaluate(document)) == _rows(
            Matcher(query).evaluate(document)
        )
        if not _splice_one(document, bus):
            break


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=30),
)
def test_reused_group_tracks_fresh_matchers_across_splices(
    world_seed, doc_seed
):
    """One compiled matcher per member of a family, re-evaluated after
    each splice, keeps returning exactly what
    fresh per-query matchers return."""
    world = SyntheticWorld(seed=world_seed)
    document = world.make_document(doc_seed)
    query = world.sample_query(document, doc_seed)
    nfqs = build_nfqs(query)
    if not nfqs:
        return
    bus = world.bus()

    group = {rq.target_uid: Matcher(rq.pattern) for rq in nfqs}
    for _ in range(3):
        for rq in nfqs:
            assert _rows(group[rq.target_uid].evaluate(document)) == _rows(
                Matcher(rq.pattern).evaluate(document)
            ), rq.target_uid
        if not _splice_one(document, bus):
            break
