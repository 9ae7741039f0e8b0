"""The per-scope relevance store against full re-evaluation.

After every step of an interleaved mutation trace, every entry's kept
rows must equal a fresh whole-document match of its pattern — per
query through compiled matchers, through one multi-member read of
plan-backed twins beside a walking (stand-down) member, and on the one
store a document owns with every consumer (engine refreshes and quiet
probes of two queries, answer readers, twins coming and going)
interleaved.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import Activation
from repro.lazy.incremental import RelevanceStore
from repro.lazy.relevance import NFQBuilder
from repro.pattern.columnmatch import plan_refusal
from repro.pattern.match import Matcher, MatchOptions, MatchSet
from repro.pattern.nodes import pelem, pfunc, pstar, pvar
from repro.pattern.pattern import TreePattern
from repro.workloads.factory import fuzz_spec, generate

REGIMES = (
    "baseline",
    "deep-recursion",
    "wide-flat",
    "cache-flood",
    "multi-root-standing",  # multi-child pattern roots: whole passes
)
STEPS = (
    "reply",  # replace_call deep in a scope (or wherever a call sits)
    "reply-under-root",  # a reply landing directly under the root
    "empty-reply",  # a reply that empties its call's position
    "insert",
    "remove",
    "freeze",
    "rebuild",  # new names / layer simplification: fresh pattern objects
    "burst",  # several splices between retrievals: most scopes dirty
)


def _ids(rows):
    """Row identities (one result node: the retrieved calls' ids)."""
    return sorted(MatchSet.row_key(row) for row in rows)


class _World:
    """One document, one NFQ family, and the moves of the trace."""

    def __init__(self, name, seed, query_index):
        spec = dataclasses.replace(fuzz_spec(name, seed), root_subtrees=(4, 7))
        self.gen = generate(spec)
        self.rng = random.Random(f"{name}|{seed}|{query_index}")
        self.query = self.gen.query_for(query_index)
        self.document = self.gen.make_document(
            self.gen.document_for_query(query_index)
        )
        self.builder = NFQBuilder(self.query)
        self.done: set[int] = set()
        self.family = self.builder.build_all()
        self.steps = 0

    def members(self):
        return {rq.target_uid: rq.pattern for rq in self.family}

    def _reply(self, call, forest=None):
        if forest is None:
            key = call.children[0].label if call.children else "0:x"
            forest = self.gen.result_forest(call.label, key)
        self.document.replace_call(call, forest)

    def apply(self, step):
        self.steps += 1
        document, rng = self.document, self.rng
        calls = document.function_nodes()
        if step == "reply" and calls:
            self._reply(rng.choice(calls))
        elif step == "empty-reply" and calls:
            self._reply(rng.choice(calls), [])
        elif step == "reply-under-root":
            name = rng.choice(self.gen.service_names)
            call = C(name, V(f"1:root-{self.steps}"))
            document.insert_subtree(
                document.root, call, rng.randrange(len(document.root.children) + 1)
            )
            self._reply(call)
        elif step == "freeze" and calls:
            rng.choice(calls).activation = Activation.FROZEN
        elif step == "rebuild":
            if self.family:
                self.done.add(rng.choice(self.family).target_uid)
            self.builder.add_function_names([f"fresh{self.steps}"])
            self.family = self.builder.build_all(excluded_targets=self.done)
        elif step == "burst":
            for index in range(len(document.root.children)):
                self.gen.apply_mutation(f"{self.steps}.{index}", (document,))
        else:  # "insert" / "remove" (and the fallbacks of the above)
            self.gen.apply_mutation(str(self.steps), (document,))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    query_index=st.integers(min_value=0, max_value=1),
    steps=st.lists(st.sampled_from(STEPS), min_size=4, max_size=12),
)
def test_store_equals_a_fresh_match_after_every_step(
    name, seed, query_index, steps
):
    world = _World(name, seed, query_index)
    document = world.document
    store = RelevanceStore(document)
    store.hold("test", MatchOptions())
    matchers: dict = {}

    def match(keys, scope):
        out = {}
        for key in keys:
            pattern = world.members()[key]
            matcher = matchers.get(key)
            if matcher is None or matcher.pattern is not pattern:
                matcher = matchers[key] = Matcher(
                    pattern, arena=document.arena, column_match=True
                )
            rows = (
                matcher.evaluate(document)
                if scope is None
                else matcher.evaluate_scoped(document, scope)
            )
            out[key] = rows.rows
        return out

    retrievals = 0
    for step in [None, *steps]:
        if step is not None:
            world.apply(step)
        # One query at a time, as ``_retrieve`` does.
        for key, pattern in world.members().items():
            found = store.retrieve({key: pattern}, match, "test")[key]
            retrievals += 1
            fresh = Matcher(pattern).evaluate(document).rows
            assert _ids(found) == _ids(fresh), (step, pattern.to_string())
    assert store.hits + store.reevaluations == retrievals
    assert document.arena.consistency_errors() == []
    store.detach()


def _matchers(members, document):
    """One compiled matcher per member: what the group was since PR 17."""
    return {
        key: Matcher(pattern, arena=document.arena, column_match=True)
        for key, pattern in members.items()
    }


def _run(matchers, keys, document, scope):
    return {
        key: (
            matchers[key].evaluate(document)
            if scope is None
            else matchers[key].evaluate_scoped(document, scope)
        ).rows
        for key in keys
    }


def _walker(document):
    """Any call under any element child of the root — an interior data
    wildcard, so the plan stands down and the member walks."""
    pattern = TreePattern(
        pelem(document.root.label, pstar(pfunc(None, result=True)))
    )
    assert plan_refusal(pattern) is not None
    return pattern


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(st.sampled_from(STEPS), min_size=4, max_size=10),
)
def test_store_drives_a_group_with_twins_and_a_walking_member(
    name, seed, steps
):
    world = _World(name, seed, 0)
    document = world.document
    store = RelevanceStore(document)
    store.hold("test", MatchOptions())
    walker = _walker(document)
    state: dict = {"family": None, "matchers": None}
    scoped_runs = []

    def members():
        # Every NFQ twice (twins share one evaluation) plus the walker.
        out = {("walker", 0): walker}
        for rq in world.family:
            out[("a", rq.target_uid)] = rq.pattern
            out[("b", rq.target_uid)] = rq.pattern
        return out

    def match(keys, scope):
        if state["family"] is not world.family:
            state["family"] = world.family
            state["matchers"] = _matchers(members(), document)
        if scope is not None:
            scoped_runs.append(scope)
        return _run(state["matchers"], keys, document, scope)

    for step in [None, *steps]:
        if step is not None:
            world.apply(step)
        found = store.retrieve(members(), match, "test")
        for key, pattern in members().items():
            fresh = Matcher(pattern).evaluate(document).rows
            assert _ids(found[key]) == _ids(fresh), (step, key)
    assert store.scope_rematches >= len(scoped_runs)
    store.detach()


def test_the_walker_and_both_regimes_of_the_switch_are_exercised():
    """Not vacuous: a walking member sees a hit, a scoped run and a
    switch-forced whole pass, each equal to a fresh match."""
    document = build_document(
        E("root", *(E("part", C("svc", V(str(i)))) for i in range(6)))
    )
    store = RelevanceStore(document)
    store.hold("test", MatchOptions())
    walker = _walker(document)
    matchers = _matchers({"w": walker}, document)
    runs = []

    def match(keys, scope):
        runs.append(scope)
        return _run(matchers, keys, document, scope)

    def check():
        found = store.retrieve({"w": walker}, match, "test")["w"]
        fresh = Matcher(walker).evaluate(document).rows
        assert _ids(found) == _ids(fresh)
        return len(found)

    assert check() == 6 and runs == [None]
    first = document.root.children[0]
    document.insert_subtree(first, C("svc-x", V("0:k")))
    assert check() == 7 and runs == [None, first]
    assert check() == 7 and store.hits == 1
    for child in document.root.children[:3]:
        document.insert_subtree(child, C("svc-y", V("0:k")))
    assert check() == 10 and runs[2:] == document.root.children[:3]
    for child in document.root.children[:4]:
        document.insert_subtree(child, C("svc-z", V("0:k")))
    assert check() == 14
    assert runs[5:] == [None], "most scopes dirty: one whole pass"
    store.detach()


# -- one document-owned store, every consumer at once -------------------------

SERVE_STEPS = (
    "subscribe",  # an eager engine run; a repeat text is a twin
    "cancel",
    "round",  # the engine's quiet probes, then its refreshes
    "refresh",  # one subscription's on-demand engine refresh
    "mutate",
    "burst",  # more splices than LOG_LIMIT with nobody retrieving
    "freeze",
)


def _checked_retrievals(monkeypatch, checked):
    """Hold every retrieval of every consumer to a fresh match, at the
    moment it is made (mid-evaluation states included)."""
    retrieve = RelevanceStore.retrieve

    def checking(store, members, match, holder, within=None):
        found = retrieve(store, members, match, holder, within)
        options, _ = store._holders[holder]
        for key, pattern in members.items():
            fresh = Matcher(pattern, options=options).evaluate(store.document)
            assert _ids(found[key]) == _ids(fresh.rows), pattern.to_string()
        checked.append(len(members))
        return found

    monkeypatch.setattr(RelevanceStore, "retrieve", checking)


def _serve_trace(name, seed, steps, monkeypatch):
    from repro.lazy.config import EngineConfig
    from repro.serve import QueryServer

    checked: list[int] = []
    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 5)
    _checked_retrievals(monkeypatch, checked)
    gen = generate(dataclasses.replace(fuzz_spec(name, seed), root_subtrees=(4, 7)))
    document = gen.make_document(0)
    server = QueryServer(gen.registry(), config=EngineConfig.serving())
    live = []
    stores = set()
    for index, (step, draw) in enumerate([("subscribe", 0), *steps, ("round", 0)]):
        calls = document.function_nodes()
        if step == "subscribe":
            # Two query texts, fresh pattern objects each time: twins.
            live.append(server.subscribe(gen.query_for(draw % 2), document))
        elif step == "cancel" and live:
            live.pop(draw % len(live)).cancel()
        elif step == "round":
            server.run_round()
        elif step == "refresh" and live:
            live[draw % len(live)].refresh()
        elif step == "freeze" and calls:
            calls[draw % len(calls)].activation = Activation.FROZEN
        elif step == "burst":
            for extra in range(7):
                gen.apply_mutation(f"{index}.{extra}", (document,))
        else:
            gen.apply_mutation(str(index), (document,))
        store = document.relevance
        assert (store is None) == (not live)
        if store is not None:
            stores.add(store)
            assert len(store._log) <= 2 * (5 + len(store._entries))
            assert len(store._holders) <= len(server.engine._analyses) + 1
    assert len(stores) <= 1 + sum(step == "cancel" for step, _ in steps)
    assert document.arena.consistency_errors() == []
    counters = [
        (s.hits, s.whole_passes, s.scope_rematches, len(s._entries)) for s in stores
    ]
    server.close()
    assert document.relevance is None and len(server.engine._analyses) == 0
    assert all(len(s._entries) == 0 and len(s._holders) == 0 for s in stores)
    return checked, counters


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(
        st.tuples(st.sampled_from(SERVE_STEPS), st.integers(0, 1_000)),
        min_size=4,
        max_size=12,
    ),
)
def test_every_consumer_of_the_document_store_retrieves_a_fresh_match(
    name, seed, steps
):
    """Two queries' engine refreshes and quiet probes, twins
    subscribing and cancelling mid-trace, factory mutations, freezes
    and ``LOG_LIMIT`` overruns, interleaved on the one store the
    document owns: every retrieval any of them makes equals a fresh
    ``Matcher(pattern).evaluate(document)``, and nothing outlives its
    last holder."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked, _ = _serve_trace(name, seed, steps, monkeypatch)
    assert checked


def test_the_serve_trace_exercises_hits_scopes_seeds_and_an_overrun(monkeypatch):
    """Not vacuous: a fixed trace with twins, a cancel, rounds, a burst
    past ``LOG_LIMIT`` and a freeze sees every kind of retrieval."""
    steps = [
        ("subscribe", 1), ("subscribe", 0), ("round", 0), ("mutate", 0),
        ("round", 0), ("burst", 0), ("refresh", 1), ("freeze", 0),
        ("cancel", 0), ("mutate", 1), ("round", 0), ("subscribe", 1),
    ]
    checked, ((hits, whole, rematches, entries),) = _serve_trace(
        "baseline", 3, steps, monkeypatch
    )
    # Re-pinned with the probe: the server's multi-member read is gone,
    # so every retrieval is one member (an engine run, a probe or an
    # answer reader) — and hits, scoped re-matches, seeds and the
    # ``LOG_LIMIT`` overrun all still occur.
    assert len(checked) > 20 and set(checked) == {1}
    assert hits > 0 and rematches > 0
    assert whole > entries > 0  # re-seeds beyond the first: the overrun


# -- the shared answer: readers, twins, guards ---------------------------------

READER_STEPS = (
    "reply",
    "reply-under-root",
    "empty-reply",
    "insert",
    "remove",
    "burst",  # more splices than LOG_LIMIT: entries and guards overrun
    "open",  # one more reader of a drawn shape (a twin, if one stands)
    "close",
)


class _EagerScreen:
    """The rule answer readers followed when each was an observer of
    its own, kept here as the reference: every splice is judged against
    the reader's guard footprint as it arrives."""

    def __init__(self, document, guard):
        self.document, self.guard = document, guard
        self.touched = True  # nothing read yet
        document.add_observer(self)

    def splice(self, document, delta):
        self.touched = self.touched or self.guard.touches(delta)


class _Reader:
    def __init__(self, query, document, analysis):
        from repro.lazy.answers import AnswerCache

        self.cache = AnswerCache(
            query, document, arena=document.arena, analysis=analysis
        )
        self.screen = _EagerScreen(document, self.cache.guard_footprint)
        self.last = None

    def read(self, force):
        document, cache = self.cache.document, self.cache
        fresh = _ids(Matcher(cache.query).evaluate(document).rows)
        if cache.is_current:
            assert not self.screen.touched, "the lazy guard outran the eager one"
            assert self.last == fresh
            if not force:
                return  # as a refresh does: the kept outcome stands
        self.last = _ids(cache.rows().rows)
        assert self.last == fresh, cache.query.to_string()
        self.screen.touched = False
        assert cache.is_current

    def close(self):
        self.cache.detach()
        self.cache.detach()  # idempotent
        self.screen.document.remove_observer(self.screen)


def _reader_trace(name, seed, steps, monkeypatch):
    from repro.lazy.analysis import QueryAnalysis
    from repro.pattern.nodes import EdgeKind

    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 5)
    world = _World(name, seed, 0)
    document = world.document
    # The label of the deepest element (replies may bring it later).
    label = max(
        (sum(1 for _ in n.iter_ancestors()), n.label)
        for n in document.iter_nodes()
        if n.is_element
    )[1]
    queries = [
        world.gen.query_for(0),  # the regime's own (multi-child roots too)
        # Broad and anchored: any element's value child, anywhere.
        TreePattern(
            pelem(
                document.root.label,
                pstar(pvar("X"), edge=EdgeKind.DESCENDANT),
            )
        ),
        # Unanchored: the root is the only result node.
        TreePattern(
            pelem(
                document.root.label,
                pelem(label, edge=EdgeKind.DESCENDANT),
                result=True,
            )
        ),
    ]
    analyses = [QueryAnalysis(query) for query in queries]
    readers: list[_Reader] = []
    totals: dict[str, int] = {}

    def open_reader(draw):
        shape = draw % len(queries)
        # A fresh pattern object per reader, as subscribers parse theirs.
        readers.append(
            _Reader(queries[shape].clone(), document, analyses[shape])
        )

    def close_reader(reader):
        reader.close()
        for counter, count in reader.cache.counters().items():
            totals[counter] = totals.get(counter, 0) + count

    open_reader(1)
    store = document.relevance
    for step, draw in [*steps, ("close", 0), ("open", 1)]:
        if step == "open":
            if len(readers) < 5:
                open_reader(draw)
        elif step == "close":
            if readers:
                close_reader(readers.pop(draw % len(readers)))
        else:
            world.apply(step)
        for index, reader in enumerate(readers):
            if draw >> index & 1:
                reader.read(force=bool(draw >> (index + 5) & 1))
        assert (document.relevance is None) == (not readers)
        if readers:
            assert document.relevance is store or not store._holders
            store = document.relevance
            shapes = {r.cache.query.shape for r in readers}
            assert len(store._guards) == len(store._holders) == len(shapes)
            assert len(store._entries) <= len(shapes)
            assert len(store._log) <= 2 * (5 + 2 * len(shapes))
    for reader in readers:
        reader.read(force=True)
        close_reader(reader)
    assert document.relevance is None
    assert not (len(store._entries) or len(store._holders) or store._guards)
    assert document.arena.consistency_errors() == []
    return totals


@settings(deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(
        st.tuples(st.sampled_from(READER_STEPS), st.integers(0, 1_000)),
        min_size=6,
        max_size=16,
    ),
)
def test_shared_answer_readers_track_a_fresh_match_and_an_eager_screen(
    name, seed, steps
):
    """One document, three query shapes (one unanchored: its only
    result node is the root), readers and twins coming and going over
    root-level and deep inserts and removes, replies and ``LOG_LIMIT``
    overruns; after each step a drawn subset of the readers refreshes
    and the rest skip.  A reader that refreshes has the rows of a fresh
    ``Matcher(query).evaluate(document)``, and its ``is_current`` is
    never true where judging every splice eagerly, per reader, would
    have said touched."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _reader_trace(name, seed, steps, monkeypatch)


def test_the_reader_trace_exercises_twins_scopes_screens_and_an_overrun(
    monkeypatch,
):
    """Not vacuous: a fixed trace sees twins reading each other's work
    (hits), scoped re-matches with row churn, re-seeds past the first
    (the overrun, the unanchored shape) and clean guard judgements."""
    steps = [
        ("open", 1), ("open", 2), ("insert", 3), ("reply", 7), ("open", 0),
        ("insert", 31), ("burst", 1), ("reply-under-root", 31),
        ("remove", 10), ("close", 1), ("insert", 15), ("remove", 15),
    ]
    totals = _reader_trace("baseline", 3, steps, monkeypatch)
    assert totals["hits"] > 0 and totals["screens"] > 0
    assert totals["scope_rematches"] > 0
    assert totals["rows_added"] + totals["rows_retracted"] > 0
    assert totals["full_matches"] > 3  # more than one seed per shape
