"""Tests for continuous queries over evolving documents."""

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import call, element, value
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import TableService
from repro.services.registry import ServiceBus, ServiceCall, ServiceRegistry
from repro.services.scheduler import CallCache
from repro.services.service import PushMode


def make_world():
    document = build_document(
        E("feed", E("item", E("tag", V("hot")), E("title", V("first"))))
    )
    registry = ServiceRegistry(
        [
            TableService(
                "getItems",
                {
                    "k1": [
                        E("item", E("tag", V("hot")), E("title", V("remote-1")))
                    ],
                    "k2": [
                        E("item", E("tag", V("cold")), E("title", V("remote-2")))
                    ],
                },
            )
        ]
    )
    evaluator = LazyQueryEvaluator(
        ServiceBus(registry), config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    query = parse_pattern('/feed/item[tag="hot"]/title/$T')
    return document, evaluator, query


def test_initial_evaluation_and_caching():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document)
    assert standing.value_rows() == {("first",)}
    assert standing.refresh_count == 1
    # No mutation: refresh is a cache hit.
    standing.refresh()
    standing.refresh()
    assert standing.refresh_count == 1
    assert not standing.is_stale


def test_insertion_triggers_reevaluation():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document)
    document.insert_subtree(
        document.root,
        element("item", element("tag", value("hot")),
                element("title", value("second"))),
    )
    assert standing.is_stale
    assert standing.value_rows() == {("first",), ("second",)}
    assert standing.refresh_count == 2


def test_new_calls_are_lazily_pulled_in():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document)
    document.insert_subtree(document.root, call("getItems", value("k1")))
    assert standing.value_rows() == {("first",), ("remote-1",)}
    # The call was invoked during the refresh (the document mutated),
    # but the post-evaluation version is recorded: no further refresh.
    count = standing.refresh_count
    standing.refresh()
    assert standing.refresh_count == count


def test_irrelevant_updates_still_reconverge():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document)
    document.insert_subtree(document.root, call("getItems", value("k2")))
    rows = standing.value_rows()
    assert rows == {("first",)}  # cold item does not qualify
    # The call was still relevant positionally and got invoked once;
    # afterwards the standing query is quiescent again.
    assert standing.peek().metrics.calls_invoked == 1
    count = standing.refresh_count
    standing.refresh()
    assert standing.refresh_count == count


def test_removal_triggers_reevaluation():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document)
    first_item = document.root.children[0]
    document.remove_subtree(first_item)
    assert standing.value_rows() == set()


def test_lazy_eager_flag():
    document, evaluator, query = make_world()
    standing = ContinuousQuery(evaluator, query, document, eager=False)
    assert standing.peek() is None
    assert standing.refresh_count == 0
    standing.refresh()
    assert standing.peek() is not None


# -- scoped call-cache invalidation (the shared-bus bugfix) ------------------


def test_scoped_invalidation_is_once_per_document_version():
    registry = ServiceRegistry(
        [TableService("getItems", {"k1": [E("item")]})]
    )
    cache = CallCache()
    bus = ServiceBus(registry, cache=cache)
    document = build_document(E("feed"))
    bus.invoke(ServiceCall("getItems", (value("k1"),)))
    assert len(cache) == 1
    assert bus.invalidate_cache_scoped(document, {"getItems": 3}) == 1
    bus.invoke(ServiceCall("getItems", (value("k1"),)))  # re-memoized
    # The same touch drained by a sibling standing query drops nothing.
    assert bus.invalidate_cache_scoped(document, {"getItems": 3}) == 0
    assert len(cache) == 1
    # Untouched services are never dropped; later touches flush again.
    assert bus.invalidate_cache_scoped(document, {"other": 9}) == 0
    assert bus.invalidate_cache_scoped(document, {"getItems": 4}) == 1


def test_flush_marks_die_with_their_document():
    """The marks are keyed by the document weakly: a long-lived bus
    keeps none for a collected document, so a new document (CPython
    reuses addresses) cannot inherit a dead one's mark and skip the
    flush an authored call is owed."""
    import gc

    registry = ServiceRegistry(
        [TableService("getItems", {"k1": [E("item")]})]
    )
    cache = CallCache()
    bus = ServiceBus(registry, cache=cache)
    live = build_document(E("feed"))
    dead = build_document(E("feed"))
    for document in (live, dead):
        bus.invoke(ServiceCall("getItems", (value("k1"),)))
        assert bus.invalidate_cache_scoped(document, {"getItems": 3}) == 1
    assert len(bus._cache_flush_versions) == 2
    del dead, document
    gc.collect()
    assert list(bus._cache_flush_versions) == [live]
    # The live document's second drain at the same version drops nothing.
    bus.invoke(ServiceCall("getItems", (value("k1"),)))
    assert bus.invalidate_cache_scoped(live, {"getItems": 3}) == 0
    assert len(cache) == 1


def test_sibling_queries_no_longer_evict_each_others_cache():
    # Regression: refresh used to call invalidate_cache() — wiping the
    # *whole* shared CallCache for every standing query on the bus.
    registry = ServiceRegistry(
        [
            TableService(
                "getItems",
                {"k1": [E("item", E("tag", V("hot")),
                          E("title", V("remote-1")))]},
            ),
            TableService("getChain", {"c1": [C("getItems", V("k1"))]}),
        ]
    )
    evaluator = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(strategy=Strategy.LAZY_NFQ, call_cache=True),
    )
    query = parse_pattern('/feed/item[tag="hot"]/title/$T')
    doc1 = build_document(
        E("feed", E("item", E("tag", V("hot")), E("title", V("one"))),
          C("getItems", V("k1")))
    )
    standing1 = ContinuousQuery(evaluator, query, doc1)
    assert standing1.value_rows() == {("one",), ("remote-1",)}
    cache = evaluator.bus.cache
    assert cache is not None and len(cache) == 1 and cache.hits == 0

    doc2 = build_document(
        E("feed", E("item", E("tag", V("hot")), E("title", V("two"))))
    )
    standing2 = ContinuousQuery(evaluator, query, doc2)
    # standing2's document evolves; its refresh drops only the services
    # the mutation's new calls actually name (getChain) — getItems'
    # memoized reply survives and the call getChain's reply brings in
    # is answered from it.
    doc2.insert_subtree(doc2.root, call("getChain", value("c1")))
    assert standing2.value_rows() == {("two",), ("remote-1",)}
    assert cache.hits == 1
    # Data-only mutations drop nothing at all.
    entries_before = len(cache)
    doc2.insert_subtree(doc2.root, element("note", value("n")))
    standing2.refresh()
    assert len(cache) == entries_before


# -- maintained answers ------------------------------------------------------


def make_maintained_world(**overrides):
    # Enough root children that one mutation dirties a minority of the
    # scopes: on a smaller feed the store's count switch (rightly) takes
    # a whole pass instead of re-matching scopes.
    document = build_document(
        E(
            "feed",
            E("item", E("tag", V("hot")), E("title", V("first"))),
            *(
                E("item", E("tag", V("cold")), E("title", V(f"pad-{i}")))
                for i in range(7)
            ),
        )
    )
    registry = ServiceRegistry(
        [
            TableService(
                "getItems",
                {
                    "k1": [
                        E("item", E("tag", V("hot")), E("title", V("remote-1")))
                    ],
                    "k2": [
                        E("item", E("tag", V("cold")), E("title", V("remote-2")))
                    ],
                },
            ),
            TableService("getMeta", {"m": [E("meta", V("z"))]}),
        ]
    )
    config = EngineConfig(
        strategy=Strategy.LAZY_NFQ, maintain_answers=True, **overrides
    )
    evaluator = LazyQueryEvaluator(ServiceBus(registry), config=config)
    query = parse_pattern('/feed/item[tag="hot"]/title/$T')
    return document, evaluator, query


def test_maintained_refresh_skips_the_engine_on_screened_mutations():
    document, evaluator, query = make_maintained_world()
    standing = ContinuousQuery(evaluator, query, document)
    assert standing.answer_cache is not None
    assert standing.value_rows() == {("first",)}
    assert standing.refresh_count == 1
    document.insert_subtree(document.root, element("footer", value("x")))
    assert standing.is_stale
    assert standing.value_rows() == {("first",)}
    assert standing.engine_skips == 1
    assert standing.refresh_count == 1  # the engine never ran


def test_maintained_rows_track_the_full_reevaluation_oracle():
    document, evaluator, query = make_maintained_world()
    standing = ContinuousQuery(evaluator, query, document)
    mutations = [
        lambda d: d.insert_subtree(
            d.root,
            element("item", element("tag", value("hot")),
                    element("title", value("second"))),
        ),
        lambda d: d.insert_subtree(d.root, call("getItems", value("k1"))),
        lambda d: d.insert_subtree(d.root, call("getItems", value("k2"))),
        lambda d: d.remove_subtree(d.root.children[0]),
    ]
    oracle_doc = document.copy()
    oracle = LazyQueryEvaluator(
        ServiceBus(evaluator.bus.registry),
        config=EngineConfig(strategy=Strategy.LAZY_NFQ),
    )
    for index, mutate in enumerate(mutations):
        mutate(document)
        outcome = standing.refresh()
        mutate(oracle_doc)
        expected = oracle.evaluate(query, oracle_doc)
        assert outcome.value_rows() == expected.value_rows(), f"step {index}"
    cache = standing.answer_cache
    assert cache.full_matches == 1  # seeded once, then spliced
    assert cache.scope_rematches >= 1


def test_maintained_final_match_is_a_row_hit_for_answer_disjoint_calls():
    document, evaluator, query = make_maintained_world()
    standing = ContinuousQuery(evaluator, query, document)
    # getMeta's reply carries no item/title labels: relevance must be
    # re-examined (the engine runs, the call is invoked) but the rows
    # provably cannot change — the final match is served cache-hot.
    document.insert_subtree(document.root, call("getMeta", value("m")))
    outcome = standing.refresh()
    assert outcome.value_rows() == {("first",)}
    assert standing.engine_skips == 0
    assert outcome.metrics.answer_cache_hits == 1
    assert outcome.metrics.maintained_rows == 1
    assert standing.answer_cache.scope_rematches == 0


def test_maintained_metrics_report_respliced_rows():
    document, evaluator, query = make_maintained_world()
    standing = ContinuousQuery(evaluator, query, document)
    document.insert_subtree(document.root, call("getItems", value("k1")))
    outcome = standing.refresh()
    assert outcome.value_rows() == {("first",), ("remote-1",)}
    assert outcome.metrics.maintained_rows == 2
    assert outcome.metrics.rows_respliced >= 1
    assert "ans-rows=" in outcome.metrics.summary()


def test_maintained_answers_stay_off_under_bindings_push():
    """They stay on (the name dates from the side table bindings used
    to live in): a bindings reply is spliced like any other, so the
    maintained answer absorbs it."""
    document, evaluator, query = make_maintained_world(
        push_mode=PushMode.BINDINGS
    )
    standing = ContinuousQuery(evaluator, query, document)
    assert standing.answer_cache is not None
    assert standing.value_rows() == {("first",)}
    document.insert_subtree(document.root, call("getItems", value("k1")))
    outcome = standing.refresh()
    assert [r.returned_bindings for r in evaluator.bus.log.records] == [True]
    assert outcome.value_rows() == {("first",), ("remote-1",)}
    assert outcome.metrics.maintained_rows == 2


def test_close_detaches_the_observers():
    document, evaluator, query = make_maintained_world()
    standing = ContinuousQuery(evaluator, query, document)
    observers_before = len(document._observers)
    assert document.relevance is not None  # held across refreshes
    standing.close()
    # No observer is the standing query's own: the one that leaves is
    # the document's relevance store — this was its last holder.
    assert len(document._observers) == observers_before - 1
    assert standing.answer_cache is None and document.relevance is None
    assert len(evaluator._analyses) == 0
    standing.close()  # idempotent
    assert len(document._observers) == observers_before - 1


def test_a_small_document_takes_whole_passes_by_the_count_switch():
    """The maintained answer follows the store's one policy: where a
    mutation dirties most of the root's children (here: the only one),
    a whole pass replaces the scoped re-matches — rows unchanged."""
    document, plain, query = make_world()
    evaluator = LazyQueryEvaluator(
        plain.bus,
        config=EngineConfig(strategy=Strategy.LAZY_NFQ, maintain_answers=True),
    )
    standing = ContinuousQuery(evaluator, query, document)
    document.insert_subtree(document.root, call("getItems", value("k1")))
    outcome = standing.refresh()
    assert outcome.value_rows() == {("first",), ("remote-1",)}
    cache = standing.answer_cache
    assert (cache.full_matches, cache.scope_rematches) == (2, 0)
    assert outcome.metrics.maintained_rows == 0  # a from-scratch match
