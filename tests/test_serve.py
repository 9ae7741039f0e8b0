"""Tests for the multi-tenant serving layer (repro.serve)."""

import dataclasses

import pytest

import repro
from repro import C, E, V, EngineConfig, Strategy, TableService
from repro.lazy import analysis as analyses
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.serve import (
    AnswerDelta,
    AnswerStream,
    QueryServer,
    RefreshStatus,
    TenantPolicy,
    quantile,
)
from repro.services.registry import ServiceBus, ServiceRegistry, bus_of


def resto_service(latency_s=0.05):
    return TableService(
        "getNearbyRestos",
        {
            "1 Madison Av.": [E("resto", V("Nobu"))],
            "2 Av.": [E("resto", V("Katz"))],
            "3 Av.": [E("resto", V("Shula"))],
        },
        latency_s=latency_s,
    )


def hotels_doc():
    return repro.build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Ritz")),
                E(
                    "nearby",
                    E("resto", V("Balthazar")),
                    C("getNearbyRestos", V("1 Madison Av.")),
                ),
            ),
        )
    )


RESTOS = "/hotels/hotel/nearby/resto/$R"
NAMES = "/hotels/hotel/name/$N"


# ---------------------------------------------------------------------------
# repro.subscribe: coercion, rows, refresh, cancel
# ---------------------------------------------------------------------------


class TestSubscribeFacade:
    def test_accepts_same_shapes_as_evaluate(self):
        xml = repro.serialize_document(hotels_doc())
        sub = repro.subscribe(RESTOS, xml, services=[resto_service()])
        assert sub.rows == {("Balthazar",), ("Nobu",)}
        sub.cancel()

    def test_accepts_node_document_and_parsed_query(self):
        query = repro.parse_pattern(RESTOS)
        root = E(
            "hotels",
            E("hotel", E("name", V("Ritz")), E("nearby", E("resto", V("X")))),
        )
        sub = repro.subscribe(query, root, services=[])
        assert sub.rows == {("X",)}
        assert sub.query is query

    def test_reuses_an_existing_bus(self):
        bus = ServiceBus(ServiceRegistry([resto_service()]))
        sub = repro.subscribe(RESTOS, hotels_doc(), services=bus)
        assert len(bus.log.records) == 1
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_lazy_subscription_evaluates_on_first_refresh(self):
        sub = repro.subscribe(
            RESTOS, hotels_doc(), services=[resto_service()], eager=False
        )
        assert sub.rows == frozenset()
        assert sub.is_stale
        outcome = sub.refresh()
        assert outcome.status is RefreshStatus.EVALUATED
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_refresh_when_fresh_is_free(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        outcome = sub.refresh()
        assert outcome.status is RefreshStatus.FRESH
        assert outcome.invocations == 0
        assert outcome.latency_s == 0.0

    def test_cancel_is_idempotent_and_final(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        sub.cancel()
        sub.cancel()
        assert sub.cancelled
        with pytest.raises(ValueError, match="cancelled"):
            sub.refresh()

    def test_loose_engine_kwargs_rejected_with_nearest_field(self):
        with pytest.raises(TypeError, match="call_cache"):
            repro.subscribe(
                RESTOS,
                hotels_doc(),
                services=[resto_service()],
                call_caches=False,
            )

    def test_unrecognisable_kwarg_still_rejected(self):
        with pytest.raises(TypeError, match="zzzzz"):
            repro.subscribe(
                RESTOS, hotels_doc(), services=[], zzzzz=1
            )


# ---------------------------------------------------------------------------
# Answer delta streams
# ---------------------------------------------------------------------------


class TestAnswerStream:
    def test_initial_answer_is_the_first_delta(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        deltas = sub.stream.take()
        assert len(deltas) == 1
        assert deltas[0].added == {("Balthazar",), ("Nobu",)}
        assert deltas[0].removed == frozenset()
        assert deltas[0].rows_total == 2

    def test_refresh_pushes_only_the_change(self):
        doc = hotels_doc()
        sub = repro.subscribe(RESTOS, doc, services=[resto_service()])
        sub.stream.take()
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, E("resto", V("Via Carota")))
        sub.refresh()
        (delta,) = sub.stream.take()
        assert delta.added == {("Via Carota",)}
        assert delta.removed == frozenset()
        assert delta.rows_total == 3

    def test_unchanged_refresh_pushes_nothing(self):
        doc = hotels_doc()
        sub = repro.subscribe(NAMES, doc, services=[resto_service()])
        sub.stream.take()
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        sub.refresh()
        assert sub.stream.pending == 0

    def test_iteration_drains(self):
        stream = AnswerStream()
        for i in range(3):
            stream.push(self._delta(i))
        seen = [d.round_index for d in stream]
        assert seen == [0, 1, 2]
        assert len(stream) == 0

    def test_bounded_buffer_drops_oldest(self):
        stream = AnswerStream(max_pending=2)
        for i in range(5):
            stream.push(self._delta(i))
        assert stream.dropped == 3
        assert stream.delivered == 5
        assert [d.round_index for d in stream.take()] == [3, 4]

    def test_callbacks_fire_on_push(self):
        stream = AnswerStream()
        seen = []
        stream.on_delta(lambda d: seen.append(d.round_index))
        stream.push(self._delta(7))
        assert seen == [7]
        assert stream.pending == 1  # still buffered for iterators

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending"):
            AnswerStream(max_pending=0)

    @staticmethod
    def _delta(i):
        return AnswerDelta(
            added=frozenset({(str(i),)}),
            removed=frozenset(),
            rows_total=1,
            document_version=i,
            round_index=i,
            at_s=0.0,
        )


# ---------------------------------------------------------------------------
# The cross-tenant fast path: statuses and invocation discipline
# ---------------------------------------------------------------------------


class TestFastPath:
    def make_server(self, **config_kwargs):
        server = QueryServer(
            [resto_service()], config=EngineConfig.serving(**config_kwargs)
        )
        doc = hotels_doc()
        return server, doc

    def test_quiet_insert_is_skipped(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert report.counts() == {"skipped": 1}
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_relevant_extensional_insert_is_maintained_without_engine(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        invocations_before = len(server.bus.log.records)
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, E("resto", V("Lilia")))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.MAINTAINED
        assert outcome.invocations == 0
        assert len(server.bus.log.records) == invocations_before
        assert sub.rows == {("Balthazar",), ("Nobu",), ("Lilia",)}
        assert sub.maintained_serves == 1

    def test_inserted_call_forces_the_engine(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, C("getNearbyRestos", V("2 Av.")))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED
        assert outcome.invocations == 1
        assert sub.rows == {("Balthazar",), ("Nobu",), ("Katz",)}

    def test_immediate_call_disables_the_shortcut(self):
        server, doc = self.make_server()
        server.subscribe(NAMES, doc)
        call = C(
            "getNearbyRestos",
            V("3 Av."),
            activation=repro.Activation.IMMEDIATE,
        )
        doc.insert_subtree(doc.root.children[0], call)
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED

    def test_shared_group_pass_serves_many_subscribers(self, monkeypatch):
        """Re-pinned with the probe: the quiet map is no longer one
        pass over every member but one ``engine.is_quiet`` per query
        shape per document version — two texts, two probes, however
        many subscribers stand on them — behind one sweep of the
        document's function nodes per version, not one per shape."""
        from repro.axml.arena import DocumentArena

        sweeps = []
        sweep = DocumentArena.function_nodes
        monkeypatch.setattr(
            DocumentArena,
            "function_nodes",
            lambda arena: sweeps.append(arena.document.version) or sweep(arena),
        )
        server, doc = self.make_server()
        subs = [
            server.subscribe(text, doc, name=f"q{i}")
            for i, text in enumerate([RESTOS, NAMES, RESTOS, NAMES])
        ]
        # A live call in a position no family retrieves (not a hotel
        # child, not under nearby) keeps the document intensional, so
        # quiet verdicts need an actual relevance pass.
        doc.insert_subtree(
            doc.root, E("garage", C("getNearbyRestos", V("3 Av.")))
        )
        doc.insert_subtree(doc.root, E("hotel", E("name", V("Savoy"))))
        report = server.run_round()
        assert {o.status.value for o in report.outcomes} <= {
            "skipped",
            "maintained",
        }
        assert server.probes == 2
        assert sweeps.count(doc.version) == 1
        assert subs[1].rows == {("Ritz",), ("Savoy",)}

    def test_twins_share_one_probe(self):
        server, doc = self.make_server()
        subs = [server.subscribe(NAMES, doc, name=f"q{i}") for i in range(4)]
        doc.insert_subtree(
            doc.root, E("garage", C("getNearbyRestos", V("3 Av.")))
        )
        doc.insert_subtree(doc.root, E("hotel", E("name", V("Savoy"))))
        report = server.run_round()
        assert report.counts() == {"maintained": 4}
        assert server.probes == 1
        assert all(sub.rows == {("Ritz",), ("Savoy",)} for sub in subs)
        # One answer state, one set: the twins hold the same object.
        assert all(sub.rows is subs[0].rows for sub in subs)

    def test_an_unchanged_maintained_serve_pushes_nothing(self):
        """A splice the guard sees but the answer does not: maintained
        (the probe ran), the same rows object as before, no delta."""
        server, doc = self.make_server()
        sub = server.subscribe(NAMES, doc)
        sub.stream.take()
        before = sub.rows
        doc.insert_subtree(doc.root, E("hotel", E("rating", V("3"))))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.MAINTAINED
        assert (outcome.delta_added, outcome.delta_removed) == (0, 0)
        assert sub.stream.pending == 0
        assert sub.rows is before

    def test_naive_strategy_falls_back_while_calls_are_live(self):
        server, doc = self.make_server(strategy=Strategy.NAIVE)
        sub = server.subscribe(RESTOS, doc)
        assert sub.rows == {("Balthazar",), ("Nobu",)}
        # All calls are consumed now; a quiet insert serves maintained.
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L2"))))
        (outcome,) = server.run_round().outcomes
        assert outcome.status in (
            RefreshStatus.SKIPPED,
            RefreshStatus.MAINTAINED,
        )

    def test_rows_match_an_independent_refresh_loop(self):
        """The serving shortcut must be invisible in rows and calls."""
        server, server_doc = self.make_server()
        baseline_bus = bus_of([resto_service()])
        baseline_doc = hotels_doc()
        engine = LazyQueryEvaluator(
            baseline_bus, config=EngineConfig.serving()
        )
        queries = [RESTOS, NAMES]
        subs = [server.subscribe(q, server_doc) for q in queries]
        loops = [
            ContinuousQuery(engine, repro.parse_pattern(q), baseline_doc)
            for q in queries
        ]
        mutations = [
            lambda d: d.insert_subtree(d.root, E("parking", E("x", V("1")))),
            lambda d: d.insert_subtree(
                d.root, E("hotel", E("name", V("Savoy")))
            ),
            lambda d: d.insert_subtree(
                next(
                    n
                    for n in d.root.iter_subtree()
                    if n.is_element and n.label == "nearby"
                ),
                C("getNearbyRestos", V("2 Av.")),
            ),
        ]
        for mutate in mutations:
            mutate(baseline_doc)
            mutate(server_doc)
            baseline_rows = [set(cq.refresh().value_rows()) for cq in loops]
            server.run_round()
            assert [set(s.rows) for s in subs] == baseline_rows
            assert [
                (r.service_name, r.call_node_id, r.fault)
                for r in baseline_bus.log.records
            ] == [
                (r.service_name, r.call_node_id, r.fault)
                for r in server.bus.log.records
            ]
        for cq in loops:
            cq.close()


# ---------------------------------------------------------------------------
# Admission control: budgets, inflight caps, priorities
# ---------------------------------------------------------------------------


def make_call_heavy_doc():
    return repro.build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Ritz")),
                E("nearby", C("getNearbyRestos", V("1 Madison Av."))),
            ),
        )
    )


class TestFrozenAlternative:
    """A frozen call that satisfies a function alternative.

    ``/r/a[b]/c/$x`` over ``<r><a>fb() <c>g()</c></a></r>`` with ``fb``
    failing under ``FREEZE``: subscribe freezes ``fb``, the engine
    simplifies ``b``'s alternative away and never touches ``g``.  The
    *initial* family still retrieves ``g`` (through the ``fb``
    alternative), which is what the server's own evaluator read before
    the probe: an admission slot for a refresh with nothing to invoke.
    """

    QUERY = "/r/a[b]/c/$x"

    @staticmethod
    def services():
        from repro.services.catalog import FlakyService, StaticService

        return [
            FlakyService(StaticService("fb", [E("b")]), 1.0),
            StaticService("g", [V("v")]),
            TableService("feed", {"k1": [E("item", V("one"))],
                                  "k2": [E("item", V("two"))]}),
        ]

    @staticmethod
    def document():
        return repro.build_document(E("r", E("a", C("fb"), E("c", C("g")))))

    def loop(self, touch):
        """The independent deployment: one ``ContinuousQuery`` on a bus
        of its own over a twin, refreshed after the same insert."""
        bus = bus_of(self.services())
        engine = LazyQueryEvaluator(bus, config=EngineConfig.serving())
        twin = self.document()
        core = ContinuousQuery(engine, repro.parse_pattern(self.QUERY), twin)
        touch(twin)
        rows = core.refresh().value_rows()
        core.close()
        return rows, [(r.service_name, bool(r.fault)) for r in bus.log.records]

    @staticmethod
    def touch(document):
        # Lands in the guard footprint (a ``c`` under ``a``): the
        # refresh cannot be skipped, the quiet verdict decides.
        document.insert_subtree(document.root.children[0], E("c", V("w")))

    def test_alone_it_is_maintained(self):
        server = QueryServer(self.services())
        document = self.document()
        sub = server.subscribe(self.QUERY, document)
        assert [r.service_name for r in server.bus.log.records] == ["fb"]
        self.touch(document)
        (outcome,) = server.run_round().outcomes
        # EVALUATED (0 invocations) at the parent of this change.
        assert outcome.status is RefreshStatus.MAINTAINED
        assert outcome.invocations == 0
        rows, log = self.loop(self.touch)
        assert set(sub.rows) == rows
        assert [
            (r.service_name, bool(r.fault)) for r in server.bus.log.records
        ] == log == [("fb", True)]

    def test_behind_a_sibling_engine_run_it_asks_no_admission(self):
        server = QueryServer(self.services())
        account = server.register_tenant("t", TenantPolicy(max_inflight=1))
        feed = repro.build_document(E("feed", C("feed", V("k1"))))
        sibling = server.subscribe("/feed/item/$i", feed, tenant="t")
        document = self.document()
        sub = server.subscribe(self.QUERY, document, tenant="t")
        feed.insert_subtree(feed.root, C("feed", V("k2")))
        self.touch(document)
        first, second = server.run_round().outcomes
        assert first.subscription_id == sibling.id
        assert (first.status, first.invocations) == (RefreshStatus.EVALUATED, 1)
        # DEFERRED with reason "inflight" at the parent of this change:
        # a failed operation for a refresh that had nothing to invoke.
        assert second.status is RefreshStatus.MAINTAINED
        assert second.reason is None and second.invocations == 0
        assert account.round_engine_runs == 1  # the sibling's, only
        assert account.by_status["deferred"] == 0
        rows, log = self.loop(self.touch)
        assert set(sub.rows) == rows
        assert [
            (r.service_name, bool(r.fault))
            for r in server.bus.log.records
            if r.service_name != "feed"
        ] == log
        assert sibling.rows == {("one",), ("two",)}


class TestAdmission:
    def test_budget_defers_only_the_noisy_tenant(self):
        server = QueryServer([resto_service()])
        server.register_tenant("noisy", TenantPolicy(invocation_budget=1))
        noisy_doc = make_call_heavy_doc()
        victim_doc = make_call_heavy_doc()
        noisy = [
            server.subscribe(RESTOS, noisy_doc, tenant="noisy", eager=False)
            for _ in range(3)
        ]
        victim = server.subscribe(
            RESTOS, victim_doc, tenant="victim", eager=False
        )
        report = server.run_round()
        by_name = {}
        for outcome in report.outcomes:
            by_name.setdefault(outcome.tenant, []).append(outcome.status)
        # The first noisy refresh invokes and exhausts the budget; the
        # rest of that tenant defers.  The victim is untouched.
        assert by_name["noisy"][0] is RefreshStatus.EVALUATED
        assert all(
            s is RefreshStatus.DEFERRED for s in by_name["noisy"][1:]
        )
        assert by_name["victim"] == [RefreshStatus.EVALUATED]
        assert victim.rows == {("Nobu",)}
        deferred = [
            o
            for o in report.outcomes
            if o.status is RefreshStatus.DEFERRED
        ]
        assert {o.reason for o in deferred} == {"budget"}
        assert all(not o.served for o in deferred)
        # Deferred subscriptions are still due and go first next round.
        report2 = server.run_round()
        assert [o.tenant for o in report2.outcomes][:1] == ["noisy"]
        assert noisy[1].rows == {("Nobu",)}

    def test_inflight_cap_limits_engine_runs_per_round(self):
        server = QueryServer([resto_service()])
        server.register_tenant("t", TenantPolicy(max_inflight=2))
        doc = make_call_heavy_doc()
        for _ in range(4):
            server.subscribe(RESTOS, doc, tenant="t", eager=False)
        report = server.run_round()
        counts = report.counts()
        assert counts["deferred"] >= 1
        deferred = [
            o
            for o in report.outcomes
            if o.status is RefreshStatus.DEFERRED
        ]
        assert {o.reason for o in deferred} == {"inflight"}

    def test_skips_and_maintained_serves_cost_no_budget(self):
        server = QueryServer([resto_service()])
        server.register_tenant(
            "t", TenantPolicy(invocation_budget=1, max_inflight=1)
        )
        doc = hotels_doc()
        subs = [
            server.subscribe(RESTOS, doc, tenant="t") for _ in range(5)
        ]
        doc.insert_subtree(doc.root, E("hotel", E("name", V("Savoy"))))
        report = server.run_round()
        assert "deferred" not in report.counts()
        assert all(o.served for o in report.outcomes)
        assert all(s.rows == subs[0].rows for s in subs)

    def test_priority_orders_rounds_fifo_within_class(self):
        server = QueryServer([resto_service()])
        server.register_tenant("bulk", TenantPolicy(priority=1))
        server.register_tenant("gold", TenantPolicy(priority=0))
        doc = hotels_doc()
        server.subscribe(NAMES, doc, tenant="bulk", name="b0")
        server.subscribe(NAMES, doc, tenant="gold", name="g0")
        server.subscribe(NAMES, doc, tenant="bulk", name="b1")
        server.subscribe(NAMES, doc, tenant="gold", name="g1")
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert [o.subscription_name for o in report.outcomes] == [
            "g0",
            "g1",
            "b0",
            "b1",
        ]
        assert report.for_tenant("gold")[0].subscription_name == "g0"

    def test_tenant_policy_validation(self):
        with pytest.raises(ValueError, match="invocation_budget"):
            TenantPolicy(invocation_budget=0)
        with pytest.raises(ValueError, match="max_inflight"):
            TenantPolicy(max_inflight=-2)
        with pytest.raises(TypeError, match="priority"):
            TenantPolicy(priority="high")

    def test_tenant_metrics_snapshot(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        server.subscribe(RESTOS, doc, tenant="a")
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        metrics = server.tenant_metrics()["a"]
        assert metrics["refreshes"] == 1
        assert metrics["skipped"] == 1
        assert metrics["invocations"] == 1  # the eager subscribe
        assert metrics["p99_latency_s"] >= 0.0


# ---------------------------------------------------------------------------
# The serving clock
# ---------------------------------------------------------------------------


class TestServingClock:
    def test_simulated_service_time_is_charged(self):
        server = QueryServer([resto_service(latency_s=2.5)])
        server.subscribe(RESTOS, hotels_doc())
        assert server.clock.now() >= 2.5

    def test_compute_time_accumulates(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        server.subscribe(RESTOS, doc)
        before = server.clock.compute_s
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        assert server.clock.compute_s > before

    def test_latency_measures_due_to_served(self):
        server = QueryServer([resto_service(latency_s=1.0)])
        doc = make_call_heavy_doc()
        sub = server.subscribe(RESTOS, doc, eager=False)
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED
        assert outcome.latency_s is not None
        assert outcome.latency_s >= 1.0  # the simulated invocation
        assert not sub.is_stale

    def test_quantile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert quantile(values, 0.50) == 50.0
        assert quantile(values, 0.99) == 99.0
        assert quantile([], 0.99) == 0.0
        assert quantile([7.0], 0.5) == 7.0


# ---------------------------------------------------------------------------
# Config consolidation: serving() preset, single config= entry point
# ---------------------------------------------------------------------------


class TestConfigSurface:
    def test_serving_preset(self):
        config = EngineConfig.serving()
        assert "maintain_answers" not in EngineConfig.field_names()
        assert "incremental" not in EngineConfig.field_names()
        assert "shared_matching" not in EngineConfig.field_names()
        assert config.call_cache
        assert config.max_concurrency == 4
        assert config.fault_policy is repro.FaultPolicy.FREEZE

    def test_serving_preset_accepts_overrides(self):
        config = EngineConfig.serving(
            strategy=Strategy.LAZY_LPQ, call_cache=30.0
        )
        assert config.strategy is Strategy.LAZY_LPQ
        assert config.call_cache == 30.0

    def test_nearest_field_suggestions(self):
        assert EngineConfig.nearest_field("call_caches") == "call_cache"
        assert EngineConfig.nearest_field("stratgy") == "strategy"
        assert EngineConfig.nearest_field("qqqqqq") is None

    def test_query_server_rejects_loose_engine_kwargs(self):
        with pytest.raises(TypeError, match="call_cache"):
            QueryServer([], call_caching=True)

    def test_query_server_rejects_non_config(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            QueryServer([], config={"strategy": "lazy-nfq"})

    def test_subscribe_method_rejects_loose_engine_kwargs(self):
        server = QueryServer([])
        with pytest.raises(TypeError, match="max_invocations"):
            server.subscribe(NAMES, hotels_doc(), max_invocation=3)


# ---------------------------------------------------------------------------
# ContinuousQuery takes an evaluator: the keyword form is gone
# ---------------------------------------------------------------------------


class TestContinuousQueryShim:
    def test_evaluator_and_services_together_rejected(self):
        engine = LazyQueryEvaluator(bus_of([]))
        with pytest.raises(TypeError, match="services"):
            ContinuousQuery(
                engine,
                repro.parse_pattern(NAMES),
                hotels_doc(),
                services=[resto_service()],
            )

    def test_missing_arguments_rejected(self):
        with pytest.raises(TypeError, match="evaluator"):
            ContinuousQuery(query=repro.parse_pattern(NAMES))


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


class TestServerLifecycle:
    def test_documents_share_state_only_within_a_group(self):
        server = QueryServer([resto_service()])
        doc_a, doc_b = hotels_doc(), hotels_doc()
        sub_a = server.subscribe(RESTOS, doc_a)
        sub_b = server.subscribe(RESTOS, doc_b)
        doc_a.insert_subtree(doc_a.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert len(report.outcomes) == 1  # only doc_a's sub was due
        assert report.outcomes[0].subscription_id == sub_a.id
        assert not sub_b.is_stale

    def test_cancel_detaches_document_group(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        sub1 = server.subscribe(RESTOS, doc)
        sub2 = server.subscribe(NAMES, doc)
        sub1.cancel()
        assert id(doc) in server._docs
        sub2.cancel()
        assert id(doc) not in server._docs
        assert server.subscriptions == []

    def test_close_cancels_everything(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        subs = [server.subscribe(NAMES, doc) for _ in range(3)]
        server.close()
        assert all(s.cancelled for s in subs)
        assert server._docs == {}

    def test_round_report_counts_empty_round(self):
        server = QueryServer([resto_service()])
        server.subscribe(NAMES, hotels_doc())
        report = server.run_round()
        assert report.outcomes == ()
        assert report.counts() == {}

    def test_rounds_are_traced(self):
        sink = repro.InMemorySink()
        server = QueryServer(
            [resto_service()], config=EngineConfig.serving(), trace=sink
        )
        doc = hotels_doc()
        server.subscribe(RESTOS, doc)
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        names = [span.name for span in sink.spans]
        assert "serve_round" in names
        assert "serve_refresh" in names

    def test_quiet_map_refreshes_are_traced_by_what_they_matched(self):
        """Re-pinned with the probe: the ``quiet_map`` span and its
        ``members`` / ``dirty_scopes`` / ``whole_pass`` tags described
        the server's own store read, which is gone.  What is traced is
        one ``group_pass`` span per probe — the query's name and the
        verdict — under the ``serve_refresh`` of the subscriber that
        asked, and the round's ``group_passes`` tag counts them."""
        sink = repro.InMemorySink()
        server = QueryServer(
            [resto_service()], config=EngineConfig.serving(), trace=sink
        )
        doc = hotels_doc()
        server.subscribe(RESTOS, doc, name="restos")
        server.subscribe(RESTOS, doc, name="twin")
        # A live call no family retrieves keeps quiet verdicts honest.
        doc.insert_subtree(
            doc.root, E("garage", C("getNearbyRestos", V("3 Av.")))
        )
        server.run_round()
        nearby = doc.root.children[0].children[1]
        doc.insert_subtree(nearby, C("getNearbyRestos", V("2 Av.")))
        server.run_round()
        assert not [s for s in sink.spans if s.name == "quiet_map"]
        probes = [s for s in sink.spans if s.name == "group_pass"]
        # Round 0: the garage splice misses both twins' guard, so they
        # are served SKIPPED before any probe.  Round 1: the first
        # twin's probe is not quiet and its engine run moves the
        # version, so the second twin asks again — quiet now.
        assert [(s.tags["query"], s.tags["quiet"]) for s in probes] == [
            ("restos", False),
            ("twin", True),
        ]
        refreshes = {
            s.span_id: s for s in sink.spans if s.name == "serve_refresh"
        }
        assert [
            refreshes[s.parent_id].tags["subscription"] for s in probes
        ] == ["restos", "twin"]
        rounds = [s for s in sink.spans if s.name == "serve_round"]
        assert [s.tags["group_passes"] for s in rounds] == [0, 2]
        assert server.probes == 2


# ---------------------------------------------------------------------------
# The document's arena across a whole serving session
# ---------------------------------------------------------------------------


def test_session_leaves_the_document_arena_consistent(monkeypatch):
    """Subscribe, interleaved inserts, rounds, an on-demand refresh and
    cancels: engines, quiet probes and answer caches all read the one
    arena the document built — once — and leave it an exact mirror.
    (The server holds no matcher of its own any more, so the identity
    check reads the answer cache's.)"""
    from repro.axml.arena import DocumentArena

    builds = []
    build = DocumentArena._build
    monkeypatch.setattr(
        DocumentArena,
        "_build",
        lambda self: (builds.append(self.document), build(self)),
    )
    document = hotels_doc()
    server = QueryServer([resto_service()])
    restos = server.subscribe(RESTOS, document, tenant="a")
    arena = document.arena
    hotel = document.root.children[0]
    document.insert_subtree(
        hotel.children[1], C("getNearbyRestos", V("2 Av."))
    )
    names = server.subscribe(NAMES, document, tenant="b")
    assert restos._core.answer_cache.matcher._column.arena is arena
    server.run_round()
    document.insert_subtree(hotel, E("name", V("Carlton")), position=0)
    assert names.refresh().served
    document.insert_subtree(
        document.root,
        E("hotel", E("name", V("Plaza")), E("nearby", E("resto", V("Odeon")))),
    )
    restos.cancel()
    server.run_round()
    assert names.rows == {("Ritz",), ("Carlton",), ("Plaza",)}
    names.cancel()
    assert builds == [document]
    assert document.arena is arena and arena in document._observers
    assert arena.consistency_errors() == []


def test_a_naive_server_builds_the_documents_arena_once(monkeypatch):
    """``NAIVE`` matches on the plan as every strategy does: its server
    reads the one arena the document builds, and keeps it exact."""
    from repro.axml.arena import DocumentArena

    builds = []
    build = DocumentArena._build
    monkeypatch.setattr(
        DocumentArena,
        "_build",
        lambda self: (builds.append(self.document), build(self)),
    )
    document = hotels_doc()
    server = QueryServer(
        [resto_service()],
        config=EngineConfig.serving(strategy=Strategy.NAIVE),
    )
    sub = server.subscribe(RESTOS, document)
    document.insert_subtree(
        document.root.children[0].children[1],
        C("getNearbyRestos", V("2 Av.")),
    )
    server.run_round()
    assert sub.rows == {("Balthazar",), ("Nobu",), ("Katz",)}
    server.close()
    assert builds == [document]
    assert document.arena.consistency_errors() == []


# ---------------------------------------------------------------------------
# Twins: a repeat subscriber derives nothing again
# ---------------------------------------------------------------------------


def test_a_second_subscriber_of_a_text_derives_nothing_again(monkeypatch):
    """Equal shape means the same derived state: once a text's analysis
    is built, no later subscriber of it builds an NFQ family again —
    not even after the last holder cancelled, since a released analysis
    stays kept — and on an unchanged document a second subscriber
    matches nothing (every relevance retrieval is a hit on the
    document's store); a later twin re-matches at most the scopes the
    splices since touched, never the document."""
    from repro.lazy.relevance import NFQBuilder
    from repro.workloads.hotels import (
        PAPER_QUERY_TEXT,
        HotelsWorkloadParams,
        build_hotels_workload,
    )

    builds = []
    build_all = NFQBuilder.build_all
    monkeypatch.setattr(
        NFQBuilder,
        "build_all",
        lambda self, *a, **kw: builds.append(1) or build_all(self, *a, **kw),
    )
    workload = build_hotels_workload(HotelsWorkloadParams(n_hotels=12))
    server = QueryServer(workload.registry, schema=workload.schema)
    doc = workload.make_document()
    # Materialise what the query needs, then let everything go.
    server.subscribe(PAPER_QUERY_TEXT, doc).cancel()
    assert builds and doc.relevance is None

    del builds[:]
    first = server.subscribe(PAPER_QUERY_TEXT, doc)
    seeded = first.result.metrics
    assert builds == [] and seeded.calls_invoked == 0
    assert seeded.queries_reevaluated == seeded.relevance_evaluations > 0
    store = doc.relevance
    whole = store.whole_passes
    # One entry, one seed, per relevance query — and the answer's.
    assert whole == len(store._entries) == seeded.relevance_evaluations + 1

    del builds[:]
    second = server.subscribe(PAPER_QUERY_TEXT, doc)
    metrics = second.result.metrics
    assert builds == []
    assert metrics.relevance_evaluations == seeded.relevance_evaluations
    assert metrics.relevance_cache_hits == metrics.relevance_evaluations
    assert metrics.queries_reevaluated == 0
    assert second.rows == first.rows and second.rows

    # The document moves: the next twin re-matches scopes, not shapes.
    spot = next(n for n in doc.iter_nodes() if n.label == "nearby")
    doc.insert_subtree(spot, C("getNearbyRestos", V("1 Madison Av.")))
    third = server.subscribe(PAPER_QUERY_TEXT, doc)
    assert builds == [] and store.whole_passes == whole
    assert third.result.metrics.relevance_scope_rematches > 0
    assert len(analyses._analyses) == 1
    server.close()


# ---------------------------------------------------------------------------
# Bounded under churn: a departed subscriber leaves nothing behind
# ---------------------------------------------------------------------------


def test_subscribe_cancel_churn_leaves_every_table_at_its_starting_size():
    """1,000 subscribe / serve / cancel cycles of rotating query texts
    on one document: the server's quiet verdicts, the document's
    relevance store (entries — answers included — holders and their
    pattern tables, guards, log), the engine's analyses and the
    server's own maps end where they started — a long-lived server
    does not grow with its subscribers' comings and goings.  (Re-pinned
    with the probe: the group, its shape table and ``_standing`` are
    gone; the verdicts are the one table the server adds.)"""
    server = QueryServer([resto_service()])
    doc = hotels_doc()
    keeper = server.subscribe(NAMES, doc)  # keeps the document registered
    server.subscribe(RESTOS, doc).cancel()  # consumes the one relevant call
    # A live call no family retrieves: every serve needs a real probe.
    doc.insert_subtree(doc.root, E("garage", C("getNearbyRestos", V("3 Av."))))
    # An empty hotel touches the keeper's guard (not its rows), so the
    # keeper's shape is probed here rather than skipped.
    doc.insert_subtree(doc.root, E("hotel"))
    server.run_round()
    state = server._docs[id(doc)]
    store = doc.relevance

    def sizes():
        return {
            "verdicts": len(state.verdicts),
            "store entries": len(store._entries),
            "store holders": len(store._holders),
            "holder tables": sum(
                len(held) for held in store._holders.values()
            ),
            "store guards": len(store._guards),
            "store log": len(store._log),
            "analyses": len(analyses._analyses),
            "subscriptions": len(state.subs) + len(server._subs),
            "observers": len(doc._observers),
        }

    start = sizes()
    texts = [NAMES, RESTOS] + [
        f"/hotels/hotel[name=$N]/nearby/resto{i}/$R" for i in range(5)
    ]
    peak = probes = 0
    for cycle in range(1000):
        sub = server.subscribe(
            texts[cycle % len(texts)], doc, tenant=f"t{cycle % 3}", eager=False
        )
        server.run_round()
        peak = max(peak, len(store._entries))
        probes = max(probes, len(state.verdicts))
        sub.cancel()
        assert sizes() == start, cycle
    assert peak > start["store entries"]  # the rotation did add shapes
    assert probes > start["verdicts"]  # ... and verdicts
    assert store is doc.relevance  # the document's own, all along
    assert keeper.rows == {("Ritz",)}
    server.close()
    assert server._docs == {} and server._subs == {}
    assert doc.relevance is None and len(analyses._analyses) == 0
    # Detached with its last holder, and empty.
    assert store not in doc._observers
    assert not (len(store._entries) or len(store._holders) or store._guards)


def test_subscribers_cost_a_document_two_observers():
    """64 subscribers over 6 texts: the document is observed by its
    store and its arena, exactly as with one subscriber; the store
    keeps one answer entry per distinct query shape; close leaves the
    arena alone."""
    from repro.axml.arena import DocumentArena
    from repro.lazy.incremental import RelevanceStore

    server = QueryServer([resto_service()], config=EngineConfig.serving())
    doc = hotels_doc()
    texts = [NAMES, RESTOS] + [
        f"/hotels/hotel[name=$N]/nearby/resto{i}/$R" for i in range(4)
    ]
    subs = [server.subscribe(texts[0], doc)]
    after_one = len(doc._observers)
    subs += [server.subscribe(texts[i % 6], doc) for i in range(1, 64)]
    assert len(doc._observers) == after_one == 2
    assert {type(o) for o in doc._observers} == {RelevanceStore, DocumentArena}
    store = doc.relevance
    answers = {sub.query.shape for sub in subs}
    assert len(answers) == 6
    kept = set(store._entries._slots)
    assert answers <= kept
    assert len(store._guards) == 6  # one per text, not per subscriber
    for sub in subs:
        assert sub.rows == repro.Matcher(sub.query).evaluate(doc).value_rows()
    server.close()
    assert doc.relevance is None and doc._observers == [doc.arena]
