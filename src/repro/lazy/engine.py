"""The lazy query evaluator — the NFQA algorithm and its refinements.

Ties everything together (Sections 3-7):

1. build the relevance queries for the user query — LPQs (Section 3.1)
   or (refined) NFQs (Sections 3.2 / 5);
2. analyse their mutual influence (Proposition 3), split them into
   totally ordered layers (Section 4.3) and precompute per-query
   independence (condition (*), Section 4.4);
3. run the NFQA loop per layer: read the layer's relevance queries
   through the document's store and invoke the retrieved calls, one at a
   time or as an exact parallel round — the (*)-independent and the
   definitely relevant ones (Section 4.4); repeat until the layer goes
   quiet, then simplify the remaining NFQs (drop the finished layer's
   function alternatives);
4. optionally push subqueries over the invoked calls (Section 7),
   splicing filtered forests, or bindings as their witness forests;
5. finally evaluate the (now complete) document conventionally and
   return the full result with a metrics record.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from typing import Iterator, Optional

from ..axml.document import Document
from ..axml.node import Activation, Node
from ..axml.paths import call_position
from ..obs.trace import (
    ANSWER_MAINT,
    COLUMN_PASS,
    EVALUATE,
    FINAL_MATCH,
    LAYER,
    PUSH,
    RELEVANCE_CHECK,
    ROUND,
    SATISFIABILITY,
    AnyTracer,
    tracer_for,
)
from ..pattern.match import Matcher, MatchCounter, MatchSet
from ..pattern.nodes import EdgeKind
from ..pattern.pattern import TreePattern
from ..schema.schema import Schema, SchemaError
from ..services.registry import ServiceBus, ServiceCall
from ..services.resilience import InvocationPolicy, ResilientOutcome
from ..services.scheduler import CallCache
from ..services.service import PushMode
from . import analysis as analyses
from .analysis import QueryAnalysis
from .answers import AnswerCache
from .config import EngineConfig, FaultPolicy, Strategy
from .incremental import RelevanceStore, Verdict
from .layers import Layer
from .metrics import Metrics, RoundRecord
from .naive import naive_fixpoint
from .pushing import PushedSubquery, witness_forest
from .relevance import RelevanceQuery


class EvaluationOutcome:
    """Full result of a query plus the work it took."""

    def __init__(
        self,
        query: TreePattern,
        document: Document,
        rows: MatchSet,
        metrics: Metrics,
        rounds: list[RoundRecord],
    ) -> None:
        self.query = query
        self.document = document
        self.rows = rows
        self.metrics = metrics
        self.rounds = rounds

    def value_rows(self) -> set[tuple[str, ...]]:
        """Result rows as tuples of labels/values (order-insensitive)."""
        return self.rows.value_rows()

    def to_xml(self) -> str:
        """Serialise the full result as an XML tuple list.

        Each row becomes a ``<tuple>``; element result nodes are
        serialised with their subtree, value results are wrapped in
        ``<value>`` elements (matching the Section 7 reply shape).
        """
        from ..axml.node import element, value
        from ..axml.xmlio import serialize

        results = element("results")
        for row in self.rows:
            row_element = element("tuple")
            for node in row.nodes:
                if node.is_value:
                    row_element.append(element("value", value(node.label)))
                else:
                    row_element.append(node.clone())
            results.append(row_element)
        return serialize(results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvaluationOutcome({len(self.rows)} rows, {self.metrics.summary()})"


class LazyQueryEvaluator:
    """Evaluates tree-pattern queries over AXML documents, lazily.

    Args:
        bus: the service bus resolving and accounting invocations.
        schema: element content models (for the typed modes, the
            signatures registered on the bus are merged in at each
            :meth:`acquire`).
        config: strategy and tunables (embedding semantics included);
            defaults to layered parallel NFQA.
    """

    def __init__(
        self,
        bus: ServiceBus,
        schema: Optional[Schema] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.bus = bus
        self.schema = schema
        self.config = config or EngineConfig()

    # -- query analyses --------------------------------------------------------

    def acquire(self, query: TreePattern) -> QueryAnalysis:
        """The process's one :class:`QueryAnalysis` of ``query``'s shape
        under this evaluator's config, schema and bus
        (:func:`repro.lazy.analysis.acquire`), held until
        :meth:`release`."""
        return analyses.acquire(query, self.config, self.schema, self.bus.registry)

    def release(self, analysis: QueryAnalysis) -> None:
        analyses.release(analysis)

    def _tracer(self) -> AnyTracer:
        """Spans of a run or a probe, on the bus's simulated clock."""
        return tracer_for(self.config.trace, sim_clock=lambda: self.bus.clock_s)

    # -- public API ------------------------------------------------------------

    def evaluate(
        self,
        query: TreePattern,
        document: Document,
        answer_cache: Optional[AnswerCache] = None,
        analysis: Optional[QueryAnalysis] = None,
    ) -> EvaluationOutcome:
        """Compute the *full result* of ``query`` over ``document``.

        The document is mutated in place (calls are invoked and replaced
        by their results); copy it first if you need the original.

        ``answer_cache`` (a standing query's, passed by
        :class:`~repro.lazy.continuous.ContinuousQuery`; a one-shot
        evaluation passes none) replaces the final full match with
        dirty-subtree re-matching over the maintained rows; it must be
        pinned to exactly this query and document.  ``analysis`` is the
        standing query's own hold on ``acquire(query)``, so a refresh
        neither looks it up nor lets it go.
        """
        tracer = self._tracer()
        if answer_cache is not None and (
            answer_cache.query is not query
            or answer_cache.document is not document
        ):
            raise ValueError(
                "answer_cache is pinned to a different query or document"
            )
        cache = self.config.call_cache
        if cache:
            # Cache state lives on the bus (like breaker state), so it
            # persists across evaluations sharing a ServiceBus.
            ttl_s = None if cache is True else cache
            if self.bus.cache is None:
                self.bus.cache = CallCache(ttl_s=ttl_s)
            elif cache is not True and self.bus.cache.ttl_s != ttl_s:
                raise ValueError(
                    f"EngineConfig.call_cache={cache!r} cannot apply: the "
                    f"bus already carries a call cache with ttl_s="
                    f"{self.bus.cache.ttl_s!r}"
                )
        if analysis is not None and analysis.query.shape != query.shape:
            raise ValueError("analysis belongs to a differently shaped query")
        state = _EvaluationState(
            self, query, document, tracer, answer_cache, analysis
        )
        started = time.perf_counter()
        try:
            with tracer.span(EVALUATE) as span:
                if span is not None:
                    span.tags["strategy"] = self.config.label
                    span.tags["query"] = query.to_string()
                if self.config.strategy is Strategy.NAIVE:
                    state.run_naive()
                else:
                    state.run_lazy()
                with tracer.span(FINAL_MATCH):
                    rows = state.final_evaluation()
        finally:
            state.teardown()
        state.metrics.analysis_wall_s = time.perf_counter() - started
        state.finalize_metrics(rows)
        return EvaluationOutcome(
            query=query,
            document=document,
            rows=rows,
            metrics=state.metrics,
            rounds=state.rounds,
        )

    def is_quiet(
        self, query: TreePattern, document: Document, analysis: QueryAnalysis
    ) -> bool:
        """Would the lazy layers of :meth:`evaluate` invoke nothing?

        Not an approximation of the run but the run's own layer
        sequence (Sections 4.1 / 4.3) stopped at the first non-empty
        relevance check: each layer's queries read along
        ``analysis.family(completed)`` through ``analysis``'s hold on
        the document's store — the entries the last engine run seeded
        and the next one reads.  Nothing is invoked or spliced, no
        final match runs, and no budget applies.  ``IMMEDIATE`` calls
        fire before the layers: they are a fact about the document
        version, not about a query shape, and the caller's to rule out.
        """
        state = _EvaluationState(
            self, query, document, self._tracer(), None, analysis
        )
        try:
            return state.probe_quiet()
        finally:
            state.teardown()


class _EvaluationState:
    """Per-evaluation mutable state (one evaluate() call)."""

    def __init__(
        self,
        evaluator: LazyQueryEvaluator,
        query: TreePattern,
        document: Document,
        tracer: AnyTracer,
        answer_cache: Optional[AnswerCache] = None,
        analysis: Optional[QueryAnalysis] = None,
    ) -> None:
        self.evaluator = evaluator
        self.config = evaluator.config
        self.bus = evaluator.bus
        self.query = query
        self.document = document
        self.tracer = tracer

        self.metrics = Metrics(strategy=self.config.label)
        self.rounds: list[RoundRecord] = []
        self.match_counter = MatchCounter()
        self._log_start = len(self.bus.log.records)

        #: The caller's hold; else acquired by ``_layer_sequence``.
        self.analysis = analysis
        self._acquired = False
        self.store: Optional[RelevanceStore] = None
        self.answer_cache = answer_cache
        #: What ``validate_io`` checks calls and replies against.
        self._schema: Optional[Schema] = (
            self.bus.registry.schema_with_signatures(base=evaluator.schema)
            if self.config.validate_io
            else None
        )
        self._queries_by_target: dict[int, RelevanceQuery] = {}
        self._completed_targets: frozenset[int] = frozenset()
        # Constant for the evaluation: every call gets this one object.
        self._policy = InvocationPolicy(
            retry=self.config.retry, breaker=self.config.breaker
        )

    # -- lifecycle ---------------------------------------------------------------

    def teardown(self) -> None:
        if self.store is not None:
            self.store.drop(self.analysis)
        if self._acquired:
            self.evaluator.release(self.analysis)

    def finalize_metrics(self, rows: MatchSet) -> None:
        metrics = self.metrics
        metrics.result_rows = len(rows)
        metrics.final_document_nodes = self.document.live_nodes
        metrics.column_pass_nodes = self.match_counter.column_pass_nodes
        metrics.column_rows = self.match_counter.column_rows
        arena = self.document.arena
        metrics.arena_nodes = arena.live_nodes
        metrics.arena_bytes = arena.column_bytes()
        # The evaluation's attempts, as logged: the one account of what
        # each cost, summed here once.
        for record in self.bus.log.records[self._log_start :]:
            metrics.bytes_sent += record.request_bytes
            metrics.bytes_received += record.response_bytes
            metrics.retries += record.attempt > 1
            metrics.backoff_s += record.backoff_s
            if record.fault:
                metrics.faults += 1
                metrics.failed_attempt_time_s += record.simulated_time_s

    # -- strategies ------------------------------------------------------------------

    def run_naive(self) -> None:
        naive_fixpoint(self.document, self._invoke_round, self.tracer)

    def run_lazy(self) -> None:
        self._fire_immediate_calls()
        for layer in self._layer_sequence():
            if not self._budget_left():
                self.metrics.completed = False
                break
            with self.tracer.span(
                LAYER, index=layer.index, queries=len(layer.queries)
            ):
                self._process_layer(layer)

    def probe_quiet(self) -> bool:
        """Does every layer's first relevance check come back empty?
        The run's own sequence, stopped at the first call it would
        invoke."""
        return not any(
            self._collect_relevant(layer) for layer in self._layer_sequence()
        )

    def _layer_sequence(self) -> Iterator[Layer]:
        """Sections 4.1 / 4.3, once for the run and the probe: open the
        analysis (the caller's hold, else acquired), teach it the
        service names of the bus and the document (a refining family
        lists them, and its layers are laid out over them), open its
        hold on the document's store, then hand out the layers in
        order.  Coming back for the next one absorbs the finished
        layer's targets and drops their function alternatives from the
        family still to come; a consumer that stops early leaves the
        rest unsimplified."""
        with self.tracer.span(
            SATISFIABILITY, typing=self.config.typing.value, reason="build"
        ) as span:
            if self.analysis is None:
                self.analysis = self.evaluator.acquire(self.query)
                self._acquired = True
            analysis = self.analysis
            analysis.add_function_names(
                itertools.chain(
                    self.bus.registry.names(), self.document.function_labels
                )
            )
            self._queries_by_target = analysis.family()
            layers = analysis.layers
            if span is not None:
                span.tags["queries"] = len(self._queries_by_target)
        self.metrics.relevance_queries_built = len(self._queries_by_target)
        self.store = RelevanceStore.of(self.document)
        self.store.hold(analysis)
        self.metrics.layers = len(layers)
        for layer in layers:
            yield layer
            self._completed_targets |= self._absorbed_targets(layer)
            self._simplify(reason="layer_done")

    def _fire_immediate_calls(self) -> None:
        """Invoke every IMMEDIATE-activation call (Section 1's eager
        mode) before the lazy analysis starts, to a fixpoint, in
        document order.  The document keeps their ids, so without any
        the check reads no node."""
        while self._budget_left():
            eager = self.document.immediate_calls()
            if not eager:
                return
            # Mirror before the first splice: a pristine document's
            # arena is a copy, not a build that makes every node.
            self.document.arena
            with self.tracer.span(ROUND, phase="immediate"):
                self._invoke_round([(call, frozenset()) for call in eager])

    # -- relevance-query management ---------------------------------------------------

    def _simplify(self, reason: str) -> None:
        """Read the family for the targets completed so far (Section
        4.3 simplification) — rebuilt only when new service names
        refined it (Section 5)."""
        with self.tracer.span(
            SATISFIABILITY, typing=self.config.typing.value, reason=reason
        ):
            self._queries_by_target = self.analysis.family(
                self._completed_targets
            )

    def _absorbed_targets(self, layer: Layer) -> set[int]:
        out: set[int] = set()
        for uid in layer.target_uids:
            out.add(uid)
            query = self._queries_by_target.get(uid)
            if query is not None:
                out |= set(query.extra_target_uids)
        return out

    def _layer_queries(self, layer: Layer) -> list[RelevanceQuery]:
        queries = []
        for uid in sorted(layer.target_uids):
            query = self._queries_by_target.get(uid)
            if query is not None:
                queries.append(query)
        return queries

    # -- the NFQA loop -------------------------------------------------------------------

    def _process_layer(self, layer: Layer) -> None:
        while self._budget_left():
            with self.tracer.span(ROUND, layer=layer.index) as span:
                done = self._process_round(layer, span)
            if done:
                return
        self.metrics.completed = False

    def _process_round(self, layer: Layer, round_span) -> bool:
        """One NFQA iteration; returns True when the layer went quiet."""
        with self.tracer.span(RELEVANCE_CHECK, layer=layer.index) as span:
            metrics = self.metrics
            hits = metrics.relevance_cache_hits
            reevaluated = metrics.queries_reevaluated
            rematches = metrics.relevance_scope_rematches
            relevant = self._collect_relevant(layer)
            chosen, rule, definite = self._choose(layer, relevant)
            if span is not None:
                span.tags["relevant_calls"] = len(relevant)
                if definite is not None:
                    span.tags["definite_calls"] = len(definite)
                span.tags["cache_hits"] = metrics.relevance_cache_hits - hits
                span.tags["reevaluated"] = (
                    metrics.queries_reevaluated - reevaluated
                )
                span.tags["scope_rematches"] = (
                    metrics.relevance_scope_rematches - rematches
                )
        if not relevant:
            return True
        if round_span is not None:
            round_span.tags["rule"] = rule
        self._invoke_round(
            [(relevant[i][0], relevant[i][1]) for i in sorted(chosen)],
            layer.index,
        )
        # Replies may bring service names a refining family must list.
        if self.analysis.add_function_names(self.document.function_labels):
            self._simplify(reason="new_names")
        return False

    def _choose(
        self,
        layer: Layer,
        relevant: dict[int, tuple[Node, frozenset[int], frozenset[int]]],
    ) -> tuple[set[int], str, Optional[set[int]]]:
        """Which relevant calls (by node id) the round fires, the rule
        that set its width, and the definite set when it was asked for.

        Exact rounds fire what *every* serialisation would invoke: the
        calls retrieved only by (*)-independent queries (Section 4.4,
        query-level) and the definitely relevant ones (call-level: a
        witness through no other function node); else the smallest id.
        """
        if not relevant or not self.config.parallel:
            return set(sorted(relevant)[:1]), "single", None
        chosen = {
            node_id
            for node_id, (_, _, retrievers) in relevant.items()
            if all(layer.independent.get(uid, False) for uid in retrievers)
        }
        rule = "independent" if chosen else "single"
        definite = None
        if 1 < len(relevant) != len(chosen):
            definite = {
                call.node_id
                for rquery in self._layer_queries(layer)
                for call in self._retrieve(self.analysis.definite(rquery))
            }
            if not definite <= chosen:
                chosen |= definite
                rule = "definite"
        return chosen or {min(relevant)}, rule, definite

    def _invoke_round(
        self,
        batch: list[tuple[Node, frozenset[int]]],
        layer_index: Optional[int] = None,
    ) -> bool:
        """The one dispatch — lazy, naive and immediate rounds alike.

        One bus round; per call: budget check, liveness, prepare,
        invoke, splice.  The interleaving matters: a call consumed as
        an outer call's parameter is gone by its turn, and ``RAISE``
        stops at the first fault.  Returns False when the invocation
        budget ran out first.
        """
        metrics = self.metrics
        times: list[float] = []
        with self.bus.round(
            len(batch),
            policy=self._policy,
            max_concurrency=self.config.max_concurrency,
            trace=self.tracer,
        ) as round_:
            for call, target_uids in batch:
                if not self._budget_left():
                    metrics.completed = False
                    break
                if not self.document.contains(call):
                    continue
                service_call, pushed = self._prepare_call(call, target_uids)
                outcome = round_.invoke(service_call)
                elapsed = self._absorb_outcome(call, pushed, outcome)
                if elapsed is not None:
                    times.append(elapsed)
        width = len(round_.offsets)
        if width > 1:
            metrics.batch_count += 1
            metrics.max_batch_width = max(metrics.max_batch_width, width)
        # ``times`` has one entry per *attempted* invocation, including
        # fully-faulted ones (their failed-attempt + backoff time) — so
        # a fault-only round still counts, and every counted round holds
        # a counted invocation: ``invocation_rounds <= invocations``, and
        # ``max_invocations`` bounds the rounds as well.
        if times:
            metrics.invocation_rounds += 1
            metrics.simulated_sequential_s += sum(times)
            metrics.simulated_parallel_s += round_.makespan_s
            self.rounds.append(
                RoundRecord(
                    layer_index=layer_index,
                    calls=tuple(times),
                    parallel=width > 1,
                    simulated_time_s=round_.makespan_s,
                )
            )
        return metrics.completed

    def _collect_relevant(
        self, layer: Layer
    ) -> dict[int, tuple[Node, frozenset[int], frozenset[int]]]:
        """Union of the calls retrieved by the layer's relevance queries.

        Maps call node id to ``(call, target uids, retriever uids)`` —
        targets drive query pushing, retrievers drive the per-query
        independence check for parallel rounds.
        """
        relevant: dict[int, tuple[Node, frozenset[int], frozenset[int]]] = {}
        for rquery in self._layer_queries(layer):
            for call in self._retrieve(rquery):
                assert call.node_id is not None
                targets = rquery.all_target_uids
                retrievers = frozenset({rquery.target_uid})
                existing = relevant.get(call.node_id)
                if existing is not None:
                    targets = existing[1] | targets
                    retrievers = existing[2] | retrievers
                relevant[call.node_id] = (call, targets, retrievers)
        return relevant

    @contextlib.contextmanager
    def _column_span(self):
        """A ``COLUMN_PASS`` span around a match pass, when active.

        Yields ``None`` (no span) with tracing off.  Tags are the pass's
        *deltas* of the column counters, not the cumulative totals, so
        each span reads as its own pass.
        """
        if not self.tracer.enabled:
            yield None
            return
        counter = self.match_counter
        nodes_before = counter.column_pass_nodes
        rows_before = counter.column_rows
        with self.tracer.span(COLUMN_PASS) as span:
            try:
                yield span
            finally:
                span.tags["column_pass_nodes"] = (
                    counter.column_pass_nodes - nodes_before
                )
                span.tags["column_rows"] = counter.column_rows - rows_before

    def _retrieve(self, rquery: RelevanceQuery) -> list[Node]:
        """The query's currently-eligible retrieved calls.  Counts the
        read by its verdict."""

        def match(scope: Optional[Node]) -> list:
            matcher = self._make_matcher(rquery.pattern)
            with self._column_span():
                found = (
                    matcher.evaluate(self.document)
                    if scope is None
                    else matcher.evaluate_scoped(self.document, scope)
                )
            return found.rows

        read = self.store.retrieve(rquery.pattern, match, self.analysis)
        metrics = self.metrics
        if read.verdict is Verdict.HIT:
            metrics.relevance_cache_hits += 1
        else:
            metrics.queries_reevaluated += 1
        metrics.relevance_scope_rematches += read.scopes
        # One result node, rows deduplicated on it: a row is a call.
        return self._eligible([row.nodes[0] for row in read.rows])

    def _eligible(self, calls: list[Node]) -> list[Node]:
        """Liveness and activation are read-time properties: a kept set
        may still name calls that were invoked or frozen since it was
        matched (neither changes embeddings over surviving nodes)."""
        return [
            call
            for call in calls
            if call.activation is not Activation.FROZEN
            and self.document.contains(call)
        ]

    def _make_matcher(self, pattern: TreePattern) -> Matcher:
        """The one construction site for per-query matchers (relevance
        and final evaluation alike), so the counter wiring cannot drift
        between call sites."""
        return Matcher(pattern, counter=self.match_counter)

    # -- invocation --------------------------------------------------------------------------

    def _budget_left(self) -> bool:
        return self.metrics.calls_invoked < self.config.max_invocations

    def _prepare_call(
        self, call: Node, target_uids: frozenset[int]
    ) -> tuple[ServiceCall, Optional[PushedSubquery]]:
        """The call's bus-facing request (push computation, input
        validation), and the subquery pushed with it, if any."""
        pushed: Optional[PushedSubquery] = None
        push_mode = PushMode.NONE
        if self.config.push_mode is not PushMode.NONE and len(target_uids) == 1:
            (uid,) = target_uids
            with self.tracer.span(PUSH, service=call.label):
                if self._push_is_safe(call, uid):
                    pushed = self.analysis.pushed(uid)
            if pushed is not None:
                push_mode = self.config.push_mode
                if push_mode is PushMode.BINDINGS and not pushed.bindable:
                    push_mode = PushMode.FILTERED

        if self.config.validate_io:
            self._check_io(self._schema.validate_node(call))

        service_call = ServiceCall(
            service=call.label,
            parameters=call.children,
            call_node_id=call.node_id,
            pushed=pushed.pattern if pushed else None,
            push_mode=push_mode,
            anchor_edge=pushed.anchor_edge if pushed else EdgeKind.CHILD,
        )
        return service_call, pushed

    def _absorb_outcome(
        self,
        call: Node,
        pushed: Optional[PushedSubquery],
        outcome: ResilientOutcome,
    ) -> Optional[float]:
        metrics = self.metrics
        metrics.breaker_trips += outcome.breaker_trips
        if outcome.short_circuited:
            metrics.breaker_short_circuits += 1
        if outcome.cache_hit:
            metrics.cache_hits += 1

        if not outcome.succeeded:
            if self.config.fault_policy is FaultPolicy.RAISE:
                assert outcome.fault is not None
                raise outcome.fault
            # Freeze the call: the document keeps the intensional node,
            # the relevance loop stops retrieving it, nothing is lost.
            call.activation = Activation.FROZEN
            metrics.calls_frozen += 1
            if not outcome.records:
                # Pure breaker short-circuit (or a coalesced duplicate of
                # a faulted call): nothing was shipped, so no invocation
                # (or round) is accounted.
                return None
            metrics.calls_invoked += 1
            # Failed attempts still burned simulated time — returning it
            # (instead of None) makes fault-only rounds count as rounds
            # and on the simulated clocks.
            return outcome.simulated_time_s

        reply = outcome.reply
        assert reply is not None
        if self.config.validate_io and reply.push_mode is PushMode.NONE:
            # Pushed replies are legitimately pruned below the output
            # type, so only plain replies are checked against it.
            self._check_io(self._schema.validate_output(call.label, reply.forest))

        forest, nodes = reply.forest, reply.nodes
        if reply.is_bindings:
            # The bus measured the tuples as shipped; the document
            # gets the witness trees they stand for (no walk to count
            # them: each is one node per pattern node).
            assert pushed is not None
            forest = witness_forest(pushed, reply.bindings)
            nodes = len(forest) * sum(1 for _ in pushed.pattern.nodes())
        self.document.replace_call(call, forest)
        metrics.calls_invoked += 1
        metrics.nodes_materialized += nodes
        return outcome.simulated_time_s

    def _check_io(self, errors: list[str]) -> None:
        """Handle parameter/output type violations per the fault policy."""
        if not errors:
            return
        if self.config.fault_policy is FaultPolicy.RAISE:
            raise SchemaError("; ".join(errors))
        self.metrics.io_violations += len(errors)

    def _push_is_safe(self, call: Node, target_uid: int) -> bool:
        """May the call's full result matter to any *other* query node?

        Pushing ``sub_q_v`` prunes the reply down to what node ``v``
        needs; that is only safe when no other relevance query could
        retrieve a call at this position (otherwise the pruned data
        might have served that other query node).  The check is a word
        membership test against the other queries' position languages.
        """
        position = call_position(call)
        return not any(
            rquery.positions.accepts(position)
            for uid, rquery in self._queries_by_target.items()
            if uid != target_uid
        )

    # -- final evaluation -----------------------------------------------------------------------

    def final_evaluation(self) -> MatchSet:
        cache = self.answer_cache
        if cache is None:
            with self._column_span():
                return self._make_matcher(self.query).evaluate(self.document)
        with self.tracer.span(ANSWER_MAINT, seeded=cache.seeded) as span:
            read = cache.read()
            if span is not None:
                span.tags["rows"] = len(read.rows)
                span.tags["scope_rematches"] = read.scopes
        metrics = self.metrics
        metrics.answer_cache_hits = int(read.verdict is Verdict.HIT)
        metrics.answer_scope_rematches = read.scopes
        return MatchSet(self.query, read.rows)
