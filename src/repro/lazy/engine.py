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
import dataclasses
import itertools
import time
from typing import Iterator, Optional

from ..axml.arena import DocumentArena
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
from ..schema import automata
from ..pattern.match import Matcher, MatchCounter, MatchOptions, MatchSet
from ..pattern.nodes import EdgeKind
from ..pattern.pattern import SharedTable, TreePattern
from ..schema.graphschema import LenientSatisfiability
from ..schema.satisfiability import ExactSatisfiability
from ..schema.schema import Schema, SchemaError
from ..services.registry import ServiceBus, ServiceCall
from ..services.resilience import InvocationPolicy, ResilientOutcome
from ..services.scheduler import CallCache
from ..services.service import PushMode
from .analysis import QueryAnalysis
from .answers import AnswerCache
from .config import EngineConfig, FaultPolicy, Strategy, TypingMode
from .incremental import RelevanceStore
from .layers import Layer
from .metrics import Metrics, RoundRecord
from .naive import naive_fixpoint
from .pushing import PushedSubquery, witness_forest
from .relevance import RelevanceQuery


#: The satisfiability oracle refining the NFQs under each typed mode
#: (Sections 5 and 6.1).
ORACLES = {
    TypingMode.LENIENT: LenientSatisfiability,
    TypingMode.EXACT: ExactSatisfiability,
}


def arena_for(config: EngineConfig, document: Document) -> Optional[DocumentArena]:
    """The columns ``config``'s matchers read: the document's own
    mirror for every lazy strategy.  ``NAIVE`` materialises first and
    matches once, on the object walk — it never builds one."""
    return None if config.strategy is Strategy.NAIVE else document.arena


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
            signatures registered on the bus at construction are merged
            in).
        config: strategy and tunables; defaults to layered parallel NFQA.
        match_options: embedding semantics knobs.
    """

    def __init__(
        self,
        bus: ServiceBus,
        schema: Optional[Schema] = None,
        config: Optional[EngineConfig] = None,
        match_options: Optional[MatchOptions] = None,
    ) -> None:
        self.bus = bus
        self.schema = schema
        self.config = config or EngineConfig()
        if (
            match_options is not None
            and self.config.match_options is not None
            and match_options != self.config.match_options
        ):
            # Mirrors the facade's strategy-conflict check: two sources
            # of embedding semantics must agree, not silently race.
            raise ValueError(
                "conflicting match options: match_options="
                f"{match_options!r} but config.match_options="
                f"{self.config.match_options!r} — pass one or the other"
            )
        self.match_options = (
            match_options or self.config.match_options or MatchOptions()
        )
        self._analyses: SharedTable[QueryAnalysis] = SharedTable()
        oracle = ORACLES.get(self.config.typing)
        #: Section 5's refinement, shared by every analysis: ``None``
        #: untyped, else over the schema with the bus's signatures.
        self._oracle = oracle and oracle(
            bus.registry.schema_with_signatures(base=schema)
        )

    # -- query analyses --------------------------------------------------------

    def acquire(self, query: TreePattern) -> QueryAnalysis:
        """The one :class:`QueryAnalysis` of ``query``'s shape, built for
        its first holder and kept until the last :meth:`release` —
        typed or not: a refining one starts from the names the schema
        knows, and each run or probe teaches it the bus's and the
        document's before it reads a family."""
        oracle = self._oracle
        return self._analyses.acquire(
            query.shape,
            lambda: QueryAnalysis(
                query,
                self.config,
                oracle,
                oracle and oracle.schema.function_names(),
            ),
        )

    def release(self, analysis: QueryAnalysis) -> None:
        self._analyses.release(analysis.query.shape)

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

        ``answer_cache`` (attached by
        :class:`~repro.lazy.continuous.ContinuousQuery` under
        ``maintain_answers``) replaces the final full match with
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
        if self.config.call_cache and self.bus.cache is None:
            # Cache state lives on the bus (like breaker state), so it
            # persists across evaluations sharing a ServiceBus.
            self.bus.cache = CallCache(ttl_s=self.config.call_cache_ttl_s)
        if analysis is not None and analysis.query.shape != query.shape:
            raise ValueError("analysis belongs to a differently shaped query")
        state = _EvaluationState(
            self, query, document, tracer, answer_cache, analysis
        )
        started = time.perf_counter()
        try:
            with tracer.span(
                EVALUATE,
                strategy=self.config.label,
                query=query.to_string(),
            ):
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


@dataclasses.dataclass
class _PreparedCall:
    """A call's bus-facing request (push computation, input validation)
    and what absorbing its reply needs to know about the push."""

    service_call: ServiceCall
    pushed: Optional[PushedSubquery]
    push_mode: PushMode


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
        self.invocations = 0
        self._log_start = len(self.bus.log.records)

        self.arena = arena_for(self.config, document)
        #: The caller's hold; else acquired by ``_layer_sequence``.
        self.analysis = analysis
        self._acquired = False
        self.store: Optional[RelevanceStore] = None
        self._store_hits = self._store_rematches = 0
        self.answer_cache: Optional[AnswerCache] = None
        self._answer_counters: dict[str, int] = {}
        self._maintained_rows = 0
        if answer_cache is not None and self.config.maintain_answers:
            self.answer_cache = answer_cache
            self._answer_counters = answer_cache.counters()
        self._matchers: dict[TreePattern, Matcher] = {}
        self._schema = self.bus.registry.schema_with_signatures(
            base=evaluator.schema
        )
        self._queries_by_target: dict[int, RelevanceQuery] = {}
        self._completed_targets: frozenset[int] = frozenset()
        self._position_nfas: dict[int, automata.NFA] = {}
        # Constant for the evaluation: every call gets this one object.
        self._policy = InvocationPolicy(
            retry=(
                self.config.retry
                if self.config.fault_policy is FaultPolicy.RETRY
                else self.config.retry.single_attempt()
            ),
            breaker=self.config.breaker,
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
        metrics.match_can_checks = self.match_counter.can_checks
        metrics.match_candidates_visited = self.match_counter.candidates_visited
        metrics.column_pass_nodes = self.match_counter.column_pass_nodes
        metrics.column_rows = self.match_counter.column_rows
        metrics.column_fallback_reasons = dict(
            self.match_counter.column_fallback_reasons
        )
        if self.arena is not None:
            metrics.arena_nodes = self.arena.live_nodes
            metrics.arena_bytes = self.arena.column_bytes()
        if self.answer_cache is not None:
            before = self._answer_counters
            spent = {
                name: count - before[name]
                for name, count in self.answer_cache.counters().items()
            }
            metrics.maintained_rows = self._maintained_rows
            metrics.answer_cache_hits = spent["hits"]
            metrics.answer_scope_rematches = spent["scope_rematches"]
            metrics.rows_respliced = spent["rows_added"] + spent["rows_retracted"]
        for record in self.bus.log.records[self._log_start :]:
            metrics.bytes_sent += record.request_bytes
            metrics.bytes_received += record.response_bytes

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
        self.store = store = RelevanceStore.of(self.document)
        store.hold(analysis, self.evaluator.match_options)
        self._store_hits = store.hits
        self._store_rematches = store.scope_rematches
        self.metrics.layers = len(layers)
        for layer in layers:
            yield layer
            self._completed_targets |= self._absorbed_targets(layer)
            self._simplify(reason="layer_done")

    def _fire_immediate_calls(self) -> None:
        """Invoke every IMMEDIATE-activation call (Section 1's eager
        mode) before the lazy analysis starts, to a fixpoint."""
        arena = self.arena
        while self._budget_left():
            if arena is not None and not any(
                c.activation is Activation.IMMEDIATE
                for c in arena.function_nodes()
            ):
                return  # the common case, without walking the tree
            # Invocation order is document order: the ordered walk.
            eager = [
                c
                for c in self.document.function_nodes()
                if c.activation is Activation.IMMEDIATE
            ]
            if not eager:
                return
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
            store = self.store
            # This evaluation's share of the document store's counters.
            metrics.relevance_cache_hits = store.hits - self._store_hits
            metrics.relevance_scope_rematches = (
                store.scope_rematches - self._store_rematches
            )
            metrics.queries_reevaluated = (
                metrics.relevance_evaluations - metrics.relevance_cache_hits
            )
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
        # The witness argument needs parameters to be opaque: descending
        # into them, a witness may run through another member's subtree.
        if (
            1 < len(relevant) != len(chosen)
            and not self.evaluator.match_options.descend_into_parameters
        ):
            definite = {
                call.node_id
                for rquery in self._layer_queries(layer)
                for call in self._retrieve(self.analysis.definite(rquery), rquery)
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
                if self.invocations >= self.config.max_invocations:
                    metrics.completed = False
                    break
                if not self.document.contains(call):
                    continue
                prep = self._prepare_call(call, target_uids)
                outcome = round_.invoke(prep.service_call)
                elapsed = self._absorb_outcome(call, prep, outcome)
                if elapsed is not None:
                    times.append(elapsed)
        width = len(round_.offsets)
        if width > 1:
            metrics.batch_count += 1
            metrics.max_batch_width = max(metrics.max_batch_width, width)
        # ``times`` has one entry per *attempted* invocation, including
        # fully-faulted ones (their failed-attempt + backoff time) — so
        # fault-only rounds still count toward the ``max_rounds`` budget.
        if times:
            metrics.invocation_rounds += 1
            metrics.simulated_sequential_s += sum(times)
            metrics.simulated_parallel_s += round_.makespan_s
            self.rounds.append(
                RoundRecord(
                    layer_index=layer_index,
                    calls=tuple(f"{t:.4f}" for t in times),
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

        Yields ``None`` (no span) with tracing off, and without an
        arena — the same gate the matchers apply — so the trace only
        claims a column pass when one could actually run.
        Tags are the pass's *deltas* of the column counters, not the
        cumulative totals, so each span reads as its own pass;
        ``fallback_reasons`` says why each stand-down of the pass
        happened.
        """
        if self.arena is None or not self.tracer.enabled:
            yield None
            return
        counter = self.match_counter
        nodes_before = counter.column_pass_nodes
        rows_before = counter.column_rows
        reasons_before = dict(counter.column_fallback_reasons)
        with self.tracer.span(COLUMN_PASS) as span:
            try:
                yield span
            finally:
                span.tags["column_pass_nodes"] = (
                    counter.column_pass_nodes - nodes_before
                )
                span.tags["column_rows"] = counter.column_rows - rows_before
                reasons = {
                    reason: count - reasons_before.get(reason, 0)
                    for reason, count in counter.column_fallback_reasons.items()
                    if count != reasons_before.get(reason, 0)
                }
                span.tags["column_fallbacks"] = sum(reasons.values())
                if reasons:
                    span.tags["fallback_reasons"] = reasons

    def _retrieve(
        self, rquery: RelevanceQuery, within: Optional[RelevanceQuery] = None
    ) -> list[Node]:
        """The query's currently-eligible retrieved calls — all of them
        among ``within``'s, when that is given (and was just read)."""
        self.metrics.relevance_evaluations += 1
        uid = rquery.target_uid

        def match(keys: list, scope: Optional[Node]) -> dict[int, list]:
            matcher = self._matcher_for(rquery)
            with self._column_span():
                found = (
                    matcher.evaluate(self.document)
                    if scope is None
                    else matcher.evaluate_scoped(self.document, scope)
                )
            return {uid: found.rows}

        rows = self.store.retrieve(
            {uid: rquery.pattern},
            match,
            self.analysis,
            within and {uid: within.pattern},
        )
        # One result node, rows deduplicated on it: a row is a call.
        return self._eligible([row.nodes[0] for row in rows[uid]])

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
        and final evaluation alike), so the options/counter/arena
        wiring cannot drift between call sites."""
        return Matcher(
            pattern,
            options=self.evaluator.match_options,
            counter=self.match_counter,
            arena=self.arena,
            column_match=True,
        )

    def _matcher_for(self, rquery: RelevanceQuery) -> Matcher:
        """One matcher per relevance pattern this evaluation had to run
        (the analysis hands out the same pattern objects, compiled
        plans on them); reuse only resets the per-evaluation memos."""
        matcher = self._matchers.get(rquery.pattern)
        if matcher is None:
            matcher = self._matchers[rquery.pattern] = self._make_matcher(
                rquery.pattern
            )
        else:
            matcher.reset()
        return matcher

    # -- invocation --------------------------------------------------------------------------

    def _budget_left(self) -> bool:
        return (
            self.invocations < self.config.max_invocations
            and self.metrics.invocation_rounds < self.config.max_rounds
        )

    def _prepare_call(
        self, call: Node, target_uids: frozenset[int]
    ) -> _PreparedCall:
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

        return _PreparedCall(
            service_call=ServiceCall(
                service=call.label,
                parameters=call.children,
                call_node_id=call.node_id,
                pushed=pushed.pattern
                if pushed and push_mode is not PushMode.NONE
                else None,
                push_mode=push_mode,
                anchor_edge=pushed.anchor_edge if pushed else EdgeKind.CHILD,
            ),
            pushed=pushed,
            push_mode=push_mode,
        )

    def _absorb_outcome(
        self, call: Node, prep: _PreparedCall, outcome: ResilientOutcome
    ) -> Optional[float]:
        metrics = self.metrics
        metrics.faults += outcome.faults
        metrics.retries += outcome.retries
        metrics.backoff_s += outcome.backoff_s
        metrics.failed_attempt_time_s += outcome.fault_time_s
        metrics.breaker_trips += outcome.breaker_trips
        if outcome.short_circuited:
            metrics.breaker_short_circuits += 1
        if outcome.cache_hit:
            metrics.cache_hits += 1

        policy = self.config.fault_policy
        if not outcome.succeeded:
            if policy is FaultPolicy.RAISE:
                assert outcome.fault is not None
                raise outcome.fault
            self._resolve_faulted_call(call, policy)
            if outcome.attempts == 0:
                # Pure breaker short-circuit (or a coalesced duplicate of
                # a faulted call): nothing was shipped, so no invocation
                # (or round) is accounted.
                return None
            self.invocations += 1
            metrics.calls_invoked += 1
            # Failed attempts still burned simulated time — returning it
            # (instead of None) makes fault-only rounds count toward the
            # round budget and the simulated clocks.
            return outcome.fault_time_s + outcome.backoff_s

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
            assert prep.pushed is not None
            forest = witness_forest(prep.pushed, reply.bindings)
            nodes = len(forest) * sum(1 for _ in prep.pushed.pattern.nodes())
        self.document.replace_call(call, forest)
        self.invocations += 1
        metrics.calls_invoked += 1
        metrics.nodes_materialized += nodes
        elapsed = outcome.fault_time_s + outcome.backoff_s
        if outcome.record is not None:
            elapsed += outcome.record.simulated_time_s
        return elapsed

    def _resolve_faulted_call(self, call: Node, policy: FaultPolicy) -> None:
        """Leave the document in a sound state after a definitive fault.

        ``SKIP`` preserves its legacy (lossy) semantics: the call's
        subtree is deleted.  Every other tolerant policy freezes the
        call instead — the document keeps the intensional node, the
        relevance loop stops retrieving it, and nothing is lost.
        """
        if policy is FaultPolicy.SKIP:
            self.document.replace_call(call, [])
            self.metrics.calls_skipped += 1
        else:
            call.activation = Activation.FROZEN
            self.metrics.calls_frozen += 1

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
        for uid, rquery in self._queries_by_target.items():
            if uid == target_uid:
                continue
            nfa = self._position_nfas.get(uid)
            if nfa is None:
                nfa = automata.from_linear_steps(
                    list(rquery.linear_steps),
                    descendant_tail=rquery.descendant_tail,
                )
                self._position_nfas[uid] = nfa
            if nfa.accepts(position):
                return False
        return True

    # -- final evaluation -----------------------------------------------------------------------

    def final_evaluation(self) -> MatchSet:
        cache = self.answer_cache
        if cache is None:
            with self._column_span():
                return self._make_matcher(self.query).evaluate(self.document)
        before = self._answer_counters  # this evaluation's one read
        with self.tracer.span(ANSWER_MAINT, seeded=cache.seeded) as span:
            rows = cache.rows()
            if before["full_matches"] == cache.full_matches:
                # Served by maintenance (hit or dirty-scope resplice),
                # not by a from-scratch match of the whole document.
                self._maintained_rows = len(rows)
            if span is not None:
                span.tags["rows"] = len(rows)
                span.tags["scope_rematches"] = (
                    cache.scope_rematches - before["scope_rematches"]
                )
        return rows
