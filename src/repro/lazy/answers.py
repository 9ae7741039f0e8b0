"""Delta-driven answer maintenance for continuous queries.

PR-4 and PR-5 made *relevance* detection incremental; the *answer* side
still re-ran the final match from scratch on every refresh, which
ROADMAP names the single biggest lever for long-lived documents.  This
module maintains the materialized answer itself, in the spirit of
maintaining conjunctive-query answers under updates with per-update
cost proportional to the change, using projection-style footprints to
bound where a delta can matter:

* :class:`AnswerCache` — a :class:`~repro.axml.document.Document`
  observer (like :class:`~repro.lazy.incremental.RelevanceStore`) that
  materializes a standing query's :class:`~repro.pattern.match.MatchSet`
  *decomposed by depth-1 document subtree*.  Each splice is screened
  against two footprints, and on refresh only the dirty subtrees are
  re-matched (:meth:`~repro.pattern.match.Matcher.evaluate_scoped`),
  with added/retracted rows spliced into the cached result
  (:meth:`~repro.pattern.match.MatchSet.spliced`).

* :class:`ServiceTouchTracker` — records which services' call nodes a
  mutation added or removed (and at which document version), so
  :meth:`~repro.lazy.continuous.ContinuousQuery.refresh` can scope the
  bus-level call-cache drop instead of wiping every standing query's
  memoized replies.

Besides :meth:`~repro.lazy.continuous.ContinuousQuery.refresh`, the
cache has a second consumer: the serving layer
(:class:`~repro.serve.QueryServer`) proves a subscription
relevance-quiet via its cross-tenant quiet map and then serves the
refresh straight from :meth:`AnswerCache.rows` —
:meth:`~repro.lazy.continuous.ContinuousQuery.serve_maintained`.

Soundness rests on three observations:

1. **Scope confinement.**  When the pattern root has exactly one child,
   every embedding maps all non-root pattern nodes into the depth-1
   subtree containing the root child's image (all non-root pattern
   nodes are descendants of that single child, and embeddings preserve
   ancestry).  The full snapshot result is therefore the disjoint-by
   -scope composition of the scoped results, and a splice can only
   create or destroy rows of the depth-1 subtrees
   ``delta.scope_ids_under(root)`` names.  Patterns
   whose root has several children fall back to a full re-match
   whenever their footprint is touched (honest, still screened).

2. **Footprint screening** (``docs/internals.md``, "Relevance under
   splices"): patterns are positive, so a splice disjoint from the *answer
   footprint* changes no embedding and hence no row.

3. **Engine skipping.**  The *guard footprint* is the answer footprint
   widened by the untyped NFQ family's footprints (every relevance
   criterion the engine may apply is covered by it; NAIVE additionally
   forces the any-function test).  A splice disjoint from the guard
   leaves every relevance result unchanged; since the previous
   evaluation ended quiescent, a fresh engine run would invoke nothing
   and return the cached rows — so the refresh may skip the engine
   entirely, with value rows *and* invocation order identical to full
   re-evaluation.

Pushed replies need nothing special: a filtered forest and a bindings
reply's witness forest (:mod:`repro.lazy.pushing`) both arrive as
splices.  Frozen calls mutate activation in place without emitting a
delta — exactly as for the relevance store, that never changes
embeddings, only call eligibility, which the engine re-checks whenever
it runs.
"""

from __future__ import annotations

from typing import Optional

from ..axml.arena import DocumentArena
from ..axml.document import Document, SpliceDelta
from ..axml.node import Node
from ..pattern.match import (
    Matcher,
    MatchCounter,
    MatchOptions,
    MatchSet,
    ResultRow,
)
from ..pattern.pattern import TreePattern
from .analysis import QueryAnalysis
from .incremental import LabelFootprint, partition_by_scope


class ServiceTouchTracker:
    """Which services external mutations re-asked, and when.

    A continuous query drains this on refresh to scope the bus-level
    call-cache drop: memoization assumes services are functions of
    their parameters (the :class:`~repro.services.scheduler.CallCache`'s
    documented opt-in contract), so the only in-band signal that the
    world *behind* a service may have changed is an author inserting a
    fresh call node of that service — screened by the delta's service
    names.  Invocation-produced splices (``produced_by`` set) are the
    engine's own bookkeeping, and call removals create no new question
    to answer; neither flushes, which is what keeps standing queries
    sharing one bus from evicting the replies each other's evaluations
    just memoized.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self.touched: dict[str, int] = {}
        """Service name -> latest document version that touched it."""
        document.add_observer(self)

    def detach(self) -> None:
        self.document.remove_observer(self)

    def drain(self) -> dict[str, int]:
        """The touched-service map since the last drain (and reset)."""
        touched, self.touched = self.touched, {}
        return touched

    # DocumentObserver protocol ---------------------------------------------

    def call_removed(self, document: Document, node: Node) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def calls_added(self, document: Document, nodes: list[Node]) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        version = document.version
        for node in delta.iter_added():
            if node.is_function and node.produced_by is None:
                self.touched[node.label] = version


class AnswerCache:
    """The maintained snapshot result of one standing query.

    Attach one per (query, document) pair; it observes the document and
    keeps the query's rows decomposed by depth-1 subtree.  The engine
    calls :meth:`rows` in place of the final full match; the continuous
    query consults :attr:`is_current` to skip the engine altogether.

    Args:
        query: the standing query (pinned; a different query needs a
            different cache).
        document: the observed document (pinned likewise).
        options: embedding semantics — must match the evaluator's, or
            the maintained rows would diverge from the oracle.
        any_call_relevant: widen the guard so any added/removed call
            node defeats engine skipping — required for strategies
            whose relevance criterion is "every call counts" (NAIVE).
        arena: the document's column mirror; full and scoped re-matches
            then run on the compiled plan.
        analysis: the evaluator's :class:`~repro.lazy.analysis.QueryAnalysis`
            of the query's shape, whose guard footprint this cache then
            shares; without one a private default analysis is built.
    """

    def __init__(
        self,
        query: TreePattern,
        document: Document,
        options: Optional[MatchOptions] = None,
        counter: Optional[MatchCounter] = None,
        any_call_relevant: bool = False,
        arena: Optional[DocumentArena] = None,
        analysis: Optional[QueryAnalysis] = None,
    ) -> None:
        self.query = query
        self.document = document
        self.options = options or MatchOptions()
        self.counter = counter or MatchCounter()
        # The document's own arena outlives every evaluation.
        self.matcher = Matcher(
            query,
            options=self.options,
            counter=self.counter,
            arena=arena,
            column_match=True,
        )
        self.answer_footprint = LabelFootprint.from_pattern(query)
        """Screens row dirtiness: a splice disjoint from it changes no
        embedding of the query."""
        self.guard_footprint = (analysis or QueryAnalysis(query)).guard(
            any_call_relevant
        )
        """Screens engine relevance: a splice disjoint from it changes
        no relevance result either, enabling the skip-engine path."""
        self._scoped = len(query.root.children) == 1
        #: Position of a result node other than the pattern root — its
        #: image names the row's scope — or ``None`` when there is none.
        self._anchor = next(
            (
                i
                for i, node in enumerate(query.result_nodes())
                if node is not query.root
            ),
            None,
        )
        self._rows_by_scope: Optional[dict[Optional[int], list[ResultRow]]] = None
        self._refs: dict[tuple[int, ...], int] = {}
        self._matchset: Optional[MatchSet] = None
        self._dirty: set[int] = set()
        self._all_dirty = False
        self._engine_needed = False

        self.splices_seen = 0
        self.screens = 0
        """Splices dismissed by the guard footprint: provably no row
        and no relevance result changed."""
        self.hits = 0
        """Final matches (or whole refreshes) answered from the cached
        rows with no re-matching at all."""
        self.full_matches = 0
        """Seeds and unscoped-fallback re-matches of the whole document."""
        self.scope_rematches = 0
        """Depth-1 subtrees re-matched to absorb dirtiness."""
        self.rows_added = 0
        self.rows_retracted = 0
        document.add_observer(self)

    def detach(self) -> None:
        self.document.remove_observer(self)

    # -- state inspection ---------------------------------------------------

    @property
    def seeded(self) -> bool:
        """Has a first full match populated the cache?"""
        return self._rows_by_scope is not None

    @property
    def is_current(self) -> bool:
        """Provably equal to a fresh full evaluation *without running
        the engine first*: seeded, and every splice since the last
        refresh was screened clean by the guard footprint."""
        return (
            self._rows_by_scope is not None
            and not self._engine_needed
            and not self._all_dirty
            and not self._dirty
        )

    def note_hit(self) -> None:
        """Count a refresh served entirely from the cache (the
        skip-engine path — :meth:`rows` was never reached)."""
        self.hits += 1

    def counters(self) -> dict[str, int]:
        """A snapshot of the work counters (for metrics deltas)."""
        return {
            "hits": self.hits,
            "full_matches": self.full_matches,
            "scope_rematches": self.scope_rematches,
            "rows_added": self.rows_added,
            "rows_retracted": self.rows_retracted,
            "screens": self.screens,
        }

    # DocumentObserver protocol ---------------------------------------------

    def call_removed(self, document: Document, node: Node) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def calls_added(self, document: Document, nodes: list[Node]) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        self.splices_seen += 1
        if self._rows_by_scope is None:
            # Nothing materialized yet: the first refresh runs the
            # engine and seeds from scratch regardless.
            self._engine_needed = True
            return
        if not self.guard_footprint.touches(delta):
            self.screens += 1
            return
        self._engine_needed = True
        if not self.answer_footprint.touches(delta):
            # Relevance may have moved; the answer rows provably did
            # not.  The engine will run, but the final match stays a
            # cache hit.
            return
        if not self._scoped:
            self._all_dirty = True
            return
        self._dirty.update(delta.scope_ids_under(self.document.root))

    # -- serving the final match --------------------------------------------

    def rows(self) -> MatchSet:
        """The up-to-date snapshot result, re-matching only what the
        deltas since the last call could have changed."""
        if self._rows_by_scope is None or self._all_dirty:
            self._seed()
        elif self._dirty:
            self._rematch_dirty()
        else:
            self.hits += 1
        self._engine_needed = False
        assert self._matchset is not None
        return self._matchset

    def _seed(self) -> None:
        self.full_matches += 1
        self._all_dirty = False
        self._dirty.clear()
        document = self.document
        rows_by_scope: dict[Optional[int], list[ResultRow]]
        anchor = self._anchor
        if self._scoped and anchor is None:
            # Only the root is a result node: a row straddles every
            # scope holding an embedding, so each scope is matched
            # alone and row membership is reference-counted.
            rows_by_scope = {}
            for child in document.root.children:
                scoped = self.matcher.evaluate_scoped(document, child)
                if scoped.rows:
                    rows_by_scope[child.node_id] = scoped.rows
            matchset = MatchSet.compose(self.query, rows_by_scope.values())
        else:
            matchset = self.matcher.evaluate(document)
            if self._scoped:
                # Scope confinement: each row lives in the depth-1
                # subtree of any of its non-root result nodes.
                rows_by_scope = partition_by_scope(
                    document.root, matchset.rows, lambda row: row.nodes[anchor]
                )
            else:
                rows_by_scope = {None: matchset.rows} if matchset.rows else {}
        self._rows_by_scope = rows_by_scope
        self._refs = {}
        for rows in rows_by_scope.values():
            for row in rows:
                key = MatchSet.row_key(row)
                self._refs[key] = self._refs.get(key, 0) + 1
        self._matchset = matchset

    def _rematch_dirty(self) -> None:
        assert self._rows_by_scope is not None and self._matchset is not None
        retracted: set[tuple[int, ...]] = set()
        added: list[ResultRow] = []
        # Row identities may straddle scopes (a root marked as a result
        # node appears in every scope's rows), so membership in the
        # assembled MatchSet is reference-counted across scopes.
        for scope_id in sorted(self._dirty):
            self.scope_rematches += 1
            old = self._rows_by_scope.pop(scope_id, [])
            node = self.document.child_of_root(scope_id)
            new_rows = (
                self.matcher.evaluate_scoped(self.document, node).rows
                if node is not None
                else []
            )
            for row in old:
                key = MatchSet.row_key(row)
                remaining = self._refs.get(key, 1) - 1
                if remaining <= 0:
                    self._refs.pop(key, None)
                    retracted.add(key)
                else:
                    self._refs[key] = remaining
            for row in new_rows:
                key = MatchSet.row_key(row)
                count = self._refs.get(key, 0)
                self._refs[key] = count + 1
                if count == 0:
                    if key in retracted:
                        retracted.discard(key)  # survived the re-match
                    else:
                        added.append(row)
            if new_rows:
                self._rows_by_scope[scope_id] = new_rows
        self._dirty.clear()
        self.rows_retracted += len(retracted)
        self.rows_added += len(added)
        self._matchset = self._matchset.spliced(retracted, added)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = 0 if self._matchset is None else len(self._matchset)
        return (
            f"AnswerCache({self.query.name!r}, rows={rows}, "
            f"hits={self.hits}, scope_rematches={self.scope_rematches}, "
            f"screens={self.screens})"
        )
