"""Continuous queries: keeping a full result fresh as documents evolve.

Section 1 of the paper: because "service invocations possibly return
data containing calls to new services ... the detection of relevant
calls becomes a continuous process."  The lazy evaluator is naturally
incremental — re-evaluating over an already-complete document invokes
nothing — so a continuous query is a change-aware wrapper:

* :meth:`ContinuousQuery.refresh` returns the cached outcome instantly
  while the document version is unchanged.  After a mutation it
  consults the maintained answer first (``maintain_answers``): when
  every splice since the last refresh missed the query's guard
  footprint, the cached result is provably current and the engine is
  skipped outright; otherwise the evaluation re-runs, with the final
  match read through the :class:`~repro.lazy.answers.AnswerCache` —
  the rows the document's store keeps for the query's shape, dirty
  subtrees re-matched — instead of a full document match.  Without
  ``maintain_answers`` the refresh re-runs the (lazy, incremental)
  evaluation in full — the differential oracle;
* the bus-level call cache is invalidated *scoped*: only the services
  an author re-asked since the last refresh
  (:attr:`~repro.axml.document.Document.authored_calls`) are dropped,
  at most once per document version, so standing queries sharing one
  bus no longer evict each other's memoized replies;
* the wrapper never copies the document: it evaluates in place, exactly
  like a standing subscription in the ActiveXML system would.
"""

from __future__ import annotations

from typing import Optional

from ..axml.document import Document
from ..pattern.pattern import TreePattern
from .analysis import QueryAnalysis
from .answers import AnswerCache
from .config import Strategy
from .engine import EvaluationOutcome, LazyQueryEvaluator, arena_for
from .incremental import RelevanceStore
from .metrics import Metrics


class ContinuousQuery:
    """A standing query over one (mutating) AXML document.

    This is the engine-facing core; the friendly front door is
    ``repro.subscribe`` (or :meth:`repro.serve.QueryServer.subscribe`),
    which returns a :class:`~repro.serve.Subscription` wrapping one of
    these — with input coercion, a delta stream and admission control
    on top.
    """

    def __init__(
        self,
        evaluator: LazyQueryEvaluator,
        query: TreePattern,
        document: Document,
        eager: bool = True,
    ) -> None:
        self.evaluator = evaluator
        self.query = query
        self.document = document
        self._outcome: Optional[EvaluationOutcome] = None
        self._evaluated_version: Optional[int] = None
        self.refresh_count = 0
        """Refreshes that ran the engine (including maintained ones)."""
        self.engine_skips = 0
        """Refreshes answered from the maintained answer without
        running the engine at all."""
        self.maintained_serves = 0
        """Refreshes served by :meth:`serve_maintained`: the engine's
        probe found nothing to invoke, so the answer came straight from
        the :class:`~repro.lazy.answers.AnswerCache` (dirty scopes
        re-matched in place) without running the engine."""
        self._cache: Optional[AnswerCache] = None
        config = evaluator.config
        self.analysis: Optional[QueryAnalysis] = evaluator.acquire(query)
        """This query's hold on its shape's shared analysis, typed or
        not, and through it on the document's relevance store: what one
        refresh derived, the next one — and every twin — reads.
        Released by :meth:`close` (``None`` after)."""
        self._store: Optional[RelevanceStore] = None
        if config.strategy is not Strategy.NAIVE:
            self._store = RelevanceStore.of(document)
            self._store.hold(self.analysis, evaluator.match_options)
        if config.maintain_answers:
            self._cache = AnswerCache(
                query,
                document,
                options=evaluator.match_options,
                any_call_relevant=config.strategy is Strategy.NAIVE,
                arena=arena_for(config, document),
                analysis=self.analysis,
            )
        if eager:
            self.refresh()

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The maintained answer, when ``maintain_answers`` is on."""
        return self._cache

    @property
    def is_stale(self) -> bool:
        """Has the document changed since the last refresh?"""
        return self._evaluated_version != self.document.version

    def _still_current(self) -> bool:
        """The document mutated since the kept outcome.  Memoized
        replies of the services an author re-asked meanwhile may
        describe a world that no longer exists: drop them, scoped —
        per service, at most once per document version — so standing
        queries sharing one bus do not wipe each other's (provably
        unaffected) memoized replies.  Then: did every splice since
        miss the guard footprint?  If so no answer row and no relevance
        result changed, and a full re-evaluation (starting from the
        previous quiescent state) would invoke nothing and return
        exactly the kept rows — the engine is skipped."""
        since = self._evaluated_version
        self.evaluator.bus.invalidate_cache_scoped(
            self.document,
            {
                service: version
                for service, version in self.document.authored_calls.items()
                if version > since
            },
        )
        if (
            self._cache is None
            or not self._outcome.metrics.completed
            or not self._cache.is_current
        ):
            return False
        self._cache.note_hit()
        self.engine_skips += 1
        self._evaluated_version = self.document.version
        return True

    def close(self) -> None:
        """Let go of the document's derived state: the standing query
        ends.  Idempotent."""
        if self._cache is not None:
            self._cache.detach()
            self._cache = None
        if self._store is not None:
            self._store.drop(self.analysis)
            self._store = None
        if self.analysis is not None:
            self.evaluator.release(self.analysis)
            self.analysis = None

    def refresh(self) -> EvaluationOutcome:
        """Return the up-to-date full result, re-evaluating if needed.

        Note that the evaluation itself bumps the document version (it
        invokes calls); the version recorded is the *post-evaluation*
        one, so a quiescent document never re-evaluates.
        """
        kept = self.serve_unchanged()
        if kept is not None:
            return kept
        self._outcome = self.evaluator.evaluate(
            self.query,
            self.document,
            answer_cache=self._cache,
            analysis=self.analysis,
        )
        self._evaluated_version = self.document.version
        self.refresh_count += 1
        return self._outcome

    def serve_unchanged(self) -> Optional[EvaluationOutcome]:
        """The kept outcome when it is provably current — the document
        did not move, or every splice since missed the guard footprint
        (an engine skip) — else ``None``.  The refresh :meth:`refresh`
        makes without the engine, asked on its own: the serving layer
        takes it before it spends a quiet probe."""
        if self._outcome is not None and (
            not self.is_stale or self._still_current()
        ):
            return self._outcome
        return None

    def serve_maintained(self) -> Optional[EvaluationOutcome]:
        """Refresh without the engine, given external proof of quiet.

        The serving layer (:class:`~repro.serve.QueryServer`) asks the
        engine's probe (:meth:`~repro.lazy.engine.LazyQueryEvaluator.
        is_quiet`) once per query shape and document version.  When it
        shows this query retrieves no eligible call (and the document
        holds no ``IMMEDIATE``-activation call), a full engine run
        would invoke nothing — every layer goes quiet immediately —
        and its final match equals the maintained answer.  This method
        performs exactly the refresh bookkeeping minus the engine:
        scoped call-cache invalidation, dirty-scope re-matching through
        the :class:`~repro.lazy.answers.AnswerCache`, version stamping.

        Returns ``None`` when the shortcut is not available — nothing
        evaluated yet, no maintained answer, or the previous evaluation
        did not complete (budget exhaustion may have left genuinely
        relevant calls uninvoked, so only the engine can certify the
        result).  The caller must then fall back to :meth:`refresh`.

        The *proof obligation is the caller's*: calling this without a
        current quiet verdict can serve stale rows.
        """
        kept = self.serve_unchanged()  # the shortcut refresh() would take
        if (
            kept is not None
            or self._outcome is None
            or self._cache is None
            or not self._outcome.metrics.completed
        ):
            return kept
        rows = self._cache.rows()
        metrics = Metrics(
            strategy=self.evaluator.config.label, completed=True
        )
        metrics.result_rows = len(rows)
        metrics.maintained_rows = len(rows)
        self._outcome = EvaluationOutcome(
            query=self.query,
            document=self.document,
            rows=rows,
            metrics=metrics,
            rounds=[],
        )
        self._evaluated_version = self.document.version
        self.maintained_serves += 1
        return self._outcome

    def peek(self) -> Optional[EvaluationOutcome]:
        """The last computed outcome (possibly stale), or ``None``."""
        return self._outcome

    def value_rows(self) -> set[tuple[str, ...]]:
        """Convenience: refreshed result rows as value tuples."""
        return self.refresh().value_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stale" if self.is_stale else "fresh"
        return (
            f"ContinuousQuery({self.query.name!r}, {state}, "
            f"refreshes={self.refresh_count}, skips={self.engine_skips})"
        )
