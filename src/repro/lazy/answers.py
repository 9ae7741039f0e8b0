"""A standing query's maintained answer: one reader of the document's
:class:`~repro.lazy.incremental.RelevanceStore`.

A continuous query's final match used to be re-run from scratch on
every refresh.  Its answer is instead one more pattern shape kept by
the document's store — rows partitioned by depth-1 subtree, repaired
from the splice log, seeded and re-matched under the same policy as
every relevance pattern, once per shape however many subscribers
ask — and :class:`AnswerCache` is what one subscriber holds of it: the
store, a bookmark, and four counters — hits, scope re-matches and whole
passes summed from the verdict of each of its own reads
(:meth:`AnswerCache.read`), and clean guard screens.

Besides :meth:`~repro.lazy.continuous.ContinuousQuery.refresh`, the
reader has a second consumer: the serving layer
(:class:`~repro.serve.QueryServer`) proves a subscription
relevance-quiet by the engine's own probe and then serves the
refresh straight from :meth:`AnswerCache.read` —
:meth:`~repro.lazy.continuous.ContinuousQuery.serve_maintained`.

Soundness (``docs/internals.md``, "Scope-partitioned results under
splices") rests on scope confinement — a row with a result node below a
one-child pattern root belongs to exactly one depth-1 subtree, so the
answer is the disjoint union of its scoped results; anything else takes
whole passes — on footprint screening of the entry, and, for skipping
the engine, on the *guard footprint*: the answer footprint widened by
the untyped NFQ family's (NAIVE additionally forces the any-function
test).  A splice disjoint from the guard leaves every relevance result
unchanged; since the previous evaluation ended quiescent, a fresh
engine run would invoke nothing and return the kept rows — value rows
*and* invocation order identical to full re-evaluation.  The store
judges the guard against the splices logged since the reader's bookmark
(:attr:`AnswerCache.is_current`).

Pushed replies need nothing special: a filtered forest and a bindings
reply's witness forest (:mod:`repro.lazy.pushing`) both arrive as
splices.  Frozen calls mutate activation in place without emitting a
delta — that never changes embeddings, only call eligibility, which
the engine re-checks whenever it runs.
"""

from __future__ import annotations

from typing import Optional

from ..axml.document import Document
from ..axml.node import Node
from ..pattern.match import Matcher, MatchCounter, MatchSet, ResultRow
from ..pattern.pattern import TreePattern
from .analysis import QueryAnalysis
from .incremental import Read, RelevanceStore, Verdict, scope_anchor


class AnswerCache:
    """One subscriber's view of a standing query's maintained answer.

    Build one per (query, document) pair; it holds the document's
    relevance store and reads the query's rows through it.  The engine
    calls :meth:`read` in place of the final full match; the continuous
    query consults :attr:`is_current` to skip the engine altogether.
    The work counters sum the verdicts of this reader's own reads (a
    twin that reads second finds a hit).

    Args:
        query: the standing query (pinned; a different query needs a
            different reader).
        document: the document (pinned likewise).
        analysis: the evaluator's :class:`~repro.lazy.analysis.QueryAnalysis`
            of the query's shape: the holder this reader and its twins
            share (one guard, judged once between them) and the
            canonical pattern object they all read through.  Its config
            says what the guard screens (under ``NAIVE`` any added or
            removed call hits it).  The reader matches as the engine
            does, by the compiled plan over whichever ``document.arena``
            is current (never one pinned here: a mirror whose splice
            failed is dropped).  Without one the reader holds the store
            as itself, behind a private default analysis.
    """

    def __init__(
        self,
        query: TreePattern,
        document: Document,
        counter: Optional[MatchCounter] = None,
        analysis: Optional[QueryAnalysis] = None,
    ) -> None:
        self.query = query
        self.document = document
        self.counter = counter or MatchCounter()
        self._matcher: Optional[Matcher] = None
        self._holder = analysis or self
        analysis = analysis or QueryAnalysis(query)
        #: Twins read through one pattern object, so their holder's
        #: identity-keyed table keeps one slot between them.
        self._pattern = analysis.query
        self.guard_footprint = analysis.guard()
        """Screens engine relevance: a splice disjoint from it changes
        no answer row and no relevance result, enabling the skip-engine
        path."""
        self.scoped = scope_anchor(query) is not None
        """Is the answer repaired scope by scope (else: whole passes)?"""
        self._store: Optional[RelevanceStore] = RelevanceStore.of(document)
        self._store.hold(self._holder, self.guard_footprint)
        #: Store position of the last :meth:`read`.
        self._bookmark: Optional[int] = None
        self.hits = 0
        """Final matches (or whole refreshes) answered from the kept
        rows with no re-matching at all."""
        self.full_matches = 0
        """Whole-document matches: seeds, unanchored fallbacks, most
        scopes dirty."""
        self.scope_rematches = 0
        """Depth-1 subtrees re-matched to absorb dirtiness."""
        self.screens = 0
        """Guard judgements that came back clean."""

    def detach(self) -> None:
        """Let go of the store (idempotent)."""
        store, self._store = self._store, None
        if store is not None:
            store.drop(self._holder)

    # -- state inspection ---------------------------------------------------

    @property
    def matcher(self) -> Matcher:
        """Built on first use (most twins never match, they read what
        an earlier one did)."""
        if self._matcher is None:
            self._matcher = Matcher(self._pattern, counter=self.counter)
        return self._matcher

    @property
    def seeded(self) -> bool:
        """Has this reader read its rows yet?"""
        return self._bookmark is not None

    @property
    def is_current(self) -> bool:
        """Provably equal to a fresh full evaluation *without running
        the engine first*: read before, and every splice since then
        missed the guard footprint."""
        if self._bookmark is None:
            return False
        clean = self._store.untouched(self._holder, self._bookmark)
        self.screens += clean
        return clean

    def note_hit(self) -> None:
        """Count a refresh served entirely from the kept rows (the
        skip-engine path — :meth:`rows` was never reached)."""
        self.hits += 1

    def counters(self) -> dict[str, int]:
        """A snapshot of the work counters (benchmarks and reports)."""
        return {
            "hits": self.hits,
            "full_matches": self.full_matches,
            "scope_rematches": self.scope_rematches,
            "screens": self.screens,
        }

    # -- serving the final match --------------------------------------------

    def _match(self, scope: Optional[Node]) -> list[ResultRow]:
        matcher = self.matcher
        found = (
            matcher.evaluate(self.document)
            if scope is None
            else matcher.evaluate_scoped(self.document, scope)
        )
        return found.rows

    def read(self) -> Read:
        """Bring the answer up to date, re-matching only what the
        splices since the store last looked could have changed: the
        store's :class:`~repro.lazy.incremental.Read`, whose verdict the
        counters add."""
        read = self._store.retrieve(self._pattern, self._match, self._holder)
        self._bookmark = self._store.position
        self.hits += read.verdict is Verdict.HIT
        self.full_matches += read.verdict is Verdict.WHOLE
        self.scope_rematches += read.scopes
        return read

    def rows(self) -> MatchSet:
        """The up-to-date snapshot result (:meth:`read`)."""
        return MatchSet(self.query, self.read().rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnswerCache({self.query.name!r}, hits={self.hits}, "
            f"scope_rematches={self.scope_rematches}, screens={self.screens})"
        )
