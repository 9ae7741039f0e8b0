"""What relevance derives from a query's shape, derived once.

The query-level half of "equal shape means the same derived state"
(the document-level half is :class:`~repro.lazy.incremental.RelevanceStore`).
:meth:`~repro.lazy.engine.LazyQueryEvaluator.acquire` keeps one
:class:`QueryAnalysis` per query shape, so every evaluation, standing
query, answer cache and quiet probe of that shape reads the *same*
relevance patterns — compiled plans memoised on them — instead of
rebuilding the family.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..pattern.pattern import TreePattern
from ..schema.satisfiability import SatisfiabilityOracle
from .config import EngineConfig, Strategy
from .incremental import LabelFootprint
from .layers import Layer, compute_layers
from .pushing import PushedSubquery, pushed_subquery_for
from .relevance import (
    NFQBuilder,
    RelevanceQuery,
    build_nfqs,
    linear_path_queries,
)


class QueryAnalysis:
    """The relevance family of ``query`` (the canonical object of its
    shape) under ``config`` — LPQs or NFQs — with its layers, its
    simplifications, the guard footprint of a maintained answer and the
    subqueries to push.  ``oracle`` and ``names`` refine the NFQs
    (Section 5).  A refining family lists service names in its function
    alternatives, so its universe only grows: it starts from the
    schema's names, and the engine teaches it the bus's and each
    document's (:attr:`~repro.axml.document.Document.function_labels`)
    before a read and the document's after every round.  A name no node
    of a document carries retrieves nothing there: it only weakens
    pruning, so one refining analysis serves every document its
    evaluator sees."""

    def __init__(
        self,
        query: TreePattern,
        config: Optional[EngineConfig] = None,
        oracle: Optional[SatisfiabilityOracle] = None,
        names: Optional[Iterable[str]] = None,
    ) -> None:
        self.query = query
        self.config = config = config or EngineConfig()
        self._families: dict[frozenset[int], dict[int, RelevanceQuery]] = {}
        self._definite: dict[int, RelevanceQuery] = {}
        self._builder: Optional[NFQBuilder] = None
        if config.strategy is Strategy.NAIVE:
            self._families[frozenset()] = {}  # "any live call": no patterns
        elif config.strategy in (Strategy.TOP_DOWN, Strategy.LAZY_LPQ):
            self._families[frozenset()] = {
                q.target_uid: q for q in linear_path_queries(query)
            }
        else:
            self._builder = NFQBuilder(
                query,
                oracle=oracle,
                function_names=names,
                drop_value_joins=config.drop_value_joins,
            )
        self.refining = oracle is not None and self._builder is not None
        self._layers: Optional[list[Layer]] = None
        self._guards: dict[bool, LabelFootprint] = {}
        self._pushed: dict[int, PushedSubquery] = {}

    def family(
        self, completed: frozenset[int] = frozenset()
    ) -> dict[int, RelevanceQuery]:
        """The relevance queries by target uid, without the ``completed``
        targets' queries and function alternatives (Section 4.3),
        memoised, so the run and the quiet probe that walk the same
        layers read the same pattern objects — and the same entries of
        the document's store."""
        if self._builder is None:
            completed = frozenset()  # LPQs depend only on the query
        found = self._families.get(completed)
        if found is None:
            built = self._builder.build_all(
                excluded_targets=completed,
                dedupe=self.config.dedupe_relevance_queries,
            )
            found = self._families[completed] = {q.target_uid: q for q in built}
        return found

    def definite(self, rquery: RelevanceQuery) -> RelevanceQuery:
        """``rquery`` with every function alternative stripped from its
        condition branches (memoised per target): what it retrieves, it
        reaches through no other function node, so no sibling's reply
        can take the witness away (``docs/internals.md``, "Definitely
        relevant calls").  An LPQ has no condition branches."""
        if self._builder is None:
            return rquery
        found = self._definite.get(rquery.target_uid)
        if found is None:
            found = self._definite[rquery.target_uid] = self._builder.build_for(
                rquery.target,
                excluded_targets={node.uid for node in self.query.nodes()},
            )
        return found

    def add_function_names(self, names: Iterable[str]) -> bool:
        """Grow a refining builder's universe; True when that outdated
        the families — and the layers: a name may give a target its
        first satisfying service.  A run keeps the layers it started
        with.  Untyped families never read the names."""
        if not self.refining or not self._builder.add_function_names(names):
            return False
        self._families.clear()
        self._definite.clear()
        self._layers = None
        return True

    @property
    def layers(self) -> list[Layer]:
        """The initial family in layers (Section 4.3) — or, off the
        layered mode, one pseudo-layer with no query (*)-independent:
        plain NFQA (Section 4.1), widened only by definite calls."""
        if self._layers is None:
            queries = list(self.family().values())
            if self.config.use_layers:
                self._layers = compute_layers(queries)
            else:
                flags = {q.target_uid: False for q in queries}
                self._layers = [Layer(index=0, queries=queries, independent=flags)]
        return self._layers

    def guard(self, any_call_relevant: bool = False) -> LabelFootprint:
        """The answer footprint widened by the untyped NFQ family's: a
        splice disjoint from it changes no answer row and no relevance
        result (``repro.lazy.answers``)."""
        guard = self._guards.get(any_call_relevant)
        if guard is None:
            plain = self._builder is not None and not self.refining
            family = self.family().values() if plain else build_nfqs(self.query)
            guard = self._guards[any_call_relevant] = LabelFootprint.from_pattern(
                self.query
            )
            for rquery in family:
                guard.update(LabelFootprint.from_pattern(rquery.pattern))
            if any_call_relevant:
                guard.note_any_function()
        return guard

    def pushed(self, target_uid: int) -> PushedSubquery:
        """``sub_q_v`` for the query node with this uid (Section 7)."""
        found = self._pushed.get(target_uid)
        if found is None:
            found = self._pushed[target_uid] = pushed_subquery_for(
                self.query, self.query.find_by_uid(target_uid)
            )
        return found
