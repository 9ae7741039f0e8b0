"""What relevance derives from a query's shape, derived once per process.

The query-level half of "equal shape means the same derived state"
(the document-level half is :class:`~repro.lazy.incremental.RelevanceStore`).
:func:`acquire` keeps one :class:`QueryAnalysis` per query shape,
configuration and schema content for the whole process, so every
evaluation, standing query, answer cache and quiet probe of that shape
reads the *same* relevance patterns — compiled plans memoised on them —
instead of rebuilding the family: a one-shot ``repro.evaluate`` of a
query seen before reuses its family, layers and plans.  Held analyses
are counted; the last release parks one in :data:`repro.kept.analyses`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .. import kept
from ..pattern.pattern import HashedKey, SharedTable, TreePattern
from ..schema.graphschema import LenientSatisfiability
from ..schema.satisfiability import ExactSatisfiability, SatisfiabilityOracle
from ..schema.schema import Schema
from ..services.registry import ServiceRegistry
from .config import EngineConfig, Strategy, TypingMode
from .incremental import LabelFootprint
from .layers import Layer, compute_layers
from .pushing import PushedSubquery, pushed_subquery_for
from .relevance import (
    NFQBuilder,
    RelevanceQuery,
    build_nfqs,
    linear_path_queries,
)

#: The satisfiability oracle refining the NFQs under each typed mode
#: (Sections 5 and 6.1).
ORACLES = {
    TypingMode.LENIENT: LenientSatisfiability,
    TypingMode.EXACT: ExactSatisfiability,
}

_analyses: SharedTable[QueryAnalysis] = SharedTable()


def acquire(
    query: TreePattern,
    config: EngineConfig,
    schema: Optional[Schema],
    registry: ServiceRegistry,
) -> QueryAnalysis:
    """The one :class:`QueryAnalysis` of ``query``'s shape under
    ``config``'s analysis fields, ``schema``'s content and ``registry``'s
    names and signatures (what the merged schema is made of), built for
    its first holder and revived while kept.  Keyed by content, never
    by identity: a schema changed in place misses.  The key hashes once,
    for the lookup here, the kept table's and the release's.  Typed or
    not: a refining one owns an oracle over the merged schema, starts
    from the names it knows, and each run or probe teaches it the bus's
    and the document's before it reads a family."""
    key = HashedKey(
        (
            query.shape,
            config.strategy,
            config.use_layers,
            config.drop_value_joins,
            config.typing,
            schema and schema.render(),
            registry.signatures(),
        )
    )
    return _analyses.acquire(
        key,
        lambda: kept.analyses.take(key)
        or _derive(
            query, config, registry.schema_with_signatures(schema), key
        ),
    )


def _derive(
    query: TreePattern, config: EngineConfig, schema: Schema, key: Hashable
) -> QueryAnalysis:
    """A new analysis under ``key``, with an oracle of its own over the
    merged ``schema``: the oracle's memos are keyed by pattern-node uid,
    so no two shapes would share an entry."""
    oracle = ORACLES.get(config.typing)
    oracle = oracle and oracle(schema)
    analysis = QueryAnalysis(
        query, config, oracle, oracle and schema.function_names()
    )
    analysis.key = key
    return analysis


def release(analysis: QueryAnalysis) -> None:
    """Drop one hold on ``analysis``; the last parks it among the kept."""
    if _analyses.release(analysis.key) is not None:
        kept.analyses.put(analysis.key, analysis)


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
    pruning, so one refining analysis serves every document of its
    key."""

    #: Its :func:`acquire` key; ``None`` for an analysis made directly.
    key: Hashable = None

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
        elif config.strategy is Strategy.LAZY_LPQ:
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
        self._guard: Optional[LabelFootprint] = None
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
            built = self._builder.build_all(excluded_targets=completed)
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

    def guard(self) -> LabelFootprint:
        """The answer footprint widened by the untyped NFQ family's: a
        splice disjoint from it changes no answer row and no relevance
        result (``repro.lazy.answers``).  Under ``NAIVE``, where every
        call is relevant, any added or removed call node hits it."""
        guard = self._guard
        if guard is None:
            plain = self._builder is not None and not self.refining
            family = self.family().values() if plain else build_nfqs(self.query)
            guard = self._guard = LabelFootprint.from_pattern(self.query)
            for rquery in family:
                guard.update(LabelFootprint.from_pattern(rquery.pattern))
            if self.config.strategy is Strategy.NAIVE:
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
