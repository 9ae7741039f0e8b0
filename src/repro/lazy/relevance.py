"""Relevance queries: LPQs and NFQs (Sections 3 and 5).

Given a query ``q`` and the current state of a document, which embedded
calls are *relevant* (Definition 3)?  The paper derives families of
extended queries that retrieve them:

* **Linear path queries** (LPQ, Section 3.1): for every non-root node
  ``v`` of ``q``, the linear path from the root to ``v`` with ``v``
  replaced by a star function node.  Sound but loose — they ignore the
  filtering conditions of ``q``.

* **Node-focused queries** (NFQ, Section 3.2, Figure 5): the whole of
  ``q`` with every node OR-ed with a function node, the subtree of ``v``
  erased and its function sibling marked as output.  On the "functions
  may return anything" assumption these retrieve *exactly* the relevant
  calls (Proposition 1).

* **Refined NFQs** (Section 5): with schema information, each function
  alternative lists only the services whose derived output type
  *satisfies* the query subtree they stand in for; functions that cannot
  satisfy ``sub_q_v`` are pruned outright.

The same builder also produces the **relaxed NFQs** of Section 6.1 (the
"XPath approximation" that drops value joins).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Iterable, Optional, Sequence

from ..pattern.containment import subsumes
from ..pattern.nodes import (
    EdgeKind,
    PatternKind,
    PatternNode,
    pfunc,
    por,
    pstar,
)
from ..pattern.pattern import LinearStep, TreePattern
from ..schema import automata
from ..schema.satisfiability import AlwaysSatisfiable, SatisfiabilityOracle


class RelevanceKind(enum.Enum):
    LPQ = "lpq"
    NFQ = "nfq"


@dataclasses.dataclass
class RelevanceQuery:
    """One relevance query with its provenance.

    Attributes:
        kind: LPQ or NFQ.
        target_uid: uid of the node ``v`` of the *original* query the
            query was derived for.
        target: that node.
        pattern: the extended query; its single result node is ``output``.
        output: the function pattern node retrieving the calls.
        linear_steps: ``q_v^lin`` — the linear path from the root to
            ``v`` not included (Section 4.2), used by the influence
            analysis and by F-guide lookups.
        descendant_tail: True when ``v`` hangs by a descendant edge, so
            the retrieved calls may sit at *any* depth below the linear
            path — the position language is ``L(q_v^lin)·Σ*`` rather
            than ``L(q_v^lin)``.
    """

    kind: RelevanceKind
    target_uid: int
    target: PatternNode
    pattern: TreePattern
    output: PatternNode
    linear_steps: tuple[LinearStep, ...]
    descendant_tail: bool = False
    extra_target_uids: tuple[int, ...] = ()
    """Targets of queries this one absorbed during de-duplication."""

    @property
    def name(self) -> str:
        return self.pattern.name

    @property
    def all_target_uids(self) -> frozenset[int]:
        return frozenset((self.target_uid, *self.extra_target_uids))

    @functools.cached_property
    def positions(self) -> automata.NFA:
        """The automaton of the positions at which the query retrieves
        calls (``linear_steps``, ``descendant_tail``), built once: what
        the influence analysis and the push check both read."""
        return automata.from_linear_steps(
            list(self.linear_steps), descendant_tail=self.descendant_tail
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelevanceQuery({self.kind.value}, {self.pattern.to_string()})"


# ---------------------------------------------------------------------------
# LPQs — Section 3.1
# ---------------------------------------------------------------------------


def linear_path_queries(
    query: TreePattern, dedupe: bool = True
) -> list[RelevanceQuery]:
    """All LPQs of a query (one per non-root node).

    Each LPQ keeps only the labels of the root-to-parent path and ends in
    a star function node at ``v``'s position, e.g.
    ``/hotels/hotel/nearby//()`` for the ``restaurant`` node of Figure 4.

    With ``dedupe`` (the default) LPQs subsumed by another one are
    absorbed — e.g. every query under ``nearby//()`` — which leaves the
    union of retrieved calls unchanged; ``dedupe=False`` yields the
    paper's full Section 3.1 family verbatim, for listings (the engine
    always de-duplicates).
    """
    queries: list[RelevanceQuery] = []
    for target in query.nodes():
        if target.parent is None:
            continue  # the document root is a data node, never a call
        spine = query.spine_nodes(target)
        root_copy = _linear_copy(spine[0])
        node = root_copy
        for step_node in spine[1:-1]:
            child = _linear_copy(step_node)
            child.edge = step_node.edge
            node.add_child(child)
            node = child
        output = pfunc(None, edge=target.edge, result=True)
        node.add_child(output)
        pattern = TreePattern(
            root_copy, name=f"lpq@{target.uid}:{query.name}"
        )
        steps = tuple(query.linear_steps_to(target, include_node=False))
        queries.append(
            RelevanceQuery(
                kind=RelevanceKind.LPQ,
                target_uid=target.uid,
                target=target,
                pattern=pattern,
                output=output,
                linear_steps=steps,
                descendant_tail=target.edge is EdgeKind.DESCENDANT,
            )
        )
    return _dedupe(queries) if dedupe else queries


def _linear_copy(node: PatternNode) -> PatternNode:
    """A childless copy of a spine node (constants kept, rest starred)."""
    if node.kind in (PatternKind.ELEMENT, PatternKind.VALUE):
        copy = PatternNode(node.kind, node.label)
    else:
        copy = pstar()
    copy.origin = node.origin if node.origin is not None else node.uid
    return copy


# ---------------------------------------------------------------------------
# NFQs — Sections 3.2 and 5
# ---------------------------------------------------------------------------


class NFQBuilder:
    """Builds (refined) NFQs for a query.

    Args:
        query: the user query ``q``.
        oracle: the satisfiability backend used to refine the function
            alternatives (Section 5); the default
            :class:`AlwaysSatisfiable` yields the plain Section 3 NFQs
            with star-labelled ``()`` nodes.
        function_names: the universe of service names used for
            refinement.  ``None`` (with the default oracle) keeps star
            function nodes; with a real oracle the list is mandatory and
            can be extended later via :meth:`add_function_names` as
            invocation results bring new services into the document.
        drop_value_joins: build the relaxed (Section 6.1) variant where
            variables are replaced by stars.
    """

    def __init__(
        self,
        query: TreePattern,
        oracle: Optional[SatisfiabilityOracle] = None,
        function_names: Optional[Iterable[str]] = None,
        drop_value_joins: bool = False,
    ) -> None:
        self.query = query
        self.oracle = oracle or AlwaysSatisfiable()
        self._refine = oracle is not None
        if self._refine and function_names is None:
            raise ValueError("refined NFQs need the universe of service names")
        self._known: set[str] = set(function_names or ())
        self.function_names: list[str] = sorted(self._known)
        self.drop_value_joins = drop_value_joins
        self._satisfies_cache: dict[tuple[str, int], bool] = {}
        self._subtrees: dict[int, TreePattern] = {}

    # -- refinement bookkeeping ------------------------------------------------

    def add_function_names(self, names: Iterable[str]) -> bool:
        """Extend the service universe; True if anything new appeared."""
        fresh = {name for name in names if name not in self._known}
        if not fresh:
            return False
        self._known |= fresh
        self.function_names = sorted(self._known)
        return True

    def subtree_of(self, node: PatternNode) -> TreePattern:
        """``sub_q_v`` for a node of the original query (cached)."""
        cached = self._subtrees.get(node.uid)
        if cached is None:
            cached = self.query.subtree_at(node)
            self._subtrees[node.uid] = cached
        return cached

    def satisfying_functions(self, node: PatternNode) -> Optional[frozenset[str]]:
        """Service names whose output can satisfy ``sub_q_v`` at ``node``.

        Returns ``None`` for "any function": in unrefined mode, and for
        a ``sub_q_v`` holding OR or function pattern nodes —
        satisfiability is defined on plain patterns, so such a target
        keeps every name.
        """
        if not self._refine or any(
            n.is_or or n.is_function for n in node.iter_subtree()
        ):
            return None
        subtree = self.subtree_of(node)
        names = []
        for fname in self.function_names:
            key = (fname, node.uid)
            verdict = self._satisfies_cache.get(key)
            if verdict is None:
                verdict = self.oracle.function_satisfies(
                    fname, subtree, anchor_edge=node.edge
                )
                self._satisfies_cache[key] = verdict
            if verdict:
                names.append(fname)
        return frozenset(names)

    # -- construction (the Figure 5 algorithm) -------------------------------------

    def build_all(
        self,
        excluded_targets: Optional[set[int]] = None,
        dedupe: bool = True,
    ) -> list[RelevanceQuery]:
        """NFQs for every non-root node of the query.

        ``excluded_targets`` removes the function alternatives of nodes
        whose layers are already fully processed (the layer
        simplification of Section 4.3) *and* skips building NFQs for
        those targets.  ``dedupe`` absorbs NFQs subsumed by another, as
        the engine always asks; ``dedupe=False`` lists the whole family.
        """
        excluded = excluded_targets or set()
        queries = []
        for target in self.query.nodes():
            if target.parent is None or target.uid in excluded:
                continue
            nfq = self.build_for(target, excluded_targets=excluded)
            if nfq is not None:
                queries.append(nfq)
        if dedupe:
            queries = _dedupe(queries)
        return queries

    def build_for(
        self,
        target: PatternNode,
        excluded_targets: Optional[set[int]] = None,
    ) -> Optional[RelevanceQuery]:
        """The NFQ ``q_v`` for one node ``v`` (Figure 5), or ``None``
        when refinement proves no function can contribute at ``v``."""
        if target.parent is None:
            raise ValueError("the query root has no NFQ (it is never a call)")
        excluded = excluded_targets or set()
        output_names = self.satisfying_functions(target)
        if output_names is not None and not output_names:
            return None  # no service can produce sub_q_v: prune (Section 5)

        spine = self.query.spine_nodes(target)
        spine_uids = {node.uid for node in spine}
        root_copy = self._plain_copy(spine[0])
        cursor = root_copy
        output: Optional[PatternNode] = None
        for depth, spine_node in enumerate(spine[1:], start=1):
            parent_original = spine[depth - 1]
            # Conditions: every non-spine child of the current spine node.
            for child in parent_original.children:
                if child.uid in spine_uids:
                    continue
                wrapped = self._or_wrap(child, excluded)
                if wrapped is not None:
                    cursor.add_child(wrapped)
            if spine_node is target:
                output = pfunc(
                    sorted(output_names) if output_names is not None else None,
                    edge=target.edge,
                    result=True,
                )
                cursor.add_child(output)
            else:
                nxt = self._plain_copy(spine_node)
                nxt.edge = spine_node.edge
                cursor.add_child(nxt)
                cursor = nxt
        assert output is not None
        pattern = TreePattern(root_copy, name=f"nfq@{target.uid}:{self.query.name}")
        steps = tuple(self.query.linear_steps_to(target, include_node=False))
        return RelevanceQuery(
            kind=RelevanceKind.NFQ,
            target_uid=target.uid,
            target=target,
            pattern=pattern,
            output=output,
            linear_steps=steps,
            descendant_tail=target.edge is EdgeKind.DESCENDANT,
        )

    # -- helpers ----------------------------------------------------------------------

    def _plain_copy(self, node: PatternNode) -> PatternNode:
        """A childless copy of a node (spine nodes keep their test)."""
        kind, label = node.kind, node.label
        if self.drop_value_joins and kind is PatternKind.VARIABLE:
            kind, label = PatternKind.STAR, "*"
        copy = PatternNode(kind, label)
        copy.origin = node.origin if node.origin is not None else node.uid
        return copy

    def _or_wrap(
        self, node: PatternNode, excluded: set[int]
    ) -> Optional[PatternNode]:
        """``u OR f_u`` for a condition node and (recursively) its subtree.

        Returns the OR node, a plain copy when no function alternative
        remains, or ``None`` when the condition can *never* be satisfied
        (impossible here: the data branch always remains).
        """
        data_branch = self._plain_copy(node)
        data_branch.edge = node.edge
        for child in node.children:
            wrapped = self._or_wrap(child, excluded)
            if wrapped is not None:
                data_branch.add_child(wrapped)

        if node.uid in excluded:
            return data_branch  # the layer owning this position is done

        names = self.satisfying_functions(node)
        if names is not None and not names:
            return data_branch  # refinement: no service can produce this

        function_branch = pfunc(sorted(names) if names is not None else None)
        return por(data_branch, function_branch, edge=node.edge)


def build_nfqs(
    query: TreePattern,
    oracle: Optional[SatisfiabilityOracle] = None,
    function_names: Optional[Iterable[str]] = None,
    drop_value_joins: bool = False,
) -> list[RelevanceQuery]:
    """One-shot convenience around :class:`NFQBuilder`."""
    builder = NFQBuilder(
        query,
        oracle=oracle,
        function_names=function_names,
        drop_value_joins=drop_value_joins,
    )
    return builder.build_all()


# ---------------------------------------------------------------------------
# De-duplication (the containment-based multi-query optimisation, §4.1)
# ---------------------------------------------------------------------------


def _dedupe(queries: Sequence[RelevanceQuery]) -> list[RelevanceQuery]:
    """Drop relevance queries subsumed by another one in the family.

    Two NFQs for different targets can collapse (e.g. siblings with
    identical shapes); keeping one does not change the union of retrieved
    calls.  The absorbing query remembers the absorbed targets so that
    downstream consumers (query pushing) know a retrieved call may serve
    several query nodes.
    """
    kept: list[RelevanceQuery] = []
    for query in queries:
        absorbed = False
        for other in kept:
            if subsumes(other.pattern, query.pattern):
                other.extra_target_uids += (
                    query.target_uid,
                    *query.extra_target_uids,
                )
                absorbed = True
                break
        if absorbed:
            continue
        survivors: list[RelevanceQuery] = []
        for other in kept:
            if subsumes(query.pattern, other.pattern):
                query.extra_target_uids += (
                    other.target_uid,
                    *other.extra_target_uids,
                )
            else:
                survivors.append(other)
        survivors.append(query)
        kept = survivors
    return kept
