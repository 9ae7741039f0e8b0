"""The reference seams the engine is held to — one home for tests and
benchmarks alike.

Each context manager patches one production rule back to the plain,
obviously-correct computation it replaces.  None is a setting: the
program has no switch for any of them, so an oracle twin is the same
engine run inside the patch.  The patches are on classes, so they
reach every engine built or refreshed while the context is open.
:class:`WalkMatcher` is the object walk, the oracle evaluator of
Definition 1 that :func:`object_walk` puts in place of the compiled
plan, and :func:`touches_by_walk` the node walk a splice signature
replaced, which properties hold the signature to.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator, Optional
from unittest import mock

from repro import kept
from repro.axml.document import Document, SpliceDelta
from repro.axml.node import Node
from repro.lazy import relevance
from repro.lazy.answers import AnswerCache
from repro.lazy.engine import _EvaluationState
from repro.lazy.incremental import LabelFootprint, Read, RelevanceStore, Verdict
from repro.pattern.columnmatch import ColumnMatcher
from repro.pattern.match import Matcher, MatchCounter, MatchSet, ResultRow
from repro.pattern.nodes import EdgeKind, PatternKind, PatternNode
from repro.pattern.pattern import TreePattern

Embedding = tuple[dict[str, str], tuple[tuple[int, Node], ...]]


class WalkMatcher:
    """The object walk: Definition 1 evaluated over ``Node`` objects,
    the oracle the compiled plan is held to.  The same entry points as
    :class:`~repro.pattern.match.Matcher`, plus :meth:`has_embedding`.

    Two phases:

    1. a memoised boolean ``can-match`` pass (ignoring variable
       consistency, a sound necessary condition), including a memoised
       ``exists-below`` relation so descendant edges cost
       ``O(|q|·|d|)``;
    2. enumeration of embeddings, threaded through only the pattern
       branches that contain variables or result nodes — purely
       boolean branches are answered by phase 1.

    ``candidates_visited`` counts nodes enumerated by walking the tree
    (child and descendant steps alike) and ``can_checks`` the phase-1
    judgements made, both summed over the matcher's evaluations.
    """

    def __init__(
        self, pattern: TreePattern, counter: Optional[MatchCounter] = None
    ) -> None:
        self.pattern = pattern
        self.counter = counter or MatchCounter()
        self.can_checks = 0
        self.candidates_visited = 0
        self._result_nodes = pattern.result_nodes()
        self._needs_enum: dict[int, bool] = {}
        self._mark_needs_enum(pattern.root)
        self._can_memo: dict[tuple[int, int], bool] = {}
        self._below_memo: dict[tuple[int, int], bool] = {}
        #: When set to ``(root, child)``, the walk below ``root`` is
        #: restricted to the depth-1 subtree under ``child``.
        self._scope: Optional[tuple[Node, Node]] = None

    def _mark_needs_enum(self, node: PatternNode) -> bool:
        needed = node.is_result or node.is_variable
        for child in node.children:
            needed = self._mark_needs_enum(child) or needed
        self._needs_enum[node.uid] = needed
        return needed

    # -- entry points ----------------------------------------------------------

    def evaluate(self, document: Document) -> MatchSet:
        return self.evaluate_at(document.root)

    def evaluate_at(self, root: Node) -> MatchSet:
        """Snapshot result with the pattern root mapped to ``root``."""
        return self._evaluate_anchors([root])

    def evaluate_scoped(self, document: Document, scope: Node) -> MatchSet:
        if scope.parent is not document.root:
            raise ValueError(
                "scope must be a direct child of the document root"
            )
        self._scope = (document.root, scope)
        try:
            return self.evaluate_at(document.root)
        finally:
            self._scope = None

    def evaluate_forest(
        self, forest: Iterable[Node], anchor_edge: EdgeKind = EdgeKind.CHILD
    ) -> MatchSet:
        """The pattern root mapped to any tree root of the forest (child
        anchoring) or to any of its nodes (descendant anchoring)."""
        if anchor_edge is EdgeKind.CHILD:
            anchors = list(forest)
        else:
            anchors = [node for tree in forest for node in tree.iter_subtree()]
        return self._evaluate_anchors(anchors)

    def embeds_in(
        self, forest: Iterable[Node], anchor_edge: EdgeKind = EdgeKind.CHILD
    ) -> list[bool]:
        return [bool(self.evaluate_forest([tree], anchor_edge)) for tree in forest]

    def has_embedding(self, root: Node) -> bool:
        """Does at least one embedding exist? (phase-1 check + variables)."""
        self._reset()
        self.counter.evaluations += 1
        for _ in self._embed(self.pattern.root, root, {}):
            return True
        return False

    # -- bookkeeping -----------------------------------------------------------

    def _reset(self) -> None:
        self._can_memo.clear()
        self._below_memo.clear()

    def _evaluate_anchors(self, anchors: list[Node]) -> MatchSet:
        self._reset()
        self.counter.evaluations += 1
        rows: dict[tuple[int, ...], ResultRow] = {}
        for anchor in anchors:
            for env, assigns in self._embed(self.pattern.root, anchor, {}):
                self._record_row(rows, env, assigns)
        return MatchSet(self.pattern, list(rows.values()))

    def _children_of(self, dnode: Node) -> "list[Node] | tuple[Node]":
        """The children visible under the active scope: every step from
        a node to its children goes through here."""
        scope = self._scope
        if scope is not None and dnode is scope[0]:
            return (scope[1],)
        return dnode.children

    def _record_row(
        self,
        rows: dict[tuple[int, ...], ResultRow],
        env: dict[str, str],
        assigns: tuple[tuple[int, Node], ...],
    ) -> None:
        by_uid = dict(assigns)
        nodes = tuple(by_uid[r.uid] for r in self._result_nodes if r.uid in by_uid)
        if len(nodes) != len(self._result_nodes):
            # An OR alternative that does not hold some result node:
            # the embedding witnesses no row.
            return
        key = tuple(id(n) for n in nodes)
        if key not in rows:
            self.counter.embeddings_found += 1
            rows[key] = ResultRow(nodes=nodes, bindings=tuple(sorted(env.items())))

    # -- phase 1: boolean reachability ------------------------------------------

    @staticmethod
    def _label_matches(pnode: PatternNode, dnode: Node) -> bool:
        kind = pnode.kind
        if kind is PatternKind.ELEMENT:
            return dnode.is_element and dnode.label == pnode.label
        if kind is PatternKind.VALUE:
            return dnode.is_value and dnode.label == pnode.label
        if kind is PatternKind.VARIABLE or kind is PatternKind.STAR:
            return dnode.is_data
        if kind is PatternKind.FUNCTION:
            if not dnode.is_function:
                return False
            names = pnode.function_names
            return names is None or dnode.label in names
        raise AssertionError(f"unexpected pattern kind {kind}")

    def _can(self, pnode: PatternNode, dnode: Node) -> bool:
        key = (pnode.uid, id(dnode))
        cached = self._can_memo.get(key)
        if cached is not None:
            return cached
        self.can_checks += 1
        if pnode.is_or:
            outcome = any(self._can(alt, dnode) for alt in pnode.children)
        elif not self._label_matches(pnode, dnode):
            outcome = False
        else:
            outcome = all(
                self._child_possible(child, dnode) for child in pnode.children
            )
        self._can_memo[key] = outcome
        return outcome

    def _child_possible(self, child: PatternNode, dnode: Node) -> bool:
        if child.edge is EdgeKind.CHILD:
            return any(self._can(child, cand) for cand in self._children_of(dnode))
        return self._exists_below(child, dnode)

    def _exists_below(self, pnode: PatternNode, dnode: Node) -> bool:
        """Is there a match for ``pnode`` strictly below ``dnode``?
        Iterative DFS, memoised: on a negative outcome every fully
        explored interior node is negative too."""
        memo = self._below_memo
        uid = pnode.uid
        key = (uid, id(dnode))
        cached = memo.get(key)
        if cached is not None:
            return cached
        found = False
        explored: list[tuple[int, int]] = []
        stack = list(self._children_of(dnode))
        while stack:
            node = stack.pop()
            if self._can(pnode, node):
                found = True
                break
            if node.is_function:
                continue  # parameters are opaque
            node_key = (uid, id(node))
            sub = memo.get(node_key)
            if sub is True:
                found = True
                break
            if sub is False:
                continue
            explored.append(node_key)
            stack.extend(node.children)
        if not found:
            for node_key in explored:
                memo[node_key] = False
        memo[key] = found
        return found

    # -- phase 2: enumeration ---------------------------------------------------

    def _candidates(self, dnode: Node, edge: EdgeKind) -> Iterator[Node]:
        if edge is EdgeKind.CHILD:
            for child in self._children_of(dnode):
                self.candidates_visited += 1
                yield child
            return
        stack = list(reversed(self._children_of(dnode)))
        while stack:
            node = stack.pop()
            self.candidates_visited += 1
            yield node
            if not node.is_function:  # parameters are opaque
                stack.extend(reversed(node.children))

    def _embed(
        self, pnode: PatternNode, dnode: Node, env: dict[str, str]
    ) -> Iterator[Embedding]:
        if pnode.is_or:
            for alt in pnode.children:
                yield from self._embed(alt, dnode, env)
            return
        if not self._can(pnode, dnode):
            return
        if pnode.is_variable:
            bound = env.get(pnode.label)
            if bound is not None:
                if bound != dnode.label:
                    return
            else:
                env = {**env, pnode.label: dnode.label}
        assigns: tuple[tuple[int, Node], ...] = ()
        if pnode.is_result:
            assigns = ((pnode.uid, dnode),)
        enum_children = [c for c in pnode.children if self._needs_enum[c.uid]]
        # Purely boolean children were already verified by _can(pnode, .).
        yield from self._combine(enum_children, 0, dnode, env, assigns)

    def _combine(
        self,
        enum_children: list[PatternNode],
        index: int,
        dnode: Node,
        env: dict[str, str],
        assigns: tuple[tuple[int, Node], ...],
    ) -> Iterator[Embedding]:
        if index == len(enum_children):
            yield env, assigns
            return
        child = enum_children[index]
        for cand in self._candidates(dnode, child.edge):
            if not self._can(child, cand):  # an OR: any alternative
                continue
            for env2, a2 in self._embed(child, cand, env):
                yield from self._combine(
                    enum_children, index + 1, dnode, env2, assigns + a2
                )


def _walked(entry: str):
    def evaluation(self: Matcher, *args, **kwargs):
        return getattr(WalkMatcher(self.pattern, self.counter), entry)(*args, **kwargs)

    return evaluation


@contextlib.contextmanager
def object_walk():
    """Replaces *every match runs the compiled plan*: each of
    ``Matcher``'s evaluations runs the object walk (:class:`WalkMatcher`)
    instead, and no store seeds from rows the plan matched on a kept
    text (:func:`unseeded`), so an engine run inside it is the
    walk-matched oracle twin of the same run outside.  The keeper is
    forgotten on entry, so the twin parses its text and derives its
    analysis afresh."""
    kept.forget()
    with mock.patch.multiple(
        Matcher,
        **{
            entry: _walked(entry)
            for entry in ("evaluate", "evaluate_scoped", "evaluate_forest", "embeds_in")
        },
    ), unseeded():
        yield


def unseeded():
    """Replaces *a store on a fresh warm load seeds its entries from the
    text's pristine rows*: every entry's first read is a whole pass
    over the document, as on any other store."""
    return mock.patch.object(RelevanceStore, "_seed", lambda self, entry: None)


def unanchored():
    """Replaces *a run of a relevance query starts from the calls*: no
    run, whole or scoped, builds an anchor set, so every step's
    candidates come from the top-down scans over the whole subtree (the
    one scope)."""
    return mock.patch.object(
        ColumnMatcher, "_anchor_set", lambda self, root_slot, scope_slot: None
    )


def full_relevance():
    """Replaces *per-scope relevance upkeep*: the document's store
    judges every read "only a whole pass will do", so every relevance
    retrieval re-matches the whole document."""
    return mock.patch.object(
        RelevanceStore,
        "_judge",
        lambda self, entry, most: (Verdict.WHOLE, None),
    )


def isolated_relevance():
    """Replaces *the relevance store is the document's*: every
    ``RelevanceStore.of`` hands out a private store, so each engine run
    seeds its own and drops it and nothing crosses consumers."""
    return mock.patch.object(
        RelevanceStore, "of", classmethod(lambda cls, document: cls(document))
    )


@contextlib.contextmanager
def undeduplicated():
    """Replaces *relevance families are de-duplicated* (Section 4.1's
    containment-based multi-query optimisation): the family builders'
    de-duplication is the identity, so every LPQ / NFQ family an
    analysis builds lists one query per target, subsumed ones
    included — the ablation E7 measures.  The keeper is forgotten on
    entry and on exit, so neither side reads a family the other
    built."""
    with mock.patch.object(relevance, "_dedupe", list):
        kept.forget()
        try:
            yield
        finally:
            kept.forget()


def just_in_case():
    """Replaces *exact rounds* (``_EvaluationState._choose``): every
    round fires every relevant call — Section 4.4's closing remark,
    "calling functions in parallel just in case".  Not exact (a call may
    stop being relevant once a sibling answers), so not a rule of the
    engine.  Its rounds are tagged ``just-in-case``; under
    ``use_layers=False`` a run is one pseudo-layer fired whole each
    round."""
    return mock.patch.object(
        _EvaluationState,
        "_choose",
        lambda self, layer, relevant: (set(relevant), "just-in-case", None),
    )


def touches_by_walk(footprint: LabelFootprint, delta: SpliceDelta) -> bool:
    """Replaces *one signature per splice*
    (:class:`~repro.lazy.incremental.SpliceSignature`): every node the
    splice added or removed, as its subtrees stand now, put to
    ``footprint.touches_node`` one by one — a removed root under the
    delta's parent."""
    for root in delta.added:
        for node in root.iter_subtree():
            if footprint.touches_node(node, node.parent):
                return True
    for root in delta.removed:
        if footprint.touches_node(root, delta.parent):
            return True
        for node in root.iter_subtree():
            if node is not root and footprint.touches_node(node, node.parent):
                return True
    return False


def _whole_read(cache: AnswerCache) -> Read:
    cache.full_matches += 1
    return Read(cache.matcher.evaluate(cache.document).rows, Verdict.WHOLE)


@contextlib.contextmanager
def unmaintained():
    """Replaces *answer maintenance* (``AnswerCache``): a standing query
    is never provably current without the engine (no guard skip), and
    its one answer read is a whole-document match every time, with the
    verdict ``whole`` — the full re-evaluation maintenance is held to.
    The refresh still drops the memoized replies of re-asked services,
    as every refresh does."""
    with mock.patch.object(AnswerCache, "is_current", False), mock.patch.object(
        AnswerCache, "read", _whole_read
    ):
        yield
