"""Shared multi-query matching: one document pass for a pattern family.

The engine's relevance queries are *derived from one user query*: the
NFQs of Figure 5 share the spine and all the condition branches, and
differ only around the focused node.  Evaluating them one by one
(`Matcher` per query, full traversal per query, per round) repeats
almost all of the boolean work ``|queries|`` times.  This module makes
the family a first-class object:

* :class:`PatternGroup` — compiles a keyed set of
  :class:`~repro.pattern.pattern.TreePattern` members into a merged
  label/edge discrimination structure: every pattern node is interned
  bottom-up into a *canonical class* (same node test, same edge-typed
  canonical children — variable names and result marks excluded, which
  the boolean phase never consults).  All members are then evaluated
  through memo tables keyed by ``(canonical id, document node)``, so a
  condition branch shared by sixteen NFQs is checked against a document
  node once, not sixteen times.  Filtered descendant-candidate lists
  are interned the same way.

* **Document projection** (in the spirit of type-based projection for
  XML): before a pass, the group merges the evaluated members' label
  summaries and computes the *projection set* — the nodes whose label
  some member actually tests, plus all their ancestors and the root.
  Subtree walks (descendant candidate enumeration, ``exists-below``)
  refuse to enter unprojected subtrees: such a subtree contains no node
  any member test accepts, so no embedding and no boolean fact can
  depend on it.  Sources come from a
  :class:`~repro.axml.index.LabelIndex` (O(footprint)), from an F-guide
  (call extents), or — lacking both — from one shared walk.  Projection
  is disabled when any evaluated member carries a data wildcard (star or
  variable test), which would make every data node a source.

Per-member results are byte-identical to a fresh per-query
:class:`~repro.pattern.match.Matcher` — that walker stays the
differential oracle (see ``tests/test_multimatch.py`` and the E12
bench).  Groups do not support bindings overlays: overlay lookups are
keyed by the *actual* pattern node, which canonical sharing would
conflate; the engine falls back to per-query matching there.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from ..axml.arena import DocumentArena
from ..axml.document import Document
from ..axml.index import LabelIndex
from ..axml.node import Node
from .match import Matcher, MatchCounter, MatchOptions, MatchSet
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


@dataclasses.dataclass(frozen=True)
class LabelSummary:
    """The labels a pattern can test, root excluded — the projection
    footprint of one group member.

    Unlike :class:`repro.lazy.incremental.LabelFootprint` (which keys
    parent constraints for *delta* screening), this is the flat label
    alphabet: projection keeps whole ancestor chains anyway, so parent
    constraints buy nothing here.  The pattern root is excluded because
    it only ever maps to the document root, which is always projected.
    """

    data_labels: frozenset[str]
    function_names: frozenset[str]
    any_data: bool
    any_function: bool

    @classmethod
    def from_pattern(cls, pattern: TreePattern) -> "LabelSummary":
        data: set[str] = set()
        functions: set[str] = set()
        any_data = any_function = False
        for node in pattern.nodes():
            if node is pattern.root or node.is_or:
                continue  # OR carries no test; its alternatives do
            kind = node.kind
            if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
                data.add(node.label)
            elif kind is PatternKind.FUNCTION:
                if node.function_names is None:
                    any_function = True
                else:
                    functions.update(node.function_names)
            else:  # STAR / VARIABLE accept any data node
                any_data = True
        return cls(
            data_labels=frozenset(data),
            function_names=frozenset(functions),
            any_data=any_data,
            any_function=any_function,
        )

    @classmethod
    def merge(cls, summaries: Iterable["LabelSummary"]) -> "LabelSummary":
        data: set[str] = set()
        functions: set[str] = set()
        any_data = any_function = False
        for summary in summaries:
            data |= summary.data_labels
            functions |= summary.function_names
            any_data = any_data or summary.any_data
            any_function = any_function or summary.any_function
        return cls(
            data_labels=frozenset(data),
            function_names=frozenset(functions),
            any_data=any_data,
            any_function=any_function,
        )

    def accepts(self, node: Node) -> bool:
        """Could any test of the summary accept this document node?"""
        if node.is_function:
            return self.any_function or node.label in self.function_names
        return self.any_data or node.label in self.data_labels


@dataclasses.dataclass
class GroupPassResult:
    """One shared evaluation pass over the document."""

    match_sets: dict[Hashable, MatchSet]
    nodes_visited: int
    """Nodes the group's subtree walks entered (including the shared
    projection-source walk when no index/guide served the sources)."""
    skipped_subtrees: int
    """Subtrees pruned at their root by the projection set."""
    candidate_reuses: int
    """Pre-filtered candidate lists answered from the shared memo."""
    projected: bool
    """Whether a projection set was in force (off under data wildcards)."""
    projection_size: int


class _MemberMatcher(Matcher):
    """A member's view of the group: same semantics as a fresh
    :class:`Matcher`, but all boolean facts and candidate lists are
    shared through canonical ids.

    Two sharing granularities are in play:

    * the full class (``cid``) keys the node-level ``_can`` and
      ``exists-below`` memos and the condition-level memo — exact
      structural equality, variable names and result marks aside;
    * the *shared-part* class (``scid``) keys candidate pre-filtering:
      it covers the node test plus the non-enumeration children (the
      conditions), excluding the member-specific spine/output chain.
      ``_shared_can`` — a sound necessary condition for ``_can`` — is
      memoised under it, so the expensive scan that rejects almost all
      candidates runs once per shared class, not once per member.
    """

    def __init__(self, pattern: TreePattern, group: "PatternGroup") -> None:
        super().__init__(
            pattern,
            options=group.options,
            counter=group.counter,
            index=group.index,
            arena=group.arena,
            column_match=group.column_match,
        )
        self._group = group
        # Alias the group's tables and id maps: every member reads and
        # writes the same memos, keyed canonically (see _memo_key
        # below).  Bound directly on the member because they sit on the
        # hottest paths.
        self._can_memo = group._can_memo
        self._below_memo = group._below_memo
        self._cids = group._cids
        self._scids = group._scids
        self._cond_memo = group._cond_memo
        self._shared_memo = group._shared_can_memo

    def _reset_memos(self) -> None:
        """The group clears the shared tables once per pass; a member's
        own evaluate() must not wipe its siblings' work."""

    def _memo_key(self, pnode: PatternNode, dnode: Node) -> tuple[int, int]:
        return (self._cids[pnode.uid], id(dnode))

    def _can(self, pnode: PatternNode, dnode: Node) -> bool:
        # Same conjunction as the base matcher, factored so the shared
        # part (node test + condition children) is answered per *shared
        # class* while only the member-specific enumeration chain is
        # re-checked per member.  Enumeration-free subtrees (pure
        # conditions) skip the split: there cid and scid induce the
        # same partition, so a second memo would only double the probes.
        key = (self._cids[pnode.uid], id(dnode))
        cached = self._can_memo.get(key)
        if cached is not None:
            return cached
        self.counter.can_checks += 1
        needs = self._needs_enum
        if pnode.is_or:
            outcome = any(self._can(alt, dnode) for alt in pnode.children)
        elif not needs[pnode.uid]:
            outcome = self._label_matches(pnode, dnode) and all(
                self._child_possible(child, dnode)
                for child in pnode.children
            )
        elif not self._shared_can(pnode, dnode):
            outcome = False
        else:
            outcome = all(
                self._child_possible(child, dnode)
                for child in pnode.children
                if needs[child.uid]
            )
        self._can_memo[key] = outcome
        return outcome

    def _shared_can(self, pnode: PatternNode, dnode: Node) -> bool:
        """The member-independent slice of ``_can``: the node test plus
        every non-enumeration (condition) child.  A necessary condition
        for ``_can``, shared across members through the scid."""
        key = (self._scids[pnode.uid], id(dnode))
        cached = self._shared_memo.get(key)
        if cached is not None:
            return cached
        if not self._label_matches(pnode, dnode):
            outcome = False
        else:
            needs = self._needs_enum
            outcome = all(
                self._child_possible(child, dnode)
                for child in pnode.children
                if not needs[child.uid]
            )
        self._shared_memo[key] = outcome
        return outcome

    def _shared_prefilter(self, pnode: PatternNode, dnode: Node) -> bool:
        """``_shared_can`` lifted over OR alternatives — the candidate
        pre-filter (sound: it is implied by ``_quick_filter``)."""
        if pnode.is_or:
            return any(
                self._shared_prefilter(alt, dnode) for alt in pnode.children
            )
        return self._shared_can(pnode, dnode)

    def _child_possible(self, child: PatternNode, dnode: Node) -> bool:
        # Memoised at the *condition* level on top of the node-level
        # _can memo: a sibling member that shares this condition class
        # answers it with one dict probe instead of re-iterating the
        # document node's children (the any()/exists-below loop).
        # Sound because members carry no overlay (group precondition)
        # and the outcome is a pure function of (condition class, edge,
        # node) on an unchanging document.  The edge must key the memo:
        # a node's cid describes its own subtree, not how it hangs off
        # its parent, and the same condition class reached by CHILD in
        # one member and DESCENDANT in another answers differently.
        key = (self._cids[child.uid], child.edge, id(dnode))
        memo = self._cond_memo
        cached = memo.get(key)
        if cached is None:
            if child.edge is EdgeKind.CHILD:
                if self._needs_enum[child.uid]:
                    # Spine steps: screen candidates with the *shared*
                    # prefilter first — memo hits for every sibling
                    # member of the scid family — so the member-specific
                    # _can only touches the few survivors instead of
                    # every child.
                    cached = any(
                        self._can(child, cand)
                        for cand in self._children_of(dnode)
                        if self._shared_prefilter(child, cand)
                    )
                else:
                    cached = any(
                        self._can(child, cand)
                        for cand in self._children_of(dnode)
                    )
            else:
                cached = self._exists_below(child, dnode)
            memo[key] = cached
        return cached

    def _visit_ok(self, node: Node) -> bool:
        group = self._group
        projected = group._projected
        if projected is None or node.node_id in projected:
            group._nodes_visited += 1
            return True
        group._skipped_subtrees += 1
        return False

    def _candidates(
        self, dnode: Node, edge: EdgeKind, pnode: Optional[PatternNode] = None
    ) -> Iterator[Node]:
        if pnode is None:
            yield from super()._candidates(dnode, edge, pnode)
            return
        # Intern the *pre-filtered* candidate list under the step's
        # shared class: the scan that rejects almost every child (or
        # descendant) runs once per shared class, and each member's
        # _quick_filter then touches only the few survivors.  Sound
        # because the pre-filter is implied by _quick_filter, which
        # _combine still applies per member.
        group = self._group
        key = (group._scids[pnode.uid], id(dnode), edge)
        cached = group._cand_memo.get(key)
        if cached is None:
            cached = [
                cand
                for cand in super()._candidates(dnode, edge, pnode)
                if self._shared_prefilter(pnode, cand)
            ]
            group._cand_memo[key] = cached
        else:
            group._candidate_reuses += 1
        yield from cached


def _exact_shape(node: PatternNode) -> tuple:
    """A pattern subtree's full structure, variable names and result
    marks included: equal shapes have equal rows and bindings."""
    return (
        node.kind,
        node.label,
        node.function_names,
        node.edge,
        node.is_result,
        tuple(_exact_shape(child) for child in node.children),
    )


class PatternGroup:
    """A keyed family of patterns evaluated in one shared pass.

    Args:
        members: mapping of caller-chosen keys (the engine uses the
            relevance queries' ``target_uid``) to patterns.
        options: embedding semantics, shared by all members.
        counter: work counters, shared by all members.
        index: optional label index over the target document — serves
            both the members' descendant steps (as in a plain
            :class:`Matcher`) and the projection sources.
        call_source: optional F-guide-like object (anything with a
            ``document`` attribute and a ``function_extents(names)``
            method) used for function-node projection sources when no
            index is available.
        arena: optional column mirror of the target document
            (:class:`~repro.axml.arena.DocumentArena`).  Descendant
            steps and exists-below checks become tight scans over the
            int columns; when every walking member is column-
            answerable (no OR nodes) the projection set is skipped
            entirely — the label prefilter of the scans subsumes it —
            and otherwise the projected set is computed column-side.
        column_match: run each member's *whole* pattern in slot space
            (:mod:`repro.pattern.columnmatch`) when it compiles,
            materialising nodes only for final rows; members that
            stand down (interior wildcards) use the shared walk as
            before.  Requires ``arena``; ignored without one.

    ``evaluate`` returns per-member :class:`MatchSet`s identical to
    fresh per-pattern matchers.  Bindings overlays are unsupported (see
    the module docstring).
    """

    def __init__(
        self,
        members: Mapping[Hashable, TreePattern],
        options: Optional[MatchOptions] = None,
        counter: Optional[MatchCounter] = None,
        index: Optional[LabelIndex] = None,
        call_source: Optional[object] = None,
        arena: Optional[DocumentArena] = None,
        column_match: bool = False,
    ) -> None:
        self.options = options or MatchOptions()
        self.counter = counter or MatchCounter()
        self.index = index
        self.call_source = call_source
        self.arena = arena
        self.column_match = bool(column_match) and arena is not None
        self._can_memo: dict[tuple[int, int], bool] = {}
        self._below_memo: dict[tuple[int, int], bool] = {}
        self._cond_memo: dict[tuple[int, EdgeKind, int], bool] = {}
        self._shared_can_memo: dict[tuple[int, int], bool] = {}
        self._cand_memo: dict[tuple[int, int, EdgeKind], list[Node]] = {}
        self._cids: dict[int, int] = {}
        self._scids: dict[int, int] = {}
        self._canon_table: dict[tuple, int] = {}
        self._shared_table: dict[tuple, int] = {}
        self._projected: Optional[set[int]] = None
        self._nodes_visited = 0
        self._skipped_subtrees = 0
        self._candidate_reuses = 0
        self._members: dict[Hashable, _MemberMatcher] = {}
        self._summaries: dict[Hashable, LabelSummary] = {}
        self._has_or: dict[Hashable, bool] = {}
        self._twin_ids: dict[Hashable, int] = {}
        self._twin_table: dict[tuple, int] = {}
        self.extend(members)

    def __len__(self) -> int:
        return len(self._members)

    def keys(self) -> list[Hashable]:
        return list(self._members)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._members

    def extend(self, members: Mapping[Hashable, TreePattern]) -> None:
        """Intern additional members into the live group.

        The canonical tables are append-only (hash-consing never
        invalidates an existing class id), so new patterns join an
        existing group without recompiling the rest — the serving
        layer's subscription churn path.  Duplicate keys are rejected:
        a key identifies one member pattern for the group's lifetime.
        """
        fresh = dict(members)
        for key in fresh:
            if key in self._members:
                raise ValueError(f"group member {key!r} already present")
        for key, pattern in fresh.items():
            self._intern(pattern.root)
            self._members[key] = _MemberMatcher(pattern, self)
            self._summaries[key] = LabelSummary.from_pattern(pattern)
            self._has_or[key] = any(n.is_or for n in pattern.nodes())
            self._twin_ids[key] = self._twin_table.setdefault(
                _exact_shape(pattern.root), len(self._twin_table)
            )

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop members (unknown keys are ignored).

        Canonical classes contributed by departed members linger in the
        intern tables — they are ids, not work: passes only evaluate
        the selected members, and a later :meth:`extend` may re-use
        them.  This keeps cancellation O(|dropped|) under thousands of
        comings and goings.
        """
        for key in keys:
            self._members.pop(key, None)
            self._summaries.pop(key, None)
            self._has_or.pop(key, None)
            self._twin_ids.pop(key, None)

    @property
    def canonical_classes(self) -> int:
        """Distinct canonical node classes across all member patterns —
        the sharing figure (``sum(|members|)`` nodes collapse to this)."""
        return len(self._canon_table)

    # -- canonicalization ---------------------------------------------------

    def _intern(self, node: PatternNode) -> tuple[int, int, bool]:
        """Bottom-up hash-consing into canonical classes.

        Two ids per node, returned as ``(cid, scid, needs_enum)``:

        * ``cid`` keys the node's full *boolean-phase* behaviour: its
          label test (variables and stars collapse — both accept any
          data node) and the edge-typed multiset of its children's
          classes.  ``_can`` is a conjunction over children (a
          disjunction for OR), so child order is irrelevant and the
          children are sorted.  Variable names and result marks are
          deliberately excluded: enumeration, which does consult them,
          is never shared.
        * ``scid`` keys the *shared part* only — the label test plus the
          non-enumeration (condition) children.  Sibling members whose
          steps differ only in where the spine/output continues share an
          scid, so condition screening of candidates runs once for the
          family (see ``_MemberMatcher._shared_can``).  For OR nodes the
          scid covers every alternative's scid, matching what the
          prefilter consults.
        """
        child_info = [
            (child.edge.value, *self._intern(child))
            for child in node.children
        ]
        children = tuple(sorted((e, cid) for e, cid, _, _ in child_info))
        kind = node.kind
        if kind is PatternKind.STAR or kind is PatternKind.VARIABLE:
            head: tuple = ("*",)
        elif kind is PatternKind.FUNCTION:
            names = node.function_names
            head = ("()", None if names is None else tuple(sorted(names)))
        elif kind is PatternKind.OR:
            head = ("|",)
        else:
            head = (kind.value, node.label)
        cid = self._canon_table.setdefault(
            (head, children), len(self._canon_table)
        )
        self._cids[node.uid] = cid
        if kind is PatternKind.OR:
            # The prefilter on OR asks _shared_can of each alternative.
            shared = tuple(
                sorted((e, scid) for e, _, scid, _ in child_info)
            )
        else:
            # _shared_can asks full _child_possible of each condition
            # child, a function of that child's *cid* and edge.
            shared = tuple(
                sorted((e, cid) for e, cid, _, needs in child_info if not needs)
            )
        scid = self._shared_table.setdefault(
            (head, shared), len(self._shared_table)
        )
        self._scids[node.uid] = scid
        needs = node.is_result or node.is_variable or any(
            n for _, _, _, n in child_info
        )
        return cid, scid, needs

    # -- the shared pass ----------------------------------------------------

    def evaluate(
        self,
        document: Document,
        keys: Optional[Sequence[Hashable]] = None,
        scope: Optional[Node] = None,
    ) -> GroupPassResult:
        """Evaluate the selected members (default: all) in one pass.

        One projection set and one family of memo tables serve every
        selected member; the tables are cleared first, so the pass is
        correct on whatever state the document is in now — and under
        whatever ``scope`` (a direct child of the root: the pass enters
        only that subtree, as :meth:`Matcher.evaluate_scoped` does),
        which the memos of the root's own facts depend on.
        """
        selected = list(self._members) if keys is None else list(keys)
        self._can_memo.clear()
        self._below_memo.clear()
        self._cond_memo.clear()
        self._shared_can_memo.clear()
        self._cand_memo.clear()
        self._nodes_visited = 0
        self._skipped_subtrees = 0
        self._candidate_reuses = 0
        arena = self.arena
        # Members holding a compiled plan never consult the projection
        # set; it only has to cover the ones that will walk.
        walkers = [
            key for key in selected if self._members[key]._column is None
        ]
        if not walkers or scope is not None or (
            arena is not None
            and arena.slot_for(document.root) is not None
            and not any(self._has_or[key] for key in walkers)
        ):
            # Column scans label-prefilter every candidate themselves,
            # so a projection set would only re-derive pruning the
            # arena already applies; skip computing it.  A walking OR
            # member's alternatives need the object-side test, so it
            # still wants the projected walk.  A scoped pass skips it
            # too: projecting is document-sized work.
            self._projected = None
        else:
            self._projected = self._compute_projection(document, walkers)
        match_sets: dict[Hashable, MatchSet] = {}
        evaluated: dict[int, MatchSet] = {}
        try:
            for key in selected:
                member = self._members[key]
                # Thousands of subscribers stand on a handful of query
                # texts: members equal down to variable names and
                # result marks have equal rows, so one evaluation per
                # pass serves them all.
                twin = evaluated.get(self._twin_ids[key])
                if twin is None:
                    twin = evaluated[self._twin_ids[key]] = (
                        member.evaluate(document)
                        if scope is None
                        else member.evaluate_scoped(document, scope)
                    )
                    match_sets[key] = twin
                else:
                    match_sets[key] = MatchSet(member.pattern, list(twin.rows))
        finally:
            projected = self._projected
            self._projected = None
        return GroupPassResult(
            match_sets=match_sets,
            nodes_visited=self._nodes_visited,
            skipped_subtrees=self._skipped_subtrees,
            candidate_reuses=self._candidate_reuses,
            projected=projected is not None,
            projection_size=0 if projected is None else len(projected),
        )

    # -- projection ---------------------------------------------------------

    def _compute_projection(
        self, document: Document, selected: Sequence[Hashable]
    ) -> Optional[set[int]]:
        """Node ids the selected members could possibly touch.

        Soundness: every non-root test of every selected member is in
        the merged summary, so a node in no source's ancestor chain is
        accepted by no member test — a walk skipping its subtree loses
        no candidate, no embedding, and flips no boolean outcome.  The
        pattern roots map only to the document root, which is always
        projected.  ``None`` (projection off) when a data wildcard makes
        every data node a source.
        """
        summary = LabelSummary.merge(
            self._summaries[key] for key in selected
        )
        if summary.any_data:
            return None
        arena = self.arena
        if arena is not None and arena.slot_for(document.root) is not None:
            # Column-side projection: label names resolve to interned
            # ids (a name never interned maps to no node — dropped),
            # then one pass over the arrays collects sources and their
            # ancestor chains.
            data_ids = frozenset(
                lid
                for lid in map(arena.label_id, summary.data_labels)
                if lid is not None
            )
            function_ids = frozenset(
                lid
                for lid in map(arena.label_id, summary.function_names)
                if lid is not None
            )
            projected = arena.collect_projection(
                data_ids, function_ids, summary.any_function
            )
            root_id = document.root.node_id
            if root_id is not None:
                projected.add(root_id)
            return projected
        projected = set()
        root_id = document.root.node_id
        if root_id is not None:
            projected.add(root_id)
        for node in self._projection_sources(document, summary):
            cursor: Optional[Node] = node
            while (
                cursor is not None
                and cursor.node_id is not None
                and cursor.node_id not in projected
            ):
                projected.add(cursor.node_id)
                cursor = cursor.parent
        return projected

    def _projection_sources(
        self, document: Document, summary: LabelSummary
    ) -> list[Node]:
        index = self.index
        if index is not None and index.document is document:
            sources: list[Node] = []
            for label in summary.data_labels:
                sources.extend(index.labels.get(label, {}).values())
            if summary.any_function:
                sources.extend(index.function_nodes())
            else:
                for name in summary.function_names:
                    sources.extend(index.functions.get(name, {}).values())
            return sources
        sources = []
        needs_functions = summary.any_function or bool(summary.function_names)
        guide = self.call_source
        if (
            needs_functions
            and guide is not None
            and getattr(guide, "document", None) is document
        ):
            sources.extend(
                guide.function_extents(
                    None if summary.any_function else summary.function_names
                )
            )
            needs_functions = False
        if summary.data_labels or needs_functions:
            # No index: one shared walk finds every source — still one
            # traversal for the whole family instead of one per member.
            for node in document.iter_nodes():
                self._nodes_visited += 1
                if node.is_function:
                    if needs_functions and (
                        summary.any_function
                        or node.label in summary.function_names
                    ):
                        sources.append(node)
                elif node.label in summary.data_labels:
                    sources.append(node)
        return sources

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PatternGroup({len(self._members)} members, "
            f"{self.canonical_classes} canonical classes)"
        )
