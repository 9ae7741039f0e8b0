"""Function-call guides (Section 6.2).

In the spirit of dataguides [11], an F-guide summarises — with a single
occurrence per path — exactly the label paths of a document that lead to
function calls, and stores for each path its *extent*: pointers to the
call nodes sitting there.  Because LPQs are linear, they yield the same
result on the document and on its (much more compact) F-guide, so
relevance detection can run on the guide instead of the data.

The guide is built in one document-order traversal (linear time) and
maintained incrementally through the document-observer hook as calls are
invoked and results (with new calls) are spliced in.

Section 6.2 whole, as a measured reference: :meth:`FGuide.relevant` is
relevance detection on the guide (lookup plus residual filtering), E4
times it against the object walk and the column plans.  The engine does
not read it — its relevance reads go through the document's store.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..axml.document import Document
from ..axml.node import Node
from ..axml.paths import LabelPath, call_position
from ..pattern.match import Matcher
from ..pattern.nodes import EdgeKind, PatternNode
from ..pattern.pattern import LinearStep
from .relevance import RelevanceQuery


class _GuideNode:
    """One node of the path trie."""

    __slots__ = ("label", "children", "extents")

    def __init__(self, label: str) -> None:
        self.label = label
        self.children: dict[str, _GuideNode] = {}
        # service name -> {node_id: function node}
        self.extents: dict[str, dict[int, Node]] = {}

    def child(self, label: str) -> "_GuideNode":
        node = self.children.get(label)
        if node is None:
            node = _GuideNode(label)
            self.children[label] = node
        return node

    def add_call(self, call: Node) -> None:
        assert call.node_id is not None
        self.extents.setdefault(call.label, {})[call.node_id] = call

    def remove_call(self, call: Node) -> bool:
        assert call.node_id is not None
        bucket = self.extents.get(call.label)
        if bucket is None or call.node_id not in bucket:
            return False
        del bucket[call.node_id]
        if not bucket:
            del self.extents[call.label]
        return True

    def is_prunable(self) -> bool:
        return not self.children and not self.extents


class FGuide:
    """The F-guide of a document, kept in sync via the observer hook."""

    def __init__(self, document: Document) -> None:
        self.document = document
        self.root = _GuideNode(document.root.label)
        self._position_of: dict[int, LabelPath] = {}
        self.rebuild()
        document.add_observer(self)

    def detach(self) -> None:
        """Stop observing the document (the guide goes stale)."""
        self.document.remove_observer(self)

    # -- construction / maintenance ------------------------------------------------

    def rebuild(self) -> None:
        """Single document-order traversal (linear time, Section 6.2)."""
        self.root = _GuideNode(self.document.root.label)
        self._position_of.clear()
        for call in self.document.function_nodes():
            self._insert(call)

    def _insert(self, call: Node) -> None:
        position = call_position(call)
        if position[0] != self.root.label:
            raise ValueError("call position does not start at the root label")
        node = self.root
        for label in position[1:]:
            node = node.child(label)
        node.add_call(call)
        assert call.node_id is not None
        self._position_of[call.node_id] = position

    # DocumentObserver protocol -------------------------------------------------------

    def call_removed(self, document: Document, node: Node) -> None:
        assert node.node_id is not None
        position = self._position_of.pop(node.node_id, None)
        if position is None:
            return
        self._remove_at(position, node)

    def calls_added(self, document: Document, nodes: list[Node]) -> None:
        for call in nodes:
            self._insert(call)

    def _remove_at(self, position: LabelPath, call: Node) -> None:
        chain: list[_GuideNode] = [self.root]
        node = self.root
        for label in position[1:]:
            nxt = node.children.get(label)
            if nxt is None:
                return
            chain.append(nxt)
            node = nxt
        node.remove_call(call)
        # Prune now-empty trie branches so the guide stays compact.
        for depth in range(len(chain) - 1, 0, -1):
            if chain[depth].is_prunable():
                del chain[depth - 1].children[chain[depth].label]
            else:
                break

    # -- lookups -------------------------------------------------------------------------

    def candidates(
        self,
        steps: Iterable[LinearStep],
        function_names: Optional[frozenset[str]] = None,
        descendant_tail: bool = False,
    ) -> list[Node]:
        """Calls whose position matches a linear path (an LPQ lookup).

        ``steps`` is ``q_v^lin`` — the path to the *parent* of the calls
        (root included).  ``function_names`` optionally restricts the
        service names (the type-based filtering of Section 6.2); with
        ``descendant_tail`` calls at any depth below the path qualify
        (the target hangs by a descendant edge).
        """
        steps = list(steps)
        if not steps:
            return []
        first, rest = steps[0], steps[1:]
        starts: list[_GuideNode] = []
        if first.edge is EdgeKind.CHILD:
            if first.label is None or first.label == self.root.label:
                starts = [self.root]
        else:
            # Descendant first step: the root or anything below it.
            starts = [
                trie
                for trie in self._all_nodes()
                if first.label is None or trie.label == first.label
            ]
        hits: dict[int, Node] = {}
        for start in starts:
            self._collect(start, rest, function_names, hits, descendant_tail)
        return [hits[node_id] for node_id in sorted(hits)]

    def relevant(self, rquery: RelevanceQuery) -> list[Node]:
        """The calls ``rquery`` retrieves, read off the guide: the
        candidates at its linear position, each held to its non-linear
        conditions by :func:`verify_candidate` (Section 6.2, "NFQ
        filtering")."""
        candidates = self.candidates(
            rquery.linear_steps,
            rquery.output.function_names,
            descendant_tail=rquery.descendant_tail,
        )
        matcher = Matcher(rquery.pattern)
        return [
            call for call in candidates if verify_candidate(rquery, call, matcher)
        ]

    def _collect(
        self,
        trie: _GuideNode,
        steps: list[LinearStep],
        function_names: Optional[frozenset[str]],
        hits: dict[int, Node],
        descendant_tail: bool,
    ) -> None:
        if not steps:
            frontier = [trie]
            while frontier:
                node = frontier.pop()
                for fname, bucket in node.extents.items():
                    if function_names is None or fname in function_names:
                        hits.update(bucket)
                if descendant_tail:
                    frontier.extend(node.children.values())
            return
        step, rest = steps[0], steps[1:]
        if step.edge is EdgeKind.CHILD:
            if step.label is None:
                for child in trie.children.values():
                    self._collect(child, rest, function_names, hits, descendant_tail)
            else:
                child = trie.children.get(step.label)
                if child is not None:
                    self._collect(child, rest, function_names, hits, descendant_tail)
            return
        # Descendant step: any depth >= 1, then the label.
        stack = list(trie.children.values())
        while stack:
            node = stack.pop()
            if step.label is None or node.label == step.label:
                self._collect(node, rest, function_names, hits, descendant_tail)
            stack.extend(node.children.values())

    def _all_nodes(self) -> list[_GuideNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children.values())
        return out

    # -- measurements -------------------------------------------------------------------------

    def size(self) -> int:
        """Number of trie nodes (the compactness figure of Section 6.2)."""
        return len(self._all_nodes())

    def call_count(self) -> int:
        return len(self._position_of)

    def paths(self) -> list[tuple[str, ...]]:
        """All distinct call positions currently summarised."""
        return sorted(set(self._position_of.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FGuide(nodes={self.size()}, calls={self.call_count()})"


def verify_candidate(
    rquery: RelevanceQuery, candidate: Node, matcher: Matcher
) -> bool:
    """Check the non-linear conditions of an NFQ for one guide candidate.

    The guide guaranteed the candidate's *position* matches
    ``q_v^lin``; what remains is to align the NFQ's spine with the
    candidate's ancestor chain and check every condition branch at the
    aligned nodes (boolean semantics — value joins are ignored, the safe
    approximation of Section 6).
    """
    if rquery.output.function_names is not None:
        if candidate.label not in rquery.output.function_names:
            return False
    spine = rquery.pattern.spine_nodes(rquery.output)
    chain = spine[:-1]  # the data nodes above the output
    ancestors = [candidate]
    ancestors.extend(candidate.iter_ancestors())
    ancestors.reverse()
    ancestors = ancestors[:-1]  # drop the candidate itself
    if not chain or not ancestors:
        return not chain

    spine_uids = {node.uid for node in spine}

    def conditions_hold(pnode: PatternNode, dnode: Node) -> bool:
        if not matcher.node_test(pnode, dnode):
            return False
        for child in pnode.children:
            if child.uid in spine_uids:
                continue
            if not matcher.condition_holds(child, dnode):
                return False
        return True

    def align(pi: int, di: int) -> bool:
        if not conditions_hold(chain[pi], ancestors[di]):
            return False
        if pi == len(chain) - 1:
            # The output hangs off chain[-1]: for a child edge the
            # aligned ancestor must be the candidate's parent; for a
            # descendant edge any proper ancestor works.
            if rquery.output.edge is EdgeKind.CHILD:
                return di == len(ancestors) - 1
            return True
        nxt = chain[pi + 1]
        if nxt.edge is EdgeKind.CHILD:
            return di + 1 < len(ancestors) and align(pi + 1, di + 1)
        return any(align(pi + 1, dj) for dj in range(di + 1, len(ancestors)))

    return align(0, 0)
