"""Tree patterns: the query objects of the paper.

A :class:`TreePattern` is a rooted tree of
:class:`~repro.pattern.nodes.PatternNode` objects with child/descendant
edges and a set of result nodes (Section 2).  The class carries the
structural utilities the relevance analysis needs: linear paths to nodes
(the ``q_v^lin`` of Section 4.2), subtree extraction (the ``sub_q_v`` of
Section 5), OR-expansion and rendering — and the **exact shape** that
makes two pattern objects the same query: what is derived from a
pattern (NFQ analysis, compiled plan, relevance sets on a document) is
kept once per shape, in a :class:`SharedTable`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

from .nodes import EdgeKind, PatternKind, PatternNode

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class LinearStep:
    """One step of a linear path: an edge plus a label constraint.

    ``label`` is ``None`` when the step matches any label (star or
    variable pattern nodes).
    """

    edge: EdgeKind
    label: Optional[str]


class TreePattern:
    """A (possibly extended) tree-pattern query."""

    def __init__(self, root: PatternNode, name: str = "query") -> None:
        if root.parent is not None:
            raise ValueError("pattern root must be detached")
        self.root = root
        self.name = name
        self._shape: Optional[tuple] = None
        #: Memo of :func:`repro.pattern.columnmatch.compile_plan`.
        self.plan: object = None
        self.validate()

    @property
    def shape(self) -> tuple:
        """The full structure, variable names and result marks included:
        equal shapes have equal rows and bindings on every document.
        Computed once — a pattern is not mutated after construction."""
        if self._shape is None:
            self._shape = exact_shape(self.root)
        return self._shape

    # -- structure access ------------------------------------------------------

    def nodes(self) -> Iterator[PatternNode]:
        return self.root.iter_subtree()

    def result_nodes(self) -> list[PatternNode]:
        """Result nodes in a deterministic (document) order."""
        return [n for n in self.nodes() if n.is_result]

    def variables(self) -> list[str]:
        """Distinct variable names, in first-occurrence order."""
        seen: list[str] = []
        for node in self.nodes():
            if node.is_variable and node.label not in seen:
                seen.append(node.label)
        return seen

    def find_by_uid(self, uid: int) -> PatternNode:
        for node in self.nodes():
            if node.uid == uid:
                return node
        raise KeyError(f"no pattern node with uid {uid}")

    def find_by_origin(self, origin_uid: int) -> PatternNode:
        """Find the copy of an original node inside a cloned pattern."""
        for node in self.nodes():
            if node.origin == origin_uid or node.uid == origin_uid:
                return node
        raise KeyError(f"no pattern node originating from uid {origin_uid}")

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of (extended) patterns."""
        # Note: value-rooted patterns are legal — they arise as sub_q_v
        # subqueries of leaf query nodes (Sections 5 and 7).
        if self.root.is_or or self.root.is_function:
            raise ValueError("pattern root must be a data-kind node")
        for node in self.nodes():
            if node.kind is PatternKind.VALUE and node.children:
                raise ValueError("value constants must be pattern leaves")
            if node.is_function and node.children:
                raise ValueError("function pattern nodes must be leaves")
            if node.is_or:
                if node.is_result:
                    raise ValueError("OR nodes cannot be result nodes")
                if not node.children:
                    raise ValueError("OR nodes need at least one alternative")

    # -- copying -----------------------------------------------------------------

    def clone(self, name: Optional[str] = None) -> "TreePattern":
        return TreePattern(self.root.clone(), name=name or self.name)

    # -- linear paths (Section 4.2) -----------------------------------------------

    def linear_steps_to(
        self, node: PatternNode, include_node: bool = False
    ) -> list[LinearStep]:
        """The linear path ``q_v^lin`` from the root to ``node``.

        The paper's ``q_v^lin`` runs from the root to ``v`` *not included*
        (Section 4.2); pass ``include_node=True`` for the variant that
        includes ``v`` itself (used for LPQ positions of the node).

        The root contributes the first step (with a ``CHILD`` edge by
        convention: a document path always starts at the root label).
        """
        chain = [node]
        chain.extend(node.iter_ancestors())
        chain.reverse()
        if not include_node:
            chain = chain[:-1]
        steps = []
        for pattern_node in chain:
            edge = pattern_node.edge if pattern_node.parent is not None else EdgeKind.CHILD
            steps.append(LinearStep(edge=edge, label=_label_constraint(pattern_node)))
        return steps

    def spine_nodes(self, node: PatternNode) -> list[PatternNode]:
        """Root-to-node chain (inclusive on both ends)."""
        chain = [node]
        chain.extend(node.iter_ancestors())
        chain.reverse()
        return chain

    # -- subtrees (Section 5 / Section 7) ---------------------------------------------

    def subtree_at(self, node: PatternNode, name: Optional[str] = None) -> "TreePattern":
        """``sub_q_v``: the query subtree rooted at ``node`` as a pattern.

        Used both for type-based pruning (does a function satisfy
        ``sub_q_v``?, Section 5) and as the subquery to push over a call
        (Section 7).
        """
        root = node.clone()
        # Re-rooting: the root's incoming edge is meaningless now.
        root.edge = EdgeKind.CHILD
        return TreePattern(root, name=name or f"{self.name}/sub@{node.uid}")

    # -- OR expansion ------------------------------------------------------------------

    def or_free_expansions(self) -> list["TreePattern"]:
        """All OR-free queries whose union this query denotes (Section 2).

        Exponential in the number of OR nodes; used for testing the OR
        semantics of the matcher, and for small reports.
        """
        roots = _expand_or(self.root)
        return [
            TreePattern(root, name=f"{self.name}#{i}")
            for i, root in enumerate(roots)
        ]

    # -- rendering ---------------------------------------------------------------------

    def to_string(self) -> str:
        return "/" + _render(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreePattern({self.name!r}: {self.to_string()})"


def exact_shape(node: PatternNode) -> tuple:
    """A subtree's structure, nested (:attr:`TreePattern.shape`)."""
    return (
        node.kind,
        node.label,
        node.function_names,
        node.edge,
        node.is_result,
        tuple(exact_shape(child) for child in node.children),
    )


class SharedTable(Generic[T]):
    """A table whose values live while someone holds them: ``acquire``
    hands every holder of a key the value made for the first,
    ``release`` forgets it with the last.  Keyed by pattern shape, it is
    how equal shapes come to share derived state; shapes are hashed
    here and nowhere else — holders keep the value, in identity-keyed
    tables.  Counting, not weak references: a pattern's parent/child
    links are cycles, which only a collector run would free."""

    def __init__(self) -> None:
        self._slots: dict[Hashable, list] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, key: Hashable) -> T:
        return self._slots[key][0]

    def values(self) -> list[T]:
        return [slot[0] for slot in self._slots.values()]

    def acquire(self, key: Hashable, make: Callable[[], T]) -> T:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = [make(), 0]
        slot[1] += 1
        return slot[0]

    def release(self, key: Hashable) -> Optional[T]:
        """Drop one holder; returns the value when it was the last."""
        slot = self._slots[key]
        slot[1] -= 1
        if slot[1]:
            return None
        del self._slots[key]
        return slot[0]


def _label_constraint(node: PatternNode) -> Optional[str]:
    """The letter a linear step requires, or ``None`` for 'any label'."""
    if node.kind in (PatternKind.ELEMENT, PatternKind.VALUE):
        return node.label
    return None


def _render(node: PatternNode) -> str:
    token = node.render()
    if node.is_result:
        token += "!"
    if node.is_or:
        inner = " | ".join(_render(alt) for alt in node.children)
        return f"({inner})"
    out = [token]
    for child in node.children:
        sep = "" if child.edge is EdgeKind.CHILD else "//"
        out.append(f"[{sep}{_render(child)}]")
    return "".join(out)


def _expand_or(node: PatternNode) -> list[PatternNode]:
    """All OR-free clones of the subtree rooted at ``node``."""
    if node.is_or:
        expanded: list[PatternNode] = []
        for alt in node.children:
            for variant in _expand_or(alt):
                # The alternative takes the OR node's position and edge.
                variant.edge = node.edge
                expanded.append(variant)
        return expanded

    child_variants = [_expand_or(child) for child in node.children]
    combos = _cartesian(child_variants)
    out = []
    for combo in combos:
        copy = PatternNode(
            node.kind,
            node.label,
            edge=node.edge,
            is_result=node.is_result,
            function_names=node.function_names,
        )
        copy.origin = node.origin if node.origin is not None else node.uid
        for child in combo:
            # Clone at attach time: a variant may appear in many combos.
            copy.add_child(child.clone() if child.parent is not None else child)
        out.append(copy)
    return out


def _cartesian(groups: list[list[PatternNode]]) -> list[list[PatternNode]]:
    result: list[list[PatternNode]] = [[]]
    for group in groups:
        result = [prefix + [item] for prefix in result for item in group]
    return result
