"""Pattern-tree nodes for (extended) tree-pattern queries.

Section 2 of the paper defines queries as labelled trees whose nodes are:

* **constant** nodes — element names or data values;
* **variable** nodes — named variables; all occurrences of the same
  variable must map to data nodes with identical labels;
* **star** (``*``) nodes — match any data node.

Edges are *child* or *descendant* edges, and a distinguished set of nodes
are the *result* nodes.

"Extended queries" (end of Section 2) add two more node kinds used by the
relevance machinery:

* **OR** nodes — a choice between their children subtrees;
* **function** nodes — match function (service call) nodes in the
  document; a ``None`` name set is the star-labelled ``()`` matching any
  call, otherwise the set lists admissible service names (refined NFQs,
  Section 5).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional, Sequence


class EdgeKind(enum.Enum):
    """How a pattern node hangs off its parent."""

    CHILD = "/"
    DESCENDANT = "//"


class PatternKind(enum.Enum):
    ELEMENT = "element"      # constant element label
    VALUE = "value"          # constant data value (leaf)
    VARIABLE = "variable"    # named variable
    STAR = "star"            # wildcard data node
    FUNCTION = "function"    # extended: matches a service-call node
    OR = "or"                # extended: choice between alternatives


_uid_counter = itertools.count(1)


class PatternNode:
    """One node of a tree pattern.

    Attributes:
        kind: the node kind (see :class:`PatternKind`).
        label: element name, value string or variable name (unused for
            star, function and OR nodes).
        function_names: for function nodes, the admissible service names
            (``None`` means the star call ``()`` of Section 3).
        edge: edge from the parent (``None`` on the root).
        children: for OR nodes these are the *alternatives*; for every
            other kind they are conjunctive sub-patterns.
        is_result: whether this node belongs to the result set.
        uid: process-unique id, giving pattern nodes a stable identity
            across copies (copies record their ``origin``).
    """

    __slots__ = (
        "kind",
        "label",
        "function_names",
        "edge",
        "children",
        "is_result",
        "uid",
        "origin",
        "parent",
    )

    def __init__(
        self,
        kind: PatternKind,
        label: str = "",
        *,
        edge: EdgeKind = EdgeKind.CHILD,
        children: Optional[Sequence["PatternNode"]] = None,
        is_result: bool = False,
        function_names: Optional[frozenset[str]] = None,
    ) -> None:
        self.kind = kind
        self.label = label
        self.function_names = function_names
        self.edge = edge
        self.children: list[PatternNode] = []
        self.is_result = is_result
        self.uid = next(_uid_counter)
        self.origin: Optional[int] = None
        self.parent: Optional[PatternNode] = None
        for child in children or ():
            self.add_child(child)

    # -- construction -------------------------------------------------------

    def add_child(self, child: "PatternNode") -> "PatternNode":
        if child.parent is not None:
            raise ValueError("pattern node already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    # -- predicates ---------------------------------------------------------

    @property
    def is_or(self) -> bool:
        return self.kind is PatternKind.OR

    @property
    def is_function(self) -> bool:
        return self.kind is PatternKind.FUNCTION

    @property
    def is_variable(self) -> bool:
        return self.kind is PatternKind.VARIABLE

    # -- traversal ----------------------------------------------------------

    def iter_subtree(self) -> Iterator["PatternNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_ancestors(self) -> Iterator["PatternNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- copying ------------------------------------------------------------

    def clone(self) -> "PatternNode":
        """Deep copy; the copy records this node as its ``origin``."""
        copy = PatternNode(
            self.kind,
            self.label,
            edge=self.edge,
            is_result=self.is_result,
            function_names=self.function_names,
        )
        copy.origin = self.origin if self.origin is not None else self.uid
        for child in self.children:
            copy.add_child(child.clone())
        return copy

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """A compact single-token rendering of this node alone."""
        if self.kind is PatternKind.ELEMENT:
            return self.label
        if self.kind is PatternKind.VALUE:
            return f'"{self.label}"'
        if self.kind is PatternKind.VARIABLE:
            return f"${self.label}"
        if self.kind is PatternKind.STAR:
            return "*"
        if self.kind is PatternKind.FUNCTION:
            if self.function_names is None:
                return "()"
            return "(" + "|".join(sorted(self.function_names)) + ")()"
        return "OR"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "!" if self.is_result else ""
        return f"PatternNode({self.render()}{marker}, uid={self.uid})"


# -- constructors -----------------------------------------------------------


def pelem(
    label: str,
    *children: PatternNode,
    edge: EdgeKind = EdgeKind.CHILD,
    result: bool = False,
) -> PatternNode:
    return PatternNode(
        PatternKind.ELEMENT, label, edge=edge, children=children, is_result=result
    )


def pvalue(text: object, *, edge: EdgeKind = EdgeKind.CHILD) -> PatternNode:
    return PatternNode(PatternKind.VALUE, str(text), edge=edge)


def pvar(
    name: str, *, edge: EdgeKind = EdgeKind.CHILD, result: bool = True
) -> PatternNode:
    return PatternNode(PatternKind.VARIABLE, name, edge=edge, is_result=result)


def pstar(
    *children: PatternNode,
    edge: EdgeKind = EdgeKind.CHILD,
    result: bool = False,
) -> PatternNode:
    return PatternNode(
        PatternKind.STAR, "*", edge=edge, children=children, is_result=result
    )


def pfunc(
    names: Optional[Sequence[str]] = None,
    *,
    edge: EdgeKind = EdgeKind.CHILD,
    result: bool = False,
) -> PatternNode:
    frozen = None if names is None else frozenset(names)
    return PatternNode(
        PatternKind.FUNCTION, "()", edge=edge, is_result=result, function_names=frozen
    )


def por(*alternatives: PatternNode, edge: EdgeKind = EdgeKind.CHILD) -> PatternNode:
    if len(alternatives) < 1:
        raise ValueError("an OR node needs at least one alternative")
    return PatternNode(PatternKind.OR, "|", edge=edge, children=alternatives)
