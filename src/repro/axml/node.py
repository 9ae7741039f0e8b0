"""Tree nodes for Active XML documents.

The paper (Section 2) models AXML documents as ordered labelled trees with
two families of nodes:

* *data nodes* — regular XML content, labelled with element names, or with
  data values for leaves;
* *function nodes* — embedded calls to Web services, labelled with the
  service (function) name; their children subtrees are the call parameters.

We split data nodes into ``ELEMENT`` and ``VALUE`` kinds because queries
treat inner labels and leaf values slightly differently (value constants in
a pattern only ever match value leaves).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, Optional, Sequence


class NodeKind(enum.Enum):
    """The three kinds of AXML tree nodes."""

    ELEMENT = "element"
    VALUE = "value"
    FUNCTION = "function"


class Activation(enum.Enum):
    """Call-activation modes of the original AXML system (Section 1).

    The paper: "a particular service call may be invoked at regular
    time intervals or only upon explicit user intervention.  We are
    concerned here with a special kind of call activation: lazy service
    calls."

    * ``LAZY`` — invoked only when relevant to a pending query (the
      paper's subject and the default);
    * ``IMMEDIATE`` — invoked as soon as evaluation starts, regardless
      of relevance (the eager end of the spectrum);
    * ``FROZEN`` — never invoked automatically (explicit-intervention
      calls); evaluation leaves them intensional.
    """

    LAZY = "lazy"
    IMMEDIATE = "immediate"
    FROZEN = "frozen"


class Node:
    """One node of an AXML tree.

    Nodes are mutable (the whole point of AXML is that invoking a call
    mutates the document), but all mutation of attached nodes should go
    through :class:`repro.axml.document.Document` so that node ids,
    parent pointers and observers stay consistent.

    Attributes:
        kind: element, value or function.
        label: element name, data value, or function (service) name.
        children: ordered list of child nodes.
        parent: parent node, or ``None`` for a detached root.
        node_id: unique id within a document; ``None`` while detached.
        produced_by: id of the function node whose invocation produced
            this node, or ``None`` for original content.  Together with
            the transitive closure through nested results this realises
            the paper's "transitively produced" relation (Definition 2).
    """

    __slots__ = (
        "kind",
        "label",
        "children",
        "parent",
        "node_id",
        "produced_by",
        "activation",
    )

    def __init__(
        self,
        kind: NodeKind,
        label: str,
        children: Optional[Sequence["Node"]] = None,
        activation: Activation = Activation.LAZY,
    ) -> None:
        self.kind = kind
        self.label = label
        self.children: list[Node] = []
        self.parent: Optional[Node] = None
        self.node_id: Optional[int] = None
        self.produced_by: Optional[int] = None
        self.activation = activation
        for child in children or ():
            self.append(child)

    # -- construction -----------------------------------------------------

    def append(self, child: "Node") -> "Node":
        """Attach ``child`` as the last child and return it."""
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        child.parent = self
        self.children.append(child)
        return child

    def detach(self) -> "Node":
        """Remove this node from its parent and return it."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self

    # -- predicates --------------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_value(self) -> bool:
        return self.kind is NodeKind.VALUE

    @property
    def is_function(self) -> bool:
        return self.kind is NodeKind.FUNCTION

    @property
    def is_data(self) -> bool:
        """True for the paper's *data nodes* (element or value)."""
        return self.kind is not NodeKind.FUNCTION

    # -- traversal ---------------------------------------------------------

    def iter_subtree(self) -> Iterator["Node"]:
        """Pre-order (document-order) traversal including this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_descendants(self) -> Iterator["Node"]:
        """All nodes strictly below this one, in document order."""
        nodes = self.iter_subtree()
        next(nodes)
        return nodes

    def iter_ancestors(self) -> Iterator["Node"]:
        """Parent, grandparent, ... up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def data_children(self) -> list["Node"]:
        return [c for c in self.children if c.is_data]

    def function_children(self) -> list["Node"]:
        return [c for c in self.children if c.is_function]

    # -- measurements -------------------------------------------------------

    # A subclass overrides these two to answer for its own subtree: a
    # lazily loaded document's unread scope does so without a walk.

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        size = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is Node:
                size += 1
                stack += node.children
            else:
                size += node.subtree_size()
        return size

    def function_nodes(self) -> list["Node"]:
        """The function nodes of the subtree rooted here, in document
        order."""
        function = NodeKind.FUNCTION
        calls: list[Node] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is not Node:
                calls += node.function_nodes()
                continue
            if node.kind is function:
                calls.append(node)
            stack += reversed(node.children)
        return calls

    def depth(self) -> int:
        """Number of ancestors (root has depth 0)."""
        return sum(1 for _ in self.iter_ancestors())

    # -- copying -----------------------------------------------------------

    def clone(self) -> "Node":
        """Deep copy; the copy is detached and carries no node ids.

        Iterative, so arbitrarily deep documents copy without hitting
        the interpreter's recursion limit.
        """
        copy = Node(self.kind, self.label, activation=self.activation)
        stack = [(self, copy)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                child_copy = Node(
                    child.kind, child.label, activation=child.activation
                )
                target.append(child_copy)
                stack.append((child, child_copy))
        return copy

    def structurally_equal(self, other: "Node") -> bool:
        """Deep equality on (kind, label, ordered children)."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.kind is not b.kind or a.label != b.label:
                return False
            if len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = {NodeKind.ELEMENT: "", NodeKind.VALUE: "=", NodeKind.FUNCTION: "!"}
        return (
            f"Node({marker[self.kind]}{self.label!r}, id={self.node_id}, "
            f"children={len(self.children)})"
        )

    def pretty(self, indent: int = 0) -> str:
        """Human-readable indented rendering of the subtree.

        Iterative, so arbitrarily deep documents render without hitting
        the interpreter's recursion limit.
        """
        parts = []
        stack = [(self, indent)]
        while stack:
            node, level = stack.pop()
            pad = "  " * level
            if node.is_value:
                line = f'{pad}"{node.label}"'
            elif node.is_function:
                line = f"{pad}@{node.label}()"
            else:
                line = f"{pad}<{node.label}>"
            if node.node_id is not None:
                line += f"  #{node.node_id}"
            parts.append(line)
            stack.extend(
                (child, level + 1) for child in reversed(node.children)
            )
        return "\n".join(parts)


# -- detached-tree constructors (the building DSL lives in builder.py) -----


def element(label: str, *children: Node) -> Node:
    """A detached element node."""
    return Node(NodeKind.ELEMENT, label, children)


def value(text: object) -> Node:
    """A detached value (text leaf) node; the value is stored as ``str``."""
    return Node(NodeKind.VALUE, str(text))


def call(
    service_name: str,
    *parameters: Node,
    activation: Activation = Activation.LAZY,
) -> Node:
    """A detached function (service call) node."""
    return Node(
        NodeKind.FUNCTION, service_name, parameters, activation=activation
    )


def walk_matching(
    root: Node, predicate: Callable[[Node], bool]
) -> Iterator[Node]:
    """All nodes under (and including) ``root`` satisfying ``predicate``."""
    return (n for n in root.iter_subtree() if predicate(n))


_fresh_counter = itertools.count(1)


def fresh_name(prefix: str) -> str:
    """A process-unique name, handy for generated services in tests."""
    return f"{prefix}_{next(_fresh_counter)}"
