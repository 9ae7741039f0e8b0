"""The Web-service abstraction and call replies.

The paper's documents embed calls to SOAP Web services; here a
:class:`Service` is any object able to *produce* a result forest from
parameter subtrees.  The base class implements the reply protocols the
engine needs:

* a **plain** invocation returns the full result forest;
* a **pushed** invocation (Section 7) ships a subquery along with the
  call; a push-capable service evaluates it over its own result and
  returns either

  - the *filtered forest* — only the result trees that (may) contribute
    to the pushed pattern, or
  - *bindings* — tuples of values for the pushed pattern's result
    variables, "and not restaurant elements" as the paper puts it.

A result tree that still contains function nodes can never be filtered
out nor turned into bindings: the embedded calls might later produce
matching data, so the service conservatively keeps such trees (this is
what keeps pushing *safe* with intensional answers).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional, Sequence

from ..axml.node import Node
from ..pattern.match import Matcher
from ..pattern.nodes import EdgeKind
from ..pattern.pattern import TreePattern
from ..schema.schema import FunctionSignature


class PushMode(enum.Enum):
    """How much work is pushed to the service provider (Section 7)."""

    NONE = "none"
    FILTERED = "filtered"
    BINDINGS = "bindings"


@dataclasses.dataclass(frozen=True)
class BindingRow:
    """One tuple of a bindings reply: variable name -> value."""

    values: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.values)


@dataclasses.dataclass
class CallReply:
    """What a service sends back for one invocation.

    ``nodes`` is the forest's node count, filled in by the bus when it
    measures the reply (call-cache hits carry it along) — the engine
    accounts materialised nodes from it instead of re-walking."""

    forest: list[Node]
    bindings: Optional[list[BindingRow]] = None
    pushed: Optional[TreePattern] = None
    push_mode: PushMode = PushMode.NONE
    nodes: int = 0

    @property
    def is_bindings(self) -> bool:
        return self.bindings is not None


class Service:
    """Base class for (mock) Web services.

    Subclasses implement :meth:`produce`.  ``latency_s`` is the simulated
    fixed cost of one round trip; the per-byte component is owned by the
    network model (:mod:`repro.services.simulation`).
    """

    def __init__(
        self,
        name: str,
        signature: Optional[FunctionSignature] = None,
        latency_s: float = 0.05,
        supports_push: bool = True,
    ) -> None:
        self.name = name
        self.signature = signature
        self.latency_s = latency_s
        self.supports_push = supports_push
        self.invocation_count = 0

    # -- to be provided by subclasses ----------------------------------------

    def produce(self, parameters: Sequence[Node]) -> list[Node]:
        """Compute the full result forest for the given parameters.

        Returned trees must be fresh (detached, reusable nowhere else):
        they will be spliced into the caller's document.
        """
        raise NotImplementedError

    # -- the reply protocol -------------------------------------------------------

    def invoke(
        self,
        parameters: Sequence[Node],
        pushed: Optional[TreePattern] = None,
        push_mode: PushMode = PushMode.NONE,
        anchor_edge: EdgeKind = EdgeKind.CHILD,
    ) -> CallReply:
        self.invocation_count += 1
        forest = self.produce(parameters)
        if pushed is None or push_mode is PushMode.NONE or not self.supports_push:
            return CallReply(forest=forest)
        if push_mode is PushMode.BINDINGS:
            return self._bindings_reply(forest, pushed, anchor_edge)
        return self._filtered_reply(forest, pushed, anchor_edge)

    def _filtered_reply(
        self, forest: list[Node], pushed: TreePattern, anchor_edge: EdgeKind
    ) -> CallReply:
        matcher = Matcher(pushed)
        kept: list[Node] = []
        for tree in forest:
            if _has_function_nodes(tree):
                kept.append(tree)  # cannot be ruled out yet
                continue
            if self._tree_matches(matcher, tree, anchor_edge):
                kept.append(tree)
        return CallReply(
            forest=kept, pushed=pushed, push_mode=PushMode.FILTERED
        )

    def _bindings_reply(
        self, forest: list[Node], pushed: TreePattern, anchor_edge: EdgeKind
    ) -> CallReply:
        if any(_has_function_nodes(tree) for tree in forest):
            # Intensional result: bindings would lose future matches, so
            # degrade gracefully to the filtered-forest protocol.
            return self._filtered_reply(forest, pushed, anchor_edge)
        matcher = Matcher(pushed)
        matches = matcher.evaluate_forest(forest, anchor_edge=anchor_edge)
        rows = [
            BindingRow(values=row.bindings) for row in matches
        ]
        # Deduplicate on binding values (the reply carries no node ids).
        unique: dict[tuple[tuple[str, str], ...], BindingRow] = {
            row.values: row for row in rows
        }
        return CallReply(
            forest=[],
            bindings=list(unique.values()),
            pushed=pushed,
            push_mode=PushMode.BINDINGS,
        )

    @staticmethod
    def _tree_matches(
        matcher: Matcher, tree: Node, anchor_edge: EdgeKind
    ) -> bool:
        return bool(matcher.evaluate_forest([tree], anchor_edge=anchor_edge))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


def _has_function_nodes(tree: Node) -> bool:
    return any(node.is_function for node in tree.iter_subtree())


class CallableService(Service):
    """A service backed by a plain Python callable.

    The callable receives the parameter subtrees and returns a fresh
    result forest.
    """

    def __init__(
        self,
        name: str,
        producer: Callable[[Sequence[Node]], list[Node]],
        signature: Optional[FunctionSignature] = None,
        latency_s: float = 0.05,
        supports_push: bool = True,
    ) -> None:
        super().__init__(
            name,
            signature=signature,
            latency_s=latency_s,
            supports_push=supports_push,
        )
        self._producer = producer

    def produce(self, parameters: Sequence[Node]) -> list[Node]:
        return self._producer(parameters)
