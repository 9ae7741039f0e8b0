"""Seeded random AXML worlds for property-based testing and stress
benchmarks.

A :class:`SyntheticWorld` fixes a service catalogue whose results are a
*pure function* of (service name, parameter): the same world gives every
evaluation strategy byte-identical service behaviour, which is what lets
the property tests assert that naive and lazy evaluation agree on the
full result of arbitrary queries.

Termination is guaranteed by a depth-budget convention: every call
carries a numeric budget parameter, and services only embed further
calls while the budget is positive (AXML documents may otherwise be
infinite, Section 2 of the paper).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..axml.builder import C, E, V, build_document
from ..axml.document import Document
from ..axml.node import Node
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.pattern import TreePattern
from ..services.catalog import first_value
from ..services.registry import ServiceBus, ServiceCall, ServiceRegistry
from ..services.resilience import InvocationPolicy, RetryPolicy
from ..services.service import Service

DEFAULT_ALPHABET = ("alpha", "beta", "gamma", "delta", "epsilon")


class SyntheticService(Service):
    """Deterministic pseudo-random service (function of its parameter)."""

    def __init__(
        self,
        name: str,
        world: "SyntheticWorld",
        latency_s: float = 0.02,
    ) -> None:
        super().__init__(name, latency_s=latency_s, supports_push=True)
        self._world = world

    def produce(self, parameters: Sequence[Node]) -> list[Node]:
        key = first_value(parameters) or "0"
        return self._world.result_forest(self.name, key)


class SyntheticWorld:
    """A reproducible universe of documents and services."""

    def __init__(
        self,
        seed: int,
        n_services: int = 4,
        alphabet: Sequence[str] = DEFAULT_ALPHABET,
        max_forest: int = 3,
        max_children: int = 3,
        call_probability: float = 0.35,
        value_probability: float = 0.4,
    ) -> None:
        self.seed = seed
        self.alphabet = tuple(alphabet)
        self.max_forest = max_forest
        self.max_children = max_children
        self.call_probability = call_probability
        self.value_probability = value_probability
        self.service_names = [f"svc{k}" for k in range(n_services)]

    # -- services -----------------------------------------------------------

    def registry(self) -> ServiceRegistry:
        return ServiceRegistry(
            SyntheticService(name, self) for name in self.service_names
        )

    def bus(self) -> ServiceBus:
        return ServiceBus(self.registry())

    def result_forest(self, service_name: str, key: str) -> list[Node]:
        """The (deterministic) result of one service invocation.

        ``key`` has the form ``"<budget>:<salt>"``; the budget controls
        how deep further nesting may go.
        """
        budget_text, _, salt = key.partition(":")
        try:
            budget = int(budget_text)
        except ValueError:
            budget = 0
        rng = random.Random(f"{self.seed}|svc|{service_name}|{key}")
        size = rng.randint(0, self.max_forest)
        return [
            self._random_tree(rng, depth=2, call_budget=budget, salt=salt)
            for _ in range(size)
        ]

    # -- documents ------------------------------------------------------------

    def make_document(
        self, doc_seed: int, depth: int = 3, call_budget: int = 2
    ) -> Document:
        rng = random.Random(f"{self.seed}|doc|{doc_seed}")
        root = E("root")
        for _ in range(rng.randint(1, self.max_children + 1)):
            root.append(
                self._random_tree(
                    rng, depth=depth, call_budget=call_budget, salt=str(doc_seed)
                )
            )
        return build_document(root, name=f"synthetic-{doc_seed}")

    def _random_tree(
        self, rng: random.Random, depth: int, call_budget: int, salt: str
    ) -> Node:
        if depth <= 0 or rng.random() < self.value_probability / max(depth, 1):
            return V(rng.choice(("1", "2", "3", rng.choice(self.alphabet))))
        if call_budget > 0 and rng.random() < self.call_probability:
            name = rng.choice(self.service_names)
            key = f"{call_budget - 1}:{salt}-{rng.randint(0, 9999)}"
            return C(name, V(key))
        node = E(rng.choice(self.alphabet))
        for _ in range(rng.randint(0, self.max_children)):
            node.append(
                self._random_tree(rng, depth - 1, call_budget, salt)
            )
        return node

    # -- queries ---------------------------------------------------------------

    def sample_query(
        self,
        document: Document,
        query_seed: int,
        descendant_probability: float = 0.3,
        predicate_probability: float = 0.5,
        variable_probability: float = 0.3,
    ) -> TreePattern:
        """A random query biased towards paths that exist in a fully
        materialised twin of the document (so results are often
        non-empty — empty-only testing proves little)."""
        rng = random.Random(f"{self.seed}|query|{query_seed}")
        twin = document.copy()
        materialize(twin, self.bus(), max_calls=500)

        spine_nodes = self._random_path(twin, rng)
        root = PatternNode(PatternKind.ELEMENT, twin.root.label)
        cursor = root
        for doc_node in spine_nodes:
            edge = (
                EdgeKind.DESCENDANT
                if rng.random() < descendant_probability
                else EdgeKind.CHILD
            )
            if doc_node.is_value:
                nxt = PatternNode(PatternKind.VALUE, doc_node.label, edge=edge)
            else:
                nxt = PatternNode(PatternKind.ELEMENT, doc_node.label, edge=edge)
            cursor.add_child(nxt)
            if (
                rng.random() < predicate_probability
                and doc_node.parent is not None
            ):
                sibling = rng.choice(doc_node.parent.children)
                if sibling.is_element:
                    cursor.add_child(
                        PatternNode(PatternKind.ELEMENT, sibling.label)
                    )
            cursor = nxt
        if (
            cursor.kind is PatternKind.ELEMENT
            and rng.random() < variable_probability
        ):
            cursor.add_child(
                PatternNode(
                    PatternKind.VARIABLE, "X", edge=EdgeKind.CHILD, is_result=True
                )
            )
        else:
            cursor.is_result = True
        return TreePattern(root, name=f"synthetic-query-{query_seed}")

    def _random_path(
        self, twin: Document, rng: random.Random
    ) -> list[Node]:
        node = twin.root
        path: list[Node] = []
        while True:
            data_children = [c for c in node.children if c.is_data]
            if not data_children or (path and rng.random() < 0.3):
                return path
            node = rng.choice(data_children)
            path.append(node)
            if node.is_value:
                return path


def materialize(document: Document, bus: ServiceBus, max_calls: int) -> None:
    """Invoke the calls of ``document`` on ``bus``, sweep after sweep,
    until none remain or ``max_calls`` were spliced (one attempt each;
    a fault raises).  How the generated worlds grow the twin their
    queries are sampled from."""
    invoked = 0
    while invoked < max_calls:
        calls = document.function_nodes()
        if not calls:
            return
        for call in calls:
            if not document.contains(call):
                continue
            outcome = bus.invoke(
                ServiceCall(service=call.label, parameters=call.children),
                policy=InvocationPolicy(retry=RetryPolicy(max_attempts=1)),
            )
            if outcome.fault is not None:
                raise outcome.fault
            assert outcome.reply is not None
            document.replace_call(call, outcome.reply.forest)
            invoked += 1
            if invoked >= max_calls:
                return


def make_world(seed: int, **kwargs) -> SyntheticWorld:
    """Convenience constructor mirroring the class signature."""
    return SyntheticWorld(seed, **kwargs)
