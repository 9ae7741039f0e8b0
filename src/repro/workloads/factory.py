"""Declarative workload factory: seeded adversarial scenarios at scale.

The hand-built workloads (hotels, nightlife, chains) cover the paper's
narrative; this module covers everything else.  A :class:`WorkloadSpec`
describes a scenario declaratively — tree shape and fan-out, schema-free
recursion depth, service-call density and argument streams, query mix
(including BINDINGS pushing and multi-child-root standing queries),
fault plan, and seeded mutation/arrival traces — and
:class:`GeneratedWorkload` turns it into concrete documents, a service
registry, a query set, and naive-oracle expected answers, all as pure
functions of the seed.

Two generation modes share the machinery:

* ``sampled`` (default): random trees in the :mod:`synthetic` idiom,
  with queries biased towards paths that exist in a fully materialised
  twin;
* ``drill``: each root subtree is a *hub* holding a hot recursive call
  chain plus cold ``junk`` chains the fixed drill queries never touch —
  the regime where a relevance pass has whole subtrees to ignore.

Termination under recursion keeps the budget-key convention: every call
parameter is ``"<budget>:<salt>"`` and services only embed further
calls while the budget is positive.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Sequence

from ..axml.builder import C, E, V, build_document
from ..axml.document import Document
from ..axml.node import Node
from ..lazy.config import EngineConfig, FaultPolicy, Strategy
from ..lazy.engine import LazyQueryEvaluator
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.parse import parse_pattern
from ..pattern.pattern import TreePattern
from ..services.catalog import FailingService, FlakyService, first_value
from ..services.registry import ServiceBus, ServiceRegistry
from ..services.resilience import RetryPolicy
from ..services.service import PushMode, Service
from ..services.simulation import NetworkModel
from .synthetic import DEFAULT_ALPHABET, materialize

COLD_LABELS = ("junk", "noise")
FAULT_PLANS = ("none", "transient", "permanent")

# The fixed query set of ``drill`` mode: descendant steps anchored
# below the root, so they are resolved by subtree scans rather than by
# the plan's flat sweep of the whole label column.
DRILL_QUERY_TEXTS = (
    "/root/hub[//item/name=$N]",
    "/root/hub//item[name=$M]",
    "/root//item/name",
)


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A declarative, seeded scenario description.

    Every derived artefact — documents, service results, queries,
    mutation and arrival traces — is a pure function of this spec, so
    two processes holding equal specs agree byte-for-byte.
    """

    name: str
    seed: int = 0
    description: str = ""

    # -- tree shape ---------------------------------------------------------
    depth: int = 3
    fanout: tuple[int, int] = (0, 3)
    root_subtrees: tuple[int, int] = (2, 4)
    alphabet: tuple[str, ...] = DEFAULT_ALPHABET
    value_probability: float = 0.4
    min_nodes: int = 0
    """Keep appending root subtrees until the document holds at least
    this many nodes (0 = no floor)."""
    arena_build: bool = False
    """Build every generated document's column mirror
    (``document.arena``) at generation time — the million-node regimes
    keep that linear pass out of their first evaluation."""

    # -- recursion (drill mode) ---------------------------------------------
    recursion_depth: int = 0
    """> 0 switches generation to ``drill`` mode: each root subtree is a
    hub with a hot recursive chain this deep."""
    cold_subtrees: int = 0
    """Cold ``junk`` chains per hub — data the drill queries never
    test."""
    nested_result_probability: float = 0.0
    """Chance a service result embeds a further call while budget > 0
    (the paper's dynamic nesting)."""

    # -- services -----------------------------------------------------------
    n_services: int = 4
    call_probability: float = 0.35
    call_budget: int = 2
    result_fanout: tuple[int, int] = (0, 3)
    latency_s: float = 0.02
    latency_jitter_s: float = 0.0
    argument_pool: int = 0
    """Size of the shared argument-key pool.  0 = an unbounded stream of
    distinct keys (every call a cache miss — the cache-adversarial
    regime); k > 0 = keys recur, so the call cache can pay off."""
    fault_plan: str = "none"
    """One of ``none`` / ``transient`` (each service fails once, healed
    by a second attempt) / ``permanent`` (total outage under FREEZE) — the
    equivalence-preserving plans of the differential harness."""

    # -- queries ------------------------------------------------------------
    n_queries: int = 3
    descendant_probability: float = 0.3
    predicate_probability: float = 0.5
    variable_probability: float = 0.3
    multi_child_root: bool = False
    """Force every sampled query root to carry >= 2 children — the shape
    that defeats ``AnswerCache`` scoping."""
    push_bindings: bool = False
    """Evaluate under ``push_mode=BINDINGS`` by default (replies
    spliced as witness forests)."""

    # -- evolution / serving -------------------------------------------------
    n_documents: int = 1
    n_mutations: int = 0
    n_tenants: int = 1
    n_rounds: int = 0
    arrival_rate: float = 1.0
    """Per-round probability that each document's update arrives."""
    burst_probability: float = 0.0
    """Per-round probability of a burst: every document updates at
    once."""

    @property
    def query_shape(self) -> str:
        return "drill" if self.recursion_depth > 0 else "sampled"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(data: dict) -> "WorkloadSpec":
        fields = {f.name: f.type for f in dataclasses.fields(WorkloadSpec)}
        kwargs = {}
        for key, value in data.items():
            if key not in fields:
                raise ValueError(f"unknown WorkloadSpec field: {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return WorkloadSpec(**kwargs)


class FactoryService(Service):
    """Deterministic pseudo-random service (a pure function of its
    parameter), with per-service latency jitter drawn from the seed."""

    def __init__(self, name: str, workload: "GeneratedWorkload") -> None:
        spec = workload.spec
        jitter_rng = random.Random(f"{spec.seed}|lat|{name}")
        latency = spec.latency_s + jitter_rng.uniform(0, spec.latency_jitter_s)
        super().__init__(name, latency_s=latency, supports_push=True)
        self._workload = workload

    def produce(self, parameters: Sequence[Node]) -> list[Node]:
        key = first_value(parameters) or "0"
        return self._workload.result_forest(self.name, key)


class GeneratedWorkload:
    """A concrete scenario generated from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.service_names = [f"svc{k}" for k in range(spec.n_services)]

    # -- services -----------------------------------------------------------

    def registry(self) -> ServiceRegistry:
        """A *fresh* registry per call — fault wrappers carry state, so
        every evaluation in a differential pair needs its own copy."""
        spec = self.spec
        base = ServiceRegistry(
            FactoryService(name, self) for name in self.service_names
        )
        if spec.fault_plan == "none":
            return base
        if spec.fault_plan == "transient":
            return ServiceRegistry(
                FailingService(name, base.resolve(name), failures=1)
                for name in base.names()
            )
        if spec.fault_plan == "permanent":
            return ServiceRegistry(
                FlakyService(base.resolve(name), fault_rate=1.0, seed=spec.seed + i)
                for i, name in enumerate(base.names())
            )
        raise ValueError(f"unknown fault plan: {spec.fault_plan!r}")

    def make_bus(self, network: Optional[NetworkModel] = None) -> ServiceBus:
        return ServiceBus(self.registry(), network=network)

    def result_forest(self, service_name: str, key: str) -> list[Node]:
        """Deterministic service result under the budget-key
        convention (``key = "<budget>:<salt>"``)."""
        spec = self.spec
        budget_text, _, salt = key.partition(":")
        try:
            budget = int(budget_text)
        except ValueError:
            budget = 0
        rng = random.Random(f"{spec.seed}|svc|{service_name}|{key}")
        if spec.query_shape == "drill":
            forest: list[Node] = [
                E("item", E("name", V(f"n{rng.randint(0, 9)}")))
                for _ in range(rng.randint(1, max(1, spec.result_fanout[1])))
            ]
            if budget > 0 and rng.random() < spec.nested_result_probability:
                forest.append(
                    C(service_name, V(self._call_key(rng, budget - 1, salt)))
                )
            return forest
        size = rng.randint(*spec.result_fanout)
        return [
            self._random_tree(rng, depth=2, call_budget=budget, salt=salt)
            for _ in range(size)
        ]

    def _call_key(self, rng: random.Random, budget: int, salt: str) -> str:
        spec = self.spec
        if spec.argument_pool > 0:
            return f"{budget}:k{rng.randint(0, spec.argument_pool - 1)}"
        return f"{budget}:{salt}-{rng.randint(0, 999_999)}"

    # -- documents ----------------------------------------------------------

    def make_document(self, index: int = 0) -> Document:
        """Document ``index`` of the scenario (structurally identical on
        every call — the twin-document idiom)."""
        spec = self.spec
        rng = random.Random(f"{spec.seed}|doc|{index}")
        root = E("root")
        total = 1
        count = rng.randint(*spec.root_subtrees)
        built = 0
        while built < count or (spec.min_nodes and total < spec.min_nodes):
            tree = self._root_subtree(rng, salt=f"{index}.{built}")
            root.append(tree)
            total += tree.subtree_size()
            built += 1
        document = build_document(root, name=f"{spec.name}-{index}")
        if spec.arena_build:
            document.arena  # built here, not inside the first evaluation
        return document

    def _root_subtree(self, rng: random.Random, salt: str) -> Node:
        spec = self.spec
        if spec.query_shape == "drill":
            return self._hub(rng, salt)
        return self._random_tree(
            rng, depth=spec.depth, call_budget=spec.call_budget, salt=salt
        )

    def _hub(self, rng: random.Random, salt: str) -> Node:
        """A ``hub`` with one hot recursive chain and ``cold_subtrees``
        junk chains (never tested by the drill queries)."""
        spec = self.spec
        children = [self._hot_chain(rng, salt, spec.recursion_depth)]
        children.extend(
            self._cold_chain(rng, spec.recursion_depth)
            for _ in range(spec.cold_subtrees)
        )
        return E("hub", *children)

    def _hot_chain(self, rng: random.Random, salt: str, depth: int) -> Node:
        """Iterative (draw-order identical to the old recursion), so
        deep regimes generate without hitting the recursion limit."""
        spec = self.spec

        def payload() -> Node:
            if rng.random() < spec.call_probability:
                return C(
                    rng.choice(self.service_names),
                    V(self._call_key(rng, spec.call_budget, salt)),
                )
            return E("item", E("name", V(f"n{rng.randint(0, 9)}")))

        top = E("rec", payload())
        node = top
        for _ in range(depth - 1):
            child = E("rec", payload())
            node.append(child)
            node = child
        return top

    def _cold_chain(self, rng: random.Random, depth: int) -> Node:
        inner: Node = V(f"z{rng.randint(0, 9)}")
        for _ in range(depth):
            inner = E(rng.choice(COLD_LABELS), inner)
        return inner

    def _random_tree(
        self, rng: random.Random, depth: int, call_budget: int, salt: str
    ) -> Node:
        spec = self.spec
        if depth <= 0 or rng.random() < spec.value_probability / max(depth, 1):
            return V(rng.choice(("1", "2", "3", rng.choice(spec.alphabet))))
        if call_budget > 0 and rng.random() < spec.call_probability:
            name = rng.choice(self.service_names)
            return C(name, V(self._call_key(rng, call_budget - 1, salt)))
        node = E(rng.choice(spec.alphabet))
        for _ in range(rng.randint(*spec.fanout)):
            node.append(self._random_tree(rng, depth - 1, call_budget, salt))
        return node

    # -- queries ------------------------------------------------------------

    def queries(self) -> list[TreePattern]:
        return [self.query_for(i) for i in range(self.spec.n_queries)]

    @property
    def query(self) -> TreePattern:
        return self.query_for(0)

    def document_for_query(self, index: int) -> int:
        """Which document query ``index`` is sampled against (and should
        be evaluated on, in multi-document regimes)."""
        return index % self.spec.n_documents

    def query_for(self, index: int) -> TreePattern:
        spec = self.spec
        if spec.query_shape == "drill":
            text = DRILL_QUERY_TEXTS[index % len(DRILL_QUERY_TEXTS)]
            return parse_pattern(text, name=f"{spec.name}-drill-{index}")
        return self._sample_query(index)

    def _sample_query(self, index: int) -> TreePattern:
        """A random query biased towards paths of a fully materialised
        twin (the :mod:`synthetic` idiom), with the spec's extra shapes:
        forced multi-child roots and variable results for pushing."""
        spec = self.spec
        rng = random.Random(f"{spec.seed}|query|{index}")
        twin = self.make_document(self.document_for_query(index)).copy()
        bus = ServiceBus(
            ServiceRegistry(
                FactoryService(name, self) for name in self.service_names
            )
        )
        materialize(twin, bus, max_calls=2000)

        root = PatternNode(PatternKind.ELEMENT, twin.root.label)
        cursor = root
        for doc_node in self._random_path(twin, rng):
            edge = (
                EdgeKind.DESCENDANT
                if rng.random() < spec.descendant_probability
                else EdgeKind.CHILD
            )
            kind = PatternKind.VALUE if doc_node.is_value else PatternKind.ELEMENT
            nxt = PatternNode(kind, doc_node.label, edge=edge)
            cursor.add_child(nxt)
            if (
                rng.random() < spec.predicate_probability
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
            and rng.random() < spec.variable_probability
        ):
            cursor.add_child(
                PatternNode(
                    PatternKind.VARIABLE, "X", edge=EdgeKind.CHILD,
                    is_result=True,
                )
            )
        else:
            cursor.is_result = True
        if spec.multi_child_root:
            labels = [c.label for c in twin.root.children if c.is_element]
            while len(root.children) < 2:
                label = rng.choice(labels) if labels else spec.alphabet[0]
                root.add_child(
                    PatternNode(
                        PatternKind.ELEMENT, label, edge=EdgeKind.DESCENDANT
                    )
                )
        return TreePattern(root, name=f"{spec.name}-query-{index}")

    def _random_path(self, twin: Document, rng: random.Random) -> list[Node]:
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

    # -- engine wiring -------------------------------------------------------

    def engine_config(self, **overrides) -> EngineConfig:
        """An :class:`EngineConfig` with the spec's fault policy and
        push mode applied, then ``overrides`` on top."""
        spec = self.spec
        base: dict = {}
        if spec.push_bindings:
            base["push_mode"] = PushMode.BINDINGS
        if spec.fault_plan != "none":
            base["fault_policy"] = FaultPolicy.FREEZE
        if spec.fault_plan == "transient":
            base["retry"] = RetryPolicy(max_attempts=3, base_backoff_s=0.01)
        base.update(overrides)
        return EngineConfig(**base)

    def evaluate(
        self,
        query: Optional[TreePattern] = None,
        document_index: int = 0,
        network: Optional[NetworkModel] = None,
        **overrides,
    ):
        """One full evaluation on a fresh bus/registry/document.

        Returns ``(outcome, log)`` where ``log`` is the invocation
        sequence ``[(service, call node id, fault), ...]`` — comparable
        call site by call site because twin documents rebuild with
        identical node ids.
        """
        bus = self.make_bus(network)
        engine = LazyQueryEvaluator(bus, config=self.engine_config(**overrides))
        outcome = engine.evaluate(
            query if query is not None else self.query,
            self.make_document(document_index),
        )
        log = [
            (r.service_name, r.call_node_id, r.fault)
            for r in bus.log.records
        ]
        return outcome, log

    def oracle(self, query: Optional[TreePattern] = None, document_index: int = 0):
        """The naive-engine oracle outcome for ``query``."""
        outcome, _ = self.evaluate(
            query,
            document_index,
            strategy=Strategy.NAIVE,
            push_mode=PushMode.NONE,
        )
        return outcome

    def oracle_rows(
        self, query: Optional[TreePattern] = None, document_index: int = 0
    ) -> set:
        """Expected answers: the naive engine's value rows."""
        return set(self.oracle(query, document_index).value_rows())

    # -- evolution / serving -------------------------------------------------

    def apply_mutation(self, step: str, documents: Sequence[Document]) -> None:
        """One seeded random splice, replayed identically on every twin.

        ``step`` keys the draw (e.g. ``"3"`` or ``"round2|doc1"``), and
        the structural child-index path is resolved per twin, so the
        twins need not share node objects — only structure.
        """
        spec = self.spec
        rng = random.Random(f"{spec.seed}|mut|{step}")
        kind = rng.choice(("insert", "insert", "insert-call", "remove"))
        path = self._spot_path(rng, documents[0])
        if kind == "remove" and path:
            for document in documents:
                document.remove_subtree(self._node_at(document, path))
            return
        if kind == "insert-call":
            name = rng.choice(self.service_names)
            subtree: Node = C(
                name, V(self._call_key(rng, 1, f"mut-{step}"))
            )
        elif spec.query_shape == "drill":
            subtree = self._hot_chain(
                rng, f"mut-{step}", max(1, spec.recursion_depth // 2)
            )
        else:
            subtree = self._random_tree(
                rng, depth=2, call_budget=1, salt=f"mut-{step}"
            )
        for document in documents:
            document.insert_subtree(self._node_at(document, path), subtree.clone())

    def mutation_trace(self) -> list[str]:
        """The spec's default mutation step keys."""
        return [str(step) for step in range(self.spec.n_mutations)]

    @staticmethod
    def _spot_path(rng: random.Random, document: Document) -> list[int]:
        node, path = document.root, []
        while True:
            elements = [
                (i, c) for i, c in enumerate(node.children) if c.is_element
            ]
            if not elements or rng.random() < 0.5:
                return path
            index, node = rng.choice(elements)
            path.append(index)

    @staticmethod
    def _node_at(document: Document, path: list[int]) -> Node:
        node = document.root
        for index in path:
            node = node.children[index]
        return node

    def tenant_for(self, index: int) -> str:
        return f"tenant{index % max(1, self.spec.n_tenants)}"

    def arrival_trace(self) -> list[tuple[int, ...]]:
        """Per-round document arrivals: round ``r`` updates exactly the
        documents listed in entry ``r`` (possibly none — jitter — or all
        of them — a burst)."""
        spec = self.spec
        rng = random.Random(f"{spec.seed}|arrivals")
        trace: list[tuple[int, ...]] = []
        for _ in range(spec.n_rounds):
            if rng.random() < spec.burst_probability:
                trace.append(tuple(range(spec.n_documents)))
                continue
            trace.append(
                tuple(
                    i
                    for i in range(spec.n_documents)
                    if rng.random() < spec.arrival_rate
                )
            )
        return trace

    # -- interop -------------------------------------------------------------

    def as_workload(self, query_index: int = 0):
        """A :class:`~repro.workloads.primitives.Workload` view (for the
        bench harness's ``evaluate_workload``).  Fault-plan wrappers are
        stateful, so views of faulty regimes should not share buses
        across evaluations."""
        from .primitives import Workload

        return Workload(
            name=f"{self.spec.name}(seed={self.spec.seed})",
            schema=None,
            registry=self.registry(),
            query=self.query_for(query_index),
            _document_factory=lambda: self.make_document(
                self.document_for_query(query_index)
            ),
        )

    def describe(self) -> dict:
        """Cheap structural stats for the CLI and bench tables."""
        document = self.make_document(0)
        calls = document.function_nodes()
        per_service: dict[str, int] = {}
        for call in calls:
            per_service[call.label] = per_service.get(call.label, 0) + 1
        return {
            "name": self.spec.name,
            "seed": self.spec.seed,
            "query_shape": self.spec.query_shape,
            "nodes": document.root.subtree_size(),
            "calls": len(calls),
            "calls_per_service": per_service,
            "documents": self.spec.n_documents,
            "queries": self.spec.n_queries,
            "fault_plan": self.spec.fault_plan,
        }


def generate(spec: WorkloadSpec) -> GeneratedWorkload:
    """Convenience constructor mirroring the class."""
    return GeneratedWorkload(spec)


# ---------------------------------------------------------------------------
# Named hostile regimes.  Each one targets a code path the hand-built
# workloads never stress; the E15 bench runs the naive-vs-configured
# differential over every one of them.
# ---------------------------------------------------------------------------

REGIMES: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="baseline",
            seed=1501,
            min_nodes=400,
            description=(
                "mixed extensional/intensional trees over a small shared "
                "argument pool (the cache-friendly control)"
            ),
            argument_pool=6,
            n_queries=3,
            n_mutations=4,
        ),
        WorkloadSpec(
            name="deep-recursion",
            seed=1502,
            description=(
                "hot recursive call chains next to cold junk chains "
                "no query tests"
            ),
            n_services=1,
            call_probability=1.0,
            recursion_depth=8,
            cold_subtrees=3,
            root_subtrees=(10, 10),
            nested_result_probability=0.5,
            call_budget=2,
            n_queries=3,
        ),
        WorkloadSpec(
            name="wide-flat",
            seed=1503,
            min_nodes=500,
            description=(
                "huge fan-out at depth 2: candidate floods for the "
                "matcher"
            ),
            depth=2,
            fanout=(6, 10),
            root_subtrees=(8, 12),
            value_probability=0.25,
            n_queries=3,
        ),
        WorkloadSpec(
            name="bindings-push",
            seed=1504,
            min_nodes=300,
            description=(
                "variable-result queries shipped as BINDINGS subqueries; "
                "replies arrive as tuples and are spliced as witness forests"
            ),
            push_bindings=True,
            variable_probability=1.0,
            call_probability=0.5,
            n_queries=4,
        ),
        WorkloadSpec(
            name="cache-flood",
            seed=1505,
            min_nodes=600,
            description=(
                "an unbounded distinct-key argument stream: every call a "
                "cache miss, the CallCache pays rent for nothing"
            ),
            argument_pool=0,
            call_probability=0.6,
            root_subtrees=(4, 6),
            n_queries=2,
        ),
        WorkloadSpec(
            name="multi-root-standing",
            seed=1506,
            min_nodes=300,
            description=(
                "standing queries whose roots carry several children — "
                "the shape that defeats AnswerCache scoping"
            ),
            multi_child_root=True,
            n_mutations=6,
            n_queries=3,
        ),
        WorkloadSpec(
            name="bursty-tenants",
            seed=1507,
            min_nodes=150,
            description=(
                "multi-tenant serving under a jittered, bursty arrival "
                "trace: most rounds only some documents move"
            ),
            n_documents=4,
            n_tenants=3,
            n_rounds=8,
            arrival_rate=0.4,
            burst_probability=0.2,
            n_queries=6,
            n_mutations=8,
        ),
        WorkloadSpec(
            name="large-document",
            seed=1508,
            description=">=1M-node documents on the arena builder path: "
            "the scale regime (child-edge queries — descendant steps "
            "at this size are the E16 bench's own, served by the "
            "column scans)",
            min_nodes=1_000_000,
            depth=5,
            fanout=(2, 5),
            call_probability=0.15,
            argument_pool=32,
            n_queries=2,
            descendant_probability=0.0,
            arena_build=True,
        ),
        WorkloadSpec(
            name="large-document-100k",
            seed=1508,
            description=">=100k-node documents whose column mirror is "
            "built on first use, not at generation: the scale regime "
            "a tenth the size, without the arena pre-build",
            min_nodes=100_000,
            depth=5,
            fanout=(2, 5),
            call_probability=0.15,
            argument_pool=32,
            n_queries=2,
            descendant_probability=0.0,
        ),
        WorkloadSpec(
            name="flaky-retry",
            seed=1509,
            min_nodes=250,
            description=(
                "every service fails exactly once; a retry heals all "
                "strategies to the fault-free answer"
            ),
            fault_plan="transient",
            n_queries=3,
        ),
        WorkloadSpec(
            name="outage-freeze",
            seed=1510,
            min_nodes=250,
            description=(
                "a total service outage under FREEZE: every strategy "
                "freezes the same calls and answers from the "
                "extensional part"
            ),
            fault_plan="permanent",
            n_queries=3,
        ),
    )
}


def regime(name: str, **overrides) -> GeneratedWorkload:
    """Instantiate a named regime, optionally overriding spec fields
    (e.g. ``seed=...`` for fresh randomness, ``min_nodes=...`` for
    smoke-sized runs)."""
    spec = REGIMES[name]
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return GeneratedWorkload(spec)


def fuzz_spec(name: str, seed: int) -> WorkloadSpec:
    """A property-test-sized variant of a named regime: same hostile
    shape, bounded document size, fresh seed."""
    spec = REGIMES[name]
    return dataclasses.replace(
        spec,
        seed=seed,
        min_nodes=0,
        depth=min(spec.depth, 3),
        fanout=(min(spec.fanout[0], 2), min(spec.fanout[1], 4)),
        root_subtrees=(1, 3),
        recursion_depth=min(spec.recursion_depth, 4),
        cold_subtrees=min(spec.cold_subtrees, 1),
        n_documents=min(spec.n_documents, 3),
        n_rounds=min(spec.n_rounds, 4),
        n_queries=min(spec.n_queries, 3),
        n_mutations=min(spec.n_mutations, 3),
    )
