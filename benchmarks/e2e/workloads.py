"""The four workloads: seeded inputs, front-door drivers, oracles.

Each workload turns ``--seed`` into inputs (XML text, query texts,
service objects, a mutation trace), drives the program only through its
front doors with their defaults, and states what a correct answer is.

The seed picks the workload's *world* (document structure, service
tables) from ``WORLD_SEEDS``, orders the document's top-level subtrees
and places the serving trace's quiet inserts: another seed is another
document with other relevant calls, rounds and rows.  The worlds of one
workload were chosen for equal work (``find_worlds.py``): the cost of a
lazy evaluation is driven by a heavy-tailed count of sequential rounds,
two worlds of one nominal size differ 2-10x in work, and the bounds in
``BENCHMARK.json`` are shares of a median over runs with different seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import time
from typing import Optional

import repro
from repro.workloads.factory import regime
from repro.workloads.hotels import (
    HOTELS_SCHEMA_TEXT,
    PAPER_QUERY_TEXT,
    HotelsWorkloadParams,
    build_hotels_workload,
)

WORKLOADS = ("oneshot-prune", "oneshot-rounds", "oneshot-fanout", "serve-standing")

#: Sized on a 2-core box so that one pass/session takes 1.5-6 s and a
#: 20 s run holds >= 20 timed operations (see README, sizing table).
SIZES = {
    "oneshot-prune": {"n_hotels": 300},
    "oneshot-rounds": {"min_nodes": 3000},
    "oneshot-fanout": {"min_nodes": 15000},
    "serve-standing": {"n_hotels": 120, "subscribers": 32, "rounds": 96},
}
SMOKE_SIZES = {
    "oneshot-prune": {"n_hotels": 20},
    "oneshot-rounds": {"min_nodes": 500},
    "oneshot-fanout": {"min_nodes": 800},
    "serve-standing": {"n_hotels": 20, "subscribers": 6, "rounds": 16},
}

#: The standing/one-shot query texts of the E13 hotels experiments: all
#: single-root-child patterns that differ in depth, predicates and
#: result position, so their relevance families genuinely differ.
E13_QUERY_TEXTS = (
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/name/$X',
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/address/$X',
    '/hotels/hotel[name="Best Western"]/nearby/museum/name/$X',
    '/hotels/hotel[rating="5"]/name/$X',
    '/hotels/hotel[name="Best Western"]/address/$X',
    '/hotels/hotel/nearby/restaurant[rating="4"]/name/$X',
)
ROUNDS_QUERY_TEXTS = (
    "/root/alpha//beta[gamma]/$x",
    "/root/beta//gamma[delta]/$x",
    "/root/gamma//alpha[beta]/$x",
)
FANOUT_QUERY_TEXTS = (
    "/root//alpha/beta/$x",
    '/root//gamma/"2"',
    "/root//svc1()",
)
#: Generator seeds of each workload's worlds; ``--seed`` picks one.  Per
#: unit they agree within 2% in calls invoked and 3% in simulated service
#: time, nodes and wall at reference speed (see ``find_worlds.py``).
WORLD_SEEDS = {
    "oneshot-prune": (94, 95, 127, 199, 219),
    "oneshot-rounds": (106, 143, 394, 612),
    "oneshot-fanout": (106, 140, 189, 200, 299),
    "serve-standing": (8, 25, 34, 42, 113),
}
TENANTS = ("team-a", "team-b", "team-c")


@dataclasses.dataclass
class Inputs:
    """Everything the program receives, and nothing else."""

    workload: str
    xml: str
    queries: tuple[str, ...]
    services: list
    schema_text: Optional[str]
    nodes: int
    calls_present: int
    digest: str
    #: serve-standing only: (subscription name, tenant, query index).
    standing: tuple = ()
    #: serve-standing only: one entry per round, see ``_serve_trace``.
    trace: tuple = ()


@dataclasses.dataclass
class Sample:
    """One timed operation."""

    kind: str
    wall_s: float
    #: The calibration block taken before the operation, and the factor
    #: that takes ``wall_s`` to reference speed (see ``speed.py``), set
    #: once the block after the operation exists.
    block: int = 0
    factor: float = 1.0
    #: A full evaluation from query text to rows (``repro.evaluate``, an
    #: eager ``subscribe``), as opposed to a round of the serving trace.
    evaluation: bool = True
    sim_s: float = 0.0
    calls: int = 0
    #: Oracle key and observed value rows (``None`` = nothing to compare).
    check: Optional[tuple] = None
    rows: Optional[frozenset] = None
    failed: bool = False
    #: The program's own ``Metrics`` of the evaluations this op ran.
    metrics: list = dataclasses.field(default_factory=list)


def _shuffled_text(document, seed, keep_last=0):
    """Serialize ``document`` with its root subtrees in seeded order
    (the last ``keep_last`` stay put: the schema orders them)."""
    children = list(document.root.children)
    head = children[: len(children) - keep_last]
    random.Random(f"e2e|order|{seed}").shuffle(head)
    root = repro.E(document.root.label)
    for child in head + children[len(head):]:
        root.append(child.clone())
    shuffled = repro.build_document(root, name=document.name)
    return repro.serialize_document(shuffled), shuffled


def _finish(workload, text, document, queries, services, schema_text, **extra):
    digest = hashlib.sha256(text.encode("utf-8"))
    digest.update(repr(extra.get("trace", ())).encode("utf-8"))
    return Inputs(
        workload=workload,
        xml=text,
        queries=tuple(queries),
        services=services,
        schema_text=schema_text,
        nodes=document.root.subtree_size(),
        calls_present=len(document.function_nodes()),
        digest=digest.hexdigest()[:16],
        **extra,
    )


def _services_of(registry):
    return [registry.resolve(name) for name in registry.names()]


def _hotels_inputs(seed, world_seed, n_hotels, extra_hotels):
    world = build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n_hotels,
            extra_hotels_via_service=extra_hotels,
            target_hotel_count=12,
            seed=world_seed,
        )
    )
    # The schema puts getHotels calls after the hotels: keep it last.
    text, document = _shuffled_text(
        world.make_document(), seed, keep_last=1 if extra_hotels else 0
    )
    return text, document, _services_of(world.registry)


def make_inputs(workload, seed, smoke=False, world_seed=None):
    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    if world_seed is None:
        table = WORLD_SEEDS[workload]
        world_seed = table[seed % len(table)]
    if workload == "oneshot-prune":
        queries = (PAPER_QUERY_TEXT, *E13_QUERY_TEXTS)
        text, document, services = _hotels_inputs(seed, world_seed, size["n_hotels"], 5)
        return _finish(
            workload, text, document, queries, services, HOTELS_SCHEMA_TEXT
        )
    if workload in ("oneshot-rounds", "oneshot-fanout"):
        world = regime(
            "large-document-100k", min_nodes=size["min_nodes"], seed=world_seed
        )
        text, document = _shuffled_text(world.make_document(), seed)
        queries = (
            ROUNDS_QUERY_TEXTS
            if workload == "oneshot-rounds"
            else FANOUT_QUERY_TEXTS
        )
        return _finish(
            workload, text, document, queries, _services_of(world.registry()), None
        )
    if workload == "serve-standing":
        text, document, services = _hotels_inputs(seed, world_seed, size["n_hotels"], 0)
        standing = tuple(
            (f"sub-{i}", TENANTS[i % len(TENANTS)], i % len(E13_QUERY_TEXTS))
            for i in range(size["subscribers"])
        )
        return _finish(
            workload,
            text,
            document,
            E13_QUERY_TEXTS,
            services,
            HOTELS_SCHEMA_TEXT,
            standing=standing,
            trace=_serve_trace(seed, size["rounds"], size["n_hotels"]),
        )
    raise ValueError(f"unknown workload: {workload!r}")


def naive_rows(inputs, texts, keys):
    """The oracle: for each key ``(text label, query index)`` a
    from-scratch ``repro.evaluate`` under the naive strategy — every call
    invoked to a fixpoint on a twin, then the query over the materialised
    document."""
    registry = repro.ServiceRegistry(inputs.services)
    expected = {}
    for label, index in keys:
        outcome = repro.evaluate(
            inputs.queries[index], texts[label], services=registry, strategy="naive"
        )
        expected[label, index] = frozenset(outcome.value_rows())
    return expected


# -- one-shot workloads ---------------------------------------------------------

_NO_SPAN = contextlib.nullcontext()


class OneShot:
    """``repro.evaluate(query_text, xml_text, services=..., schema=...)``
    with ``EngineConfig()``, round-robin over the workload's queries.

    With ``tracing`` set (the traced run) an operation makes the facade's
    own calls one by one, each inside a bench span, and hands the engine
    the program tracer through the public ``trace=`` argument."""

    #: Serving-session stats; a one-shot workload has none.
    sessions = ()

    def __init__(self, inputs, meter, tracing=None):
        self.inputs = inputs
        self.meter = meter
        self.tracing = tracing
        #: Completed documents of the last unit, for the probes.
        self.completed = {}

    def setup(self):
        inputs = self.inputs
        schema = (
            repro.parse_schema(inputs.schema_text)
            if inputs.schema_text
            else None
        )
        env = {"schema": schema, "registry": repro.ServiceRegistry(inputs.services)}
        # Warm-up: one untimed pass over the mix.  (Two operations would
        # cost what those two queries cost in this seed's world, which
        # differs 3x between worlds of equal work per pass.)
        for index in range(len(inputs.queries)):
            self._facade(env, index)
        if self.tracing is not None:  # warm-ups above stay out of the trace
            env["registry"] = repro.ServiceRegistry(self.tracing.wrap(inputs.services))
        return env

    def _facade(self, env, index):
        outcome = repro.evaluate(
            self.inputs.queries[index],
            self.inputs.xml,
            services=env["registry"],
            schema=env["schema"],
        )
        return outcome, frozenset(outcome.value_rows())

    def _evaluate(self, env, index):
        tracing = self.tracing
        if tracing is None:
            return self._facade(env, index)
        text = self.inputs.queries[index]
        tracing.next_op()
        with tracing.span("op"):
            with tracing.span("pattern.parse"):
                query = repro.parse_pattern(text)
            with tracing.span("xmlio.parse"):
                document = repro.parse_document(self.inputs.xml)
            tracing.observe(document)
            with tracing.span("services.bus"):
                bus = repro.ServiceBus(env["registry"])
            with tracing.span("engine.construct"):
                engine = repro.LazyQueryEvaluator(
                    bus,
                    schema=env["schema"],
                    config=repro.EngineConfig(trace=tracing.tracer),
                )
            with tracing.span("engine.evaluate") as span:
                outcome = engine.evaluate(query, document)
            tracing.adopt(span)
            rows = frozenset(outcome.value_rows())
        document.remove_observer(tracing)
        self.completed[text] = document
        return outcome, rows

    def unit(self, env, samples):
        """One pass over the query mix; the environment is reusable."""
        for index in range(len(self.inputs.queries)):
            block = self.meter.pace()
            started = time.perf_counter()
            try:
                outcome, rows = self._evaluate(env, index)
            except Exception:  # an operation that raises is a failed op
                wall = time.perf_counter() - started
                samples.append(Sample(f"q{index}", wall, block, failed=True))
                continue
            wall = time.perf_counter() - started
            samples.append(
                Sample(
                    kind=f"q{index}",
                    wall_s=wall,
                    block=block,
                    sim_s=outcome.metrics.simulated_parallel_s,
                    calls=outcome.metrics.calls_invoked,
                    check=("start", index),
                    rows=rows,
                    failed=not outcome.metrics.completed,
                    metrics=[outcome.metrics],
                )
            )
        return env

    def close(self, env):
        pass

    def oracle(self, keys):
        return naive_rows(self.inputs, {"start": self.inputs.xml}, keys)

    def observations(self):
        return []


# -- the serving workload ---------------------------------------------------------


def _serve_trace(seed, rounds, n_hotels):
    """The E13/E14 mutation trace.  3 of 4 rounds insert two subtrees no
    standing query's footprint touches; every 8th round adds a fully
    extensional qualifying hotel (rows change, nothing to invoke); every
    other 8th adds a fresh ``getNearbyRestos`` call under a qualifying
    hotel (the next round must run the engine and invoke it)."""
    rng = random.Random(f"e2e|trace|{seed}")
    trace = []
    for index in range(rounds):
        if index % 8 == 0:
            trace.append(("extensional", index))
        elif index % 8 == 4:
            trace.append(("call", f"{(index // 8) % n_hotels} Madison Av."))
        else:
            trace.append(("quiet", (rng.random(), rng.random())))
    return tuple(trace)


def _parking_tree(tag):
    return repro.E("parking", repro.E("spot", repro.V(f"Level {tag}")))


def _fresh_hotel(tag):
    E, V = repro.E, repro.V
    return E(
        "hotel",
        E("name", V("Best Western")),
        E("address", V(f"{tag} New Av.")),
        E("rating", V("5")),
        E(
            "nearby",
            E(
                "restaurant",
                E("name", V(f"Cafe {tag}")),
                E("address", V(f"{tag} New Av.")),
                E("rating", V("5")),
            ),
            E("museum", E("name", V(f"Gallery {tag}")), E("address", V("53 St."))),
        ),
    )


def _nearby_nodes(document):
    return [
        node
        for node in document.root.iter_subtree()
        if node.is_element and node.label == "nearby"
    ]


def _qualifying_nearby(document):
    """The ``nearby`` of a materialised target hotel (name and rating
    extensional and qualifying), so a call inserted there is relevant."""
    for hotel in document.root.children:
        if not (hotel.is_element and hotel.label == "hotel"):
            continue
        fields = {c.label: c for c in hotel.children if c.is_element}
        name, rating = fields.get("name"), fields.get("rating")
        nearby = fields.get("nearby")
        if name is None or rating is None or nearby is None:
            continue
        if not (name.children and name.children[0].label == "Best Western"):
            continue
        if rating.children and rating.children[0].label == "5":
            return nearby
    return None


def planned_mutations(document, index, step):
    """Resolve round ``index`` of the trace to ``(parent, subtree)``
    inserts on the live document (untimed: it walks the document)."""
    kind, argument = step
    if kind == "extensional":
        return [(document.root, _fresh_hotel(argument))]
    if kind == "call":
        spot = _qualifying_nearby(document)
        call = repro.C("getNearbyRestos", repro.V(argument))
        return [(spot, call)] if spot is not None else []
    spots = _nearby_nodes(document)
    return [
        (spots[int(draw * len(spots))], _parking_tree(f"{index}.{j}"))
        for j, draw in enumerate(argument)
    ]


class Serving:
    """``repro.QueryServer(..., config=EngineConfig.serving())``: one
    shared document, eager subscribes, then the mutation trace played
    round by round.  A session is ``subscribers`` subscribe operations
    followed by ``rounds`` round operations (inserts + ``run_round``).

    With ``tracing`` set the server gets the program tracer through
    ``EngineConfig.serving(trace=...)`` and each call the bench makes
    runs inside a bench span."""

    def __init__(self, inputs, meter, tracing=None):
        self.inputs = inputs
        self.meter = meter
        self.tracing = tracing
        #: Filled by the first session: label -> (xml, {sub name: rows}).
        self.checkpoints = {}
        #: One stats dict per finished session (see ``_session_stats``).
        self.sessions = []
        self.completed = {}

    def _server(self, tracing=None):
        inputs = self.inputs
        services = inputs.services
        trace = None
        if tracing is not None:
            services = tracing.wrap(services)
            trace = tracing.tracer
        server = repro.QueryServer(
            repro.ServiceRegistry(services),
            config=repro.EngineConfig.serving(trace=trace),
            schema=repro.parse_schema(inputs.schema_text),
        )
        return server, repro.parse_document(inputs.xml)

    def setup(self):
        # Warm-up: two eager subscribes on a throwaway server.
        server, document = self._server()
        for name, tenant, index in self.inputs.standing[:2]:
            server.subscribe(
                self.inputs.queries[index], document, tenant=tenant, name=name
            )
        server.close()
        server, document = self._server(self.tracing)
        return {"server": server, "document": document}

    def _span(self, name):
        return _NO_SPAN if self.tracing is None else self.tracing.span(name)

    def _operation(self, server, kind, samples, body, evaluation):
        """Time ``body()`` as one operation of ``kind``.  Returns
        ``(sample, result)``, or ``None`` when it raised (a failed op)."""
        tracing = self.tracing
        # A 2 ms quiet round needs no 15 ms collection before it.
        block = self.meter.pace(collect=kind != "quiet")
        calls_before = len(server.bus.log.records)
        sim_before = server.bus.clock_s
        if tracing is not None:
            tracing.next_op()
        started = time.perf_counter()
        try:
            with self._span("op"):
                result = body()
        except Exception:  # an operation that raises is a failed op
            wall = time.perf_counter() - started
            samples.append(
                Sample(kind, wall, block, evaluation=evaluation, failed=True)
            )
            return None
        sample = Sample(
            kind=kind,
            wall_s=time.perf_counter() - started,
            block=block,
            evaluation=evaluation,
            sim_s=server.bus.clock_s - sim_before,
            calls=len(server.bus.log.records) - calls_before,
        )
        samples.append(sample)
        return sample, result

    def unit(self, env, samples):
        """One session; the environment is spent afterwards."""
        inputs = self.inputs
        tracing = self.tracing
        server, document = env["server"], env["document"]
        if tracing is not None:
            tracing.observe(document)
        record = not self.checkpoints
        subs = {}
        for name, tenant, index in inputs.standing:

            def subscribe():
                with self._span("serve.subscribe") as span:
                    sub = server.subscribe(
                        inputs.queries[index], document, tenant=tenant, name=name
                    )
                if tracing is not None:
                    tracing.adopt(span)
                return sub, sub.rows

            done = self._operation(
                server, f"subscribe-q{index}", samples, subscribe, evaluation=True
            )
            if done is not None:
                sample, (sub, sample.rows) = done
                sample.check = ("start", index)
                sample.metrics = [sub.result.metrics]
                subs[sub.id] = sub
        marks = {0: "round0", len(inputs.trace) // 2: "mid", len(inputs.trace) - 1: "last"}
        reports = []
        for index, step in enumerate(inputs.trace):
            mutations = planned_mutations(document, index, step)

            def play_round():
                for parent, subtree in mutations:
                    with self._span("document.insert"):
                        document.insert_subtree(parent, subtree)
                with self._span("serve.run_round") as span:
                    report = server.run_round()
                if tracing is not None:
                    tracing.adopt(span)
                return report

            done = self._operation(
                server, step[0], samples, play_round, evaluation=False
            )
            if done is not None:
                sample, report = done
                reports.append((report, self.meter.factor_of(sample.block)))
                sample.failed = any(not outcome.served for outcome in report.outcomes)
                sample.metrics = [
                    subs[outcome.subscription_id].result.metrics
                    for outcome in report.outcomes
                    if outcome.status.value == "evaluated"
                ]
            if record and index in marks:
                self.checkpoints[marks[index]] = (
                    repro.serialize_document(document),
                    {sub.name: sub.rows for sub in subs.values()},
                )
        self.sessions.append(self._session_stats(server, subs, reports))
        if tracing is not None:
            document.remove_observer(tracing)
        self.completed = {text: document for text in inputs.queries}
        return None

    def _session_stats(self, server, subs, reports):
        status = {}
        latencies_ms = []
        for report, factor in reports:
            for name, count in report.counts().items():
                status[name] = status.get(name, 0) + count
            # Serving-clock latency (simulated service time + measured
            # compute, due to served) at the round's reference speed.
            latencies_ms.extend(
                outcome.latency_s * 1000.0 * factor
                for outcome in report.outcomes
                if outcome.served
            )
        try:  # no public handle on a subscription's answer cache yet
            answers = {}
            for sub in subs.values():
                for name, count in sub._core.answer_cache.counters().items():
                    answers[name] = answers.get(name, 0) + count
        except AttributeError:
            answers = None
        return {
            "traced": self.tracing is not None,
            "status": status,
            "latencies_ms": latencies_ms,
            "deltas": sum(sub.stream.delivered for sub in subs.values()),
            "rows_changed": sum(
                tenant["rows_delivered"] for tenant in server.tenant_metrics().values()
            ),
            "engine_skips": sum(sub.engine_skips for sub in subs.values()),
            "answers": answers,
        }

    def close(self, env):
        env["server"].close()

    def oracle(self, keys):
        """Each distinct standing query on the initial text and on the
        serialized copy taken at each checkpoint."""
        texts = {"start": self.inputs.xml}
        texts.update({label: xml for label, (xml, _) in self.checkpoints.items()})
        return naive_rows(self.inputs, texts, keys)

    def observations(self):
        """``(oracle key, rows)`` for every subscriber at every checkpoint."""
        query_of = {name: index for name, _, index in self.inputs.standing}
        return [
            ((label, query_of[name]), rows)
            for label, (_, by_sub) in self.checkpoints.items()
            for name, rows in by_sub.items()
        ]


def driver_for(inputs, meter, tracing=None):
    cls = Serving if inputs.workload == "serve-standing" else OneShot
    return cls(inputs, meter, tracing)
