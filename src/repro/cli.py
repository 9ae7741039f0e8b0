"""Command-line interface: evaluate, validate and analyse AXML documents.

Usage examples::

    # Evaluate a query over an AXML document with declarative services;
    # a given schema prunes calls by type (lenient typing, Section 5),
    # unless --typing says otherwise (--typing none: untyped).
    repro-axml eval --document hotels.xml --services services.xml \
        --schema hotels.schema \
        --query '/hotels/hotel[rating="5"]/name'

    # Validate a document against a schema.
    repro-axml validate --document hotels.xml --schema hotels.schema

    # Inspect the relevance machinery for a query.
    repro-axml analyze --schema hotels.schema \
        --query '/hotels/hotel[rating="5"]/name'

    # Host several standing queries on one server and drive rounds.
    repro-axml serve --document hotels.xml --services services.xml \
        --query '/hotels/hotel/name' --query '/hotels//resto' \
        --rounds 3

The declarative services file is an XML catalogue of keyed mock
services (the offline stand-in for real SOAP endpoints)::

    <services>
      <service name="getRating" latency="0.05" in="data" out="data">
        <case key="22 Madison Av.">2</case>
        <default>3</default>
      </service>
    </services>

The content of each ``<case>``/``<default>`` is the result forest, in
the same AXML-XML dialect as documents (so results may themselves embed
``axml:call`` elements).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import xml.etree.ElementTree as ET
from typing import Optional, Sequence

from .axml.node import Node
from .axml.xmlio import from_etree, parse_document, serialize_document
from .lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from .lazy.engine import LazyQueryEvaluator
from .lazy.influence import InfluenceAnalyzer
from .lazy.layers import compute_layers
from .lazy.relevance import build_nfqs, linear_path_queries
from .lazy.report import (
    compare_strategies,
    format_comparison,
    format_trace_profile,
)
from .obs.trace import InMemorySink, JsonlSink, TeeSink
from .pattern.parse import parse_pattern
from .schema.schema import parse_schema
from .schema.termination import analyze_termination
from .serve import QueryServer, TenantPolicy
from .services.catalog import FlakyService, TableService, make_signature
from .services.registry import ServiceBus, ServiceRegistry
from .services.resilience import CircuitBreakerPolicy, RetryPolicy
from .services.service import PushMode

_STRATEGIES = {s.value: s for s in Strategy}
_PUSH_MODES = {m.value: m for m in PushMode}
_TYPINGS = {t.value: t for t in TypingMode}
_FAULT_POLICIES = {p.value: p for p in FaultPolicy}


def load_services(path: str) -> ServiceRegistry:
    """Parse the declarative services catalogue."""
    root = ET.parse(path).getroot()
    services = []
    for service_elem in root.findall("service"):
        name = service_elem.get("name")
        if not name:
            raise ValueError(f"{path}: <service> is missing its name")
        latency = float(service_elem.get("latency", "0.05"))
        supports_push = service_elem.get("push", "true").lower() != "false"
        signature = None
        if service_elem.get("in") and service_elem.get("out"):
            signature = make_signature(
                name, service_elem.get("in"), service_elem.get("out")
            )
        table: dict[str, list[Node]] = {}
        default: Optional[list[Node]] = None
        for case in service_elem:
            forest = _forest_of(case)
            if case.tag == "case":
                key = case.get("key")
                if key is None:
                    raise ValueError(f"{path}: <case> needs a key for {name}")
                table[key] = forest
            elif case.tag == "default":
                default = forest
            else:
                raise ValueError(f"{path}: unexpected <{case.tag}> in {name}")
        services.append(
            TableService(
                name,
                table,
                default=default,
                signature=signature,
                latency_s=latency,
                supports_push=supports_push,
            )
        )
    return ServiceRegistry(services)


def _forest_of(container: ET.Element) -> list[Node]:
    """The AXML forest held by a catalogue entry (text + elements)."""
    wrapper = from_etree(container)
    forest = []
    for child in list(wrapper.children):
        child.detach()
        forest.append(child)
    return forest


def _build_config(args: argparse.Namespace) -> EngineConfig:
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        base_backoff_s=args.backoff,
        timeout_s=args.timeout,
    )
    breaker = (
        CircuitBreakerPolicy(failure_threshold=args.breaker_threshold)
        if args.breaker_threshold > 0
        else None
    )
    # An unset --typing leaves the choice to the one-shot default.
    typing = {} if args.typing is None else {"typing": _TYPINGS[args.typing]}
    return EngineConfig.one_shot(
        schema_given=args.schema is not None,
        **typing,
        strategy=_STRATEGIES[args.strategy],
        use_layers=not args.no_layers,
        parallel=not args.sequential,
        push_mode=_PUSH_MODES[args.push],
        drop_value_joins=args.relaxed,
        validate_io=args.validate_io,
        fault_policy=_FAULT_POLICIES[args.fault_policy],
        retry=retry,
        breaker=breaker,
        max_invocations=args.max_calls,
        max_concurrency=args.max_concurrency,
        call_cache=(
            args.call_cache if args.call_cache_ttl is None else args.call_cache_ttl
        ),
    )


def _maybe_inject_faults(
    registry: ServiceRegistry, args: argparse.Namespace
) -> ServiceRegistry:
    """Wrap every service in a seeded FlakyService when --fault-rate asks."""
    if not getattr(args, "fault_rate", 0.0):
        return registry
    flaky = ServiceRegistry(
        FlakyService(
            registry.resolve(name),
            fault_rate=args.fault_rate,
            seed=args.fault_seed + index,
        )
        for index, name in enumerate(registry.names())
    )
    return flaky


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
    except ValueError as error:  # a combination the config refuses
        print(f"repro-axml eval: error: {error}", file=sys.stderr)
        return 2
    document = parse_document(_read(args.document), name=args.document)
    schema = parse_schema(_read(args.schema)) if args.schema else None
    registry = (
        load_services(args.services) if args.services else ServiceRegistry([])
    )
    registry = _maybe_inject_faults(registry, args)
    query = parse_pattern(args.query)
    collector = None
    jsonl = None
    if args.trace or args.trace_out:
        collector = InMemorySink()
        trace = collector
        if args.trace_out:
            jsonl = JsonlSink(args.trace_out)
            trace = TeeSink(collector, jsonl)
        config = dataclasses.replace(config, trace=trace)
    engine = LazyQueryEvaluator(ServiceBus(registry), schema=schema, config=config)
    try:
        outcome = engine.evaluate(query, document)
    finally:
        if jsonl is not None:
            jsonl.close()
    print(outcome.metrics.summary())
    print(outcome.to_xml())
    if collector is not None:
        print(format_trace_profile(collector))
    if jsonl is not None:
        print(f"(trace written to {args.trace_out})")
    if args.save_document:
        with open(args.save_document, "w", encoding="utf-8") as handle:
            handle.write(serialize_document(document))
        print(f"(rewritten document saved to {args.save_document})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every strategy side by side over the same inputs."""
    schema = parse_schema(_read(args.schema)) if args.schema else None
    registry = (
        load_services(args.services) if args.services else ServiceRegistry([])
    )
    query = parse_pattern(args.query)
    document_text = _read(args.document)

    def document_factory():
        return parse_document(document_text, name=args.document)

    def bus_factory():
        return ServiceBus(registry)

    configs = [
        EngineConfig(strategy=Strategy.NAIVE),
        # Section 1's top-down baseline: the LPQs, one call per round.
        EngineConfig(strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False),
        EngineConfig(strategy=Strategy.LAZY_LPQ),
        EngineConfig(strategy=Strategy.LAZY_NFQ),
        EngineConfig(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
    ]
    rows = compare_strategies(
        configs,
        query,
        document_factory=document_factory,
        bus_factory=bus_factory,
        schema=schema,
    )
    print(format_comparison(rows, title=f"strategies over {args.document}"))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    document = parse_document(_read(args.document), name=args.document)
    schema = parse_schema(_read(args.schema))
    errors = schema.validate_document(document)
    if not errors:
        print("document is valid")
        return 0
    for error in errors:
        print(f"violation: {error}")
    return 1


def cmd_analyze(args: argparse.Namespace) -> int:
    query = parse_pattern(args.query)
    print(f"query: {query.to_string()}")
    print("\nlinear path queries (Section 3.1):")
    for rq in linear_path_queries(query, dedupe=False):
        print(f"  {rq.pattern.to_string()}")
    nfqs = build_nfqs(query)
    print("\nnode-focused queries (Figure 5, de-duplicated):")
    for rq in nfqs:
        print(f"  {rq.pattern.to_string()}")
    layers = compute_layers(nfqs, InfluenceAnalyzer(nfqs))
    print("\nlayers (Section 4.3):")
    for layer in layers:
        mode = "parallel" if layer.fully_parallel else "sequential"
        names = ", ".join(q.target.render() for q in layer.queries)
        print(f"  layer {layer.index} ({mode}): {names}")
    if args.schema:
        schema = parse_schema(_read(args.schema))
        report = analyze_termination(schema)
        print(f"\ntermination: {report.explain()}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Inspect, instantiate and export factory workload specs."""
    import json

    from .workloads.factory import REGIMES, WorkloadSpec, generate

    if args.list:
        for name, spec in REGIMES.items():
            print(f"{name:22s} {spec.description}")
        return 0
    if args.spec:
        spec = WorkloadSpec.from_json(json.loads(_read(args.spec)))
    elif args.regime:
        spec = REGIMES[args.regime]
    else:
        print(
            "workload: pass --list, --regime NAME or --spec FILE",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    gen = generate(spec)
    if args.emit_spec:
        print(json.dumps(spec.to_json(), indent=2, sort_keys=True))
        return 0
    if args.emit_document is not None:
        print(serialize_document(gen.make_document(args.emit_document)))
        return 0
    stats = gen.describe()
    print(f"regime: {stats['name']} (seed={stats['seed']})")
    if spec.description:
        print(f"  {spec.description}")
    print(f"mode: {stats['query_shape']}, fault plan: {stats['fault_plan']}")
    print(
        f"document 0: {stats['nodes']} nodes, {stats['calls']} calls "
        f"({stats['documents']} document(s))"
    )
    for service, count in sorted(stats["calls_per_service"].items()):
        print(f"  {service}: {count} call(s)")
    print(f"queries ({stats['queries']}):")
    for i in range(spec.n_queries):
        query = gen.query_for(i)
        rows = gen.oracle_rows(query, gen.document_for_query(i))
        print(
            f"  [{i}] {query.to_string()}  "
            f"(doc {gen.document_for_query(i)}, {len(rows)} oracle rows)"
        )
    if spec.n_rounds:
        trace = gen.arrival_trace()
        arrivals = ", ".join(
            "{" + ",".join(map(str, due)) + "}" for due in trace
        )
        print(f"arrival trace ({spec.n_rounds} rounds): {arrivals}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Host standing queries on one QueryServer and drive rounds."""
    document = parse_document(_read(args.document), name=args.document)
    registry = (
        load_services(args.services) if args.services else ServiceRegistry([])
    )
    config = EngineConfig.serving(strategy=_STRATEGIES[args.strategy])
    server = QueryServer(ServiceBus(registry), config=config)
    policy = None
    if args.budget is not None or args.max_inflight is not None:
        policy = TenantPolicy(
            invocation_budget=args.budget, max_inflight=args.max_inflight
        )
    tenants = args.tenant or ["default"]
    for index, query_text in enumerate(args.query):
        tenant = tenants[min(index, len(tenants) - 1)]
        if policy is not None:
            server.register_tenant(tenant, policy)
        sub = server.subscribe(query_text, document, tenant=tenant)
        print(
            f"subscribed {sub.name} (tenant {tenant}): "
            f"{len(sub.rows)} rows"
        )
    for _ in range(args.rounds):
        report = server.run_round()
        counts = " ".join(
            f"{status}={count}"
            for status, count in sorted(report.counts().items())
        )
        print(
            f"round {report.index}: due={len(report.outcomes)}"
            + (f" {counts}" if counts else " (nothing due)")
        )
    print("\nper-tenant metrics:")
    for metrics in server.tenant_metrics().values():
        served = " ".join(
            f"{key}={metrics[key]}"
            for key in (
                "refreshes",
                "fresh",
                "skipped",
                "maintained",
                "evaluated",
                "deferred",
                "invocations",
            )
        )
        print(
            f"  {metrics['tenant']}: {served} "
            f"p50={metrics['p50_latency_s']:.4f}s "
            f"p99={metrics['p99_latency_s']:.4f}s"
        )
    for sub in server.subscriptions:
        print(
            f"  {sub.name}: {len(sub.rows)} rows, "
            f"{sub.stream.pending} pending deltas"
        )
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-axml",
        description="Lazy query evaluation for Active XML documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a query over a document")
    ev.add_argument("--document", required=True, help="AXML document (XML)")
    ev.add_argument("--query", required=True, help="tree-pattern query")
    ev.add_argument("--schema", help="schema file (Figure 2 format)")
    ev.add_argument("--services", help="declarative services catalogue (XML)")
    ev.add_argument(
        "--strategy",
        choices=sorted(_STRATEGIES),
        default="lazy-nfq",
    )
    ev.add_argument(
        "--typing",
        choices=sorted(_TYPINGS),
        default=None,
        help="how --schema prunes calls under lazy-nfq (default: lenient "
        "with a schema, none without)",
    )
    ev.add_argument("--push", choices=sorted(_PUSH_MODES), default="none")
    ev.add_argument("--relaxed", action="store_true", help="drop value joins")
    ev.add_argument("--no-layers", action="store_true")
    ev.add_argument("--sequential", action="store_true")
    ev.add_argument("--validate-io", action="store_true")
    ev.add_argument(
        "--fault-policy",
        choices=sorted(_FAULT_POLICIES),
        default="raise",
        help="what to do with a call whose last attempt faulted",
    )
    ev.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="attempts per call, under either --fault-policy",
    )
    ev.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base exponential backoff between retries, simulated seconds",
    )
    ev.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-attempt simulated deadline in seconds",
    )
    ev.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive faults before a service's circuit opens (0 disables)",
    )
    ev.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject faults: wrap every service in a seeded FlakyService",
    )
    ev.add_argument(
        "--fault-seed",
        type=int,
        default=2004,
        help="seed for --fault-rate injection",
    )
    ev.add_argument("--max-calls", type=int, default=100_000)
    ev.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="simulated workers per invocation round: a round costs "
        "its list schedule's makespan (unset = one worker per call, "
        "the round costs its slowest call; 1 = serial clock)",
    )
    ev.add_argument(
        "--call-cache",
        action="store_true",
        help="memoize call replies on the bus (service + argument "
        "digest); assumes services are functions of their parameters",
    )
    ev.add_argument(
        "--call-cache-ttl",
        type=float,
        default=None,
        help="expiry for memoized replies, in simulated seconds "
        "(implies --call-cache)",
    )
    ev.add_argument(
        "--trace",
        action="store_true",
        help="collect an evaluation trace and print the per-phase breakdown",
    )
    ev.add_argument(
        "--trace-out",
        help="write the evaluation's span tree as JSONL (implies --trace)",
    )
    ev.add_argument("--save-document", help="write the rewritten document")
    ev.set_defaults(handler=cmd_eval)

    co = sub.add_parser("compare", help="run every strategy side by side")
    co.add_argument("--document", required=True)
    co.add_argument("--query", required=True)
    co.add_argument("--schema")
    co.add_argument("--services")
    co.set_defaults(handler=cmd_compare)

    va = sub.add_parser("validate", help="validate a document against a schema")
    va.add_argument("--document", required=True)
    va.add_argument("--schema", required=True)
    va.set_defaults(handler=cmd_validate)

    an = sub.add_parser("analyze", help="inspect the relevance machinery")
    an.add_argument("--query", required=True)
    an.add_argument("--schema")
    an.set_defaults(handler=cmd_analyze)

    se = sub.add_parser(
        "serve", help="host standing queries on one query server"
    )
    se.add_argument("--document", required=True, help="AXML document (XML)")
    se.add_argument(
        "--query",
        action="append",
        required=True,
        help="tree-pattern query; repeat to register several",
    )
    se.add_argument("--services", help="declarative services catalogue (XML)")
    se.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="lazy-nfq"
    )
    se.add_argument(
        "--tenant",
        action="append",
        help="tenant for the query at the same position (last one "
        "covers the rest; default: one shared tenant)",
    )
    se.add_argument(
        "--rounds", type=int, default=1, help="serving rounds to drive"
    )
    se.add_argument(
        "--budget",
        type=int,
        default=None,
        help="per-tenant invocation budget per round",
    )
    se.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-tenant engine refreshes per round",
    )
    se.set_defaults(handler=cmd_serve)

    wl = sub.add_parser(
        "workload", help="inspect and export factory workload regimes"
    )
    wl.add_argument(
        "--list", action="store_true", help="list the named regimes"
    )
    wl.add_argument("--regime", help="named regime to instantiate")
    wl.add_argument("--spec", help="workload spec JSON file to instantiate")
    wl.add_argument(
        "--seed", type=int, default=None, help="override the spec seed"
    )
    wl.add_argument(
        "--emit-spec",
        action="store_true",
        help="print the spec as JSON instead of a summary",
    )
    wl.add_argument(
        "--emit-document",
        type=int,
        default=None,
        metavar="INDEX",
        help="print generated document INDEX as XML",
    )
    wl.set_defaults(handler=cmd_workload)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
