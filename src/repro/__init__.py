"""repro — Lazy Query Evaluation for Active XML.

A from-scratch reproduction of Abiteboul, Benjelloun, Cautis, Manolescu,
Milo & Preda, *"Lazy Query Evaluation for Active XML"*, SIGMOD 2004.

Quickstart — the one-shot facade builds the registry, bus and engine
for you::

    import repro
    from repro import E, V, C, TableService

    outcome = repro.evaluate(
        "/hotels/hotel[...]",
        document,
        services=[TableService("getNearbyRestos", {...})],
    )
    print(outcome.value_rows(), outcome.metrics.summary())

Standing queries use the same front door: ``repro.subscribe`` returns
a live :class:`Subscription` whose answer refreshes as the document
mutates, and :class:`QueryServer` hosts many subscriptions from many
tenants over one shared bus, batching their refresh work per round.

Power users construct :class:`LazyQueryEvaluator` over an explicit
:class:`ServiceBus` (e.g. to share breaker state across evaluations),
and attach a :class:`repro.obs.TraceSink` via
``EngineConfig(trace=...)`` to see where each round's time went.

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced evaluation.
"""

from .axml import (
    Activation,
    C,
    Document,
    DocumentStats,
    E,
    Node,
    NodeKind,
    V,
    build_document,
    parse_document,
    serialize_document,
)
from .facade import evaluate, subscribe
from .lazy import (
    ContinuousQuery,
    compare_strategies,
    format_comparison,
    format_trace_profile,
    EngineConfig,
    EvaluationOutcome,
    FGuide,
    FaultPolicy,
    LazyQueryEvaluator,
    Metrics,
    NFQBuilder,
    Strategy,
    TypingMode,
    build_nfqs,
    compute_layers,
    linear_path_queries,
)
from .obs import (
    InMemorySink,
    JsonlSink,
    NullTracer,
    Span,
    SpanEvent,
    TeeSink,
    TraceSink,
    Tracer,
    format_phase_profile,
    load_jsonl_spans,
    phase_profile,
    verify_nesting,
)
from .pattern import (
    EdgeKind,
    MatchSet,
    Matcher,
    TreePattern,
    parse_pattern,
    snapshot_result,
)
from .serve import (
    AnswerDelta,
    AnswerStream,
    QueryServer,
    RefreshOutcome,
    RefreshStatus,
    RoundReport,
    Subscription,
    TenantAccount,
    TenantPolicy,
)
from .schema import (
    ExactSatisfiability,
    FunctionSignature,
    LenientSatisfiability,
    Schema,
    TerminationReport,
    analyze_termination,
    guaranteed_terminating,
    parse_schema,
)
from .services import (
    CallableService,
    CircuitBreakerPolicy,
    CircuitOpenFault,
    FlakyService,
    InvocationPolicy,
    NetworkModel,
    PushMode,
    RetryPolicy,
    SequenceService,
    Service,
    ServiceBus,
    ServiceCall,
    ServiceFault,
    ServiceRegistry,
    SlowService,
    StaticService,
    TableService,
    TimeoutFault,
    make_signature,
)

__version__ = "1.0.0"

__all__ = [
    "Activation",
    "AnswerDelta",
    "AnswerStream",
    "C",
    "CallableService",
    "CircuitBreakerPolicy",
    "CircuitOpenFault",
    "ContinuousQuery",
    "Document",
    "DocumentStats",
    "E",
    "EdgeKind",
    "EngineConfig",
    "EvaluationOutcome",
    "ExactSatisfiability",
    "FGuide",
    "FaultPolicy",
    "FlakyService",
    "FunctionSignature",
    "InMemorySink",
    "InvocationPolicy",
    "JsonlSink",
    "LazyQueryEvaluator",
    "LenientSatisfiability",
    "MatchSet",
    "Matcher",
    "Metrics",
    "NFQBuilder",
    "NetworkModel",
    "Node",
    "NodeKind",
    "NullTracer",
    "PushMode",
    "QueryServer",
    "RefreshOutcome",
    "RefreshStatus",
    "RetryPolicy",
    "RoundReport",
    "Schema",
    "SequenceService",
    "Service",
    "ServiceBus",
    "ServiceCall",
    "ServiceFault",
    "ServiceRegistry",
    "SlowService",
    "Span",
    "SpanEvent",
    "StaticService",
    "Strategy",
    "Subscription",
    "TableService",
    "TeeSink",
    "TenantAccount",
    "TenantPolicy",
    "TerminationReport",
    "TimeoutFault",
    "TraceSink",
    "Tracer",
    "TreePattern",
    "TypingMode",
    "V",
    "analyze_termination",
    "build_document",
    "build_nfqs",
    "compare_strategies",
    "compute_layers",
    "evaluate",
    "format_comparison",
    "format_phase_profile",
    "format_trace_profile",
    "guaranteed_terminating",
    "linear_path_queries",
    "load_jsonl_spans",
    "make_signature",
    "parse_document",
    "parse_pattern",
    "parse_schema",
    "phase_profile",
    "serialize_document",
    "snapshot_result",
    "subscribe",
    "verify_nesting",
    "__version__",
]
