"""One-shot evaluation facade: the friendly front door of the system.

Most uses of the reproduction are "run this query over this document
against these services".  :func:`evaluate` does exactly that in one
call — it accepts queries as strings or :class:`TreePattern` s,
documents as XML text, root :class:`~repro.axml.node.Node` s or
:class:`~repro.axml.document.Document` s, and services as a list, a
:class:`~repro.services.registry.ServiceRegistry` or a fully-built
:class:`~repro.services.registry.ServiceBus` — and wires up the
registry, bus and engine internally.  :func:`subscribe` is the same
front door for *standing* queries: identical input coercion, but the
result is a live :class:`~repro.serve.Subscription` whose answer
refreshes as the document mutates.  Power users keep constructing
:class:`~repro.lazy.engine.LazyQueryEvaluator` (one-shot) or
:class:`~repro.serve.QueryServer` (many subscriptions, shared bus)
directly.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Union

from .axml.builder import build_document
from .axml.document import Document
from .axml.node import Node
from .axml.xmlio import parse_document
from .lazy.config import EngineConfig, Strategy
from .lazy.engine import EvaluationOutcome, LazyQueryEvaluator
from .obs.trace import NullTracer, TraceSink, Tracer
from .pattern.parse import parse_pattern
from .pattern.pattern import TreePattern
from .schema.schema import Schema
from .services.registry import ServiceBus, ServiceRegistry, bus_of
from .services.service import Service

ServicesLike = Union[ServiceBus, ServiceRegistry, Iterable[Service]]


def evaluate(
    query: Union[TreePattern, str],
    document: Union[Document, Node, str],
    *,
    services: ServicesLike,
    strategy: Optional[Strategy] = None,
    config: Optional[EngineConfig] = None,
    schema: Optional[Schema] = None,
    trace: Union[TraceSink, Tracer, NullTracer, None] = None,
) -> EvaluationOutcome:
    """Evaluate ``query`` over ``document`` lazily, in one call.

    Args:
        query: a tree pattern, or its XPath-like string form.
        document: a :class:`Document`, a root :class:`Node`, or AXML
            text (parsed).  Mutated in place, like
            :meth:`LazyQueryEvaluator.evaluate`.
        services: the Web — a list of :class:`Service` s, a
            :class:`ServiceRegistry`, or an existing :class:`ServiceBus`
            (reused, preserving its log and breaker state).
        strategy: shorthand for ``EngineConfig(strategy=...)`` (default
            ``LAZY_NFQ``); passing it with a ``config`` of another
            strategy raises.
        config: a full :class:`EngineConfig`, obeyed as written.
            Without one the facade writes :meth:`EngineConfig.one_shot`:
            typed by ``schema`` when one is given.
        schema: element content models and service signatures; without
            a ``config``, the NFQs prune by it (``LENIENT`` typing,
            Section 5).
        trace: a :class:`repro.obs.TraceSink` (or tracer) receiving the
            evaluation's span tree; shorthand for ``config.trace``.

    Returns:
        The :class:`EvaluationOutcome` — rows, metrics, rounds.
    """
    if strategy is not None:
        # Coerced, and an unknown name refused, as the config field is.
        strategy = EngineConfig(strategy=strategy).strategy
    if isinstance(query, str):
        query = parse_pattern(query)
    if isinstance(document, str):
        document = parse_document(document)
    elif isinstance(document, Node):
        document = build_document(document)
    if config is None:
        config = EngineConfig.one_shot(
            strategy=strategy or Strategy.LAZY_NFQ,
            schema_given=schema is not None,
        )
    elif strategy is not None and config.strategy is not strategy:
        raise ValueError(
            f"conflicting strategies: strategy={strategy.value!r} but "
            f"config.strategy={config.strategy.value!r} — pass one or "
            f"the other"
        )
    if trace is not None:
        config = dataclasses.replace(config, trace=trace)
    engine = LazyQueryEvaluator(bus_of(services), schema=schema, config=config)
    return engine.evaluate(query, document)


def subscribe(
    query: Union[TreePattern, str],
    document: Union[Document, Node, str],
    *,
    services: ServicesLike,
    config: Optional[EngineConfig] = None,
    schema: Optional[Schema] = None,
    tenant: str = "default",
    name: Optional[str] = None,
    eager: bool = True,
    trace: Union[TraceSink, Tracer, NullTracer, None] = None,
    **unexpected,
):
    """Register a standing query and return a live ``Subscription``.

    The continuous-query counterpart of :func:`evaluate`: identical
    ``query``/``document``/``services`` coercion, but the result stays
    subscribed — ``sub.rows`` is the current answer, ``sub.refresh()``
    brings it up to date after document mutations, ``sub.stream``
    yields added/removed row deltas, and ``sub.cancel()`` ends it.

    Engine behaviour travels on exactly one ``config=``
    :class:`EngineConfig` (default :meth:`EngineConfig.serving`); loose
    engine keywords are rejected, naming the nearest config field.
    Each call builds a private single-tenant
    :class:`~repro.serve.QueryServer`; to host *many* subscriptions on
    one shared bus (and batch their refreshes), construct a
    :class:`~repro.serve.QueryServer` directly.

    Args:
        query: a tree pattern, or its XPath-like string form.
        document: a :class:`Document`, root :class:`Node`, or AXML
            text.  Mutated in place as the subscription refreshes.
        services: the Web — list of services, registry, or existing
            :class:`ServiceBus` (reused, preserving log and breakers).
        config: the single engine configuration object.
        schema: element content models for the typed modes — set
            ``config.typing``: the serving preset is untyped.
        tenant: the admission/accounting bucket for this subscription.
        name: a label for traces and metrics (defaults to the query's).
        eager: evaluate immediately (default) or on first refresh.
        trace: span sink, shorthand for ``config.trace``.

    Returns:
        A :class:`repro.serve.Subscription`.
    """
    from .serve import QueryServer
    from .serve.server import reject_engine_kwargs

    reject_engine_kwargs("subscribe", unexpected)
    server = QueryServer(services, config=config, schema=schema, trace=trace)
    return server.subscribe(
        query, document, tenant=tenant, name=name, eager=eager
    )
