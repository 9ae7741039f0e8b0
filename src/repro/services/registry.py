"""Service registry and invocation bus.

The :class:`ServiceBus` plays the role of the Web — it resolves function
names to services, ships parameters (and pushed subqueries) to them, and
accounts for every byte and simulated second on an
:class:`~repro.services.simulation.InvocationLog`.

The bus's unit of invocation is the **round**
(:meth:`ServiceBus.round` -> :class:`InvocationRound`): the independent
calls of one round are list-scheduled onto simulated workers, each
runs the one retry loop at its start time, and the bus clock — the one
simulated clock breaker cool-downs, cache TTLs, trace timestamps and
the engine's ``simulated_parallel_s`` all read — advances by the
round's makespan.  :meth:`ServiceBus.invoke` is a round of one.
"""

from __future__ import annotations

import dataclasses
import heapq
import weakref
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..axml.node import Node
from ..axml.xmlio import measure_forest
from ..obs.trace import (
    BATCH,
    EVENT_ATTEMPT,
    EVENT_BACKOFF,
    EVENT_BREAKER_TRIP,
    EVENT_CACHE_HIT,
    EVENT_FAULT,
    EVENT_SHORT_CIRCUIT,
    INVOCATION,
    AnyTracer,
    tracer_for,
)
from ..pattern.nodes import EdgeKind
from ..pattern.pattern import TreePattern
from ..schema.schema import Schema
from .catalog import ServiceFault, TimeoutFault
from .resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitOpenFault,
    InvocationPolicy,
    ResilientOutcome,
)
from .scheduler import CallCache, cache_key
from .service import CallReply, PushMode, Service
from .simulation import InvocationLog, InvocationRecord, NetworkModel


class UnknownServiceError(KeyError):
    """Raised when a document references a service nobody registered."""


@dataclasses.dataclass(frozen=True)
class ServiceCall:
    """Everything that describes one invocation request.

    The first (and only positional) argument of
    :meth:`ServiceBus.invoke`: the service name, the parameter forest,
    and the optional pushed subquery riding along (Section 7).
    """

    service: str
    parameters: Sequence[Node] = ()
    call_node_id: Optional[int] = None
    pushed: Optional[TreePattern] = None
    push_mode: PushMode = PushMode.NONE
    anchor_edge: EdgeKind = EdgeKind.CHILD


@dataclasses.dataclass
class _RawAttempt:
    """One service execution, measured but not yet accounted.

    Produced by :meth:`ServiceBus._execute_raw`.  ``charged_s`` is the
    simulated time this attempt costs (deadline on timeout, latency +
    request transfer on any other fault, full round trip on success)."""

    request_bytes: int
    response_bytes: int
    service_latency_s: float
    charged_s: float
    pushed_text: Optional[str] = None
    reply: Optional[CallReply] = None
    fault: Optional[ServiceFault] = None
    new_calls: int = 0


def fault_kind(fault: ServiceFault) -> str:
    """The one vocabulary for what went wrong with a call: the word
    :attr:`InvocationRecord.fault_kind`, the ``fault`` event and the
    ``invocation`` span's ``fault_kind`` tag all use."""
    if isinstance(fault, CircuitOpenFault):
        return "short_circuit"
    return "timeout" if isinstance(fault, TimeoutFault) else "fault"


class ServiceRegistry:
    """Name -> service resolution."""

    def __init__(self, services: Optional[Iterable[Service]] = None) -> None:
        self._services: dict[str, Service] = {}
        for service in services or ():
            self.register(service)

    def register(self, service: Service) -> Service:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        return service

    def resolve(self, name: str) -> Service:
        service = self._services.get(name)
        if service is None:
            raise UnknownServiceError(name)
        return service

    def knows(self, name: str) -> bool:
        return name in self._services

    def names(self) -> list[str]:
        return sorted(self._services)

    def __len__(self) -> int:
        return len(self._services)

    def schema_with_signatures(self, base: Optional[Schema] = None) -> Schema:
        """A *copy* of ``base`` enriched with every registered signature.

        The caller's schema is never mutated: the engine passes the
        user's shared ``evaluator.schema`` here on every evaluation, and
        merging in place would leak service signatures into it.
        """
        if base is None:
            schema = Schema()
        else:
            schema = Schema(
                elements=base.elements, functions=base.functions.values()
            )
        for service in self._services.values():
            if service.signature is not None:
                schema.functions[service.name] = service.signature
        return schema


def bus_of(
    services: Union["ServiceBus", ServiceRegistry, Iterable[Service]],
) -> "ServiceBus":
    """Coerce any services-like value into a :class:`ServiceBus`.

    An existing bus is returned as-is (preserving its invocation log,
    call cache and breaker state); a registry or a plain iterable of
    services gets a fresh bus.  This is the shared coercion behind
    ``repro.evaluate``, ``repro.subscribe`` and
    :class:`repro.serve.QueryServer`.
    """
    if isinstance(services, ServiceBus):
        return services
    if isinstance(services, ServiceRegistry):
        return ServiceBus(services)
    return ServiceBus(ServiceRegistry(services))


class ServiceBus:
    """Invokes services and accounts the traffic.

    Beyond name resolution and byte/time accounting, the bus is the
    resilience layer: it logs *faulted* attempts (a fault still ships a
    request and burns simulated time), enforces per-attempt simulated
    timeouts, runs the retry/backoff loop of
    :class:`~repro.services.resilience.RetryPolicy`, and keeps one
    :class:`~repro.services.resilience.CircuitBreaker` per service.
    ``clock_s`` is the bus's simulated clock — within a round it reads
    the running call's own time (overlapping calls rewind it to their
    start), between rounds the time the last round ended — and drives
    breaker cool-downs and cache TTLs.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        network: Optional[NetworkModel] = None,
        cache: Optional[CallCache] = None,
    ) -> None:
        self.registry = registry
        self.log = InvocationLog(network=network)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.clock_s: float = 0.0
        self.cache = cache
        #: document -> {service: the document version last flushed for}.
        #: Weak: a mark must die with its document, or a later document
        #: at a recycled address would inherit it.
        self._cache_flush_versions: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    def invalidate_cache(self, service: Optional[str] = None) -> int:
        """Drop memoized call replies (all, or one service's).

        The hook for document updates and changing worlds: memoization
        assumes services are functions of their parameters, so anything
        that breaks that assumption must call this.  Returns how many
        entries were dropped (0 when no cache is attached)."""
        if self.cache is None:
            return 0
        return self.cache.invalidate(service)

    def invalidate_cache_scoped(
        self, document, touched: Mapping[str, int]
    ) -> int:
        """Drop memoized replies of exactly the touched services, once
        per document version.

        ``touched`` maps service names to the latest version of
        ``document`` at which an author inserted one of their calls
        (:attr:`~repro.axml.document.Document.authored_calls`).
        Memoized replies are functions of their parameters (the
        :class:`~repro.services.scheduler.CallCache` opt-in contract),
        so a mutation can only stale a service's entries by changing the
        world *behind* the service — which standing queries approximate
        by the service's calls being touched.  The per-(document,
        service) flushed-version mark makes the drop idempotent: when
        several standing queries share one bus, the first refresh after
        a mutation flushes the touched services and later refreshes do
        not re-evict what other queries just re-memoized.  Returns how
        many entries were dropped."""
        if self.cache is None or not touched:
            return 0
        dropped = 0
        marks = self._cache_flush_versions.setdefault(document, {})
        for service, version in touched.items():
            if marks.get(service, -1) >= version:
                continue
            marks[service] = version
            dropped += self.cache.invalidate(service)
        return dropped

    def breaker_for(
        self, service_name: str, policy: CircuitBreakerPolicy
    ) -> CircuitBreaker:
        breaker = self.breakers.get(service_name)
        if breaker is None:
            breaker = CircuitBreaker(policy)
            self.breakers[service_name] = breaker
        return breaker

    def reset_breakers(self) -> None:
        for breaker in self.breakers.values():
            breaker.reset()

    def round(
        self,
        width: int,
        *,
        policy: Optional[InvocationPolicy] = None,
        max_concurrency: Optional[int] = None,
        trace: Optional[AnyTracer] = None,
    ) -> "InvocationRound":
        """Open a round of ``width`` independent calls (a context
        manager; see :class:`InvocationRound`).

        ``max_concurrency`` bounds the round's simulated workers
        (``None`` = one per call); ``policy`` defaults to three
        attempts, no breaker; ``trace`` is an optional
        :class:`repro.obs.Tracer` or sink.
        """
        return InvocationRound(
            self,
            width,
            policy or InvocationPolicy(),
            max_concurrency,
            tracer_for(trace, sim_clock=lambda: self.clock_s),
        )

    def invoke(
        self,
        call: ServiceCall,
        *,
        policy: Optional[InvocationPolicy] = None,
        trace: Optional[AnyTracer] = None,
    ) -> ResilientOutcome:
        """Invoke one :class:`ServiceCall`: a round of one.

        Never raises on service faults — the returned
        :class:`~repro.services.resilience.ResilientOutcome` carries
        either the reply or the last fault (pass
        :meth:`InvocationPolicy.single_attempt` for exactly one try).
        Unknown services still raise: that is a caller bug, not a
        remote fault.
        """
        with self.round(1, policy=policy, trace=trace) as round_:
            return round_.invoke(call)

    def _execute_raw(
        self, call: ServiceCall, timeout_s: Optional[float]
    ) -> _RawAttempt:
        """Run the service once and measure it (no log append, no clock
        advance, no breaker update: the round's retry loop accounts)."""
        service = self.registry.resolve(call.service)
        request_bytes = measure_forest(call.parameters)[0]
        pushed_text: Optional[str] = None
        if call.pushed is not None and call.push_mode is not PushMode.NONE:
            pushed_text = call.pushed.to_string()
            request_bytes += len(pushed_text.encode("utf-8"))
        try:
            reply = service.invoke(
                call.parameters,
                pushed=call.pushed,
                push_mode=call.push_mode,
                anchor_edge=call.anchor_edge,
            )
        except ServiceFault as fault:
            return _RawAttempt(
                request_bytes=request_bytes,
                response_bytes=0,
                service_latency_s=service.latency_s,
                charged_s=self._fault_charge(
                    fault, service, request_bytes, timeout_s
                ),
                pushed_text=pushed_text,
                fault=fault,
            )
        # The one walk over the reply: everything later layers need to
        # know about its size rides on the attempt and the reply.
        forest_bytes, reply.nodes, new_calls = measure_forest(reply.forest)
        response_bytes = forest_bytes + self._bindings_bytes(reply)
        simulated = self.log.network.round_trip_s(
            service.latency_s, request_bytes, response_bytes
        )
        if timeout_s is not None and simulated > timeout_s:
            # The reply exists but arrived past the deadline: the caller
            # never sees it, waits exactly ``timeout_s``, and gets a fault.
            fault = TimeoutFault(
                f"service {call.service!r} missed its "
                f"{timeout_s:.3f}s deadline ({simulated:.3f}s simulated)"
            )
            return _RawAttempt(
                request_bytes=request_bytes,
                response_bytes=0,
                service_latency_s=service.latency_s,
                charged_s=timeout_s,
                pushed_text=pushed_text,
                fault=fault,
            )
        return _RawAttempt(
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            service_latency_s=service.latency_s,
            charged_s=simulated,
            pushed_text=pushed_text,
            reply=reply,
            new_calls=new_calls,
        )

    def _fault_charge(
        self,
        fault: ServiceFault,
        service: Service,
        request_bytes: int,
        timeout_s: Optional[float],
    ) -> float:
        # A timed-out attempt costs exactly the missed deadline; any
        # other fault costs the round-trip latency plus the request
        # transfer (the request was shipped before the failure).
        if isinstance(fault, TimeoutFault) and timeout_s is not None:
            return timeout_s
        return service.latency_s + self.log.network.transfer_time(request_bytes)

    def _record_raw(
        self, call: ServiceCall, raw: _RawAttempt, attempt: int
    ) -> InvocationRecord:
        """Append one measured attempt to the log (no clock advance)."""
        reply = raw.reply
        return self.log.record(
            service_name=call.service,
            call_node_id=call.call_node_id,
            request_bytes=raw.request_bytes,
            response_bytes=raw.response_bytes,
            service_latency_s=raw.service_latency_s,
            pushed_query=raw.pushed_text,
            push_mode=(
                PushMode.NONE if reply is None else reply.push_mode
            ).value,
            returned_bindings=reply is not None and reply.is_bindings,
            new_calls=raw.new_calls,
            fault=raw.fault is not None,
            fault_kind=None if raw.fault is None else fault_kind(raw.fault),
            attempt=attempt,
            charged_time_s=raw.charged_s,
        )

    @staticmethod
    def _bindings_bytes(reply: CallReply) -> int:
        size = 0
        if reply.bindings is not None:
            for row in reply.bindings:
                # <tuple><x>v</x>...</tuple> — the paper's reply shape.
                size += len("<tuple></tuple>")
                for variable, value in row.values:
                    size += len(
                        f"<{variable}>{value}</{variable}>".encode("utf-8")
                    )
        return size


class InvocationRound:
    """One round of independent calls — the bus's unit of invocation.

    Opened by :meth:`ServiceBus.round` and used as a context manager;
    the caller hands it calls one at a time, in submission order,
    through :meth:`invoke`.  Each call is list-scheduled *online* onto
    the round's simulated workers: it starts when the earliest-free
    worker frees up, which is known before it runs.  The bus clock is
    set there, the one retry loop runs — log records, trace events,
    breaker marks and the cache store applied as it goes — and the
    worker is busy until the clock the loop left behind.  Closing the
    round sets the clock to when the last worker goes quiet: a round
    costs its schedule's *makespan* (Section 4.4: the independent calls
    of a layer fire together).

    What overlaps cannot see each other.  On more than one worker every
    call is gated on its service's breaker *as the round found it* — a
    sibling's trip cannot reject a call already in flight, though every
    fault and success still marks the shared breaker, in submission
    order, for whoever comes after the round — and a duplicate of a
    call of this round that faulted shares its fate without running.
    On one worker nothing overlaps: the shared breaker is read
    directly, duplicates re-run, and the round is the serial loop.
    """

    def __init__(
        self,
        bus: ServiceBus,
        width: int,
        policy: InvocationPolicy,
        max_concurrency: Optional[int],
        tracer: AnyTracer,
    ) -> None:
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1 (or None)")
        self.bus = bus
        self.policy = policy
        self.tracer = tracer
        #: Simulated workers: one per call unless ``max_concurrency``
        #: bounds them.
        self.workers = max(
            1, width if max_concurrency is None else min(width, max_concurrency)
        )
        self.start_s = self.end_s = bus.clock_s
        #: Start of each submitted call, relative to ``start_s``.
        self.offsets: list[float] = []
        self._free_at: list[float] = []  # heap: when each busy worker frees up
        self._snapshots: dict[str, CircuitBreaker] = {}
        self._faulted: dict[str, ResilientOutcome] = {}
        self._batch = self._batch_span = None

    @property
    def makespan_s(self) -> float:
        """What the round costs on the simulated clock."""
        return self.end_s - self.start_s

    def __enter__(self) -> "InvocationRound":
        if self.workers > 1:
            self._batch = self.tracer.span(BATCH, concurrency=self.workers)
            self._batch_span = self._batch.__enter__()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.bus.clock_s = self.end_s
        if self._batch is not None:
            if self._batch_span is not None:
                self._batch_span.tags["width"] = len(self.offsets)
            self._batch.__exit__(*exc)
        return False

    def invoke(self, call: ServiceCall) -> ResilientOutcome:
        """Run ``call`` on the earliest-free worker of the round."""
        bus = self.bus
        free_at = self._free_at
        begin = (
            heapq.heappop(free_at)
            if len(free_at) >= self.workers
            else self.start_s
        )
        self.offsets.append(begin - self.start_s)
        bus.clock_s = begin
        with self.tracer.span(
            INVOCATION, service=call.service, call_uid=call.call_node_id
        ) as span:
            outcome = self._resolve(call)
            if span is not None and outcome.fault is not None:
                span.tags["fault_kind"] = fault_kind(outcome.fault)
        heapq.heappush(free_at, bus.clock_s)
        if bus.clock_s > self.end_s:
            self.end_s = bus.clock_s
        return outcome

    def _resolve(self, call: ServiceCall) -> ResilientOutcome:
        """The call cache (one lookup per call), else the retry loop."""
        bus = self.bus
        cache = bus.cache
        if cache is None:
            return self._attempts(call)
        key = cache_key(call)
        hit = cache.lookup(key, bus.clock_s)
        if hit is not None:
            self.tracer.event(EVENT_CACHE_HIT, service=call.service)
            return ResilientOutcome(reply=hit, cache_hit=True)
        twin = self._faulted.get(key)
        if twin is not None:
            # Never ran, so it charges nothing and logs nothing.
            return ResilientOutcome(
                fault=twin.fault, short_circuited=twin.short_circuited
            )
        outcome = self._attempts(call)
        if outcome.reply is not None:
            # Stored before the engine splices the forest into a live
            # document (the cache clones on store anyway — belt and
            # braces against aliasing).
            cache.store(key, outcome.reply, bus.clock_s)
        elif self.workers > 1:
            self._faulted[key] = outcome
        return outcome

    def _attempts(self, call: ServiceCall) -> ResilientOutcome:
        """The retry loop: breaker gate, attempts, backoff waits."""
        bus = self.bus
        tracer = self.tracer
        retry = self.policy.retry
        service = call.service
        shared = gate = snapshot = None
        if self.policy.breaker is not None:
            shared = gate = bus.breaker_for(service, self.policy.breaker)
            if self.workers > 1:
                snapshot = self._snapshots.get(service)
                if snapshot is None:
                    snapshot = self._snapshots[service] = shared.clone()
                # A closed snapshot is only read until the call's first
                # fault, so the private copy can wait for one.
                gate = (
                    snapshot
                    if snapshot.state is BreakerState.CLOSED
                    else snapshot.clone()
                )
        outcome = ResilientOutcome()
        for attempt in range(1, retry.max_attempts + 1):
            backoff = (
                retry.backoff_before(attempt, key=service) if attempt > 1 else 0.0
            )
            if gate is not None and not gate.allow(bus.clock_s + backoff):
                # Admission is decided at the moment the attempt would
                # actually start — after its backoff wait — and a
                # rejected attempt charges nothing: a wait never sat
                # out must not advance the clock.  (Checking at
                # ``clock_s + backoff`` also admits the half-open probe
                # when the cool-down elapses *during* the backoff.)
                outcome.short_circuited = True
                outcome.fault = CircuitOpenFault(service)
                tracer.event(EVENT_SHORT_CIRCUIT, service=service)
                return outcome
            if attempt > 1:
                outcome.backoff_s += backoff
                bus.clock_s += backoff
                outcome.retries += 1
                tracer.event(
                    EVENT_BACKOFF, seconds=backoff, before_attempt=attempt
                )
            outcome.attempts += 1
            tracer.event(EVENT_ATTEMPT, attempt=attempt, service=service)
            raw = bus._execute_raw(call, retry.timeout_s)
            record = bus._record_raw(call, raw, attempt)
            bus.clock_s += raw.charged_s
            if raw.fault is None:
                if shared is not None:
                    shared.record_success()
                outcome.reply = raw.reply
                outcome.record = record
                outcome.fault = None
                return outcome
            outcome.faults += 1
            outcome.fault = raw.fault
            outcome.fault_time_s += raw.charged_s
            tracer.event(
                EVENT_FAULT,
                attempt=attempt,
                kind=record.fault_kind,
                service=service,
            )
            if gate is None:
                continue
            if gate is snapshot:
                gate = snapshot.clone()
            if gate is not shared:
                shared.record_failure(bus.clock_s)
            if gate.record_failure(bus.clock_s):
                outcome.breaker_trips += 1
                tracer.event(EVENT_BREAKER_TRIP, service=service)
        return outcome
