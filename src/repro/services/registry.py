"""Service registry and invocation bus.

The :class:`ServiceBus` plays the role of the Web — it resolves function
names to services, ships parameters (and pushed subqueries) to them, and
accounts for every byte and simulated second on an
:class:`~repro.services.simulation.InvocationLog`.

The one entry point is :meth:`ServiceBus.invoke`, taking a
:class:`ServiceCall` descriptor plus a keyword-only
:class:`~repro.services.resilience.InvocationPolicy` and an optional
tracer.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
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
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitOpenFault,
    InvocationPolicy,
    ResilientOutcome,
)
from .scheduler import (
    BatchOutcome,
    CallCache,
    SchedulerPolicy,
    assign_workers,
    cache_key,
)
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

    Produced by :meth:`ServiceBus._execute_raw`, which touches no shared
    bus state — that is what makes it safe to run on worker threads
    during batch dispatch.  ``charged_s`` is the simulated time this
    attempt costs (deadline on timeout, latency + request transfer on
    any other fault, full round trip on success)."""

    request_bytes: int
    response_bytes: int
    service_latency_s: float
    charged_s: float
    pushed_text: Optional[str] = None
    reply: Optional[CallReply] = None
    fault: Optional[ServiceFault] = None
    new_calls: int = 0


@dataclasses.dataclass
class _CallRun:
    """Private per-call state of one batch member.

    ``events``/``breaker_marks`` carry *batch-relative* timestamps; the
    deterministic replay phase rebases them onto the bus clock once the
    call's scheduled start offset is known."""

    call: ServiceCall
    outcome: ResilientOutcome
    key: Optional[str] = None
    resolved: bool = False
    coalesced_with: Optional[int] = None
    duration_s: float = 0.0
    attempts: list = dataclasses.field(default_factory=list)
    events: list = dataclasses.field(default_factory=list)
    breaker_marks: list = dataclasses.field(default_factory=list)


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
    ``clock_s`` is the bus's simulated clock — it advances with every
    attempt and every backoff wait, and drives breaker cool-downs.
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

    def invoke(
        self,
        call: ServiceCall,
        *,
        policy: Optional[InvocationPolicy] = None,
        trace: Optional[AnyTracer] = None,
    ) -> ResilientOutcome:
        """Invoke one :class:`ServiceCall` under an invocation policy.

        The single entry point of the bus: consults the call cache if
        one is attached, then runs the breaker gate, the attempt loop
        and the backoff waits prescribed by ``policy`` (default: three
        attempts, no breaker — pass
        :meth:`InvocationPolicy.single_attempt` for exactly one try)
        and never raises on service faults — the returned
        :class:`~repro.services.resilience.ResilientOutcome` carries
        either the reply or the last fault.  (Unknown services still
        raise: that is a caller bug, not a remote fault.)  ``trace``
        is an optional :class:`repro.obs.Tracer`: every attempt,
        fault, backoff wait and breaker transition becomes a span
        event on the caller's current span.
        """
        policy = policy or InvocationPolicy()
        tracer = tracer_for(trace, sim_clock=lambda: self.clock_s)
        key: Optional[str] = None
        if self.cache is not None:
            key = cache_key(call)
            hit = self.cache.lookup(key, self.clock_s)
            if hit is not None:
                tracer.event(EVENT_CACHE_HIT, service=call.service)
                return ResilientOutcome(reply=hit, cache_hit=True)
        outcome = self._invoke_live(call, policy, tracer)
        if key is not None and outcome.reply is not None:
            # Stored before the engine splices the forest into a live
            # document (the cache clones on store anyway — belt and
            # braces against aliasing).
            self.cache.store(key, outcome.reply, self.clock_s)
        return outcome

    def _invoke_live(
        self,
        call: ServiceCall,
        policy: InvocationPolicy,
        tracer: AnyTracer,
    ) -> ResilientOutcome:
        """The resilient invocation loop: breaker gate, attempts, backoff."""
        retry = policy.retry
        breaker = (
            self.breaker_for(call.service, policy.breaker)
            if policy.breaker is not None
            else None
        )
        outcome = ResilientOutcome()
        for attempt in range(1, retry.max_attempts + 1):
            backoff = (
                retry.backoff_before(attempt, key=call.service)
                if attempt > 1
                else 0.0
            )
            if breaker is not None and not breaker.allow(self.clock_s + backoff):
                # Admission is decided at the moment the attempt would
                # actually start — after its backoff wait — and a
                # rejected attempt charges nothing: a wait never sat
                # out must not advance the clock.  (Checking at
                # ``clock_s + backoff`` also admits the half-open probe
                # when the cool-down elapses *during* the backoff.)
                outcome.short_circuited = True
                outcome.fault = CircuitOpenFault(call.service)
                tracer.event(EVENT_SHORT_CIRCUIT, service=call.service)
                return outcome
            if attempt > 1:
                outcome.backoff_s += backoff
                self.clock_s += backoff
                outcome.retries += 1
                tracer.event(
                    EVENT_BACKOFF, seconds=backoff, before_attempt=attempt
                )
            outcome.attempts += 1
            tracer.event(EVENT_ATTEMPT, attempt=attempt, service=call.service)
            try:
                reply, record = self._attempt(call, attempt, retry.timeout_s)
            except ServiceFault as fault:
                outcome.faults += 1
                outcome.fault = fault
                if self.log.records and self.log.records[-1].fault:
                    outcome.fault_time_s += self.log.records[-1].simulated_time_s
                tracer.event(
                    EVENT_FAULT,
                    attempt=attempt,
                    kind="timeout" if isinstance(fault, TimeoutFault) else "fault",
                    service=call.service,
                )
                if breaker is not None and breaker.record_failure(self.clock_s):
                    outcome.breaker_trips += 1
                    tracer.event(EVENT_BREAKER_TRIP, service=call.service)
                continue
            if breaker is not None:
                breaker.record_success()
            outcome.reply = reply
            outcome.record = record
            outcome.fault = None
            return outcome
        return outcome

    def invoke_batch(
        self,
        calls: Sequence[ServiceCall],
        *,
        policy: Optional[InvocationPolicy] = None,
        scheduler: Optional[SchedulerPolicy] = None,
        trace: Optional[AnyTracer] = None,
    ) -> BatchOutcome:
        """Invoke a batch of *independent* calls under one scheduler.

        The concurrency model of Section 4's layering argument: the
        calls of one round cannot feed each other, so they are
        list-scheduled onto ``scheduler.max_concurrency`` simulated
        workers and the bus clock advances by the schedule's *makespan*
        instead of the sum of the calls' durations.  Real execution
        optionally overlaps on a thread pool, grouped by service so a
        stateful service still sees its own calls in submission order.

        Every per-call guarantee of :meth:`invoke` is preserved: retry,
        backoff, per-attempt timeouts, the cache, and the breaker — with
        batch semantics for the latter: admission is gated on the
        breaker state *at dispatch time* (each call retries against a
        private clone, so a sibling's trip cannot retroactively reject a
        call already in flight), and the clones' events are merged back
        into the shared breaker in submission order afterwards.

        Accounting — log records, trace spans/events, breaker merges,
        cache stores — is replayed on the main thread in submission
        order, so the result is deterministic regardless of thread
        interleaving.  ``scheduler.max_concurrency == 1`` degenerates to
        the exact serial loop (same clock, same log, same events).
        """
        calls = list(calls)
        policy = policy or InvocationPolicy()
        scheduler = scheduler or SchedulerPolicy()
        tracer = tracer_for(trace, sim_clock=lambda: self.clock_s)
        result = BatchOutcome(width=len(calls))
        if not calls:
            return result
        start = self.clock_s
        with tracer.span(
            BATCH, width=len(calls), concurrency=scheduler.max_concurrency
        ):
            if scheduler.max_concurrency == 1:
                for call in calls:
                    with tracer.span(
                        INVOCATION,
                        service=call.service,
                        call_uid=call.call_node_id,
                    ) as span:
                        outcome = self.invoke(call, policy=policy, trace=tracer)
                        if span is not None and outcome.fault is not None:
                            span.tags.setdefault(
                                "fault_kind",
                                "short_circuit"
                                if outcome.short_circuited
                                else (
                                    "timeout"
                                    if isinstance(outcome.fault, TimeoutFault)
                                    else "fault"
                                ),
                            )
                    result.outcomes.append(outcome)
                    if outcome.cache_hit:
                        result.cache_hits += 1
                result.serial_s = self.clock_s - start
                result.parallel_s = result.serial_s
            else:
                self._invoke_batch_concurrent(
                    calls, policy, scheduler, tracer, start, result
                )
        return result

    def _invoke_batch_concurrent(
        self,
        calls: list[ServiceCall],
        policy: InvocationPolicy,
        scheduler: SchedulerPolicy,
        tracer: AnyTracer,
        start: float,
        result: BatchOutcome,
    ) -> None:
        # Phase 1 — consult the cache and coalesce duplicate keys, in
        # submission order.  A duplicate of an earlier miss is not
        # executed: it resolves during replay, after its prototype has
        # stored (or failed to store) a reply.
        runs: list[_CallRun] = []
        pending_by_key: dict[str, int] = {}
        for index, call in enumerate(calls):
            run = _CallRun(call=call, outcome=ResilientOutcome())
            if self.cache is not None:
                run.key = cache_key(call)
                hit = self.cache.lookup(run.key, start)
                if hit is not None:
                    run.outcome.reply = hit
                    run.outcome.cache_hit = True
                    run.resolved = True
                elif run.key in pending_by_key:
                    run.coalesced_with = pending_by_key[run.key]
                    run.resolved = True
                else:
                    pending_by_key[run.key] = index
            runs.append(run)

        # Phase 2 — execute the misses on private virtual clocks,
        # grouped by service (a stateful mock must see its calls in
        # submission order for determinism); distinct services may
        # overlap on real threads.
        groups: dict[str, list[int]] = {}
        for index, run in enumerate(runs):
            if not run.resolved:
                groups.setdefault(run.call.service, []).append(index)
        snapshots: dict[str, CircuitBreaker] = {}
        if policy.breaker is not None:
            for name in groups:
                snapshots[name] = self.breaker_for(name, policy.breaker)

        def run_group(indices: list[int]) -> None:
            for index in indices:
                clone: Optional[CircuitBreaker] = None
                snapshot = snapshots.get(runs[index].call.service)
                if snapshot is not None:
                    clone = snapshot.clone()
                    if clone.opened_at_s is not None:
                        # Rebase the open timestamp onto the virtual
                        # (batch-relative) clock the run loop uses.
                        clone.opened_at_s -= start
                self._run_call_virtual(runs[index], policy, clone)

        group_lists = list(groups.values())
        if scheduler.use_threads and len(group_lists) > 1:
            workers = min(len(group_lists), scheduler.max_concurrency)
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=workers
            ) as pool:
                futures = [
                    pool.submit(run_group, indices) for indices in group_lists
                ]
                for future in futures:
                    future.result()
        else:
            for indices in group_lists:
                run_group(indices)

        # Phase 3 — list-schedule the batch onto the simulated workers.
        offsets, makespan = assign_workers(
            [run.duration_s for run in runs], scheduler.max_concurrency
        )

        # Phase 4 — deterministic replay in submission order: log
        # records, trace events, breaker merges and cache stores all
        # happen here, on the main thread, at rebased timestamps.
        for index, run in enumerate(runs):
            source = (
                runs[run.coalesced_with]
                if run.coalesced_with is not None
                else None
            )
            self._replay_run(run, start + offsets[index], policy, tracer, source)
            result.outcomes.append(run.outcome)
            if run.outcome.cache_hit:
                result.cache_hits += 1
            result.serial_s += run.duration_s
        result.parallel_s = makespan
        self.clock_s = start + makespan

    def _run_call_virtual(
        self,
        run: _CallRun,
        policy: InvocationPolicy,
        breaker: Optional[CircuitBreaker],
    ) -> None:
        """The retry loop of one batch member, on a batch-relative clock.

        Mirrors :meth:`_invoke_live` exactly, but mutates nothing
        shared: attempts, events and breaker marks accumulate on the
        :class:`_CallRun` for later replay.  ``breaker`` is a private
        rebased clone (or None)."""
        call = run.call
        retry = policy.retry
        outcome = run.outcome
        vclock = 0.0
        for attempt in range(1, retry.max_attempts + 1):
            backoff = (
                retry.backoff_before(attempt, key=call.service)
                if attempt > 1
                else 0.0
            )
            if breaker is not None and not breaker.allow(vclock + backoff):
                outcome.short_circuited = True
                outcome.fault = CircuitOpenFault(call.service)
                run.events.append(
                    (vclock, EVENT_SHORT_CIRCUIT, {"service": call.service})
                )
                break
            if attempt > 1:
                outcome.backoff_s += backoff
                vclock += backoff
                outcome.retries += 1
                run.events.append(
                    (
                        vclock,
                        EVENT_BACKOFF,
                        {"seconds": backoff, "before_attempt": attempt},
                    )
                )
            outcome.attempts += 1
            run.events.append(
                (
                    vclock,
                    EVENT_ATTEMPT,
                    {"attempt": attempt, "service": call.service},
                )
            )
            raw = self._execute_raw(call, retry.timeout_s)
            vclock += raw.charged_s
            run.attempts.append((attempt, raw))
            if raw.fault is not None:
                outcome.faults += 1
                outcome.fault = raw.fault
                outcome.fault_time_s += raw.charged_s
                run.events.append(
                    (
                        vclock,
                        EVENT_FAULT,
                        {
                            "attempt": attempt,
                            "kind": (
                                "timeout"
                                if isinstance(raw.fault, TimeoutFault)
                                else "fault"
                            ),
                            "service": call.service,
                        },
                    )
                )
                run.breaker_marks.append((vclock, False))
                if breaker is not None and breaker.record_failure(vclock):
                    outcome.breaker_trips += 1
                    run.events.append(
                        (vclock, EVENT_BREAKER_TRIP, {"service": call.service})
                    )
                continue
            run.breaker_marks.append((vclock, True))
            outcome.fault = None
            break
        run.duration_s = vclock

    def _replay_run(
        self,
        run: _CallRun,
        base: float,
        policy: InvocationPolicy,
        tracer: AnyTracer,
        source: Optional[_CallRun],
    ) -> None:
        """Account one batch member at its scheduled start time ``base``.

        Emits the call's ``invocation`` span and events with the bus
        clock temporarily rewound to the call's virtual timestamps (the
        batch members' intervals legitimately overlap), appends its log
        records in attempt order, merges its breaker marks into the
        shared breaker, and stores a successful reply in the cache."""
        call = run.call
        outcome = run.outcome
        self.clock_s = base
        with tracer.span(
            INVOCATION, service=call.service, call_uid=call.call_node_id
        ) as span:
            if outcome.cache_hit:
                tracer.event(EVENT_CACHE_HIT, service=call.service)
            elif source is not None:
                # Coalesced duplicate: a deferred cache lookup — the
                # prototype ran and (on success) stored its reply
                # during its own replay, strictly earlier in
                # submission order.
                assert self.cache is not None and run.key is not None
                hit = self.cache.lookup(run.key, base)
                if hit is not None:
                    outcome.reply = hit
                    outcome.cache_hit = True
                    tracer.event(EVENT_CACHE_HIT, service=call.service)
                else:
                    # The prototype faulted; the duplicate shares its
                    # fate without charging any time (it never ran).
                    outcome.fault = source.outcome.fault
                    outcome.short_circuited = source.outcome.short_circuited
            else:
                for rel_s, name, tags in run.events:
                    self.clock_s = base + rel_s
                    tracer.event(name, **tags)
                for attempt, raw in run.attempts:
                    record = self._record_raw(call, raw, attempt)
                    if raw.fault is None:
                        outcome.reply = raw.reply
                        outcome.record = record
                if policy.breaker is not None:
                    shared = self.breaker_for(call.service, policy.breaker)
                    for rel_s, succeeded in run.breaker_marks:
                        if succeeded:
                            shared.record_success()
                        else:
                            shared.record_failure(base + rel_s)
                if (
                    run.key is not None
                    and outcome.reply is not None
                    and self.cache is not None
                ):
                    self.cache.store(
                        run.key, outcome.reply, base + run.duration_s
                    )
            if span is not None and outcome.fault is not None:
                span.tags.setdefault(
                    "fault_kind",
                    "short_circuit"
                    if outcome.short_circuited
                    else (
                        "timeout"
                        if isinstance(outcome.fault, TimeoutFault)
                        else "fault"
                    ),
                )
            self.clock_s = base + run.duration_s

    def _attempt(
        self, call: ServiceCall, attempt: int, timeout_s: Optional[float]
    ) -> tuple[CallReply, InvocationRecord]:
        """One attempt.  Faults are logged (with the fault flag set and
        their request bytes / simulated time charged) and re-raised."""
        raw = self._execute_raw(call, timeout_s)
        record = self._record_raw(call, raw, attempt)
        self.clock_s += record.simulated_time_s
        if raw.fault is not None:
            raise raw.fault
        assert raw.reply is not None
        return raw.reply, record

    def _execute_raw(
        self, call: ServiceCall, timeout_s: Optional[float]
    ) -> _RawAttempt:
        """Run the service once without touching any shared bus state.

        Pure with respect to the bus (no log append, no clock advance,
        no breaker update), which is what allows batch dispatch to run
        it on worker threads and replay the accounting deterministically
        afterwards."""
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
        if raw.fault is not None:
            return self.log.record(
                service_name=call.service,
                call_node_id=call.call_node_id,
                request_bytes=raw.request_bytes,
                response_bytes=0,
                service_latency_s=raw.service_latency_s,
                pushed_query=raw.pushed_text,
                push_mode=PushMode.NONE.value,
                returned_bindings=False,
                new_calls=0,
                fault=True,
                fault_kind=(
                    "timeout" if isinstance(raw.fault, TimeoutFault) else "fault"
                ),
                attempt=attempt,
                charged_time_s=raw.charged_s,
            )
        assert raw.reply is not None
        return self.log.record(
            service_name=call.service,
            call_node_id=call.call_node_id,
            request_bytes=raw.request_bytes,
            response_bytes=raw.response_bytes,
            service_latency_s=raw.service_latency_s,
            pushed_query=raw.pushed_text,
            push_mode=raw.reply.push_mode.value,
            returned_bindings=raw.reply.is_bindings,
            new_calls=raw.new_calls,
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
