"""The multi-tenant query server: many standing queries, one engine.

The engine is one-shot and single-caller; this module makes it a
*serving layer*.  A :class:`QueryServer` owns a shared
:class:`~repro.services.registry.ServiceBus` (one invocation log, one
call cache, one set of circuit breakers) and registers thousands of
:class:`Subscription` s — continuous queries over shared documents —
which it drives in rounds:

1. **Due detection.**  A subscription is due when its document changed
   since it was last served.  Due refreshes are ordered FIFO within
   tenant priority (:mod:`repro.serve.admission`).
2. **The quiet probe.**  A due subscription whose guard footprint
   every splice since its last refresh missed is current as it stands
   (served ``SKIPPED``, no probe).  Before running the engine for any
   other, the server asks the engine whether the run would invoke
   anything: :meth:`~repro.lazy.engine.LazyQueryEvaluator.is_quiet`
   is the evaluation's own layer loop stopped at the first call it
   would invoke, read through the subscription's
   :class:`~repro.lazy.analysis.QueryAnalysis` — one per query shape,
   the very object the engine evaluates — and that analysis's hold on
   the document's :class:`~repro.lazy.incremental.RelevanceStore`.  The
   quiet map is a dictionary of its answers: per document, one verdict
   per query shape per document version, taken when the first due
   subscriber of the shape asks and read by its twins across tenants.
   A probe re-matches only the subtrees the splices since touched, and
   the engine that runs right after a non-quiet one reads the entries
   it left.
3. **Serving.**  A due subscription whose probe came back quiet (on a
   document holding no ``IMMEDIATE`` call — the document keeps their ids,
   and one sweep of the calls per document version stops at the first
   live one) would invoke nothing: it is served
   straight from its maintained :class:`~repro.lazy.answers.AnswerCache`
   (:meth:`~repro.lazy.continuous.ContinuousQuery.serve_maintained`)
   — same rows, same (empty) invocation set, none of the engine's
   per-evaluation setup, no admission slot.  Everything else runs the
   real engine under the tenant's admission budget, so rows and
   invocation order stay *identical* to independent per-subscriber
   refresh loops — the property the differential tests and
   ``bench_e14_serving`` pin.
4. **Fan-out.**  Changed answers are diffed against the previous
   snapshot and pushed to each subscriber's
   :class:`~repro.serve.stream.AnswerStream`.

Latency is measured on the **serving clock** (:class:`ServingClock`):
simulated bus seconds (service latency, transfer, backoff — exactly
reproducible) plus measured compute seconds, accumulated as the server
does work.  A refresh's latency is the serving-clock distance from the
moment its subscription became due to the moment it was served — queue
wait plus service time, which is what a subscriber actually
experiences and what a verdict shared across tenants actually cuts.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Optional, Union

from ..axml.builder import build_document
from ..axml.document import Document
from ..axml.node import Activation, Node
from ..axml.xmlio import parse_document
from ..lazy.analysis import QueryAnalysis
from ..lazy.config import EngineConfig
from ..lazy.continuous import ContinuousQuery
from ..lazy.engine import EvaluationOutcome, LazyQueryEvaluator
from ..obs.trace import GROUP_PASS, SERVE_REFRESH, SERVE_ROUND, tracer_for
from ..pattern.parse import parse_pattern
from ..pattern.pattern import TreePattern
from ..schema.schema import Schema
from ..services.registry import bus_of
from .admission import (
    RefreshOutcome,
    RefreshStatus,
    TenantAccount,
    TenantPolicy,
)
from .stream import AnswerDelta, AnswerStream


def reject_engine_kwargs(entry_point: str, unexpected: dict) -> None:
    """Refuse loose engine knobs, naming the nearest config field.

    The serving entry points accept exactly one ``config=`` object; a
    stray keyword almost always means "I tried to pass an EngineConfig
    field directly", so the error says where it belongs — reusing
    :meth:`EngineConfig.nearest_field`, the same naming contract the
    config's own validation follows.
    """
    if not unexpected:
        return
    name = next(iter(unexpected))
    nearest = EngineConfig.nearest_field(name)
    hint = (
        f" — did you mean EngineConfig({nearest}=...)? "
        if nearest is not None
        else " "
    )
    raise TypeError(
        f"{entry_point}() got an unexpected keyword argument {name!r}"
        f"{hint}(engine knobs travel on the single config= object, "
        f"e.g. config=EngineConfig.serving({nearest or name}=...))"
    )


class ServingClock:
    """The server's latency clock: simulated seconds + compute seconds.

    The bus clock charges everything remote (service latency, transfer,
    retry backoff) deterministically; :meth:`charge` adds the *local*
    wall time the server actually spent analysing and matching.  Their
    sum is what a subscriber would experience against real services, so
    round latencies reflect both queue wait and compute — the component
    the shared quiet verdicts are built to cut.
    """

    def __init__(self, bus) -> None:
        self.bus = bus
        self.compute_s = 0.0

    def now(self) -> float:
        """Current serving time, in seconds."""
        return self.bus.clock_s + self.compute_s

    def charge(self, wall_s: float) -> None:
        """Add measured local compute time to the clock."""
        self.compute_s += wall_s


class Subscription:
    """One tenant's standing query, managed by a :class:`QueryServer`.

    The public replacement for hand-built
    :class:`~repro.lazy.continuous.ContinuousQuery` loops:
    :attr:`rows` is the answer as of the last serve, :meth:`refresh`
    asks the server for an on-demand (admission-checked) refresh,
    :attr:`stream` delivers added/removed row deltas, and
    :meth:`cancel` detaches everything.  Constructed by
    ``QueryServer.subscribe`` / ``repro.subscribe``, never directly.
    """

    def __init__(
        self,
        server: "QueryServer",
        core: ContinuousQuery,
        *,
        sub_id: int,
        name: str,
        tenant: str,
    ) -> None:
        self._server = server
        self._core = core
        self.id = sub_id
        self.name = name
        self.tenant = tenant
        self.stream = AnswerStream()
        self.cancelled = False
        self._snapshot: frozenset[tuple[str, ...]] = frozenset()
        self._due_seq: Optional[int] = None
        self._due_at: Optional[float] = None

    @property
    def query(self) -> TreePattern:
        """The standing tree-pattern query."""
        return self._core.query

    @property
    def document(self) -> Document:
        """The (shared, mutating) document the query stands over."""
        return self._core.document

    @property
    def rows(self) -> frozenset[tuple[str, ...]]:
        """Answer value rows as of the last serve (no refresh): the
        set the served rows derive once, the one object every twin
        that read the same answer state holds."""
        outcome = self._core.peek()
        return frozenset() if outcome is None else outcome.rows.rows.value_set()

    @property
    def result(self) -> Optional[EvaluationOutcome]:
        """The last served :class:`EvaluationOutcome`, or ``None``."""
        return self._core.peek()

    @property
    def is_stale(self) -> bool:
        """Has the document changed since this was last served?"""
        return self._core.peek() is None or self._core.is_stale

    @property
    def engine_skips(self) -> int:
        """Refreshes answered by guard screening, engine untouched."""
        return self._core.engine_skips

    @property
    def maintained_serves(self) -> int:
        """Refreshes served from the answer cache after the engine's
        probe found nothing to invoke."""
        return self._core.maintained_serves

    def refresh(self) -> RefreshOutcome:
        """Serve this subscription now (admission still applies)."""
        return self._server.refresh_one(self)

    def cancel(self) -> None:
        """End the standing query and let go of its derived state."""
        self._server.cancel(self)

    def _emit(
        self, at_s: float, round_index: int
    ) -> tuple[int, int]:
        """Diff the served answer against the last snapshot and push.

        Returns ``(added, removed)`` row counts; pushes an
        :class:`AnswerDelta` only when something changed — and diffs
        nothing when the served set is the snapshot itself (an answer
        state nobody changed).
        """
        rows = self.rows
        if rows is self._snapshot:
            return 0, 0
        added = rows - self._snapshot
        removed = self._snapshot - rows
        self._snapshot = rows
        if added or removed:
            self.stream.push(
                AnswerDelta(
                    added=frozenset(added),
                    removed=frozenset(removed),
                    rows_total=len(rows),
                    document_version=self.document.version,
                    round_index=round_index,
                    at_s=at_s,
                )
            )
        return len(added), len(removed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stale" if self.is_stale else "fresh"
        return (
            f"Subscription({self.name!r}, tenant={self.tenant!r}, "
            f"{state}, rows={len(self._snapshot)})"
        )


@dataclasses.dataclass
class _ServedDocument:
    """What the server keeps per registered document: the subscriptions
    on it and — per document version — what one sweep of its function
    nodes found and the engine's quiet verdict per query shape."""

    subs: dict[int, Subscription] = dataclasses.field(default_factory=dict)
    version: Optional[int] = None
    has_immediate: bool = False
    has_live: bool = False
    #: ``engine.is_quiet`` per analysis, taken when the first due
    #: subscriber of the shape asks and read by its twins.
    verdicts: dict[QueryAnalysis, bool] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class RoundReport:
    """What one :meth:`QueryServer.run_round` did, per refresh."""

    index: int
    started_s: float
    ended_s: float
    outcomes: tuple[RefreshOutcome, ...]

    def counts(self) -> dict[str, int]:
        """Outcome counts by status value."""
        out: dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.status.value] = out.get(outcome.status.value, 0) + 1
        return out

    def for_tenant(self, tenant: str) -> list[RefreshOutcome]:
        """This round's outcomes for one tenant, in serving order."""
        return [o for o in self.outcomes if o.tenant == tenant]


class QueryServer:
    """A long-lived session manager for standing queries.

    One server owns one :class:`~repro.services.registry.ServiceBus`
    (shared invocation log, call cache and breakers), one
    :class:`~repro.lazy.engine.LazyQueryEvaluator`, and any number of
    documents and subscriptions.  Engine behaviour travels on exactly
    one ``config=`` :class:`EngineConfig` (default
    :meth:`EngineConfig.serving`); loose engine kwargs are rejected
    with the nearest field named.

    Typical use::

        server = repro.QueryServer(services)
        sub = server.subscribe("/feed/item/title/$T", document,
                               tenant="alice")
        ...mutate document...
        report = server.run_round()
        for delta in sub.stream:
            print(delta.added, delta.removed)
    """

    def __init__(
        self,
        services,
        *,
        config: Optional[EngineConfig] = None,
        schema: Optional[Schema] = None,
        trace=None,
        **unexpected,
    ) -> None:
        reject_engine_kwargs("QueryServer", unexpected)
        if config is not None and not isinstance(config, EngineConfig):
            raise TypeError(
                f"QueryServer config must be an EngineConfig, got "
                f"{config!r}"
            )
        self.config = config or EngineConfig.serving()
        self.bus = bus_of(services)
        self.engine = LazyQueryEvaluator(
            self.bus, schema=schema, config=self.config
        )
        self.clock = ServingClock(self.bus)
        self.tracer = tracer_for(
            trace if trace is not None else self.config.trace,
            sim_clock=self.clock.now,
        )
        self.rounds_run = 0
        self.probes = 0
        """Quiet verdicts taken: one ``engine.is_quiet`` each."""
        self._docs: dict[int, _ServedDocument] = {}
        self._subs: dict[int, Subscription] = {}
        self._tenants: dict[str, TenantAccount] = {}
        self._sub_ids = itertools.count()
        self._due_seqs = itertools.count()

    # -- tenants ---------------------------------------------------------------

    def register_tenant(
        self, name: str, policy: Optional[TenantPolicy] = None
    ) -> TenantAccount:
        """Declare a tenant and its QoS policy (idempotent re-policy)."""
        account = self._tenants.get(name)
        if account is None:
            account = TenantAccount(name, policy)
            self._tenants[name] = account
        elif policy is not None:
            account.policy = policy
        return account

    def tenant(self, name: str) -> TenantAccount:
        """The tenant's account, auto-registered with no limits."""
        return self.register_tenant(name)

    def tenant_metrics(self) -> dict[str, dict]:
        """Per-tenant metric snapshots, keyed by tenant name."""
        return {
            name: account.metrics()
            for name, account in sorted(self._tenants.items())
        }

    # -- subscriptions ---------------------------------------------------------

    @property
    def subscriptions(self) -> list[Subscription]:
        """Live subscriptions, in registration order."""
        return [s for s in self._subs.values() if not s.cancelled]

    def subscribe(
        self,
        query: Union[TreePattern, str],
        document: Union[Document, Node, str],
        *,
        tenant: str = "default",
        name: Optional[str] = None,
        eager: bool = True,
        **unexpected,
    ) -> Subscription:
        """Register a standing query and return its :class:`Subscription`.

        ``query``/``document`` accept the same shapes as
        ``repro.evaluate`` (pattern or string; document, root node or
        XML text).  ``eager`` evaluates immediately (outside admission
        — materialisation cost belongs to subscribe, not to a round);
        the initial answer, if any, is the stream's first delta.
        """
        reject_engine_kwargs("QueryServer.subscribe", unexpected)
        if isinstance(query, str):
            query = parse_pattern(query, name=name)
        if isinstance(document, str):
            document = parse_document(document)
        elif isinstance(document, Node):
            document = build_document(document)
        account = self.tenant(tenant)
        sub_id = next(self._sub_ids)
        core = ContinuousQuery(self.engine, query, document, eager=False)
        sub = Subscription(
            self,
            core,
            sub_id=sub_id,
            name=name or query.name or f"sub-{sub_id}",
            tenant=tenant,
        )
        served = self._docs.get(id(document))
        if served is None:
            served = self._docs[id(document)] = _ServedDocument()
        served.subs[sub_id] = sub
        self._subs[sub_id] = sub
        if eager:
            before = len(self.bus.log.records)
            started = time.perf_counter()
            core.refresh()
            self.clock.charge(time.perf_counter() - started)
            account.invocations_total += len(self.bus.log.records) - before
            sub._emit(self.clock.now(), round_index=-1)
        return sub

    def cancel(self, sub: Subscription) -> None:
        """End ``sub``: its verdict, its analysis and store holds go."""
        if sub.cancelled:
            return
        sub.cancelled = True
        served = self._docs[id(sub.document)]
        del served.subs[sub.id]
        analysis = sub._core.analysis
        if analysis in served.verdicts and not any(
            twin._core.analysis is analysis for twin in served.subs.values()
        ):
            del served.verdicts[analysis]  # the shape's last subscriber
        if not served.subs:
            del self._docs[id(sub.document)]
        sub._core.close()
        del self._subs[sub.id]

    # -- rounds ----------------------------------------------------------------

    def _due_subscriptions(self) -> list[Subscription]:
        now = self.clock.now()
        due = []
        for sub in self._subs.values():
            if sub.cancelled or not sub.is_stale:
                continue
            if sub._due_seq is None:
                sub._due_seq = next(self._due_seqs)
                sub._due_at = now
            due.append(sub)
        due.sort(
            key=lambda s: (self._tenants[s.tenant].policy.priority, s._due_seq)
        )
        return due

    def run_round(self) -> RoundReport:
        """Serve every due subscription once (FIFO within priority)."""
        index = self.rounds_run
        self.rounds_run += 1
        for account in self._tenants.values():
            account.begin_round()
        started = self.clock.now()
        due = self._due_subscriptions()
        probes_before = self.probes
        outcomes = []
        with self.tracer.span(
            SERVE_ROUND,
            round=index,
            due=len(due),
            subscriptions=len(self._subs),
        ) as span:
            for sub in due:
                outcomes.append(self._serve(sub, index))
            if span is not None:
                counts = {}
                for outcome in outcomes:
                    counts[outcome.status.value] = (
                        counts.get(outcome.status.value, 0) + 1
                    )
                span.tags.update(counts)
                span.tags["group_passes"] = self.probes - probes_before
        return RoundReport(
            index=index,
            started_s=started,
            ended_s=self.clock.now(),
            outcomes=tuple(outcomes),
        )

    def refresh_one(self, sub: Subscription) -> RefreshOutcome:
        """Serve one subscription on demand (admission still applies).

        Round budgets are those of the current round window — calling
        this between rounds spends the same per-round allowances the
        next :meth:`run_round` would reset.
        """
        if sub.cancelled:
            raise ValueError(f"subscription {sub.name!r} is cancelled")
        if not sub.is_stale:
            outcome = RefreshOutcome(
                subscription_id=sub.id,
                subscription_name=sub.name,
                tenant=sub.tenant,
                status=RefreshStatus.FRESH,
                latency_s=0.0,
                rows=len(sub.rows),
                document_version=sub.document.version,
            )
            self._tenants[sub.tenant].record(outcome)
            return outcome
        if sub._due_seq is None:
            sub._due_seq = next(self._due_seqs)
            sub._due_at = self.clock.now()
        return self._serve(sub, self.rounds_run - 1)

    def _quiet(self, sub: Subscription) -> bool:
        """Would ``sub``'s engine refresh invoke nothing on the current
        document?  The engine's own answer (:meth:`~repro.lazy.engine.
        LazyQueryEvaluator.is_quiet`), asked once per query shape per
        document version, typed or not."""
        analysis = sub._core.analysis
        document = sub.document
        served = self._docs[id(document)]
        if served.version != document.version:
            # One sweep per version, not per shape.
            served.has_immediate = document.has_immediate_calls()
            served.has_live = any(
                c.activation is not Activation.FROZEN
                for c in document.arena.function_nodes()
            )
            served.verdicts.clear()
            served.version = document.version
        if served.has_immediate:
            return False  # fires before any layer is looked at
        if not served.has_live:
            return True  # nothing any family could retrieve
        if not analysis.family():
            return False  # NAIVE: any live call is relevant
        verdict = served.verdicts.get(analysis)
        if verdict is None:
            with self.tracer.span(GROUP_PASS, query=sub.query.name) as span:
                verdict = self.engine.is_quiet(sub.query, document, analysis)
                if span is not None:
                    span.tags["quiet"] = verdict
            self.probes += 1
            served.verdicts[analysis] = verdict
        return verdict

    def _serve(self, sub: Subscription, round_index: int) -> RefreshOutcome:
        """Serve one due subscription: fast path, engine, or deferral."""
        account = self._tenants[sub.tenant]
        core = sub._core
        started_wall = time.perf_counter()
        invoked = 0
        with self.tracer.span(
            SERVE_REFRESH, subscription=sub.name, tenant=sub.tenant
        ) as span:
            # The guard first: a subscriber every splice since missed is
            # current without a probe.  The status is the branch that
            # served.
            if core.serve_unchanged() is not None:
                status = RefreshStatus.SKIPPED
            elif self._quiet(sub) and core.serve_maintained() is not None:
                status = RefreshStatus.MAINTAINED
            else:
                reason = account.admit_engine()
                if reason is None:
                    before = len(self.bus.log.records)
                    core.refresh()
                    invoked = len(self.bus.log.records) - before
                    account.charge_engine(invoked)
                    status = RefreshStatus.EVALUATED
                else:
                    status = RefreshStatus.DEFERRED
                    if span is not None:
                        span.tags["deferred"] = reason
        self.clock.charge(time.perf_counter() - started_wall)
        now = self.clock.now()
        if status is RefreshStatus.DEFERRED:
            outcome = RefreshOutcome(
                subscription_id=sub.id,
                subscription_name=sub.name,
                tenant=sub.tenant,
                status=status,
                reason=reason,
                rows=len(sub.rows),
                document_version=sub.document.version,
            )
        else:
            added = removed = 0
            if status is not RefreshStatus.SKIPPED:
                added, removed = sub._emit(now, round_index)
            latency = now - (sub._due_at if sub._due_at is not None else now)
            sub._due_seq = None
            sub._due_at = None
            outcome = RefreshOutcome(
                subscription_id=sub.id,
                subscription_name=sub.name,
                tenant=sub.tenant,
                status=status,
                latency_s=latency,
                invocations=invoked,
                rows=len(sub.rows),
                delta_added=added,
                delta_removed=removed,
                document_version=sub.document.version,
            )
        account.record(outcome)
        return outcome

    def close(self) -> None:
        """Cancel every subscription and detach all document state."""
        for sub in list(self._subs.values()):
            self.cancel(sub)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryServer(subscriptions={len(self._subs)}, "
            f"tenants={len(self._tenants)}, rounds={self.rounds_run})"
        )
