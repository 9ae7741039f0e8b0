"""Admission control and per-tenant accounting for the serving layer.

A :class:`~repro.serve.QueryServer` hosts many tenants on one shared
`ServiceBus`; without admission control one tenant whose standing
queries keep triggering invocations (a "noisy neighbor") would spend
the round's wall-clock and simulated budget for everyone.  The QoS
model here is deliberately simple and fully deterministic:

* every tenant has a :class:`TenantPolicy` — an *invocation budget* and
  an *engine-refresh cap* per round, plus a scheduling priority;
* due refreshes are served **FIFO within priority** (lower priority
  number first; within one priority, in the order the subscriptions
  became due);
* a refresh that would run the engine past its tenant's budget or
  inflight cap is **deferred** with a typed
  :class:`RefreshOutcome` (status ``DEFERRED``, reason ``"budget"`` or
  ``"inflight"``) and retried — first in line — next round.  Refreshes
  answered without the engine (guard-screened skips, maintained
  serves) spend no budget and are never deferred.

These caps layer *on top of* the bus's circuit breakers: breakers
protect services from failing callers, budgets protect tenants from
each other.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional


class RefreshStatus(enum.Enum):
    """How one due refresh was served (or not) by a round.

    * ``FRESH`` — the document had not changed; nothing to do.
    * ``SKIPPED`` — changed, but every delta guard-screened clean: the
      cached outcome is provably current (PR-6's engine skip).
    * ``MAINTAINED`` — the engine's quiet probe proved the relevance
      family quiet; the answer was served from the
      :class:`~repro.lazy.answers.AnswerCache` (dirty scopes re-matched
      in place), no engine run.
    * ``EVALUATED`` — the engine ran in full (and possibly invoked).
    * ``DEFERRED`` — admission refused the engine run this round
      (``reason`` says why); the subscription stays due.
    """

    FRESH = "fresh"
    SKIPPED = "skipped"
    MAINTAINED = "maintained"
    EVALUATED = "evaluated"
    DEFERRED = "deferred"


@dataclasses.dataclass(frozen=True)
class RefreshOutcome:
    """The typed result of serving (or deferring) one due refresh."""

    subscription_id: int
    subscription_name: str
    tenant: str
    status: RefreshStatus
    reason: Optional[str] = None
    """Why a ``DEFERRED`` refresh was deferred: ``"budget"`` or
    ``"inflight"``; ``None`` for served refreshes."""
    latency_s: Optional[float] = None
    """Serving-clock seconds from the moment the subscription became
    due to the moment it was served; ``None`` while deferred."""
    invocations: int = 0
    """Service invocations charged to the tenant by this refresh."""
    rows: int = 0
    """Answer size after the refresh."""
    delta_added: int = 0
    delta_removed: int = 0
    document_version: int = 0

    @property
    def served(self) -> bool:
        """True unless the refresh was deferred."""
        return self.status is not RefreshStatus.DEFERRED


@dataclasses.dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant QoS knobs, all optional (``None`` = unlimited)."""

    invocation_budget: Optional[int] = None
    """Once a round has charged this many invocations to the tenant,
    further engine refreshes are deferred to the next round.  The last
    admitted refresh may overrun (invocation counts are only known
    after the fact); the overrun still counts against the budget."""
    max_inflight: Optional[int] = None
    """Maximum engine refreshes per tenant per round — a cap on how
    much of the (serial, simulated) round one tenant may occupy."""
    priority: int = 0
    """Scheduling class: lower numbers are served first.  Within one
    priority, due refreshes are FIFO by the order they became due."""

    def __post_init__(self) -> None:
        for name in ("invocation_budget", "max_inflight"):
            bound = getattr(self, name)
            if bound is not None and (
                not isinstance(bound, int)
                or isinstance(bound, bool)
                or bound < 1
            ):
                raise ValueError(
                    f"TenantPolicy.{name} must be a positive integer or "
                    f"None, got {bound!r}"
                )
        if not isinstance(self.priority, int) or isinstance(
            self.priority, bool
        ):
            raise TypeError(
                f"TenantPolicy.priority must be an int, got "
                f"{self.priority!r}"
            )


def quantile(values: list[float], q: float) -> float:
    """The empirical ``q``-quantile (nearest-rank), 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class TenantAccount:
    """One tenant's live admission state and cumulative metrics."""

    def __init__(self, name: str, policy: Optional[TenantPolicy] = None):
        self.name = name
        self.policy = policy or TenantPolicy()
        # Per-round admission state (reset by begin_round).
        self.round_invocations = 0
        self.round_engine_runs = 0
        # Cumulative accounting.
        self.refreshes = 0
        self.by_status: dict[str, int] = {
            status.value: 0 for status in RefreshStatus
        }
        self.invocations_total = 0
        self.latencies_s: list[float] = []
        self.rows_delivered = 0
        """Delta rows (added + removed) streamed to this tenant."""

    def begin_round(self) -> None:
        """Reset the per-round budget/inflight counters."""
        self.round_invocations = 0
        self.round_engine_runs = 0

    def admit_engine(self) -> Optional[str]:
        """May this tenant run one more engine refresh this round?

        Returns ``None`` when admitted, else the deferral reason.
        """
        policy = self.policy
        if (
            policy.max_inflight is not None
            and self.round_engine_runs >= policy.max_inflight
        ):
            return "inflight"
        if (
            policy.invocation_budget is not None
            and self.round_invocations >= policy.invocation_budget
        ):
            return "budget"
        return None

    def charge_engine(self, invocations: int) -> None:
        """Account one admitted engine refresh and its invocations."""
        self.round_engine_runs += 1
        self.round_invocations += invocations
        self.invocations_total += invocations

    def record(self, outcome: RefreshOutcome) -> None:
        """Fold one refresh outcome into the cumulative metrics."""
        self.refreshes += 1
        self.by_status[outcome.status.value] += 1
        if outcome.latency_s is not None:
            self.latencies_s.append(outcome.latency_s)
        self.rows_delivered += outcome.delta_added + outcome.delta_removed

    def latency_quantile(self, q: float) -> float:
        """Served-refresh latency quantile (serving-clock seconds)."""
        return quantile(self.latencies_s, q)

    def metrics(self) -> dict:
        """A snapshot dict — what the CLI and benchmarks report."""
        return {
            "tenant": self.name,
            "refreshes": self.refreshes,
            **self.by_status,
            "invocations": self.invocations_total,
            "rows_delivered": self.rows_delivered,
            "p50_latency_s": self.latency_quantile(0.50),
            "p99_latency_s": self.latency_quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantAccount({self.name!r}, refreshes={self.refreshes}, "
            f"invocations={self.invocations_total})"
        )
