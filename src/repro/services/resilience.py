"""Resilient invocation policies: retry, backoff, circuit breaking.

The paper's experiments assume well-behaved services; a production AXML
evaluator cannot.  Remote services time out, flake and fail — and
because invoking a call *rewrites the document* (Definition 2), a
mishandled fault silently changes query answers.  This module holds the
policy objects of the resilience layer:

* :class:`RetryPolicy` — bounded re-attempts with exponential backoff
  and *deterministic* jitter (simulations must stay reproducible), plus
  an optional per-call simulated timeout;
* :class:`CircuitBreaker` — a per-service CLOSED/OPEN/HALF_OPEN state
  machine that stops hammering a service after a run of consecutive
  faults and probes it again after a simulated cool-down;
* :class:`ResilientOutcome` — what one resilient invocation did: its
  reply or last fault, breaker activity, and its attempts' log records,
  the one account of their cost (bytes, time, waits) that the engine's
  metrics are summed from.

* :class:`InvocationPolicy` — the retry policy and the (optional)
  breaker policy bundled into the one object
  :meth:`repro.services.registry.ServiceBus.invoke` accepts.

The mechanics (the attempt loop itself) live on
:meth:`repro.services.registry.ServiceBus.invoke`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Optional, TYPE_CHECKING

from .catalog import ServiceFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import CallReply
    from .simulation import InvocationRecord


class CircuitOpenFault(ServiceFault):
    """Raised when a service's circuit breaker short-circuits the call.

    No network traffic happens (and nothing is logged): the breaker
    answers *instead of* the service.
    """

    def __init__(self, service_name: str) -> None:
        super().__init__(f"circuit breaker open for service {service_name!r}")
        self.service_name = service_name


def deterministic_jitter(seed: int, key: str, attempt: int) -> float:
    """A reproducible pseudo-random unit float for backoff jitter.

    Hash-derived rather than drawn from a shared RNG so that the jitter
    of one call never depends on how many other calls ran before it —
    simulated times stay comparable across strategies.
    """
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) a faulted invocation is re-attempted.

    ``max_attempts`` bounds the total tries (1 = no retry).  The wait
    before attempt ``k`` (k >= 2) is::

        min(base_backoff_s * backoff_multiplier**(k - 2), max_backoff_s)
            * (1 + jitter_fraction * jitter)

    with ``jitter`` a deterministic unit float derived from
    ``(jitter_seed, service name, k)``.  ``timeout_s``, when set, is the
    simulated per-attempt deadline: an attempt whose simulated time
    (latency + transfer) exceeds it is charged exactly ``timeout_s`` and
    counted as a :class:`~repro.services.catalog.TimeoutFault`.  The
    simulated clock only runs forward: negative waits and a deadline
    that is not positive are refused.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.1
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 5.0
    jitter_fraction: float = 0.1
    jitter_seed: int = 2004
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        for name in ("base_backoff_s", "max_backoff_s", "jitter_fraction"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def backoff_before(self, attempt: int, key: str = "") -> float:
        """Simulated seconds to wait before attempt ``attempt`` (>= 2)."""
        if attempt < 2:
            return 0.0
        base = self.base_backoff_s * self.backoff_multiplier ** (attempt - 2)
        base = min(base, self.max_backoff_s)
        jitter = deterministic_jitter(self.jitter_seed, key, attempt)
        return base * (1.0 + self.jitter_fraction * jitter)


@dataclasses.dataclass(frozen=True)
class InvocationPolicy:
    """Everything the bus needs to know to invoke one call resiliently.

    The single policy object of the unified
    :meth:`~repro.services.registry.ServiceBus.invoke` entry point:
    bundles the retry/backoff/timeout loop with the (optional)
    per-service circuit breaker.  The default is the resilient
    default — three attempts, no breaker.
    """

    retry: RetryPolicy = RetryPolicy()
    breaker: Optional["CircuitBreakerPolicy"] = None

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"InvocationPolicy.retry must be a RetryPolicy, "
                f"got {type(self.retry).__name__}"
            )


class BreakerState(enum.Enum):
    """The classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclasses.dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Per-service breaker tunables.

    ``failure_threshold`` consecutive faults open the circuit; while
    open, invocations short-circuit with :class:`CircuitOpenFault`.
    After ``reset_after_s`` simulated seconds the breaker half-opens and
    lets one probe through: success closes it, a fault re-opens it.
    ``reset_after_s=None`` keeps an open breaker open forever (until
    :meth:`CircuitBreaker.reset`).
    """

    failure_threshold: int = 5
    reset_after_s: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")


class CircuitBreaker:
    """Consecutive-fault breaker for one service (state lives on the bus)."""

    def __init__(self, policy: CircuitBreakerPolicy) -> None:
        self.policy = policy
        self.state = BreakerState.CLOSED
        self.consecutive_faults = 0
        self.opened_at_s: Optional[float] = None
        self.trips = 0

    def allow(self, now_s: float) -> bool:
        """May an invocation proceed at simulated time ``now_s``?"""
        if self.state is BreakerState.OPEN:
            reset_after = self.policy.reset_after_s
            if (
                reset_after is not None
                and self.opened_at_s is not None
                and now_s >= self.opened_at_s + reset_after
            ):
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_faults = 0
        self.opened_at_s = None

    def record_failure(self, now_s: float) -> bool:
        """Account one fault; returns True when this fault trips the breaker."""
        self.consecutive_faults += 1
        should_open = (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_faults >= self.policy.failure_threshold
        )
        if should_open and self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self.opened_at_s = now_s
            self.trips += 1
            return True
        return False

    def reset(self) -> None:
        self.record_success()

    def clone(self) -> "CircuitBreaker":
        """An independent copy of the current state.

        Concurrent batch dispatch gates every call of a batch against
        the breaker state *at dispatch time*: each call retries against
        its own clone (a sibling's trip cannot retroactively reject a
        call already in flight) and the clones' fault/success events are
        merged back into the shared breaker afterwards.
        """
        twin = CircuitBreaker(self.policy)
        twin.state = self.state
        twin.consecutive_faults = self.consecutive_faults
        twin.opened_at_s = self.opened_at_s
        twin.trips = self.trips
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self.state.value}, "
            f"faults={self.consecutive_faults}, trips={self.trips})"
        )


@dataclasses.dataclass
class ResilientOutcome:
    """Everything one resilient invocation did, successful or not.

    ``records`` are its attempts as the bus logged them, in order: what
    it cost lives there and nowhere else.  ``reply`` is None when every
    attempt faulted (or the breaker short-circuited); ``fault`` then
    holds the last exception.
    """

    reply: Optional["CallReply"] = None
    records: list["InvocationRecord"] = dataclasses.field(default_factory=list)
    fault: Optional[ServiceFault] = None
    short_circuited: bool = False
    cache_hit: bool = False
    """The reply came from the bus's :class:`~repro.services.scheduler.
    CallCache`: no attempt ran, nothing was shipped or logged (a hit
    costs zero simulated time)."""
    breaker_trips: int = 0

    @property
    def succeeded(self) -> bool:
        return self.reply is not None

    @property
    def record(self) -> Optional["InvocationRecord"]:
        """The attempt that brought the reply (None without one)."""
        return self.records[-1] if self.records and self.succeeded else None

    @property
    def simulated_time_s(self) -> float:
        """Total simulated time of the attempts and the waits between."""
        return sum((r.simulated_time_s + r.backoff_s for r in self.records), 0.0)
