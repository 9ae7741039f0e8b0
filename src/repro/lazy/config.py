"""Engine configuration: strategies and tunables."""

from __future__ import annotations

import dataclasses
import difflib
import enum
from typing import Optional, Union

from ..obs.trace import NullTracer, TraceSink, Tracer
from ..services.resilience import CircuitBreakerPolicy, RetryPolicy
from ..services.service import PushMode


class Strategy(enum.Enum):
    """The evaluation strategies compared throughout the paper.

    * ``NAIVE`` — Section 1's strawman: invoke every call recursively to
      a fixpoint, then run the query on the materialised document.
    * ``LAZY_LPQ`` — relevant-call detection with linear path queries
      (Section 3.1; also the "relaxed NFQ" end of Section 6.1).
      Section 1's "less naive" top-down baseline — invoke, one at a
      time and restarting after each, every call on a path the query
      traverses — is this strategy written out un-layered and
      sequential: ``EngineConfig(strategy="lazy-lpq", use_layers=False,
      parallel=False)``.
    * ``LAZY_NFQ`` — node-focused queries (Section 3.2): exact relevance
      under the any-output assumption (Proposition 1).  Section 5's
      refinement by function signatures is a mode of the NFQs, not a
      fourth strategy: :attr:`EngineConfig.typing`.
    """

    NAIVE = "naive"
    LAZY_LPQ = "lazy-lpq"
    LAZY_NFQ = "lazy-nfq"


#: The fields a strategy never reads: under it, anything but the
#: field's default is refused rather than silently ignored.  ``NAIVE``
#: has no relevance family (no layers, no round width, no pushed
#: targets, nothing to relax or type); LPQs carry no value joins to
#: drop and no conditions to refine by type.
UNREAD_FIELDS: dict[Strategy, tuple[str, ...]] = {
    Strategy.NAIVE: (
        "typing",
        "use_layers",
        "parallel",
        "push_mode",
        "drop_value_joins",
    ),
    Strategy.LAZY_LPQ: ("typing", "drop_value_joins"),
    Strategy.LAZY_NFQ: (),
}


class TypingMode(enum.Enum):
    """Which satisfiability oracle refines the NFQs (Sections 5, 6.1);
    anything but ``NONE`` needs ``Strategy.LAZY_NFQ``."""

    NONE = "none"
    LENIENT = "lenient"
    EXACT = "exact"


class FaultPolicy(enum.Enum):
    """What to do with a call whose last attempt failed (how many
    attempts it gets is :attr:`EngineConfig.retry`, under either).

    * ``RAISE`` — propagate the fault to the caller (the default);
    * ``FREEZE`` — mark the faulted call (or one short-circuited by an
      open breaker) :attr:`~repro.axml.node.Activation.FROZEN` and
      continue: the document keeps the intensional call, answers
      degrade to "what the available data supports", and nothing is
      lost.
    """

    RAISE = "raise"
    FREEZE = "freeze"


@dataclasses.dataclass(kw_only=True)
class EngineConfig:
    """Tunables of :class:`repro.lazy.engine.LazyQueryEvaluator`.

    Defaults reproduce the paper's full system: layered NFQA with
    exact parallel rounds, no pushing (opt in), untyped — the one-shot
    front doors given a schema type by it (:meth:`one_shot`), a config
    written out is obeyed as written.  Relevance retrieval
    has no knob: every read goes through the document's store (the
    Section 6.2 F-guide is :class:`~repro.lazy.fguide.FGuide`, a
    measured reference, not an engine path).

    All fields are keyword-only and validated on construction — a bad
    value fails immediately with the offending field named, instead of
    surfacing deep inside the engine.  Construction only coerces and
    validates: no field is rewritten from another, and a field the
    strategy never reads (:data:`UNREAD_FIELDS`) must keep its default.
    """

    strategy: Strategy = Strategy.LAZY_NFQ
    typing: TypingMode = TypingMode.NONE
    use_layers: bool = True
    parallel: bool = True
    push_mode: PushMode = PushMode.NONE
    drop_value_joins: bool = False
    fault_policy: FaultPolicy = FaultPolicy.RAISE
    retry: RetryPolicy = RetryPolicy(max_attempts=1)
    """Attempts per call, the backoff between them and the per-attempt
    deadline, read under every ``fault_policy`` and handed to the bus
    as written.  The default makes one attempt."""
    breaker: Optional[CircuitBreakerPolicy] = CircuitBreakerPolicy()
    """Per-service circuit breaking; ``None`` disables it.  Breaker
    *state* lives on the bus, so it persists across evaluations that
    share a :class:`~repro.services.registry.ServiceBus`."""
    validate_io: bool = False
    """Validate call parameters against the service input type before
    invoking, and (un-pushed) results against the output type after —
    the [21] interplay the paper's introduction describes.  Violations
    follow ``fault_policy``: raise a SchemaError, or count-and-continue.
    """
    max_invocations: int = 100_000
    max_concurrency: Optional[int] = None
    """Simulated workers per invocation round: the round's calls are
    list-scheduled onto them and the round costs the schedule's
    *makespan* on the bus clock (Section 4.4's non-blocking independent
    calls).  ``None`` (the default) is one worker per call — a round
    costs its slowest call; 1 is the serial clock, where nothing
    overlaps and breakers gate call by call."""
    call_cache: Union[bool, float] = False
    """Memoize call replies on the bus (service + argument-forest
    digest): duplicate calls cost zero simulated time.  ``False`` is
    off, ``True`` the bus's cache (a new one with no expiry if it has
    none), a positive number on with replies expiring after that many
    *simulated* seconds — refused when the bus already carries a cache
    with another expiry.  Opt-in because it assumes services are
    functions of their parameters."""
    trace: Union[TraceSink, Tracer, NullTracer, None] = None
    """Where evaluation spans go: a :class:`repro.obs.TraceSink` (the
    engine wraps a tracer around it, binding the simulated clock to the
    bus), an existing :class:`repro.obs.Tracer`, or ``None`` (tracing
    off, the default — near-zero overhead)."""

    _BOOL_FIELDS = (
        "use_layers",
        "parallel",
        "drop_value_joins",
        "validate_io",
    )

    def __post_init__(self) -> None:
        # Enum-valued fields accept the enum's string value ("freeze",
        # "lazy-nfq"...): a plain string would compare unequal to the
        # enum and silently change semantics; coerce or fail loudly,
        # naming the field.
        self.strategy = self._coerce_enum("strategy", Strategy, self.strategy)
        self.typing = self._coerce_enum("typing", TypingMode, self.typing)
        self.push_mode = self._coerce_enum("push_mode", PushMode, self.push_mode)
        self.fault_policy = self._coerce_enum(
            "fault_policy", FaultPolicy, self.fault_policy
        )
        for name in self._BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise TypeError(
                    f"EngineConfig.{name} must be a bool, "
                    f"got {getattr(self, name)!r}"
                )
        bounds = ["max_invocations"]
        if self.max_concurrency is not None:
            bounds.append("max_concurrency")
        for name in bounds:
            bound = getattr(self, name)
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
                raise ValueError(
                    f"EngineConfig.{name} must be a positive integer, "
                    f"got {bound!r}"
                )
        cache = self.call_cache
        if not isinstance(cache, bool) and not (
            isinstance(cache, (int, float)) and cache > 0
        ):
            raise ValueError(
                f"EngineConfig.call_cache must be False, True or a positive "
                f"expiry in simulated seconds, got {cache!r}"
            )
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for name in UNREAD_FIELDS[self.strategy]:
            value = getattr(self, name)
            if value != defaults[name]:
                raise ValueError(
                    f"EngineConfig.{name}={_spelled(value)} is never read "
                    f"under strategy={self.strategy.value!r} (leave it at "
                    f"{_spelled(defaults[name])})"
                )
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"EngineConfig.retry must be a RetryPolicy, got {self.retry!r}"
            )
        if self.breaker is not None and not isinstance(
            self.breaker, CircuitBreakerPolicy
        ):
            raise TypeError(
                f"EngineConfig.breaker must be a CircuitBreakerPolicy "
                f"or None, got {self.breaker!r}"
            )
        if self.trace is not None and not (
            isinstance(self.trace, (Tracer, NullTracer))
            or hasattr(self.trace, "on_span_end")
        ):
            raise TypeError(
                f"EngineConfig.trace must be a TraceSink, a Tracer or "
                f"None, got {self.trace!r}"
            )

    @staticmethod
    def _coerce_enum(name, enum_type, value):
        if isinstance(value, enum_type):
            return value
        try:
            return enum_type(value)
        except ValueError:
            choices = ", ".join(repr(member.value) for member in enum_type)
            raise ValueError(
                f"EngineConfig.{name} must be a {enum_type.__name__} "
                f"(or one of {choices}), got {value!r}"
            ) from None

    @classmethod
    def one_shot(cls, *, schema_given: bool, **kwargs) -> "EngineConfig":
        """The config a one-shot front door (``repro.evaluate``,
        ``repro-axml eval``) writes when its caller wrote none.

        A given schema is used: the NFQs refine by it (Section 5) under
        ``LENIENT`` typing, the paper's PTIME test (Section 6.1), which
        prunes what ``EXACT`` prunes on the hotels workload.  Without a
        schema, and under ``NAIVE`` / ``LAZY_LPQ`` (nothing to refine),
        the plain defaults stand.  A ``typing=`` in ``kwargs`` wins, so
        ``NONE`` stays expressible.
        """
        strategy = cls._coerce_enum(
            "strategy", Strategy, kwargs.get("strategy", Strategy.LAZY_NFQ)
        )
        if schema_given and strategy is Strategy.LAZY_NFQ:
            kwargs.setdefault("typing", TypingMode.LENIENT)
        return cls(**kwargs)

    @classmethod
    def serving(cls, **kwargs) -> "EngineConfig":
        """The preset for long-lived standing queries behind a
        :class:`~repro.serve.QueryServer` (or ``repro.subscribe``).

        Everything the serving layer leans on is switched on at once:
        the bus-level call cache, a concurrent invocation scheduler, and
        the non-raising ``FREEZE`` fault policy — a server must degrade,
        not raise.  (Answer maintenance is not a choice: it is how every
        standing query refreshes.)  Every choice can be overridden by
        keyword, e.g. ``EngineConfig.serving(call_cache=30.0)``.
        """
        kwargs.setdefault("call_cache", True)
        kwargs.setdefault("max_concurrency", 4)
        kwargs.setdefault("fault_policy", FaultPolicy.FREEZE)
        return cls(**kwargs)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Every configurable field, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def nearest_field(cls, name: str) -> Optional[str]:
        """The configured field whose name is closest to ``name``.

        The serving entry points accept exactly one ``config=`` object
        and no loose engine kwargs; when a caller passes one anyway
        (``QueryServer(..., call_caching=True)``), the rejection
        names the nearest real :class:`EngineConfig` field — the same
        fail-loudly-naming-the-field contract ``__post_init__``
        applies to bad values.
        """
        matches = difflib.get_close_matches(
            name, cls.field_names(), n=1, cutoff=0.4
        )
        return matches[0] if matches else None

    @property
    def label(self) -> str:
        parts = [self.strategy.value]
        if self.typing is not TypingMode.NONE:
            parts.append(self.typing.value)
        if self.drop_value_joins:
            parts.append("relaxed")
        if not self.use_layers:
            parts.append("unlayered")
        if not self.parallel:
            parts.append("sequential")
        if self.push_mode is not PushMode.NONE:
            parts.append(f"push-{self.push_mode.value}")
        if self.max_concurrency is not None:
            parts.append(f"conc{self.max_concurrency}")
        if self.call_cache:
            parts.append("cache")
        return "+".join(parts)


def _spelled(value) -> str:
    """A field value as the caller would write it."""
    return repr(value.value if isinstance(value, enum.Enum) else value)
