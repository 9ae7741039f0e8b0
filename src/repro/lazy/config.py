"""Engine configuration: strategies and tunables."""

from __future__ import annotations

import dataclasses
import difflib
import enum
from typing import Optional, Union

from ..obs.trace import NullTracer, TraceSink, Tracer
from ..pattern.match import MatchOptions
from ..services.resilience import CircuitBreakerPolicy, RetryPolicy
from ..services.service import PushMode


class Strategy(enum.Enum):
    """The evaluation strategies compared throughout the paper.

    * ``NAIVE`` — Section 1's strawman: invoke every call recursively to
      a fixpoint, then run the query on the materialised document.
    * ``TOP_DOWN`` — Section 1's "less naive" baseline: traverse the
      document top-down along the query paths, invoking (sequentially,
      with restarts) every call encountered on a traversed path.  Its
      invocation set coincides with the LPQ criterion, but it neither
      batches nor parallelises.
    * ``LAZY_LPQ`` — relevant-call detection with linear path queries
      (Section 3.1; also the "relaxed NFQ" end of Section 6.1).
    * ``LAZY_NFQ`` — node-focused queries (Section 3.2): exact relevance
      under the any-output assumption (Proposition 1).
    * ``LAZY_NFQ_TYPED`` — NFQs refined with function signatures
      (Section 5): exact relevance.
    """

    NAIVE = "naive"
    TOP_DOWN = "top-down"
    LAZY_LPQ = "lazy-lpq"
    LAZY_NFQ = "lazy-nfq"
    LAZY_NFQ_TYPED = "lazy-nfq-typed"


class TypingMode(enum.Enum):
    """Which satisfiability oracle refines the NFQs (Sections 5, 6.1)."""

    NONE = "none"
    LENIENT = "lenient"
    EXACT = "exact"


class FaultPolicy(enum.Enum):
    """What to do when a service invocation fails.

    * ``RAISE`` — propagate the fault to the caller (the default);
    * ``SKIP`` — legacy tolerance: *delete* the faulted call's subtree
      and continue.  Lossy — a transient blip changes query answers —
      and kept only for backward compatibility behind this explicit
      policy;
    * ``FREEZE`` — mark the faulted call
      :attr:`~repro.axml.node.Activation.FROZEN` and continue: the
      document keeps the intensional call, answers degrade to "what the
      available data supports", and nothing is lost.  The recommended
      (and default) non-raising policy;
    * ``RETRY`` — re-attempt per :class:`EngineConfig.retry` with
      backoff; calls still failing after the last attempt (or
      short-circuited by an open breaker) are frozen, as in ``FREEZE``.
    """

    RAISE = "raise"
    SKIP = "skip"
    FREEZE = "freeze"
    RETRY = "retry"

    @classmethod
    def default_non_raising(cls) -> "FaultPolicy":
        """The policy tolerant configurations should reach for."""
        return cls.FREEZE


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
    surfacing deep inside the engine.
    """

    strategy: Strategy = Strategy.LAZY_NFQ
    typing: TypingMode = TypingMode.NONE
    use_layers: bool = True
    parallel: bool = True
    push_mode: PushMode = PushMode.NONE
    dedupe_relevance_queries: bool = True
    drop_value_joins: bool = False
    fault_policy: FaultPolicy = FaultPolicy.RAISE
    retry: RetryPolicy = RetryPolicy()
    """Retry/backoff/timeout tunables, active under
    ``FaultPolicy.RETRY`` (other policies make a single attempt, though
    ``retry.timeout_s`` still bounds it)."""
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
    max_rounds: int = 100_000
    max_concurrency: Optional[int] = None
    """Simulated workers per invocation round: the round's calls are
    list-scheduled onto them and the round costs the schedule's
    *makespan* on the bus clock (Section 4.4's non-blocking independent
    calls).  ``None`` (the default) is one worker per call — a round
    costs its slowest call; 1 is the serial clock, where nothing
    overlaps and breakers gate call by call."""
    call_cache: bool = False
    """Memoize call replies on the bus (service + argument-forest
    digest): duplicate calls cost zero simulated time.  Opt-in because
    it assumes services are functions of their parameters."""
    maintain_answers: bool = False
    """Delta-driven answer maintenance for continuous queries
    (``repro.lazy.answers``): materialise the standing query's snapshot
    result per depth-1 document subtree, screen every splice against the
    query's label footprint, and on refresh re-match only the dirty
    subtrees — splicing added/retracted rows into the cached
    :class:`~repro.pattern.match.MatchSet` instead of re-running the
    final match from scratch.  When every delta since the last refresh
    was screened clean against the family's guard footprint, the refresh
    skips the engine entirely.  Never changes answers or invocation
    order; opt-in so full re-evaluation stays available as the
    differential oracle.  Ignored outside
    :class:`~repro.lazy.continuous.ContinuousQuery` (one-shot
    evaluations have no cache to maintain)."""
    call_cache_ttl_s: Optional[float] = None
    """Expiry for memoized replies, in *simulated* seconds (None =
    no expiry).  Requires ``call_cache=True``."""
    match_options: Optional[MatchOptions] = None
    """Embedding-semantics knobs for every matcher the engine builds
    (:class:`~repro.pattern.match.MatchOptions`), so one config object
    can carry the complete evaluation behaviour.  ``None`` (the
    default) means the engine's defaults; passing *both* this and the
    separate ``match_options=`` argument of ``repro.evaluate`` /
    :class:`~repro.lazy.engine.LazyQueryEvaluator` with differing
    values raises instead of silently preferring one."""
    trace: Union[TraceSink, Tracer, NullTracer, None] = None
    """Where evaluation spans go: a :class:`repro.obs.TraceSink` (the
    engine wraps a tracer around it, binding the simulated clock to the
    bus), an existing :class:`repro.obs.Tracer`, or ``None`` (tracing
    off, the default — near-zero overhead)."""

    _BOOL_FIELDS = (
        "use_layers",
        "parallel",
        "dedupe_relevance_queries",
        "drop_value_joins",
        "validate_io",
        "call_cache",
        "maintain_answers",
    )

    def __post_init__(self) -> None:
        # Enum-valued fields accept the enum's string value ("retry",
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
        bounds = ["max_invocations", "max_rounds"]
        if self.max_concurrency is not None:
            bounds.append("max_concurrency")
        for name in bounds:
            bound = getattr(self, name)
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
                raise ValueError(
                    f"EngineConfig.{name} must be a positive integer, "
                    f"got {bound!r}"
                )
        if self.call_cache_ttl_s is not None and (
            not isinstance(self.call_cache_ttl_s, (int, float))
            or isinstance(self.call_cache_ttl_s, bool)
            or self.call_cache_ttl_s <= 0
        ):
            raise ValueError(
                f"EngineConfig.call_cache_ttl_s must be a positive number "
                f"or None, got {self.call_cache_ttl_s!r}"
            )
        if self.call_cache_ttl_s is not None and not self.call_cache:
            raise ValueError(
                "EngineConfig.call_cache_ttl_s needs EngineConfig.call_cache"
                "=True: without the cache there is nothing to expire"
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
        if self.match_options is not None and not isinstance(
            self.match_options, MatchOptions
        ):
            raise TypeError(
                f"EngineConfig.match_options must be a MatchOptions or "
                f"None, got {self.match_options!r}"
            )
        if self.trace is not None and not (
            isinstance(self.trace, (Tracer, NullTracer))
            or hasattr(self.trace, "on_span_end")
        ):
            raise TypeError(
                f"EngineConfig.trace must be a TraceSink, a Tracer or "
                f"None, got {self.trace!r}"
            )
        if self.strategy is Strategy.LAZY_NFQ_TYPED and self.typing is TypingMode.NONE:
            self.typing = TypingMode.LENIENT
        if self.strategy in (Strategy.NAIVE, Strategy.TOP_DOWN):
            self.use_layers = False
        if self.strategy is Strategy.TOP_DOWN:
            self.parallel = False

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
    def tolerant(cls, **kwargs) -> "EngineConfig":
        """A config that survives remote faults without losing data:
        ``FREEZE`` (the non-raising default) unless overridden."""
        kwargs.setdefault("fault_policy", FaultPolicy.default_non_raising())
        return cls(**kwargs)

    @classmethod
    def one_shot(cls, *, schema_given: bool, **kwargs) -> "EngineConfig":
        """The config a one-shot front door (``repro.evaluate``,
        ``repro-axml eval``) writes when its caller wrote none.

        A given schema is used: NFQ strategies refine by it (Section 5)
        under ``LENIENT`` typing, the paper's PTIME test (Section 6.1),
        which prunes what ``EXACT`` prunes on the hotels workload.
        Without a schema, and under ``NAIVE`` / ``TOP_DOWN`` /
        ``LAZY_LPQ`` (nothing to refine), the plain defaults stand.  A
        ``typing=`` in ``kwargs`` wins, so ``NONE`` stays expressible.
        """
        strategy = cls._coerce_enum(
            "strategy", Strategy, kwargs.get("strategy", Strategy.LAZY_NFQ)
        )
        if schema_given and strategy in (
            Strategy.LAZY_NFQ,
            Strategy.LAZY_NFQ_TYPED,
        ):
            kwargs.setdefault("typing", TypingMode.LENIENT)
        return cls(**kwargs)

    @classmethod
    def serving(cls, **kwargs) -> "EngineConfig":
        """The preset for long-lived standing queries behind a
        :class:`~repro.serve.QueryServer` (or ``repro.subscribe``).

        Everything the serving layer leans on is switched on at once:
        delta-driven answer maintenance (engine skips on quiet
        refreshes), the bus-level call cache, a concurrent invocation
        scheduler, and the non-raising ``FREEZE`` fault policy — a
        server must degrade, not raise.  Every choice can be overridden
        by keyword, e.g. ``EngineConfig.serving(call_cache=False)``.
        """
        kwargs.setdefault("maintain_answers", True)
        kwargs.setdefault("call_cache", True)
        kwargs.setdefault("max_concurrency", 4)
        kwargs.setdefault("fault_policy", FaultPolicy.default_non_raising())
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
        (``QueryServer(..., maintain_answer=True)``), the rejection
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
        if self.typing is not TypingMode.NONE and self.strategy not in (
            Strategy.NAIVE,
            Strategy.TOP_DOWN,
        ):
            parts.append(self.typing.value)
        if self.push_mode is not PushMode.NONE:
            parts.append(f"push-{self.push_mode.value}")
        if self.max_concurrency is not None:
            parts.append(f"conc{self.max_concurrency}")
        if self.call_cache:
            parts.append("cache")
        if self.maintain_answers:
            parts.append("ans")
        return "+".join(parts)
