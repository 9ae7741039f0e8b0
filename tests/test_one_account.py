"""One account of an invocation: the ``Metrics`` it feeds, held.

An attempt's cost is written once, on its
:class:`~repro.services.simulation.InvocationRecord` in the bus's log;
the engine derives its faults, retries, waits and bytes from the
evaluation's slice of that log when the evaluation ends.  This module
holds the ``Metrics`` numbers that account feeds (:data:`HELD`) over a
matrix of evaluations to
``tests/data/one_account.json``, so a change to how the numbers are
derived cannot move them, and asserts the identities that tie
``Metrics``, each ``ResilientOutcome`` and the log together.

The matrix: the differential harness's ``CONFIGS`` x ``FAULT_PLANS`` x
``max_concurrency`` {None, 1, 8} x call cache {off, on} over 58
synthetic workloads, plus, over 8 of them, services failing 2 or 3
times under four attempts with jittered backoff (with and without a
breaker at two faults), every other service past a deadline, and a
second evaluation on the bus of a first (its call cache warm, its log
not empty).

Integers, flags and ``simulated_parallel_s`` (the bus clock) must match
the golden file exactly; the other float sums to 1e-12 relative, since
summing the same terms in another grouping may move the last bit.
Regenerate the file only when a change of the numbers is intended:

    PYTHONPATH=src python -m tests.test_one_account
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import pathlib

import pytest

from repro.lazy.config import EngineConfig, FaultPolicy
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.metrics import Metrics
from repro.services.catalog import FailingService, SlowService
from repro.services.registry import InvocationRound, ServiceBus, ServiceRegistry
from repro.services.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.workloads.synthetic import SyntheticWorld

from .test_differential import (
    CONFIGS,
    FAULT_PLANS,
    _plan_config,
    _wrapped_registry,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "one_account.json"

WORKLOADS = tuple((world, doc) for world in range(29) for doc in (0, 1))
FAULTY_WORKLOADS = WORKLOADS[:8]
WIDTHS = (None, 1, 8)
CACHES = (False, True)

RETRYING = RetryPolicy(max_attempts=4, jitter_fraction=0.3)
FAULTY_PLANS = {
    "fail2": (2, None),
    "fail3": (3, None),
    "fail2+breaker": (2, CircuitBreakerPolicy(failure_threshold=2)),
    "fail3+breaker": (3, CircuitBreakerPolicy(failure_threshold=2)),
}
TIMEOUT = RetryPolicy(max_attempts=2, base_backoff_s=0.05, timeout_s=0.5)

#: The numbers held: the accounting derived from the log and the
#: per-call decisions, the relevance identity, and the answer's size.
#: Wall-clock time differs on every run, and ``arena_bytes`` is
#: ``sys.getsizeof`` (which differs across Python versions), so neither
#: is held; nor are the matcher's counters, which no account touches.
HELD = (
    "backoff_s",
    "batch_count",
    "breaker_short_circuits",
    "breaker_trips",
    "bytes_received",
    "bytes_sent",
    "cache_hits",
    "calls_frozen",
    "calls_invoked",
    "completed",
    "failed_attempt_time_s",
    "faults",
    "invocation_rounds",
    "max_batch_width",
    "queries_reevaluated",
    "relevance_cache_hits",
    "relevance_evaluations",
    "result_rows",
    "retries",
    "simulated_parallel_s",
    "simulated_sequential_s",
)
#: Floats that are the bus clock itself: no sum is regrouped there.
EXACT_FLOATS = {"simulated_parallel_s"}


def _registry_and_config(world: SyntheticWorld, plan: str):
    """A fresh registry (failing services keep state) and the plan's
    config overrides."""
    if plan in FAULT_PLANS:
        return _wrapped_registry(world, plan), _plan_config(plan)
    if plan == "again":
        return _registry_and_config(world, "transient")
    base = world.registry()
    if plan == "timeout":
        return (
            ServiceRegistry(
                SlowService(base.resolve(name), extra_latency_s=1.0)
                if i % 2
                else base.resolve(name)
                for i, name in enumerate(base.names())
            ),
            dict(fault_policy=FaultPolicy.FREEZE, retry=TIMEOUT),
        )
    failures, breaker = FAULTY_PLANS[plan]
    return (
        ServiceRegistry(
            FailingService(name, base.resolve(name), failures=failures)
            for name in base.names()
        ),
        dict(fault_policy=FaultPolicy.FREEZE, retry=RETRYING, breaker=breaker),
    )


def _evaluate(world, doc_seed, query, plan, kwargs, width, cache):
    registry, overrides = _registry_and_config(world, plan)
    bus = ServiceBus(registry)
    config = EngineConfig(
        **{**overrides, **kwargs, "max_concurrency": width, "call_cache": cache}
    )
    engine = LazyQueryEvaluator(bus, config=config)
    if plan == "again":
        engine.evaluate(query, world.make_document(doc_seed))
    start = len(bus.log.records)
    outcome = engine.evaluate(query, world.make_document(doc_seed))
    return outcome, bus.log.records[start:]


def evaluations():
    """Every run of the matrix, in a fixed order: ``(key, run)``, where
    ``run()`` evaluates on a fresh bus and document (the ``again`` plan
    a second time) and returns the outcome with the log records of that
    evaluation."""
    for workloads, plans in (
        (WORKLOADS, FAULT_PLANS),
        (FAULTY_WORKLOADS, (*FAULTY_PLANS, "timeout", "again")),
    ):
        for world_seed, doc_seed in workloads:
            world = SyntheticWorld(seed=world_seed)
            query = world.sample_query(world.make_document(doc_seed), doc_seed)
            for plan, (label, kwargs), width, cache in itertools.product(
                plans, CONFIGS.items(), WIDTHS, CACHES
            ):
                key = (
                    f"world={world_seed} doc={doc_seed} plan={plan} {label} "
                    f"width={width} cache={cache}"
                )
                yield key, functools.partial(
                    _evaluate, world, doc_seed, query, plan, kwargs, width, cache
                )


def numbers(metrics: Metrics, names) -> list:
    return [getattr(metrics, name) for name in names]


def write_golden() -> None:
    """The file: the held names, the distinct rows of numbers, and one
    row index per run in :func:`evaluations` order."""
    names = list(HELD)
    rows: dict[tuple, int] = {}
    runs = []
    for _, run in evaluations():
        outcome, _ = run()
        row = tuple(numbers(outcome.metrics, names))
        runs.append(rows.setdefault(row, len(rows)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"names": names, "rows": list(rows), "runs": runs})
        + "\n",
        encoding="utf-8",
    )


@contextlib.contextmanager
def outcomes_with_their_log():
    """Every ``(outcome, log entries its invoke appended)`` of the runs
    inside the block."""
    seen: list = []
    invoke = InvocationRound.invoke

    def spy(self, call):
        start = len(self.bus.log.records)
        outcome = invoke(self, call)
        seen.append((outcome, self.bus.log.records[start:]))
        return outcome

    InvocationRound.invoke = spy
    try:
        yield seen
    finally:
        InvocationRound.invoke = invoke


@pytest.fixture(scope="module")
def matrix():
    """Each run's key, metrics, log and invoked outcomes, run once."""
    out = []
    with outcomes_with_their_log() as seen:
        for key, run in evaluations():
            seen.clear()
            outcome, log = run()
            out.append((key, outcome.metrics, log, list(seen)))
    return out


def _same(name: str, held, now) -> bool:
    if isinstance(held, float) and name not in EXACT_FLOATS:
        return math.isclose(now, held, rel_tol=1e-12, abs_tol=0.0)
    return now == held and type(now) is type(held)


def test_the_held_metrics_match_the_golden_file(matrix):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names = golden["names"]
    assert names == list(HELD)
    assert len(golden["runs"]) == len(matrix)
    moved = [
        (key, name, held, now)
        for (key, metrics, _, _), index in zip(matrix, golden["runs"])
        for name, held, now in zip(
            names, golden["rows"][index], numbers(metrics, names)
        )
        if not _same(name, held, now)
    ]
    assert moved[:10] == [] and not moved


def test_the_matrix_exercises_every_kind_of_attempt(matrix):
    """The golden file holds retries, waits, breaker trips, short
    circuits, timeouts and cache hits, not only clean runs."""
    total = {
        name: sum(getattr(metrics, name) for _, metrics, _, _ in matrix)
        for name in (
            "retries",
            "backoff_s",
            "breaker_trips",
            "breaker_short_circuits",
            "cache_hits",
            "calls_frozen",
        )
    }
    assert all(total.values()), total
    kinds = {r.fault_kind for _, _, log, _ in matrix for r in log}
    assert kinds == {None, "fault", "timeout"}


def test_metrics_are_sums_over_the_log(matrix):
    """``calls_invoked`` counts every call's first attempt plus the
    calls the cache answered; every other attempt is a retry; the
    sequential clock is every attempt's time and wait."""
    for key, metrics, log, _ in matrix:
        assert metrics.calls_invoked == (
            sum(r.attempt == 1 for r in log) + metrics.cache_hits
        ), key
        assert metrics.retries == sum(r.attempt > 1 for r in log), key
        assert metrics.faults == sum(r.fault for r in log), key
        assert math.isclose(
            metrics.simulated_sequential_s,
            sum(r.simulated_time_s + r.backoff_s for r in log),
            rel_tol=1e-12,
        ), key


def test_an_outcome_is_its_logged_attempts(matrix):
    """Each outcome's records are exactly what its invoke logged, and
    its simulated time is their time and waits."""
    for key, _, _, seen in matrix:
        for outcome, logged in seen:
            assert list(outcome.records) == logged, key
            assert outcome.simulated_time_s == pytest.approx(
                sum(r.simulated_time_s + r.backoff_s for r in logged),
                rel=1e-12,
            ), key
            assert outcome.record is (
                logged[-1] if outcome.succeeded and logged else None
            ), key


if __name__ == "__main__":
    write_golden()
