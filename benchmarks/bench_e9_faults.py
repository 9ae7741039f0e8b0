"""E9 — Answer completeness and cost under service faults.

The paper assumes cooperative services; this experiment does not.  Every
service of the ``hotels`` workload is wrapped in a seeded
``FlakyService`` and the fault rate is swept upward.  For each of the
three strategies, the top-down baseline (the LPQs un-layered and
sequential), and the NFQs typed by the lenient oracle, we measure,
under ``FaultPolicy.FREEZE`` with five attempts per call:

* **completeness** — result rows as a fraction of the fault-free
  answer (the retries should hold it at 1.0 for moderate fault rates,
  since retried calls eventually succeed);
* **simulated time** — the price of resilience: failed attempts and
  backoff waits are charged to the clock;
* fault/retry/frozen counts from the resilience metrics.

A second table contrasts one attempt with five under FREEZE at a fixed
rate on the lazy-NFQ strategy: a single attempt loses answers *visibly*
(calls stay intensional), the retries recover them.  (RAISE dies once
the attempts run out; no policy deletes a faulted call.)
"""

import pytest

from bench_harness import print_table, run_once
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator
from repro.services.catalog import FlakyService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

FAULT_RATES = [0.0, 0.1, 0.25, 0.4]
STRATEGIES = [
    ("naive", dict(strategy=Strategy.NAIVE)),
    # Section 1's top-down baseline: the LPQs, one call per round.
    (
        "top-down",
        dict(strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False),
    ),
    ("lazy-lpq", dict(strategy=Strategy.LAZY_LPQ)),
    ("lazy-nfq", dict(strategy=Strategy.LAZY_NFQ)),
    (
        "lazy-nfq+lenient",
        dict(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
    ),
]
RETRY = RetryPolicy(max_attempts=5, base_backoff_s=0.02)


def workload():
    # Default-shaped hotels scenario: a multi-row answer, so
    # completeness has something to lose.
    return build_hotels_workload(HotelsWorkloadParams(n_hotels=20))


def flaky_bus(wl, rate, seed=2004):
    registry = ServiceRegistry(
        FlakyService(wl.registry.resolve(name), fault_rate=rate, seed=seed + i)
        for i, name in enumerate(wl.registry.names())
    )
    return ServiceBus(registry)


def evaluate(wl, rate, retry=RETRY, **kwargs):
    bus = flaky_bus(wl, rate)
    config = EngineConfig(
        fault_policy=FaultPolicy.FREEZE,
        retry=retry,
        breaker=CircuitBreakerPolicy(failure_threshold=10),
        **kwargs,
    )
    engine = LazyQueryEvaluator(bus, schema=wl.schema, config=config)
    return engine.evaluate(wl.query, wl.make_document()), bus


def sweep():
    wl = workload()
    rows = []
    baselines = {}
    for name, cfg in STRATEGIES:
        outcome, _ = evaluate(wl, 0.0, **cfg)
        baselines[name] = len(outcome.value_rows()) or 1
    for rate in FAULT_RATES:
        for name, cfg in STRATEGIES:
            outcome, _ = evaluate(wl, rate, **cfg)
            m = outcome.metrics
            rows.append(
                (
                    rate,
                    name,
                    m.calls_invoked,
                    m.faults,
                    m.retries,
                    m.calls_frozen,
                    len(outcome.value_rows()) / baselines[name],
                    m.simulated_parallel_s,
                )
            )
    return rows


def policy_contrast(rate=0.25):
    wl = workload()
    reference, _ = evaluate(wl, 0.0)
    ref_rows = len(reference.value_rows()) or 1
    rows = []
    arms = (("freeze", RetryPolicy(max_attempts=1)), ("retry", RETRY))
    for arm, retry in arms:
        outcome, _ = evaluate(wl, rate, retry=retry)
        m = outcome.metrics
        rows.append(
            (
                arm,
                m.faults,
                m.retries,
                m.calls_frozen,
                len(outcome.value_rows()) / ref_rows,
                m.simulated_parallel_s,
            )
        )
    return rows


def test_e9_report(benchmark, capsys):
    rows = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E9: completeness & cost under faults (FREEZE, 5 attempts)",
            [
                "fault_rate",
                "strategy",
                "calls",
                "faults",
                "retries",
                "frozen",
                "completeness",
                "sim_time_par_s",
            ],
            rows,
            note="completeness = rows / fault-free rows for the strategy",
        )
    by_key = {(r[0], r[1]): r for r in rows}
    for name, _ in STRATEGIES:
        # No faults injected at rate 0: identical to the seed behavior.
        assert by_key[(0.0, name)][3] == 0
        assert by_key[(0.0, name)][6] == 1.0
        # Moderate fault rates: retry keeps the answer complete, at a
        # simulated-time price that grows with the fault rate.
        assert by_key[(0.25, name)][6] == 1.0
        assert by_key[(0.25, name)][7] >= by_key[(0.0, name)][7]
    assert any(by_key[(0.25, name)][4] > 0 for name, _ in STRATEGIES)


def test_e9_policy_contrast(benchmark, capsys):
    rows = run_once(benchmark, policy_contrast)
    with capsys.disabled():
        print_table(
            "E9b: one attempt or five under FREEZE at rate 0.25 (lazy-nfq)",
            [
                "policy",
                "faults",
                "retries",
                "frozen",
                "completeness",
                "sim_time_par_s",
            ],
            rows,
        )
    by_policy = {r[0]: r for r in rows}
    # Five attempts recover the full answer; one may lose rows but
    # never crashes, and keeps every faulted call in the document.
    assert by_policy["retry"][4] == 1.0
    assert by_policy["freeze"][4] <= 1.0


@pytest.mark.parametrize("rate", [0.0, 0.25], ids=["rate0", "rate25"])
def test_e9_benchmark(benchmark, rate):
    wl = workload()

    def run():
        outcome, _ = evaluate(wl, rate)
        return outcome.metrics.calls_invoked

    benchmark(run)
