"""E10 — Concurrent invocation rounds and the call cache.

Section 4's layering argument is what *licenses* concurrency: the calls
of one round are mutually independent, so they are in flight together.
This experiment quantifies the payoff on the layered chain workload
(``depth`` rounds of ``width`` independent calls each):

* **makespan vs serial time** — sweeping ``max_concurrency``, a round's
  cost on the one simulated clock drops from the *sum* of call
  durations (one worker) toward the *longest* call (``None``: a worker
  per call, the default); with width 8 and 8 workers a round costs one
  call's latency, so the total clock falls by ~8x (the acceptance bar
  is <= 0.5x at ``max_concurrency=8``).  At every width the bus clock
  *is* what the engine charged (``simulated_parallel_s``);
* **memoization** — folding the chain onto ``distinct_keys`` shared
  keys, the call cache converts the duplicated work into free hits
  while returning the identical answer.

Results must be bit-identical across widths — concurrency here is a
scheduling decision, never a semantic one (the differential suite in
``tests/test_differential.py`` enforces the same invariant on random
workloads; this file shows the headline numbers).
"""

import pytest

from bench_harness import evaluate_workload, print_table, run_once
from repro.lazy.config import Strategy
from repro.workloads.chains import build_chain_workload

DEPTH = 8
WIDTH = 8
WIDTHS = [1, 2, 4, 8, 16, None]


def workload(distinct_keys=None):
    return build_chain_workload(
        depth=DEPTH, width=WIDTH, latency_s=0.05, distinct_keys=distinct_keys
    )


def concurrency_sweep():
    wl = workload()
    rows = []
    for width in WIDTHS:
        outcome, bus = evaluate_workload(
            wl, strategy=Strategy.LAZY_NFQ, max_concurrency=width
        )
        m = outcome.metrics
        rows.append(
            (
                width,
                m.calls_invoked,
                m.batch_count,
                m.max_batch_width,
                m.simulated_sequential_s,
                bus.clock_s,
                m.simulated_sequential_s / bus.clock_s,
                len(outcome.value_rows()),
                m.simulated_parallel_s,
            )
        )
    return rows


def cache_contrast():
    # Two workers, so the cache's win shows on the *clock* too: a
    # folded round is two live calls instead of four per worker.
    rows = []
    for distinct_keys, cached in ((2, False), (2, True), (None, True)):
        wl = workload(distinct_keys=distinct_keys)
        outcome, bus = evaluate_workload(
            wl,
            strategy=Strategy.LAZY_NFQ,
            max_concurrency=2,
            call_cache=cached,
        )
        m = outcome.metrics
        rows.append(
            (
                distinct_keys or WIDTH,
                "on" if cached else "off",
                m.calls_invoked,
                m.cache_hits,
                m.simulated_sequential_s,
                bus.clock_s,
                len(outcome.value_rows()),
            )
        )
    return rows


def test_e10_concurrency_report(benchmark, capsys):
    rows = run_once(benchmark, concurrency_sweep)
    with capsys.disabled():
        print_table(
            "E10: round makespan vs max_concurrency (chain 8x8)",
            [
                "workers",
                "calls",
                "batches",
                "batch_w",
                "serial_s",
                "clock_s",
                "speedup",
                "rows",
            ],
            [r[:8] for r in rows],
            note="serial_s = sum of call durations; clock_s = the bus "
            "clock (sum of round makespans); workers None = one per call",
        )
    by_width = {r[0]: r for r in rows}
    # One clock: the bus advanced by exactly what the engine charged.
    for r in rows:
        assert r[5] == pytest.approx(r[8], abs=1e-9), r[0]
    # Same answer and same work at every width: concurrency is pure
    # scheduling.
    assert len({(r[1], r[7]) for r in rows}) == 1
    # Width 1 degenerates to the serial clock.
    assert by_width[1][5] == pytest.approx(by_width[1][4])
    # The acceptance bar: 8 workers at least halve the simulated clock
    # (in fact a width-8 chain round collapses to ~one call's latency).
    assert by_width[8][5] <= 0.5 * by_width[1][5]
    # More workers never slow the simulated clock down — a worker per
    # call (``None``, last in the sweep) least of all.
    for slower, faster in zip(WIDTHS, WIDTHS[1:]):
        assert by_width[faster][5] <= by_width[slower][5] + 1e-9
    # Width 16 buys nothing over width 8: only 8 calls per round exist.
    assert by_width[16][5] == pytest.approx(by_width[8][5])


def test_e10_cache_report(benchmark, capsys):
    rows = run_once(benchmark, cache_contrast)
    with capsys.disabled():
        print_table(
            "E10b: call cache on the folded chain (8 branches, 2 workers)",
            ["keys", "cache", "calls", "hits", "serial_s", "clock_s", "rows"],
            rows,
        )
    off = rows[0]
    folded = rows[1]
    distinct = rows[2]
    # Folding 8 branches onto 2 keys: the cache absorbs the duplicate
    # calls, both the work and the clock drop, the answer is unchanged.
    assert folded[3] > 0
    assert folded[4] < off[4]
    assert folded[5] < off[5]
    assert folded[6] == off[6]
    # All-distinct keys: nothing to memoize, and nothing breaks.
    assert distinct[3] == 0


@pytest.mark.parametrize("width", [1, 8], ids=["serial", "conc8"])
def test_e10_benchmark(benchmark, width):
    wl = workload()

    def run():
        outcome, _ = evaluate_workload(
            wl, strategy=Strategy.LAZY_NFQ, max_concurrency=width
        )
        return outcome.metrics.calls_invoked

    benchmark(run)
