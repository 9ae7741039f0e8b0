"""E8 (ablation) — speculative "just in case" parallelism.

Paper remark (end of Section 4.4): "one may be able to reduce the time
it takes to produce the answer by calling functions in parallel just in
case, and thereby introduce more parallelism ... [it] requires the use
of a cost model".

Regenerates: the cost model's two sides — extra (possibly wasted)
invocations vs. saved rounds/elapsed time — for careful evaluation (the
engine's exact rounds: (*)-independent and definitely relevant calls)
vs the bet, sweeping how often the bet loses (the fraction of hotels
whose rating call returns a low rating and thereby invalidates its
sibling calls).  The bet is not an engine rule: it is
``just_in_case()`` — every relevant call fired each round — over one
un-layered pseudo-layer (``use_layers=False``).
"""

import pytest

from bench_harness import evaluate_workload, just_in_case, print_table, run_once
from repro.lazy.config import Strategy
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

# hotel_five_star_fraction = probability that speculation on a hotel's
# nearby-calls pays off (a low rating wastes them).
PAYOFF_FRACTIONS = [1.0, 0.75, 0.5, 0.25]
MODES = ["careful", "just-in-case"]


def workload_of(payoff):
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=24,
            extra_hotels_via_service=0,
            target_name_fraction=1.0,
            hotel_five_star_fraction=payoff,
            intensional_rating_fraction=1.0,
            intensional_restos_fraction=1.0,
            nested_rating_fraction=0.0,
            seed=37,
        )
    )


def evaluate(wl, mode):
    """One evaluation in ``mode``: the engine's exact rounds, or the bet."""
    if mode == "careful":
        return evaluate_workload(wl, strategy=Strategy.LAZY_NFQ)
    with just_in_case():
        return evaluate_workload(wl, strategy=Strategy.LAZY_NFQ, use_layers=False)


def sweep():
    rows = []
    metrics = {}
    for payoff in PAYOFF_FRACTIONS:
        wl = workload_of(payoff)
        for mode in MODES:
            outcome, _ = evaluate(wl, mode)
            m = outcome.metrics
            rows.append(
                (
                    f"{payoff:.0%}",
                    mode,
                    m.calls_invoked,
                    m.invocation_rounds,
                    m.simulated_parallel_s,
                    len(outcome.rows),
                )
            )
            metrics[(payoff, mode)] = (m, outcome.value_rows())
    return rows, metrics


def test_e8_report(benchmark, capsys):
    rows, metrics = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E8: careful vs just-in-case parallelism (Section 4.4 remark)",
            ["payoff", "mode", "calls", "rounds", "par_time_s", "rows"],
            rows,
            note="payoff = fraction of hotels whose rating justifies the bet",
        )
    for payoff in PAYOFF_FRACTIONS:
        careful, careful_rows = metrics[(payoff, "careful")]
        bet, bet_rows = metrics[(payoff, "just-in-case")]
        assert bet_rows == careful_rows  # never changes the answer
        assert bet.invocation_rounds <= careful.invocation_rounds
        assert bet.simulated_parallel_s <= careful.simulated_parallel_s + 1e-9
        assert bet.calls_invoked >= careful.calls_invoked
    # The bet's cost appears as the payoff fraction drops: wasted calls.
    waste_high = (
        metrics[(PAYOFF_FRACTIONS[-1], "just-in-case")][0].calls_invoked
        - metrics[(PAYOFF_FRACTIONS[-1], "careful")][0].calls_invoked
    )
    waste_low = (
        metrics[(PAYOFF_FRACTIONS[0], "just-in-case")][0].calls_invoked
        - metrics[(PAYOFF_FRACTIONS[0], "careful")][0].calls_invoked
    )
    assert waste_high > waste_low


@pytest.mark.parametrize("mode", MODES)
def test_e8_benchmark(benchmark, mode):
    wl = workload_of(0.5)

    def run():
        outcome, _ = evaluate(wl, mode)
        return outcome.metrics.calls_invoked

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
