"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

generates the workload's inputs from the seed, drives the program through
its front doors for N seconds, checks every answer against an oracle and
prints every metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.  Without ``--workload``
every workload runs in its own subprocess for each given seed and
``--out FILE`` collects the runs (the format ``compare.py`` reads; a
single run is appended to FILE).

Load model: closed loop, one client, one process, one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Same interpreter, fixed string hashing: set iteration order is part
    # of the input.  exec replaces this process, so none is left behind.
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

from speed import REFERENCE_S, SpeedMeter, calibrate  # noqa: E402

_import_factor = REFERENCE_S / statistics.median(calibrate() for _ in range(3))
_import_started = time.perf_counter()
import repro  # noqa: E402,F401 - timed: the import is part of set-up

IMPORT_S = (time.perf_counter() - _import_started) * _import_factor

import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run and fresh-interpreter imports per run: ``setup_s`` is
#: the median import plus the median set-up, each at reference speed.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _import_samples(meter, repeats):
    """Seconds (at reference speed) ``import repro`` takes in a fresh
    interpreter: this process's own import, then ``repeats - 1`` child
    interpreters (each waited for before the next starts)."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "started = time.perf_counter(); import repro; "
        "print(time.perf_counter() - started)"
    )
    samples = [IMPORT_S]
    for _ in range(repeats - 1):
        block = meter.pace(collect=False)
        done = subprocess.run(
            [sys.executable, "-c", probe, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        meter.pace(collect=False)
        samples.append(float(done.stdout) * meter.factor_of(block))
    return samples


def _timed_setup(driver, setup_samples, meter):
    block = meter.pace()
    started = time.perf_counter()
    env = driver.setup()
    elapsed = time.perf_counter() - started
    meter.pace(collect=False)
    setup_samples.append(elapsed * meter.factor_of(block))
    return env


def _run_units(drivers, seconds, setup_samples, setup_meter):
    """Alternate the drivers' units until ``seconds`` have passed (each
    driver runs at least once).  Returns the samples per driver."""
    samples = [[] for _ in drivers]
    envs = [None] * len(drivers)
    units = 0
    started = time.perf_counter()
    while True:
        for slot, driver in enumerate(drivers):
            env = envs[slot]
            if env is None:
                env = _timed_setup(driver, setup_samples, setup_meter)
            envs[slot] = driver.unit(env, samples[slot])
            if envs[slot] is None:
                driver.close(env)
        units += 1
        if time.perf_counter() - started >= seconds:
            break
    timed_wall = time.perf_counter() - started
    for driver, env, group in zip(drivers, envs, samples):
        if env is not None:
            driver.close(env)
        driver.meter.pace(collect=False)  # the block after the last operation
        for sample in group:
            sample.factor = driver.meter.factor_of(sample.block)
    return samples, units, timed_wall


def _check(driver, samples):
    """Compare every observed row set with the oracle's.  Returns
    ``(attempted, failed)``: operations that raised, were deferred or
    answered wrongly, plus wrong checkpoint observations."""
    observations = driver.observations()
    keys = {s.check for s in samples if s.check is not None}
    expected = driver.oracle(keys | {key for key, _ in observations})
    failed = sum(
        1
        for s in samples
        if s.failed or (s.check is not None and s.rows != expected[s.check])
    )
    failed += sum(1 for key, rows in observations if rows != expected[key])
    return len(samples) + len(observations), failed


def _operation_stats(samples, units):
    """Medians per operation kind at reference speed, and what the
    end-to-end metrics are made of.

    Operations of one kind (one query text; ``quiet``, ``extensional``
    and ``call`` rounds) do the same work every unit, so a kind's median
    is over repeats of one operation.  ``eval_wall_s`` is the mean of the
    evaluation kinds' medians: every query of the mix weighs the same
    and a slow repeat moves nothing.  ``unit_wall_s`` is the unit's
    schedule priced at those medians (a serving run has only 3-4 whole
    sessions to take a median over)."""
    by_kind = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample)
    kinds = {
        kind: {
            "n": len(group),
            "per_unit": len(group) // units,
            "evaluation": group[0].evaluation,
            "wall_ms": 1000.0 * statistics.median(s.wall_s * s.factor for s in group),
            "answer_ms": 1000.0
            * statistics.median(s.wall_s * s.factor + s.sim_s for s in group),
            "raw_wall_ms": 1000.0 * statistics.median(s.wall_s for s in group),
        }
        for kind, group in by_kind.items()
    }
    evaluations = [kind for kind in kinds.values() if kind["evaluation"]]
    per_unit = len(samples) // units
    in_units = [
        samples[start : start + per_unit] for start in range(0, len(samples), per_unit)
    ]
    calls = [sum(s.calls for s in unit) for unit in in_units]
    return {
        "eval_wall_s": statistics.mean(k["wall_ms"] for k in evaluations) / 1000.0,
        "answer_time_s": statistics.mean(k["answer_ms"] for k in evaluations) / 1000.0,
        "unit_wall_s": sum(k["per_unit"] * k["wall_ms"] for k in kinds.values()) / 1000.0,
        "raw_unit_wall_s": sum(k["per_unit"] * k["raw_wall_ms"] for k in kinds.values())
        / 1000.0,
        "calls_invoked": calls[0],
        "calls_stable": len(set(calls)) == 1,
        "eval_kinds": len(evaluations),
        "kinds": kinds,
    }


def _serving_detail(driver):
    sessions = driver.sessions
    if not sessions:
        return {}
    latencies = [ms for session in sessions for ms in session["latencies_ms"]]
    status = {}
    for session in sessions:
        for name, count in session["status"].items():
            status[name] = status.get(name, 0) + count
    return {
        "refresh_samples": len(latencies),
        "refresh_p50_ms": layers.quantile(latencies, 0.5),
        "refresh_p95_ms": layers.quantile(latencies, 0.95),
        "refresh_p99_ms": layers.quantile(latencies, 0.99),
        "status": status,
        "sessions": len(sessions),
    }


def _run_untraced(inputs, seconds, setup_repeats, import_repeats):
    """The end-to-end metrics: set up ``setup_repeats`` times, run units
    for ``seconds``, read memory, then check answers."""
    setup_meter, meter = SpeedMeter(), SpeedMeter()
    setup_samples = []
    driver = workloads.driver_for(inputs, meter)
    for _ in range(setup_repeats - 1):
        driver.close(_timed_setup(driver, setup_samples, setup_meter))
    (samples,), units, timed_wall = _run_units(
        [driver], seconds, setup_samples, setup_meter
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_samples = _import_samples(setup_meter, import_repeats)
    oracle_started = time.perf_counter()
    attempted, failed = _check(driver, samples)
    oracle_s = time.perf_counter() - oracle_started
    stats = _operation_stats(samples, units)
    metrics = {
        "setup_s": statistics.median(import_samples) + statistics.median(setup_samples),
        "eval_wall_s": stats["eval_wall_s"],
        "answer_time_s": stats["answer_time_s"],
        "unit_wall_s": stats["unit_wall_s"],
        "calls_invoked": stats["calls_invoked"],
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "ops": len(samples),
        "units": units,
        "timed_wall_s": timed_wall,
        "speed_factor": meter.factor,
        "speed_samples": meter.samples,
        "setup_speed_factor": setup_meter.factor,
        "raw_unit_wall_s": stats["raw_unit_wall_s"],
        "eval_kinds": stats["eval_kinds"],
        "import_samples_s": import_samples,
        "setup_samples_s": setup_samples,
        "oracle_s": oracle_s,
        "calls_stable": stats["calls_stable"],
        "kinds": stats["kinds"],
        **_serving_detail(driver),
    }
    # Every unit replays the same schedule: differing call counts mean
    # the program is not deterministic on this input.
    return metrics, detail, attempted, failed + (not stats["calls_stable"])


def _run_traced(inputs, seconds, units_of, spans_out):
    """The per-layer metrics: alternate an untraced and a traced unit for
    ``seconds`` (their ratio is the tracing overhead), then probe."""
    meter = SpeedMeter()
    tracing = layers.Tracing()
    plain = workloads.driver_for(inputs, meter)
    traced = workloads.driver_for(inputs, meter, tracing)
    (plain_samples, traced_samples), units, timed_wall = _run_units(
        [plain, traced], seconds, [], meter
    )
    attempted, failed = _check(plain, plain_samples)
    more, more_failed = _check(traced, traced_samples)
    values = layers.layer_metrics(
        tracing,
        traced_samples,
        plain_samples,
        [*plain.sessions, *traced.sessions],
        units,
        meter.factor,
    )
    probed, reasons = {}, {}
    mismatches = tracing.recorder.nesting_problems()
    layers.probe_matching(list(traced.completed.items()), probed, reasons, mismatches)
    layers.probe_structures(inputs, probed, reasons, mismatches)
    values.update(layers.at_reference_speed(probed, units_of, meter.factor))
    attempted += more + len(mismatches)
    failed += more_failed + len(mismatches)
    values["failed_ops_share"] = failed / attempted
    detail = {
        "ops": len(plain_samples) + len(traced_samples),
        "units": units,
        "timed_wall_s": timed_wall,
        "speed_factor": meter.factor,
        "mismatches": mismatches,
        "reasons": reasons,
    }
    if spans_out:
        tracing.recorder.write_jsonl(spans_out)
    return values, detail, attempted, failed


def run_workload(workload, seed, seconds, trace, smoke=False, spans_out=None):
    """One run of one workload; returns the result dict (see ``main``)."""
    started = time.perf_counter()
    inputs = workloads.make_inputs(workload, seed, smoke=smoke)
    gen_s = time.perf_counter() - started
    declared = load_declaration()["per_layer" if trace else "end_to_end"]
    units_of = {entry["name"]: entry["unit"] for entry in declared}
    if trace:
        values, detail, attempted, failed = _run_traced(
            inputs, seconds, units_of, spans_out
        )
    else:
        repeats = (1, 1) if smoke else (SETUP_REPEATS, IMPORT_REPEATS)
        values, detail, attempted, failed = _run_untraced(inputs, seconds, *repeats)
    detail.update(
        gen_s=gen_s,
        nodes=inputs.nodes,
        calls_present=inputs.calls_present,
        input_digest=inputs.digest,
    )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of.get(name, "undeclared")}
            for name, value in values.items()
        },
        "detail": detail,
    }


def print_result(result):
    """Every metric by name with its unit, sample counts next to every
    median and percentile, then the contract's JSON object as the last
    line."""
    detail = result["detail"]
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"nodes={detail['nodes']} calls_present={detail['calls_present']} "
        f"ops={detail['ops']} units={detail['units']} "
        f"timed_wall={detail['timed_wall_s']:.2f}s input={detail['input_digest']} =="
    )
    for name, metric in result["metrics"].items():
        reason = detail.get("reasons", {}).get(name)
        note = f"  ({reason})" if reason else ""
        print(f"{name:32s} {metric['value']:16.6f} {metric['unit']}{note}")
    for kind, stats in detail.get("kinds", {}).items():
        print(
            f"  kind {kind:18s} n={stats['n']:4d} p50 wall={stats['wall_ms']:10.3f} ms "
            f"wall+sim={stats['answer_ms']:10.3f} ms raw wall={stats['raw_wall_ms']:10.3f} ms"
        )
    if "refresh_samples" in detail:
        print(
            f"  refresh n={detail['refresh_samples']} "
            f"p50={detail['refresh_p50_ms']:.3f} ms p95={detail['refresh_p95_ms']:.3f} ms "
            f"p99={detail['refresh_p99_ms']:.3f} ms status={detail['status']}"
        )
    if "setup_samples_s" in detail:
        print(
            f"  eval_wall_s/answer_time_s: mean of {detail['eval_kinds']} evaluation kinds' "
            f"medians; unit_wall_s: one unit's operations at their kinds' medians "
            f"(raw {detail['raw_unit_wall_s']:.3f} s; n={detail['units']} units)"
        )
        print(
            f"  speed factor={detail['speed_factor']:.3f} (n={detail['speed_samples']}) "
            f"setup factor={detail['setup_speed_factor']:.3f} | "
            f"setup n={len(detail['setup_samples_s'])} "
            f"import n={len(detail['import_samples_s'])} "
            f"gen={detail['gen_s']:.3f} s oracle={detail['oracle_s']:.3f} s"
        )
    for problem in detail.get("mismatches", []):
        print(f"  MISMATCH {problem}")
    print(
        json.dumps(
            {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )


def _append_run(path, run):
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": [*runs, run]}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_suite(args):
    """Every workload in a fresh subprocess per seed; each appends its
    run to ``--out``."""
    if args.out and os.path.exists(args.out):
        os.remove(args.out)
    for seed in args.seed:
        for workload in workloads.WORKLOADS:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if args.out:
                command += ["--out", args.out]
            if args.smoke:
                command.append("--smoke")
            status = subprocess.run(command, check=False).returncode
            if status:
                return status
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one unit, one set-up"
    )
    parser.add_argument("--out", help="append the run(s) as JSON to this file")
    parser.add_argument("--spans-out", help="traced run: write the raw spans as JSONL")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else load_declaration()["run_seconds"]
    if args.workload is None:
        return run_suite(args)
    if len(args.seed) != 1:
        parser.error("--workload takes exactly one --seed")
    result = run_workload(
        args.workload, args.seed[0], args.seconds, args.trace,
        smoke=args.smoke, spans_out=args.spans_out,
    )
    if args.out:
        _append_run(args.out, result)
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
