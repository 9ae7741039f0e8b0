"""Self-test of the end-to-end benchmark at smoke size (< 30 s).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it sits
outside tier-1's ``testpaths`` on purpose: it tests the measuring
instrument, not the program.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import find_worlds
import run
from spans import SpanRecorder

DECLARATION = run.load_declaration()
WORKLOADS = [entry["name"] for entry in DECLARATION["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@functools.cache
def smoke(workload, seed, trace):
    return run.run_workload(workload, seed, 0, trace, smoke=True)


def test_workload_names_are_the_declared_ones():
    assert tuple(WORKLOADS) == run.workloads.WORKLOADS
    assert all(NAME.match(name) for name in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_declaration(workload, trace, section):
    result = smoke(workload, 1, trace)
    declared = {m["name"]: m["unit"] for m in DECLARATION[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    assert all(NAME.match(name) for name in reported)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["detail"]["mismatches"] == []


def _counts(result):
    detail = result["detail"]
    return (
        result["metrics"]["calls_invoked"]["value"],
        detail["nodes"],
        detail["calls_present"],
        detail["input_digest"],
        result["attempted"],
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_differ_for_another(workload):
    first = smoke(workload, 1, 0)
    again = run.run_workload(workload, 1, 0, 0, smoke=True)
    other = smoke(workload, 2, 0)
    assert _counts(first) == _counts(again)
    # Another seed is another world: another document, other relevant calls.
    assert _counts(other)[:4] != _counts(first)[:4]
    assert other["metrics"]["calls_invoked"] != first["metrics"]["calls_invoked"]


def test_every_layer_metric_names_what_it_should_move():
    with open(os.path.join(os.path.dirname(run.__file__), "attribution.json")) as handle:
        attribution = json.load(handle)
    end_to_end = {m["name"] for m in DECLARATION["end_to_end"]}
    per_layer = [m["name"] for m in DECLARATION["per_layer"]]
    bounded = attribution["bounded"]
    attributed = [name for layer in attribution["layers"] for name in layer["metrics"]]
    assert sorted(attributed + list(bounded)) == sorted(per_layer)
    for layer in attribution["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end | set(bounded), layer["layer"]
            assert move["workloads"] and set(move["workloads"]) <= set(WORKLOADS)
        assert layer["moves"] or layer["note"], layer["layer"]
    for name, entry in bounded.items():
        assert 0 <= entry["bound"] <= 0.25 and set(entry["workloads"]) <= set(WORKLOADS)
        assert name in compare.load_bounds()


def test_layers_sit_where_the_workloads_put_them():
    driven_only_when_serving = (
        "serve.self_s", "serve.status.skipped", "answers.hits", "multimatch.pass_s",
    )
    for workload in WORKLOADS:
        metrics = smoke(workload, 1, 1)["metrics"]
        for name in driven_only_when_serving:
            value = metrics[name]["value"]
            assert (value > 0) == (workload == "serve-standing"), (workload, name)
        assert metrics["obs.attributed_ratio"]["value"] >= 0.9


def test_wrong_oracle_row_is_a_failed_operation(monkeypatch):
    honest = run.workloads.naive_rows

    def one_row_off(inputs, texts, keys):
        expected = honest(inputs, texts, keys)
        key = next(iter(expected))
        expected[key] = expected[key] | {("no", "such", "row")}
        return expected

    monkeypatch.setattr(run.workloads, "naive_rows", one_row_off)
    result = run.run_workload("oneshot-rounds", 1, 0, 1, smoke=True)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["failed_ops_share"]["value"] > 0


def test_world_picking_keeps_the_largest_set_of_equal_work():
    def world(seed, calls, wall_s, failed=0):
        return {
            "world_seed": seed, "nodes": 3000, "calls": calls, "sim_s": 3.0,
            "wall_s": wall_s, "failed": failed,
        }

    worlds = [
        world(1, 100, 1.00), world(2, 101, 1.04), world(3, 99, 0.97),
        world(4, 150, 1.00), world(5, 100, 1.50), world(6, 100, 1.00, failed=1),
    ]
    assert [w["world_seed"] for w in find_worlds.pick(worlds)] == [1, 2, 3]


def test_recorder_nesting():
    recorder = SpanRecorder()
    with recorder.span("op") as outer:
        with recorder.span("inner"):
            pass
    assert recorder.nesting_problems() == []
    seconds, counts = recorder.self_times()
    assert counts == {"op": 1, "inner": 1}
    assert abs(sum(seconds.values()) - (outer["end"] - outer["start"])) < 1e-9
    recorder.spans[1]["end"] = outer["end"] + 1.0  # child escapes its parent
    assert any("escapes" in problem for problem in recorder.nesting_problems())
    recorder.spans[1]["end"] = None
    assert any("never closed" in problem for problem in recorder.nesting_problems())


def test_compare_verdicts():
    base = [smoke(workload, 1, 0) for workload in WORKLOADS]
    base += [smoke(workload, 1, 1) for workload in WORKLOADS]
    bounds = compare.load_bounds()
    rows = compare.compare(base, base, bounds)
    assert rows and all(row[5] in ("ok", "-") for row in rows)
    slower = json.loads(json.dumps(base))
    slower[0]["metrics"]["eval_wall_s"]["value"] *= 2
    slower[0]["metrics"]["calls_invoked"]["value"] += 1
    slower[-1]["metrics"]["refresh_p99_ms"]["value"] *= 2
    slower[-1]["metrics"]["failed_ops_share"]["value"] = 0.01
    verdicts = {
        (row[0], row[1]): row[5] for row in compare.compare(base, slower, bounds)
    }
    assert verdicts[WORKLOADS[0], "eval_wall_s"] == "worse"
    assert verdicts[WORKLOADS[0], "calls_invoked"] == "differs"
    assert verdicts[WORKLOADS[-1], "refresh_p99_ms"] == "worse"
    assert verdicts[WORKLOADS[-1], "refresh_p95_ms"] == "ok"
    assert verdicts[WORKLOADS[-1], "failed_ops_share"] == "worse"


def test_command_contract(tmp_path):
    command = [sys.executable if c == "python3" else c for c in DECLARATION["command"]]
    arguments = ["--workload", WORKLOADS[0], "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"]
    done = subprocess.run(
        command + arguments, cwd=run.ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    # Where only BENCHMARK.json and the benchmark's own files exist there
    # is no program to measure: nonzero exit, no result line.
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in DECLARATION["paths"]:
        shutil.copytree(
            os.path.join(run.ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    bare = subprocess.run(
        command + arguments, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert bare.returncode != 0
    assert '"metrics"' not in bare.stdout
