"""How ``workloads.WORLD_SEEDS`` was chosen.

    python3 benchmarks/e2e/find_worlds.py WORKLOAD FIRST LAST [--pick]

runs one unit of WORKLOAD on the world of every seed in ``FIRST..LAST-1``
and prints one JSON line per world: nodes, calls present, calls invoked,
simulated service seconds and wall at reference speed.  Worlds of one
nominal size differ 2-10x in work (a lazy evaluation costs sequential
rounds x a relevance pass, and the rounds are a heavy-tailed count), and
the benchmark's bounds are shares of a median over runs with *different*
seeds, so ``--seed`` draws from worlds of equal work: ``--pick`` prints
the largest set of measured worlds that lie within ``BANDS`` of one of
them.  Those were timed again (several units each, interleaved) and the
ones whose wall agreed best went into ``WORLD_SEEDS``.  Equal work is the
only criterion; the worlds differ in documents, relevant calls and rows.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402

#: Allowed distance from the centre world, as a share of its value.
BANDS = {"nodes": 0.03, "calls": 0.02, "sim_s": 0.03, "wall_s": 0.05}


def measure(workload, world_seed):
    inputs = workloads.make_inputs(workload, 1, world_seed=world_seed)
    meter = SpeedMeter()
    driver = workloads.driver_for(inputs, meter)
    samples = []
    env = driver.setup()
    driver.close(driver.unit(env, samples) or env)
    meter.pace(collect=False)
    return {
        "world_seed": world_seed,
        "nodes": inputs.nodes,
        "calls_present": inputs.calls_present,
        "calls": sum(s.calls for s in samples),
        "sim_s": sum(s.sim_s for s in samples),
        "wall_s": sum(s.wall_s * meter.factor_of(s.block) for s in samples),
        "failed": sum(s.failed for s in samples),
    }


def pick(worlds):
    """The largest set of worlds within ``BANDS`` of one of them."""
    best = []
    for centre in worlds:
        near = [
            world
            for world in worlds
            if not world["failed"]
            and all(
                abs(world[key] - centre[key]) <= share * centre[key]
                for key, share in BANDS.items()
            )
        ]
        if len(near) > len(best):
            best = near
    return best


def main(argv):
    workload, first, last = argv[0], int(argv[1]), int(argv[2])
    worlds = []
    for world_seed in range(first, last):
        worlds.append(measure(workload, world_seed))
        print(json.dumps(worlds[-1]), flush=True)
    if "--pick" in argv:
        print("picked", [world["world_seed"] for world in pick(worlds)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
