"""Machine-speed correction for the timed sections.

The boxes this benchmark runs on are small shared VMs with a noisy
neighbour: the same pure-Python loop runs in 10 ms for minutes, then in
15 ms for ten seconds or a minute, then in 10 ms again (measured with
``calibrate`` below; CPU time moves with wall time, so it is the core
that slows, not the scheduler).  A 15-20 s run lands in either mode or
straddles both, so raw medians of back-to-back runs of one commit differ
by up to 1.5x and no regression bound of 25% or less survives.

The timed section therefore interleaves a fixed piece of bench-owned
work with the operations, and each operation's time is reported *at
reference speed*:

    reported = measured * REFERENCE_S / median(the three calibration
               samples just before the operation and the three after)

The calibration work never calls the program, so no change to the
program can move it; it mixes integer arithmetic with an object-graph
walk (attribute loads, list and dict operations) because that is what
the program's matching loops are made of.  Measured on the sizing box,
twelve back-to-back processes of ``oneshot-rounds``: the sum of the
per-query medians spread 0.060 raw (interquartile range over median;
range 0.36, one process ran slow throughout) and 0.023 corrected (range
0.11).  A calibration walk over a 60k-node tree, with a working set like
the workloads', tracked them no better (0.044), so the small one stays.
Raw medians and the factors are printed and kept in the ``--out`` file,
and ``obs.speed_factor`` is a per-layer metric, so a reader can always
undo the correction.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The unit definition: a *reference machine* runs ``calibrate()`` in
#: this many seconds.  It is the sizing box's quiet mode rounded, so on a
#: quiet box reported and measured times coincide; any other value would
#: rescale every reported time by one constant and move no comparison.
REFERENCE_S = 0.0100

#: Re-calibrate before an operation once the last sample is this old, so
#: millisecond operations are not drowned in calibration.
MAX_AGE_S = 0.05


class _Node:
    __slots__ = ("label", "kind", "children")

    def __init__(self, label, kind):
        self.label = label
        self.kind = kind
        self.children = []


def _tree(size=6000):
    rng = random.Random(5)
    root = _Node("root", 0)
    nodes = [root]
    for _ in range(size):
        node = _Node(rng.choice("abcde"), rng.randrange(3))
        nodes[rng.randrange(len(nodes))].children.append(node)
        nodes.append(node)
    return root


_ROOT = _tree()
_WANTED = frozenset("ac")


def calibrate():
    """Run the fixed calibration work; return the seconds it took."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(5):
        stack = [_ROOT]
        seen = {}
        while stack:
            node = stack.pop()
            if node.kind != 2 and node.label in _WANTED:
                seen[id(node)] = True
            stack.extend(node.children)
    return time.perf_counter() - started


class SpeedMeter:
    """Calibration samples of one timed section, in blocks of three."""

    def __init__(self):
        self.blocks = []
        self._last = float("-inf")

    def pace(self, collect=True):
        """Call before a timed operation: collect garbage (GC stays on
        during the operation) and calibrate when due.  Returns the index
        of the block that precedes the operation."""
        if collect:
            gc.collect()
        if time.perf_counter() - self._last > MAX_AGE_S:
            self.blocks.append([calibrate() for _ in range(3)])
            self._last = time.perf_counter()
        return len(self.blocks) - 1

    def factor_of(self, block):
        """Takes the time of the operation that followed ``block`` to
        reference speed: the samples on both sides of it say how fast the
        box was going, and their median ignores a stall in one of them."""
        around = self.blocks[block] + sum(self.blocks[block + 1 : block + 2], [])
        return REFERENCE_S / statistics.median(around)

    @property
    def factor(self):
        """The section's overall factor, for times summed over it."""
        return REFERENCE_S / statistics.mean(sum(self.blocks, []))

    @property
    def samples(self):
        return 3 * len(self.blocks)
