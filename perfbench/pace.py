"""Host pace: how fast the host runs a fixed piece of Python right now.

On a shared host the speed of one core swings by up to 2x over tens of
seconds to minutes, as other tenants load the machine.  Those swings are
longer than one benchmark run, so pooling more work in a run does not
average them out.  To take them out, the simulation is stopped at fixed
simulated times and a fixed reference chunk of pure-Python work is timed at
each stop.  Each stretch of simulation between two stops is then scaled by
how much slower than nominal the chunks around it ran.

The chunk is benchmark code, not bpnc code, so a change to bpnc does not
change it: a faster bpnc still reads faster.  Its heap and dict hold only
ints, so it hands the cycle collector two containers per chunk and barely
shifts the simulation's garbage collections.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush
from time import perf_counter

# Loop iterations of one reference chunk: about 1.6 ms of host time.
CHUNK_ITERATIONS = 4000

# Host seconds of one chunk at the nominal pace: a typical chunk time in the
# fast phases of the 2-vCPU host described in NOTES.md (1.5-1.7 ms; its slow
# phases take 3-3.5 ms).  It is a constant, so it fixes the scale of the
# scaled times alike for every commit.
NOMINAL_CHUNK_S = 0.0016


def chunk() -> int:
    """The reference work: heap pushes and pops and dict updates on ints."""
    heap: list[int] = []
    counts: dict[int, int] = {}
    total = 0
    for i in range(CHUNK_ITERATIONS):
        heappush(heap, (i * 7919) % 1009)
        key = i & 255
        counts[key] = counts.get(key, 0) + i
        if len(heap) > 64:
            total += heappop(heap)
    return total


def timed_chunk() -> tuple[float, float]:
    """Run one chunk; return its start and end on the perf_counter clock."""
    t0 = perf_counter()
    chunk()
    return t0, perf_counter()


def scaled_segments(t0: float, stops: list[tuple[float, float]], t1: float
                    ) -> tuple[list[float], list[float]]:
    """Raw and pace-scaled host times of the stretches between stops.

    ``t0`` and ``t1`` are the start and end of the simulation, and ``stops``
    the (start, end) of each chunk run in between.  Each stretch is scaled by
    NOMINAL_CHUNK_S over the median time of the (up to) four chunks nearest
    it, so that one chunk slowed by an interrupt moves no stretch much.
    """
    edges = [t0] + [t for stop in stops for t in stop] + [t1]
    raw = [b - a for a, b in zip(edges[::2], edges[1::2])]
    chunks = [b - a for a, b in stops]
    scaled = []
    for i, seg in enumerate(raw):
        near = chunks[max(0, i - 2):i + 2]
        scaled.append(seg * NOMINAL_CHUNK_S / statistics.median(near))
    return raw, scaled
