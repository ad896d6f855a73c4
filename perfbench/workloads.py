"""The benchmark's workloads: which simulations a run performs for a seed.

Every input is a pure function of the workload name and the seed, so the
same seed gives the same simulations, digests and delivery counts.  A run
simulates the seeds seed, seed + SEED_STRIDE, seed + 2 * SEED_STRIDE, ...
in turn and reports rates over all of them, because one simulation's host
cost varies from seed to seed (by up to 2x on coded_lossy).

How many simulations a run performs depends only on the workload and on
``--seconds``, never on how fast the code under test is, so two commits
always time the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from bpnc import channel as ch

# distinct simulations for every benchmark seed below SEED_STRIDE
SEED_STRIDE = 100_003


@dataclass
class Cell:
    """One simulation: a validated scenario and the seed it runs with."""

    scn: ch.Scenario
    seed: int


def relay_long() -> ch.Scenario:
    """line7 unicast 1->7 with coding off, lossless, 2400 s simulated."""
    scn = ch.line7()
    scn.duration_s = 2400.0
    return scn.validate()


def coded_lossy() -> ch.Scenario:
    """butterfly7 multicast 1->{6,7}, h=4 over GF(2^4), rank-deficient
    decoding, 10% DATA frame loss, 600 s simulated."""
    scn = ch.butterfly7()
    scn.coding.block_size = 4
    scn.coding.field_bits = 4
    scn.coding.decoder = "rank_deficient"
    scn.frame_loss = 0.1
    scn.duration_s = 600.0
    return scn.validate()


# name -> (scenario builder, nominal host seconds of one simulation).  The
# nominal cost is a round figure within the range seen on the 2-vCPU host
# described in NOTES.md (relay_long 10-20 s, coded_lossy 1.3-3 s).  It only
# sizes a run, and it is a constant, so every commit runs the same inputs.
WORKLOADS = {
    "relay_long": (relay_long, 15.0),
    "coded_lossy": (coded_lossy, 1.5),
}


def sim_count(workload: str, seconds: float) -> int:
    """Simulations in a run of about ``seconds`` on the nominal host."""
    return max(1, int(seconds // WORKLOADS[workload][1]))


def cells(workload: str, seed: int, count: int) -> list[Cell]:
    """The first count simulations of a run, in the order they run."""
    scn = WORKLOADS[workload][0]()
    return [Cell(scn, seed + k * SEED_STRIDE) for k in range(count)]
