"""Benchmark for the bpnc simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relay_long --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and explained in NOTES.md.
Each is closed-loop: one simulation at a time, driven from this process.
The benchmark imports bpnc from the checkout's ``src/`` and exits with an
error, printing no result, when it is missing.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs a
fixed number of simulations, sized from ``--seconds`` by
``workloads.sim_count``, and times set-up in fresh processes between them.
Host time of the simulations is scaled to the nominal host pace by
``pace.py``: the shared host's speed swings by up to 2x within seconds.
``--trace 1`` runs half as many simulations untraced, then again under
``tracing.Tracer``, and reports the per-layer metrics.  ``--check-counts``
compares the tracer's call counts with a cProfile run of the workload's
first simulation.

Output: one ``sim`` line per simulation with its packet-log digest and
counters, one ``check`` line per correctness check, one ``metric`` line per
metric, and as the last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
PKG = HERE.parent / "src" / "bpnc"

# Set-up is timed in this many fresh processes, spread over the gaps before,
# between and after the simulations, and the lower quartile is reported.
# Spreading them samples the host over the whole run, as the simulations do;
# the lower quartile ignores the probes that a burst of host load slowed.
SETUP_PROBES = 24
# pace chunks timed in a set-up probe before, and again after, the set-up
PROBE_CHUNKS = 4

# A paced simulation stops this many times minus one, at evenly spaced
# simulated times, to time a pace chunk (see pace.py).  A multiple of 4, so
# that the last quarter of simulated time starts at a stop.
STOPS = 32

# Printed as metric lines but left out of the JSON summary, because they
# cannot be held to a bound of at most 0.25 of their median:
# - failed_share is 0 on a correct run; "attempted" and "failed" carry it.
# - sim_speed_tail times only the last quarter of each simulation, and its
#   quartiles over ten runs lay up to 0.15 of the median apart on a 2-core
#   shared host: within the bound, but not with a safe margin.
# - sim_speed_raw, setup_s_raw and host_pace show the unscaled host time
#   and how far the host ran from its nominal pace; they swing with the host
#   by design.
PRINTED_ONLY = ("failed_share", "sim_speed_tail", "sim_speed_raw", "setup_s_raw",
                "host_pace")

# Timed in a fresh interpreter: import bpnc, build and validate the
# scenario, construct the Engine.  Pace chunks timed in the same process
# just before and just after it give the pace to scale it by.  Prints the
# set-up time and the median chunk time.
SETUP_PROBE = """\
import statistics, sys, time
sys.path.insert(0, {here!r})
import pace
before = [pace.timed_chunk() for _ in range({chunks})]
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import workloads
from bpnc import engine
cell = workloads.cells({workload!r}, {seed!r}, 1)[0]
engine.Engine(cell.scn, cell.seed)
t1 = time.perf_counter()
after = [pace.timed_chunk() for _ in range({chunks})]
print(t1 - t0, statistics.median(b - a for a, b in before + after))
"""


def use_checkout_bpnc() -> None:
    """Import bpnc from the checkout's src/ or exit with an error."""
    if not (PKG / "__init__.py").is_file():
        sys.exit(f"perfbench: bpnc sources not found at {PKG}")
    sys.path.insert(0, str(PKG.parent))
    import bpnc
    if Path(bpnc.__file__).resolve().parent != PKG:
        sys.exit(f"perfbench: bpnc imported from {bpnc.__file__}, not {PKG}")


class Run:
    """Attempt/failure counts and correctness checks of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}".rstrip(), flush=True)
        self.correct &= ok

    def simulate(self, cell, pass_name: str, paced: bool) -> dict | None:
        """Run one simulation; None if it raised.

        With ``paced``, the simulation stops at STOPS - 1 evenly spaced
        simulated times, through no-op callbacks added with the public
        ``Engine.schedule_at``, and times a ``pace`` reference chunk at each
        stop.  The chunks are left out of the simulation's host time, and
        its pace-scaled host time is recorded beside the raw one.
        """
        from bpnc import engine
        self.attempted += 1
        # Nodes and their engine reference each other, so a finished run is
        # freed only by the cycle collector.  Collect it now, outside the
        # timed region, so that runs neither share peak memory nor pay for
        # each other's collections.
        gc.collect()
        try:
            eng = engine.Engine(cell.scn, cell.seed)
            stops: list[tuple[float, float]] = []
            if paced:
                for k in range(1, STOPS):
                    eng.schedule_at(eng.duration_us * k // STOPS,
                                    lambda: stops.append(pace.timed_chunk()))
            t0 = time.perf_counter()
            eng.run()
            t1 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.correct = False
            print(f"sim {cell.scn.name} seed={cell.seed} pass={pass_name} raised", flush=True)
            return None
        res = {
            "digest": engine.packet_log_digest(eng.packet_log),
            "delivered": sum(eng.delivered.values()),
            "injected": sum(eng.injected.values()),
            "frames": Counter(line.split(" ", 4)[3] for line in eng.packet_log),
            # events dispatched (scheduled minus still queued at the end),
            # less the stops, which are the benchmark's own
            "events": eng._seq - len(eng._heap) - len(stops),
            "sim_s": eng.duration_us / engine.US,
            "host_s": t1 - t0,
            "relay_gens": sum(len(n.relay_gens) for n in eng.nodes.values()),
            "decoders": sum(len(n.decoders) for n in eng.nodes.values()),
        }
        if paced:
            raw, scaled = pace.scaled_segments(t0, stops, t1)
            res["host_s"] = sum(raw)  # without the chunks
            res["scaled_s"] = sum(scaled)
            res["tail_scaled_s"] = sum(scaled[STOPS * 3 // 4:])
        frames = ",".join(f"{k}:{v}" for k, v in sorted(res["frames"].items()))
        print(f"sim {cell.scn.name} seed={cell.seed} pass={pass_name} digest={res['digest']} "
              f"delivered={res['delivered']} injected={res['injected']} frames={frames} "
              f"events={res['events']} host_s={res['host_s']:.3f}"
              + (f" scaled_s={res['scaled_s']:.3f}" if paced else ""), flush=True)
        if eng.decode_errors:
            self.failed += 1
            self.check("decode_errors", False, f"{eng.decode_errors} in seed {cell.seed}")
        if any(eng.delivered[f] > eng.injected[f] for f in eng.delivered):
            self.check("delivered_le_injected", False, f"seed {cell.seed}")
        return res

    def same_digests(self, name: str, expected: list, got: list) -> None:
        pairs = [(a, b) for a, b in zip(expected, got) if a is not None and b is not None]
        bad = sum(a["digest"] != b["digest"] for a, b in pairs)
        self.check(name, bad == 0 and len(pairs) == len(expected),
                   f"{len(pairs) - bad}/{len(expected)} equal")


def ok(results: list) -> list[dict]:
    return [r for r in results if r is not None]


def rate(results, num, den) -> float:
    """Sum of num over sum of den: a rate over the whole of the results, so
    host-speed swings during the run are averaged rather than sampled."""
    total = sum(den(r) for r in results)
    return sum(num(r) for r in results) / total if total else 0.0


def sim_speed(results, host: str = "scaled_s") -> float:
    """Simulated seconds per pace-scaled (or, with host="host_s", raw) host
    second."""
    return rate(results, lambda r: r["sim_s"], lambda r: r[host])


def setup_probes(workload: str, seed: int, count: int) -> tuple[list[float], list[float]]:
    """Raw and pace-scaled set-up times of ``count`` fresh processes."""
    code = SETUP_PROBE.format(src=str(PKG.parent), here=str(HERE), chunks=PROBE_CHUNKS,
                              workload=workload, seed=seed)
    raw, scaled = [], []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        setup_s, chunk_s = map(float, out.stdout.split()[-2:])
        raw.append(setup_s)
        scaled.append(setup_s * pace.NOMINAL_CHUNK_S / chunk_s)
    return raw, scaled


def end_to_end(args) -> tuple[Run, dict]:
    import workloads
    run = Run()
    cells = workloads.cells(args.workload, args.seed,
                            workloads.sim_count(args.workload, args.seconds))
    results, setup_raw, setup_scaled = [], [], []
    gaps = len(cells) + 1
    for k in range(gaps):
        count = SETUP_PROBES * (k + 1) // gaps - SETUP_PROBES * k // gaps
        raw, scaled = setup_probes(args.workload, args.seed, count)
        setup_raw += raw
        setup_scaled += scaled
        if k < len(cells):
            results.append(run.simulate(cells[k], "timed", True))
    print("setup_s raw " + " ".join(f"{t:.4f}" for t in setup_raw), flush=True)
    print("setup_s scaled " + " ".join(f"{t:.4f}" for t in setup_scaled), flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = ok(results)
    delivered = sum(r["delivered"] for r in done)
    injected = sum(r["injected"] for r in done)
    run.check("delivered_positive", delivered > 0, f"{delivered}/{injected}")
    metrics = {
        "sim_speed": (sim_speed(done), "sim-s/s"),
        "sim_speed_tail": (rate(done, lambda r: r["sim_s"] / 4,
                                lambda r: r["tail_scaled_s"]), "sim-s/s"),
        "events_per_s": (rate(done, lambda r: r["events"], lambda r: r["scaled_s"]), "1/s"),
        "sim_speed_raw": (sim_speed(done, "host_s"), "sim-s/s"),
        "host_pace": (rate(done, lambda r: r["scaled_s"], lambda r: r["host_s"]), "ratio"),
        "setup_s": (statistics.quantiles(setup_scaled, n=4)[0], "s"),
        "setup_s_raw": (statistics.quantiles(setup_raw, n=4)[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "delivery_ratio": (delivered / injected if injected else 0.0, "ratio"),
    }
    return run, metrics


def per_layer(args) -> tuple[Run, dict]:
    import tracing
    import workloads
    run = Run()
    count = workloads.sim_count(args.workload, args.seconds)
    cells = workloads.cells(args.workload, args.seed, max(1, count // 2))
    untraced = [run.simulate(c, "untraced", True) for c in cells]
    control = run.simulate(cells[0], "control", False)
    run.same_digests("stops.digest_unchanged", untraced[:1], [control])
    # installed before any Engine exists: nodes schedule bound methods
    with tracing.Tracer() as tracer:
        traced = [run.simulate(c, "traced", True) for c in cells]
    run.same_digests("trace.digest_unchanged", untraced, traced)
    traced = ok(traced)
    metrics = tracer.metrics()
    metrics.update({
        "protocol.relay_gens_live": (
            statistics.median(r["relay_gens"] for r in traced) if traced else 0, "count"),
        "protocol.decoders_live": (
            statistics.median(r["decoders"] for r in traced) if traced else 0, "count"),
        # from raw host time: the two passes run back to back, and pace
        # chunks timed while the tracer was installed were seen to run
        # slower, so scaling could hide part of the overhead
        "trace.overhead_sim_speed": (sim_speed(ok(untraced), "host_s")
                                     - sim_speed(traced, "host_s"), "sim-s/s"),
    })
    return run, metrics


def check_counts(args) -> int:
    """Compare each traced call count with cProfile's count for the same
    functions, on the workload's first simulation."""
    import cProfile
    import pstats
    import tracing
    import workloads
    run = Run()
    cell = workloads.cells(args.workload, args.seed, 1)[0]
    prof = cProfile.Profile()
    prof.enable()
    profiled = run.simulate(cell, "profiled", True)
    prof.disable()
    stats = pstats.Stats(prof).stats
    with tracing.Tracer() as tracer:
        traced = run.simulate(cell, "traced", True)
    run.same_digests("trace.digest_unchanged", [profiled], [traced])
    for name, keys in sorted(tracer.code_keys().items()):
        expected = sum(stats[k][1] for k in keys if k in stats)
        got = tracer.calls(name)
        run.check(f"calls.{name}", got == expected, f"traced={got} cprofile={expected}")
    return 0 if run.correct and not run.failed else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("relay_long", "coded_lossy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="size the run to about this many seconds on the nominal host")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-counts", action="store_true",
                   help="only compare traced call counts against cProfile")
    args = p.parse_args(argv)
    use_checkout_bpnc()
    if args.check_counts:
        return check_counts(args)
    run, metrics = (per_layer if args.trace else end_to_end)(args)
    metrics["failed_share"] = (run.failed / max(run.attempted, 1), "ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in PRINTED_ONLY},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
