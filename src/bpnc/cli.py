"""Command-line front end: run, sweep, and the full experiment suite."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import channel as ch
from . import engine, gf, rlnc

EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def default_out() -> str:
    return os.environ.get("BPNC_OUT", "out")


def load_scenario(args) -> ch.Scenario:
    if args.scenario:
        scn = ch.load_scenario(args.scenario)
    else:
        if args.builtin not in ch.BUILTINS:
            raise ch.ScenarioError(
                f"builtin: unknown scenario {args.builtin!r}; "
                f"choices are {sorted(ch.BUILTINS)}"
            )
        scn = ch.BUILTINS[args.builtin]()
    # each option is a sweep alias; applied together, so only the final
    # combination has to be valid
    settings = {k: getattr(args, k, None)
                for k in ("block_size", "decoder", "field_bits", "duration")}
    return engine.apply_overrides(scn, {k: v for k, v in settings.items() if v is not None})


def cmd_run(args) -> int:
    scn = load_scenario(args)
    eng = engine.run(scn, seed=args.seed)
    engine.write_outputs(eng, args.out)
    print(f"wrote metrics.csv, summary.json, packets.log to {args.out}")
    return 0


def parse_param(spec: str) -> tuple[str, list[str]]:
    if "=" not in spec:
        raise ch.ScenarioError("param: expected key=v1,v2,...")
    key, _, raw = spec.partition("=")
    values = [v for v in raw.split(",") if v]
    if not key or not values:
        raise ch.ScenarioError("param: empty key or value list")
    return key, values


def seed_list(count: int) -> list[int]:
    """Seeds 1..count; a sweep over no seed has no row to report."""
    if count < 1:
        raise ch.ScenarioError(f"seeds: must be at least 1, got {count}")
    return list(range(1, count + 1))


def cmd_sweep(args) -> int:
    seeds = seed_list(args.seeds)
    scn = load_scenario(args)
    key, values = parse_param(args.param)
    rows = engine.sweep(scn, key, values, seeds, parallel=args.parallel)
    engine.write_sweep(rows, args.out)
    print(f"wrote sweep.csv, accuracy.csv to {args.out}")
    return 0


def cmd_paper_suite(args) -> int:
    seeds = seed_list(args.seeds)
    out = Path(args.out)

    # block preconditioning report (per-packet equivalence rates)
    before, after = rlnc.prefix_equivalence_report(
        gf.FieldContext(4), 4, 2000, np.random.default_rng(1))
    tdir = out / "preconditioning"
    tdir.mkdir(parents=True, exist_ok=True)
    with open(tdir / "report.csv", "w") as f:
        f.write("packet,rate_before,rate_after\n")
        for i in range(4):
            f.write(f"{i + 1},{before[i]},{after[i]}\n")

    # single-flow topologies: backlog / energy / overhead series
    for name in ("line7", "ring7", "grid6"):
        for seed in seeds:
            eng = engine.run(ch.BUILTINS[name](), seed=seed)
            engine.write_outputs(eng, out / name / f"seed{seed}")

    # multicast coding: block-size sweep; the rank-deficient decoder runs
    # the same simulation as the earliest one and also scores early recovery
    bf = engine.apply_override(ch.butterfly7(), "decoder", "rank_deficient")
    rows = engine.sweep(bf, "block_size", [2, 4, 6, 8], seeds, parallel=args.parallel)
    engine.write_sweep(rows, out / "blocksize")
    print(f"wrote experiment suite to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bpnc",
        description="Deterministic simulator of a multichannel wireless stack: "
        "four-phase spectrum coordination, penalized backpressure routing, and "
        "generation-based network coding.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--scenario", help="scenario YAML file path")
        g.add_argument("--builtin", default="line7",
                       help="builtin scenario: line7, ring7, grid6, butterfly7")
        sp.add_argument("--out", default=default_out(),
                        help="output directory (defaults to $BPNC_OUT or ./out)")
        sp.add_argument("--block-size", type=int,
                        help="coding generation size h (coding.block_size)")
        sp.add_argument("--decoder", choices=ch.DECODERS,
                        help="decoder mode (coding.decoder)")
        sp.add_argument("--field-bits", type=int,
                        help="GF(2^m) symbol width m: 1, 2, 4 or 8 (coding.field_bits)")

    sp = sub.add_parser("run", help="single simulation run")
    common(sp)
    sp.add_argument("--seed", type=int, default=1,
                    help="run seed (engine argument, not a scenario field)")
    sp.add_argument("--duration", type=float,
                    help="simulated seconds (scenario.duration_s)")
    sp.set_defaults(fn=cmd_run)

    # a command that takes --seeds does not read --seed as its abbreviation
    sp = sub.add_parser("sweep", help="parameter sweep over seeds", allow_abbrev=False)
    common(sp)
    sp.add_argument("--param", required=True,
                    help="key=v1,v2,... e.g. block_size=2,4,6,8 or "
                    "decoder=earliest,rank_deficient")
    sp.add_argument("--seeds", type=int, default=5, help="number of seeds k: runs seeds 1..k")
    sp.add_argument("--parallel", action="store_true",
                    help="run (value, seed) cells in worker processes")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("paper-suite", help="regenerate the full experiment set",
                        allow_abbrev=False)
    sp.add_argument("--out", default=default_out(),
                    help="output directory (defaults to $BPNC_OUT or ./out)")
    sp.add_argument("--seeds", type=int, default=3, help="seeds per experiment")
    sp.add_argument("--parallel", action="store_true",
                    help="parallelize sweep cells")
    sp.set_defaults(fn=cmd_paper_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ch.ScenarioError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
