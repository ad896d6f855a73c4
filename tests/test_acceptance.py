"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so a plain ``pytest -v`` run reads as a
checklist.  These are intentionally heavier than the unit suites: they run
full simulations across many seeds.  Expect a few minutes total.
"""

import sys
import time
from itertools import product

import numpy as np
import pytest

from bpnc import channel, engine, protocol, rlnc
from bpnc.gf import FieldContext, gaussian_eliminate

f16 = FieldContext(4)


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- 1. preconditioning equivalence ------------------------------------------

def test_ac1_preconditioning_equivalence():
    t0 = time.monotonic()
    before, after = rlnc.prefix_equivalence_report(
        f16, 4, 10_000, np.random.default_rng(7))
    wall = time.monotonic() - t0
    ok = (
        all(0.90 <= before[i] <= 0.97 for i in range(3))
        and before[3] == 1.0
        and all(after[i] >= 0.99 for i in range(4))
        and after[3] == 1.0
        and wall < 60.0
    )
    report("preconditioning equivalence", ok,
           f"before={np.round(before, 4).tolist()} "
           f"after={np.round(after, 4).tolist()} wall={wall:.1f}s")


# -- 2. loss-free round trip --------------------------------------------------

def test_ac2_round_trip_all_block_sizes():
    rng = np.random.default_rng(11)
    packet_len = 16
    exact = total = 0
    for h in (2, 4, 6, 8):
        for _ in range(1000):
            data = rng.bytes(int(rng.integers(1, h * packet_len)))
            groups = rlnc.pad_block(data, packet_len, h)
            out = []
            for gid, group in enumerate(groups):
                gen = rlnc.Generation(gid, h, 2 * packet_len)
                for pkt in group:
                    gen.add_source_packet(_to_symbols(pkt))
                state = rlnc.DecoderState(f16, h, 2 * packet_len)
                for cp in rlnc.encode_generation(
                        f16, gen, h, rng, mode="rank_increasing"):
                    state.ingest(cp)
                assert state.full_rank
                rows = [state.delivered[i] for i in range(h)]
                out.extend(_to_bytes(r) for r in rows)
            total += 1
            exact += int(rlnc.unpad_block(out) == data)
    report("loss-free round trip", exact == total, f"{exact}/{total} byte-exact")


def _to_symbols(pkt: bytes) -> np.ndarray:
    arr = np.frombuffer(pkt, dtype=np.uint8)
    return np.column_stack([arr >> 4, arr & 0x0F]).reshape(-1)


def _to_bytes(syms: np.ndarray) -> bytes:
    pairs = np.asarray(syms, dtype=np.uint8).reshape(-1, 2)
    return bytes(((pairs[:, 0] << 4) | pairs[:, 1]).tolist())


# -- 3. earliest-decoding prefix property ------------------------------------

def test_ac3_prefix_decoding_property():
    rng = np.random.default_rng(23)
    good = total = 0
    for trial in range(1000):
        h = int(rng.integers(2, 9))
        gen = rlnc.Generation(0, h, 6)
        state = rlnc.DecoderState(f16, h, 6)
        trial_ok = True
        for i in range(h):
            gen.add_source_packet(rng.integers(0, 16, size=6, dtype=np.uint8))
            while True:
                pkt = rlnc.encode_generation(
                    f16, gen, 1, rng, mode="rank_increasing")[0]
                if pkt.tag[i] != 0:  # strictly raises the staircase rank
                    break
            state.ingest(pkt)
            if sorted(state.delivered) != list(range(i + 1)):
                trial_ok = False
        truth = gen.matrix()
        for i in range(h):
            if not np.array_equal(state.delivered[i], truth[i]):
                trial_ok = False
        total += 1
        good += int(trial_ok)
    report("earliest-decoding prefix property", good == total,
           f"{good}/{total} trials decode exactly the filled prefix")


# -- 4. rank-deficient early recovery ----------------------------------------

def test_ac4_rank_deficient_early_recovery():
    t0 = time.monotonic()
    scn = channel.butterfly7()
    scn.coding.decoder = "rank_deficient"
    scn.frame_loss = 0.2
    means = []
    for seed in range(1, 11):
        s = engine.run(engine.apply_override(scn, "duration_s", 600), seed=seed).log.summary
        assert s["early_recovery_count"] > 0
        means.append(s["early_recovery_mean"])
    wall = time.monotonic() - t0
    mean = float(np.mean(means))
    report("rank-deficient early recovery", mean >= 0.50 and wall < 300,
           f"mean pre-full-rank symbol recovery {mean:.3f} "
           f"(per-seed {np.round(means, 3).tolist()}), wall={wall:.0f}s")


# -- 5. block-size sweep shape ------------------------------------------------

def test_ac5_block_size_sweep_shape():
    rows = engine.sweep(channel.butterfly7(), "block_size", [2, 4, 6, 8],
                        seeds=list(range(1, 11)), parallel=True)
    means = [r["delivered_mean"] for r in rows]
    peak = int(np.argmax(means))
    ok = peak not in (0, 3) and means[3] < means[peak]
    report("block-size sweep shape", ok,
           f"delivered means h=2,4,6,8: {np.round(means, 1).tolist()} "
           f"(interior max at h={[2, 4, 6, 8][peak]})")


# -- 6. backpressure stability ------------------------------------------------

# Frozen constant: saturating line7 (arrival rate 5.0) delivers ~2.6 pkt/s
# across seeds; the bottleneck service rate is frozen at 2.4 pkt/s, so the
# builtin arrival rate of 1.2 pkt/s is the 0.5x operating point.
LINE7_BOTTLENECK_RATE = 2.4


def test_ac6_backpressure_stability():
    scn = channel.line7()
    assert scn.flows[0].arrival_rate == pytest.approx(0.5 * LINE7_BOTTLENECK_RATE)
    relays = ("2", "3", "4", "5", "6")
    slopes = {n: [] for n in relays}
    for seed in range(1, 11):
        eng = engine.run(engine.apply_override(scn, "duration_s", 600), seed=seed)
        for n in relays:
            pts = [(float(t), float(v))
                   for t, v in eng.log.series("backlog", node=int(n)) if t >= 300]
            t = np.array([p[0] for p in pts])
            y = np.array([p[1] for p in pts])
            slopes[n].append(float(np.polyfit(t, y, 1)[0]))
    detail = []
    ok = True
    for n in relays:
        arr = np.array(slopes[n])
        mean = arr.mean()
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        lo = mean - 2 * se
        detail.append(f"node {n}: {mean:+.4f}±{2 * se:.4f}")
        if lo > 0:  # CI entirely above zero: a positive trend
            ok = False
    report("backpressure stability", ok,
           "final-half backlog slope pkt/s " + ", ".join(detail))


# -- 7. topology qualitative checks -------------------------------------------

# The narratives describe a loaded network, so both checks run the builtin
# topologies at a saturating arrival rate (5.0 pkt/s).
LOADED_RATE = 5.0


def test_ac7_line_relay_backlog_ordering():
    scn = channel.line7()
    scn.flows[0].arrival_rate = LOADED_RATE
    hits = 0
    for seed in range(1, 11):
        s = engine.run(engine.apply_override(scn, "duration_s", 600), seed=seed).log.summary
        meds = {n: s["per_node"][n]["median_backlog"] for n in "23456"}
        hits += int(meds["2"] > max(meds[n] for n in "3456"))
    report("line topology backlog ordering", hits >= 6,
           f"node 2 has strictly highest relay median backlog in {hits}/10 seeds")


def test_ac7_ring_uses_both_routes():
    scn = channel.ring7()
    scn.flows[0].arrival_rate = LOADED_RATE
    hits = 0
    for seed in range(1, 11):
        s = engine.run(engine.apply_override(scn, "duration_s", 600), seed=seed).log.summary
        df = {n: s["per_node"][n]["data_frames"] for n in "23456"}
        upper = df["2"] + df["6"]
        lower = df["3"] + df["4"] + df["5"]
        hits += int(upper > 0 and lower > 0)
    report("ring topology route diversity", hits >= 6,
           f"both routes carry data frames in {hits}/10 seeds")


# -- 8. power-control convergence ---------------------------------------------

def test_ac8_power_control_convergence():
    noise_mw = 10 ** (-90 / 10)
    ok_seeds = 0
    worst = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        gamma_t = float(rng.uniform(4.0, 32.0))
        gain = 10 ** (float(rng.uniform(-75, -55)) / 10)
        power_dbm = float(rng.uniform(-20, 20))
        rounds = None
        for k in range(1, 21):
            gamma_hat = 10 ** (power_dbm / 10) * gain / noise_mw
            if abs(gamma_hat - gamma_t) <= 0.01 * gamma_t:
                rounds = k - 1
                break
            power_dbm = protocol.apply_power_update(
                power_dbm, gamma_t, gamma_hat, -40.0, 40.0)
        else:
            gamma_hat = 10 ** (power_dbm / 10) * gain / noise_mw
            if abs(gamma_hat - gamma_t) <= 0.01 * gamma_t:
                rounds = 20
        if rounds is not None:
            ok_seeds += 1
            worst = max(worst, rounds)
    report("power-control convergence", ok_seeds == 100,
           f"{ok_seeds}/100 seeds within 1% of target (worst case "
           f"{worst} updates)")


# -- 9. determinism ------------------------------------------------------------

def test_ac9_determinism():
    scn = channel.line7()
    a = engine.run(engine.apply_override(scn, "duration_s", 120), seed=5).packet_log
    b = engine.run(engine.apply_override(scn, "duration_s", 120), seed=5).packet_log
    serial = engine.sweep(scn, "block_size", [1], seeds=[1, 2], parallel=False)
    par = engine.sweep(scn, "block_size", [1], seeds=[1, 2], parallel=True)
    ok = a == b and serial[0]["digests"] == par[0]["digests"]
    report("determinism", ok,
           f"repeat-run logs identical={a == b}, serial/parallel sweep "
           f"digests identical={serial[0]['digests'] == par[0]['digests']}")


# -- 10. property suites --------------------------------------------------------

def _brute_rank(ctx: FieldContext, M: np.ndarray) -> int:
    """Rank as log_q of the row-space size, by enumerating every combination."""
    q, n = ctx.size, M.shape[0]
    coeffs = np.array(list(product(range(q), repeat=n)), dtype=np.uint8)
    span = np.zeros((len(coeffs), M.shape[1]), dtype=np.uint8)
    for i in range(n):
        span ^= ctx.mul_table[coeffs[:, i][:, None], M[i][None, :]]
    packed = np.zeros(len(span), dtype=np.uint64)
    for c in range(M.shape[1]):
        packed = (packed << np.uint64(8)) | span[:, c].astype(np.uint64)
    distinct = len(np.unique(packed))
    return int(round(np.log(distinct) / np.log(q)))


def test_ac10_field_and_elimination_properties():
    vals = range(16)
    algebra_ok = True
    for a, b in product(vals, vals):
        if f16.mul(a, b) != f16.mul(b, a) or f16.add(a, b) != f16.add(b, a):
            algebra_ok = False
    for a, b, c in product(vals, vals, vals):
        if f16.mul(a, f16.mul(b, c)) != f16.mul(f16.mul(a, b), c):
            algebra_ok = False
        if f16.mul(a, f16.add(b, c)) != f16.add(f16.mul(a, b), f16.mul(a, c)):
            algebra_ok = False
    for a in range(1, 16):
        if f16.mul(a, f16.inv(a)) != 1:
            algebra_ok = False

    f2 = FieldContext(1)
    mismatch = 0
    for n in (2, 3):
        for bits in product(range(2), repeat=n * n):
            M = np.array(bits, dtype=np.uint8).reshape(n, n)
            if gaussian_eliminate(f2, M)[1] != _brute_rank(f2, M):
                mismatch += 1
    rng = np.random.default_rng(42)
    for _ in range(1000):
        M = rng.integers(0, 16, size=(4, 4), dtype=np.uint8)
        if gaussian_eliminate(f16, M)[1] != _brute_rank(f16, M):
            mismatch += 1
    report("field and elimination properties", algebra_ok and mismatch == 0,
           f"algebra laws hold, rank mismatches={mismatch} over "
           "all 2x2/3x3 binary matrices + 1000 random 4x4")


# -- substitutes for excluded absolute measurements ---------------------------

def test_energy_scales_linearly_with_time():
    eng = engine.run(engine.apply_override(channel.line7(), "duration_s", 600), seed=3)
    per_node = {nid: [(float(t), float(v)) for t, v in eng.log.series("energy_mj", node=nid)]
                for nid in eng.nodes}
    worst = 1.0
    for pts in per_node.values():
        pts = pts[len(pts) // 5:]
        t = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        pred = np.polyval(np.polyfit(t, y, 1), t)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        worst = min(worst, 1 - ss_res / ss_tot if ss_tot else 1.0)
    report("energy linearity", worst >= 0.9, f"worst per-node R^2={worst:.4f}")


def test_decode_cost_grows_with_field_width():
    # the cost of a symbol multiply, counted as the lines gf.mul_slow
    # executes under sys.settrace rather than timed, so the load of the
    # host cannot change it
    from bpnc.gf import mul_slow

    def workload(m: int, poly: int) -> int:
        mask = (1 << m) - 1
        rng = np.random.default_rng(m)
        pairs = rng.integers(1, mask + 1, size=(4000, 2))
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count_lines

        def on_call(frame, event, arg):
            # only mul_slow's own frames are traced line by line
            return count_lines if frame.f_code is mul_slow.__code__ else None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            for a, b in pairs:
                mul_slow(int(a), int(b), m, poly)
        finally:
            sys.settrace(previous)
        return lines

    narrow = workload(2, 0b111)
    wide = workload(8, 0x11B)
    report("decode cost vs field width", wide > narrow,
           f"symbol-multiply lines executed: m=2 {narrow}, m=8 {wide}")
