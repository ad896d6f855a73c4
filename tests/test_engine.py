"""Event loop, conservation, energy accounting, sweeps, determinism."""

import dataclasses
import hashlib
import importlib
import itertools
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc import channel as ch
from bpnc import engine, gf, protocol, rlnc, wire


def test_zero_duration_run_is_empty():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 0), seed=1)
    assert len(eng.packet_log) == 0
    series = [eng.log.series(kind, node=nid) for kind in ("backlog", "overhead")
              for nid in eng.nodes]
    series += [eng.log.series("delivered", flow=fi) for fi in eng.delivered]
    assert all(v in (0, 0.0) for s in series for _, v in s)


@pytest.mark.parametrize("duration_s", [0, 60])
def test_event_count_is_the_callbacks_dispatched(duration_s):
    # an event past the run's end stays queued, so scheduled minus still
    # queued is exactly the number of callbacks that ran
    eng = engine.Engine(engine.apply_override(ch.line7(), "duration_s", duration_s), seed=1)
    ran = 0
    schedule_at = eng.schedule_at

    def counted(t_us, fn):
        def dispatch():
            nonlocal ran
            ran += 1
            fn()
        schedule_at(t_us, dispatch)

    eng.schedule_at = counted
    eng.run()
    assert ran == eng._seq - len(eng._heap)
    assert (ran > 0) == (duration_s > 0)


def test_same_seed_identical_packet_logs():
    a = engine.run(engine.apply_override(ch.line7(), "duration_s", 150), seed=11)
    b = engine.run(engine.apply_override(ch.line7(), "duration_s", 150), seed=11)
    assert a.packet_log == b.packet_log


@pytest.mark.parametrize("seed", [-1, 2**32, True, 1.0])
def test_engine_refuses_a_seed_outside_32_bits(seed):
    # every generator takes the seed as one 32-bit word, so a wider seed
    # would run as another seed's digest under its own name
    with pytest.raises(ch.ScenarioError, match=r"^seed: "):
        engine.Engine(ch.line7(), seed)


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_engine_takes_the_32_bit_seed_bounds(seed):
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 30), seed)
    assert eng.log.summary["seed"] == seed


def _lossy_coded_butterfly7():
    scn = ch.butterfly7()
    scn.coding.block_size = 4
    scn.coding.field_bits = 4
    scn.coding.decoder = "rank_deficient"
    scn.frame_loss = 0.1
    return scn.validate()


def _asymmetric_line7():
    # hop 2-3 is weak on channels 0 and 2, and on channel 1 its two
    # directions differ, so DATA 2->3 goes out on channel 1 at -60 dB and its
    # replies come back at -70 dB; node 1 also reaches node 3 on channel 1 only
    base = ch.line7()
    return dataclasses.replace(base, name="line7_asymmetric", links=base.links + [
        ch.LinkConfig(2, 3, -72.0, channel=0),
        ch.LinkConfig(2, 3, -72.0, channel=2),
        ch.LinkConfig(1, 3, -75.0, channel=1),
        ch.LinkConfig(2, 3, -60.0, channel=1),
        ch.LinkConfig(3, 2, -70.0, channel=1),
    ]).validate()


def _two_way_line7():
    # flow 0 is listed first but sorts after flow 1 by (source, destinations)
    base = ch.line7()
    return dataclasses.replace(base, name="line7_two_way", flows=[
        ch.FlowConfig(7, (1,), 0.6), ch.FlowConfig(1, (7,), 0.6),
    ]).validate()


def _unicast_and_multicast_butterfly7():
    scn = ch.butterfly7()
    scn.flows = [ch.FlowConfig(4, (6,), 0.4), ch.FlowConfig(1, (6, 7), 0.8)]
    scn.frame_loss = 0.1
    scn.coding.decoder = "rank_deficient"
    return scn.validate()


def _grid(k):
    """k x k nodes, numbered row by row, each with a strong link to its right
    and lower neighbours.  Coded multicast goes from corner 1 to corners k
    and k*k, and one unicast crosses from corner k*k-k+1 to corner k."""
    links = [ch.LinkConfig(a, a + 1, ch.STRONG_GAIN_DB)
             for a in range(1, k * k + 1) if a % k]
    links += [ch.LinkConfig(a, a + k, ch.STRONG_GAIN_DB) for a in range(1, k * k - k + 1)]
    return ch.Scenario(
        name=f"grid{k}x{k}", num_nodes=k * k, num_channels=3, links=links,
        flows=[ch.FlowConfig(1, (k, k * k), 1.0), ch.FlowConfig(k * k - k + 1, (k,), 1.0)],
        coding=ch.CodingConfig(enabled=True, block_size=4)).validate()


def _grid3x3():
    return _grid(3)


# The packet-log digest is the behaviour contract: a change that is meant to
# be behaviour-preserving (a speed-up, a deletion) must leave these as they are.
PINNED_DIGESTS = [
    (ch.line7, 600,
     "f7b03b3ad048432c1e863da740d820167dd4dfc4220f0d1de2a22dd0a674f8e2"),
    (_lossy_coded_butterfly7, 300,
     "9dfab0c66a139eb12fb9e904bc374df2b3310288a9d11f7337dad6bf48b06a3e"),
    (ch.ring7, 300,
     "99f657d99835274c4122ac39047bc4575428375c38bfd6ca3ffd0d11cdd59052"),
    (ch.grid6, 300,
     "f0ddb332a9259d9353f27613b94740e644125bafe4fa2ea26b79fbbe6c8c216a"),
    (ch.butterfly7, 300,
     "cbfed117405ed3b5f9ef1d33cced4a322b82ba0dd8dab01604bcc1e333d61de9"),
    (_asymmetric_line7, 300,
     "15e455a1cc595bd95080c9b2ca87d55b05bafe35a97600f82c4c081bf9a2571c"),
    # two flows each: SYN entries and flow ties follow (source,
    # destinations), not the order flows are listed in
    (_two_way_line7, 600,
     "51128f92cb21a83c1f2c314435f386b349c6bd6f3301b126e11389233337551b"),
    (_unicast_and_multicast_butterfly7, 300,
     "44f63dd8d9dfa30ed89a96f369a359e8fc57ac44690013164d51e021798082dd"),
    # nine nodes: both flows deliver within 300 s
    (_grid3x3, 300,
     "4cf822a94ac927ca2f122a38d14ef940c398965e81eeb5864439bf8ad8fb9e9d"),
]


@pytest.mark.parametrize("make_scn,duration_s,digest", PINNED_DIGESTS,
                         ids=["line7", "butterfly7_lossy_coded", "ring7", "grid6",
                              "butterfly7", "line7_asymmetric", "line7_two_way",
                              "butterfly7_unicast_and_multicast", "grid3x3"])
def test_packet_log_digest_pinned(make_scn, duration_s, digest):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    assert engine.packet_log_digest(eng.packet_log) == digest


# summary.json and metrics.csv as write_outputs writes them, at seed 1
PINNED_OUTPUTS = [
    (ch.line7, 600,
     "d06ed10d7f71bfbc2c02cac888855c765f729111a26e489bc1e21d5881f195e8",
     "d0b53db19f8c3dcd55506ed86d14c74d4812642c3955e4d88e2615a0fa04678a"),
    (_lossy_coded_butterfly7, 300,
     "e0f18e96a72c29bccef661cab78781b55514ea77b0c2110e8dc4d6aeb15ec62f",
     "c87f28c137c33be90e8ca40dcfb8a6a995d5417c904e71482b1224661b147145"),
]


@pytest.mark.parametrize("make_scn,duration_s,summary,metrics", PINNED_OUTPUTS,
                         ids=["line7", "butterfly7_lossy_coded"])
def test_output_files_pinned(tmp_path, make_scn, duration_s, summary, metrics):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    engine.write_outputs(eng, tmp_path)
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == summary
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == metrics


def test_known_scenarios_pass_validation(monkeypatch):
    # range checks must not reject any scenario the suite or benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    scenarios = [make() for make in ch.BUILTINS.values()]
    scenarios += [build() for build, _ in workloads.WORKLOADS.values()]
    scenarios += [make_scn() for make_scn, _, _ in PINNED_DIGESTS]
    assert len(scenarios) == 4 + 2 + len(PINNED_DIGESTS)
    for scn in scenarios:
        scn.validate()


def test_benchmark_tracer_restores_what_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps protocol, rlnc, gf, wire, channel, engine
    # and backpressure names by attribute: a rename breaks it here first
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    targets = ([(owner, attr) for _, owner, attr, _ in tracing.SPANS]
               + [(owner, attr) for _, owner, attr in tracing.COUNTS])
    originals = [vars(owner)[attr] for owner, attr in targets]
    with tracing.Tracer():
        assert all(vars(owner)[attr] is not fn
                   for (owner, attr), fn in zip(targets, originals))
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(targets, originals))


@pytest.mark.parametrize("seconds", [float("nan"), -5.0])
def test_run_length_is_the_validated_scenario_duration(seconds):
    scn = ch.line7()
    scn.duration_s = seconds
    with pytest.raises(ch.ScenarioError, match="duration_s"):
        engine.run(scn, seed=1)
    with pytest.raises(ch.ScenarioError, match="duration_s"):
        engine.apply_override(ch.line7(), "duration_s", seconds)
    with pytest.raises(TypeError):
        engine.Engine(ch.line7(), 1, seconds)


def test_early_recovery_pinned():
    # the rank-deficient solve reaches summary.json only, not the packet log
    scn = engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300)
    s = engine.run(scn, seed=1).log.summary
    assert s["early_recovery_mean"] == 0.7649857142857143
    assert s["early_recovery_count"] == 35


def test_decoder_choice_leaves_the_packet_log_alone():
    # coding.decoder only decides whether the engine scores estimates: with
    # the earliest decoder the run is the rank-deficient one
    scn = engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300)
    eng = engine.run(engine.apply_override(scn, "coding.decoder", "earliest"), seed=1)
    assert engine.packet_log_digest(eng.packet_log) == PINNED_DIGESTS[1][2]
    assert eng.log.summary["early_recovery_count"] == 0


def test_num_channels_override_keeps_every_frame_on_channel_0():
    scn = engine.apply_override(ch.line7(), "num_channels", "1")
    assert scn.num_channels == 1
    eng = engine.run(engine.apply_override(scn, "duration_s", 120), seed=1)
    assert eng.packet_log and all(line.split(" ")[1] == "0" for line in eng.packet_log)


def test_a_run_parses_no_frame(monkeypatch):
    # frames are built on the wire grid, so receivers are handed the
    # sender's own frame and nothing is parsed, DATA or control
    calls = 0
    unpack = wire.unpack

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return unpack(*args, **kwargs)

    monkeypatch.setattr(wire, "unpack", counted)
    eng = engine.run(engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300), seed=1)
    assert {"DIS", "SYN", "RTS", "CTS", "DATA"} <= {line.split(" ")[3] for line in eng.packet_log}
    assert calls == 0
    # a node sends a held frame only while it has credit for it
    held = [rg for n in eng.nodes.values() for rg in n.relay_gens.values()]
    assert held and all(0 <= rg.sent <= rg.rcvd for rg in held)


@pytest.mark.parametrize("make_scn", [*ch.BUILTINS.values(), _lossy_coded_butterfly7],
                         ids=[*ch.BUILTINS, "butterfly7_lossy_coded"])
def test_every_frame_sent_equals_its_parse(monkeypatch, make_scn):
    # what a receiver is handed (the sender's frame) is what the wire carries
    sent = Counter()
    transmit = engine.Engine.transmit

    def checked(eng, node, chan, frame):
        assert wire.unpack(frame.pack(), eng.scn.coding.field_bits) == frame
        sent[type(frame)] += 1
        return transmit(eng, node, chan, frame)

    monkeypatch.setattr(engine.Engine, "transmit", checked)
    engine.run(engine.apply_override(make_scn(), "duration_s", 300), seed=1)
    assert sent[wire.RtsFrame] > 0 and sent[wire.DataFrame] > 0


def test_repeated_rts_reaches_receivers_as_one_object(monkeypatch):
    # every receiver of a transmission is handed the very object its sender
    # passed to transmit, an RTS retry (the bytes of its sender's last RTS)
    # included
    sent = {}  # id(tx) -> (tx, the frame the sender passed, is an RTS retry)
    last_rts = {}  # sender -> bytes of its last RTS
    transmit = engine.Engine.transmit

    def recording_transmit(eng, node, chan, frame):
        retry = False
        if isinstance(frame, wire.RtsFrame):
            raw = frame.pack()
            retry = last_rts.get(node.id) == raw
            last_rts[node.id] = raw
        air = transmit(eng, node, chan, frame)
        sent[id(eng.active[-1])] = (eng.active[-1], frame, retry)
        return air

    delivering = None
    retry_receptions = 0
    deliver = engine.Engine._deliver
    handle_frame = protocol.Node.handle_frame

    def recording_deliver(eng, tx):
        nonlocal delivering
        delivering = tx
        return deliver(eng, tx)

    def recording_handle(node, src, chan, frame, *args):
        nonlocal retry_receptions
        tx, passed, retry = sent[id(delivering)]
        assert tx is delivering and frame is passed
        retry_receptions += retry
        return handle_frame(node, src, chan, frame, *args)

    monkeypatch.setattr(engine.Engine, "transmit", recording_transmit)
    monkeypatch.setattr(engine.Engine, "_deliver", recording_deliver)
    monkeypatch.setattr(protocol.Node, "handle_frame", recording_handle)
    engine.run(engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300), seed=1)
    assert retry_receptions > 0


def test_channel_draws_are_the_scalar_stream():
    # the medium draws its uniforms DRAW_BUFFER at a time; they are the
    # stream scalar Generator.random() calls give from the same seed
    eng = engine.Engine(engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300), seed=1)
    drawn = []

    def recording(uniforms):
        for u in uniforms:
            drawn.append(u)
            yield u

    eng.uniforms = recording(eng.uniforms)
    eng.run()
    assert engine.packet_log_digest(eng.packet_log) == PINNED_DIGESTS[1][2]
    assert len(drawn) > 3 * engine.DRAW_BUFFER
    rng = np.random.default_rng(np.random.SeedSequence([1, 0x5EED]))
    assert drawn == [rng.random() for _ in drawn]


def test_reach_follows_the_senders_power(monkeypatch):
    # node 1 reaches node 3 on channel 1 over a -75 dB link: above the
    # -88 dBm sensitivity at -10 dBm, below it at -15 dBm.  Power is forced
    # to alternate mid-run.  The run is lossless, so a delivery draws once
    # per receiver, and it draws for exactly the nodes the scenario's gains
    # put at or above sensitivity at the sender's power
    scn = engine.apply_override(_asymmetric_line7(), "duration_s", 300)
    assert scn.frame_loss == 0
    eng = engine.Engine(scn, seed=1)
    seen = Counter()  # (src, chan, power) -> deliveries
    drawn = 0

    def counting(uniforms):
        nonlocal drawn
        for u in uniforms:
            drawn += 1
            yield u

    eng.uniforms = counting(eng.uniforms)
    deliver = engine.Engine._deliver

    def checked(eng, tx):
        before = drawn
        deliver(eng, tx)
        expected = sum(1 for nid in eng.nodes if nid != tx.src
                       and tx.power_dbm + scn.gain_db(tx.src, nid, tx.chan)
                       >= scn.phy.sensitivity_dbm)
        assert drawn - before == expected
        seen[(tx.src, tx.chan, tx.power_dbm)] += 1

    def force_power(dbm):
        def fire():
            eng.nodes[1].power_dbm = dbm
        return fire

    for k in range(1, 30):
        eng.schedule_at(k * 10 * engine.US, force_power(-15.0 if k % 2 else -10.0))
    monkeypatch.setattr(engine.Engine, "_deliver", checked)
    eng.run()
    assert seen[(1, 1, -10.0)] > 0 and seen[(1, 1, -15.0)] > 0


def _fresh_reach(eng, src, chan, power):
    """The receivers of src on chan at or above sensitivity at power, found
    from the scenario's gains."""
    scn = eng.scn
    return [(nid, eng.nodes[nid], power + g) for nid in sorted(eng.nodes)
            if nid != src and (g := scn.gain_db(src, nid, chan)) != float("-inf")
            and power + g >= scn.phy.sensitivity_dbm]


def _fresh_link_rate(node, rxp):
    scn = node.scn
    snr = ch.db_to_linear(rxp - scn.phy.noise_floor_dbm)
    return ch.link_rate(scn, snr, scn.coding.packet_len)[0]


@pytest.mark.parametrize("make_scn,duration", [(ch.line7, 600), (_lossy_coded_butterfly7, 300)])
def test_memoized_values_equal_a_fresh_build(monkeypatch, make_scn, duration):
    # each per-value table (RTS per schedule, SYN per entries, reach per
    # sender power, link rate per received power) holds what building the
    # value afresh at that moment gives
    checked = Counter()
    transmit = engine.Engine.transmit

    def checking(eng, node, chan, frame):
        if isinstance(frame, wire.RtsFrame):
            assert frame is node.pending.rts and frame.tx == node.id
            checked["rts"] += 1
        elif isinstance(frame, wire.SynFrame):
            assert frame == wire.SynFrame(node.id, node.queues.entries())
            checked["syn"] += 1
        key = (node.id, chan, node.power_dbm)
        if key in eng.reach:
            assert eng.reach[key] == _fresh_reach(eng, *key)
            checked["reach"] += 1
        for rec in node.neighbors.values():
            for c in range(eng.scn.num_channels):
                g = rec.gains_db.get(c, rec.best_gain_db())
                assert node.link_rate_to(rec, c) == _fresh_link_rate(node, node.power_dbm + g)
                checked["link_rate"] += 1
        return transmit(eng, node, chan, frame)

    monkeypatch.setattr(engine.Engine, "transmit", checking)
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration), seed=1)
    assert min(checked[k] for k in ("rts", "syn", "reach", "link_rate")) > 100
    for key, reach in eng.reach.items():
        assert reach == _fresh_reach(eng, *key)
    # and at every power a node may take, also over a weak link, whose rate
    # (unlike a builtin link's) changes with power
    power = eng.scn.power
    weak = protocol.NeighborRecord(gains_db={0: ch.WEAK_GAIN_DB})
    for node in eng.nodes.values():
        for node.power_dbm in (power.min_dbm, power.init_dbm, power.max_dbm):
            for rec in [*node.neighbors.values(), weak]:
                for c in range(eng.scn.num_channels):
                    g = rec.gains_db.get(c, rec.best_gain_db())
                    assert node.link_rate_to(rec, c) == _fresh_link_rate(node, node.power_dbm + g)
    for rxp, rate in eng.link_rates.items():
        assert rate == _fresh_link_rate(eng.nodes[1], rxp)


@pytest.mark.parametrize("make_scn,duration", [(ch.line7, 600), (_lossy_coded_butterfly7, 300)])
def test_link_rate_computed_once_per_received_power(monkeypatch, make_scn, duration):
    # every node reads the engine's one link-rate table, so a received power
    # any number of nodes weigh is computed once in the run
    calls = 0
    link_rate = ch.link_rate

    def counted(*args):
        nonlocal calls
        calls += 1
        return link_rate(*args)

    monkeypatch.setattr(ch, "link_rate", counted)
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration), seed=1)
    assert calls == len(eng.link_rates) > 0


def test_memos_do_not_grow_with_simulated_time(monkeypatch):
    # every per-value table is keyed by values a run takes few of, so a run
    # four times longer holds the same entries
    powers = set()
    transmit = engine.Engine.transmit

    def recording(eng, node, chan, frame):
        powers.add(node.power_dbm)
        return transmit(eng, node, chan, frame)

    monkeypatch.setattr(engine.Engine, "transmit", recording)
    sizes = []
    for duration in (600, 2400):
        eng = engine.run(engine.apply_override(ch.line7(), "duration_s", duration), seed=1)
        assert len(eng.reach) <= len(eng.nodes) * eng.scn.num_channels * len(powers)
        sizes.append((len(eng.reach), len(eng.mw), len(eng.airtimes), len(eng.clear_p_ok),
                      len(eng.link_rates)))
    assert sizes[0] == sizes[1]
    assert sizes[0][0] > 0 and sizes[0][4] > 0


def test_only_the_medium_decides_reception(monkeypatch):
    # Engine._deliver is the one reception rule: a node is handed only frames
    # at or above sensitivity and keeps no copy of the cut.  Nodes 1 and 3
    # are -75 dB apart on channel 1, below the cut once power control takes
    # either to -15 dBm
    scn = engine.apply_override(_asymmetric_line7(), "duration_s", 300)
    sensitivity = scn.phy.sensitivity_dbm
    heard = []
    skipping = 0  # deliveries that skipped a receiver below sensitivity
    deliver = engine.Engine._deliver
    handle = protocol.Node.handle_frame

    def counting(eng, tx):
        nonlocal skipping
        skipping += any(tx.power_dbm + g < sensitivity
                        for g in eng.receivers[tx.src][tx.chan].values())
        return deliver(eng, tx)

    def recording(node, src, chan, frame, rx_power_dbm, tx_power_dbm):
        heard.append(rx_power_dbm)
        return handle(node, src, chan, frame, rx_power_dbm, tx_power_dbm)

    monkeypatch.setattr(engine.Engine, "_deliver", counting)
    monkeypatch.setattr(protocol.Node, "handle_frame", recording)
    engine.run(scn, seed=1)
    assert heard and min(heard) >= sensitivity
    assert skipping > 0


def test_later_hops_resend_the_sources_frame(monkeypatch):
    # line7 with coding off: every DATA frame is built at node 1, packed
    # once there, and then relayed as that very object, hop by hop, to node 7
    delivered = []
    deliver = engine.Engine._deliver

    def recording(eng, tx):
        delivered.append(tx)
        return deliver(eng, tx)

    monkeypatch.setattr(engine.Engine, "_deliver", recording)
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    logged = {}
    for line in eng.packet_log:
        t_us, _, src, kind, hexed = line.split(" ")
        logged[(int(t_us), int(src))] = bytes.fromhex(hexed)
    first_hop = {}
    hops = Counter()
    for tx in delivered:
        if not isinstance(tx.frame, wire.DataFrame):
            continue
        raw = logged[(tx.start_us, tx.src)]
        assert tx.frame.pack() is tx.frame.raw
        assert tx.frame.raw == raw
        first = first_hop.setdefault(raw, tx)
        assert tx.frame is first.frame
        assert (tx is first) == (tx.src == 1)
        hops[raw] += 1
    assert max(hops.values()) >= 6  # relayed all the way, 1 -> 7


def test_held_frames_keep_one_copy_of_their_payload():
    # a frame's payload is a view of its bytes, not a second copy of them
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    held = [f for node in eng.nodes.values() for rg in node.relay_gens.values() for f in rg.pkts]
    assert held
    for f in held:
        assert np.shares_memory(np.frombuffer(f.payload, np.uint8), np.frombuffer(f.raw, np.uint8))


def _sensing_off_butterfly7():
    scn = ch.butterfly7()
    scn.sensing_enabled = False
    return scn.validate()


@pytest.mark.parametrize("make_scn,duration", [(ch.line7, 600), (_sensing_off_butterfly7, 300)])
def test_clear_reception_odds_computed_once_per_key(monkeypatch, make_scn, duration):
    # a reception no other carrier reaches has odds that depend only on its
    # received power and frame length; the others are computed per receiver.
    # The oracle counts both kinds from the scenario's gains before each
    # delivery, and only calls made while delivering count (not the MAC's
    # link-rate estimates).
    interfered = clear = calls = 0
    keys = set()
    delivering = False
    deliver = engine.Engine._deliver
    success_prob = ch.frame_success_prob

    def counting_deliver(eng, tx):
        nonlocal interfered, clear, delivering
        scn = eng.scn
        others = [a for a in eng.active
                  if a is not tx and a.chan == tx.chan and a.src != tx.src
                  and a.start_us < tx.end_us and a.end_us > tx.start_us]
        for nid in eng.nodes:
            g = scn.gain_db(tx.src, nid, tx.chan)
            if nid == tx.src or tx.power_dbm + g < scn.phy.sensitivity_dbm:
                continue
            if any(a.src != nid and scn.gain_db(a.src, nid, tx.chan) > float("-inf")
                   for a in others):
                interfered += 1
            else:
                clear += 1
                keys.add((tx.power_dbm + g, tx.nbytes))
        delivering = True
        try:
            return deliver(eng, tx)
        finally:
            delivering = False

    def counted(*args, **kwargs):
        nonlocal calls
        calls += delivering
        return success_prob(*args, **kwargs)

    monkeypatch.setattr(engine.Engine, "_deliver", counting_deliver)
    monkeypatch.setattr(ch, "frame_success_prob", counted)
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration), seed=1)
    assert clear > 10 * len(keys)
    assert interfered > 0 and eng.collision_losses > 0
    assert calls == interfered + len(keys)
    assert set(eng.clear_p_ok) == keys


@pytest.mark.parametrize("make_scn", [_asymmetric_line7, ch.ring7, ch.butterfly7])
def test_receiver_table_matches_gain_lookup(make_scn):
    scn = make_scn()
    eng = engine.Engine(scn, seed=1)
    for src in eng.nodes:
        for chan in range(scn.num_channels):
            expected = {dst: scn.gain_db(src, dst, chan) for dst in sorted(eng.nodes)
                        if dst != src and scn.gain_db(src, dst, chan) > float("-inf")}
            table = eng.receivers[src][chan]
            assert table == expected
            assert list(table) == sorted(table)


def test_receiver_table_keeps_link_direction():
    eng = engine.Engine(_asymmetric_line7(), seed=1)
    assert eng.receivers[2][1][3] == -60.0
    assert eng.receivers[3][1][2] == -70.0
    assert eng.receivers[2][0][3] == eng.receivers[3][0][2] == -72.0
    assert 3 in eng.receivers[1][1] and 3 not in eng.receivers[1][0]


def test_run_makes_no_gain_lookups(monkeypatch):
    # the medium resolves the static topology once, when the engine is built
    eng = engine.Engine(engine.apply_override(_asymmetric_line7(), "duration_s", 300), seed=1)
    calls = 0
    gain_db = ch.Scenario.gain_db

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return gain_db(*args, **kwargs)

    monkeypatch.setattr(ch.Scenario, "gain_db", counted)
    eng.run()
    assert len(eng.packet_log) > 0
    assert calls == 0


def reference_gain_db(scn, i, j, chan):
    """gain_db as a scan of every link, ranking each link by its key's place
    in the precedence order; of two links at the same rank, the later wins."""
    keys = ((i, j, chan), (j, i, chan), (i, j, None), (j, i, None))
    rank, gain = len(keys), float("-inf")
    for l in scn.links:
        key = (l.src, l.dst, l.channel)
        if key in keys and keys.index(key) <= rank:
            rank, gain = keys.index(key), l.gain_db
    return gain


@st.composite
def linked_scenarios(draw):
    """Up to 14 links, repeated keys and self-links included, either
    direction, pinned to a channel or not, with -inf and sub-sensitivity
    gains among them."""
    n = draw(st.integers(2, 9))
    num_channels = draw(st.integers(1, 4))
    node = st.integers(1, n)
    gain = st.sampled_from([float("-inf"), -200.0, -70.0, -55.0]) | st.floats(-1000, 1000)
    link = st.builds(ch.LinkConfig, node, node, gain,
                     st.none() | st.integers(0, num_channels - 1))
    return ch.Scenario("generated", n, num_channels, draw(st.lists(link, max_size=14)),
                       [ch.FlowConfig(1, (2,), 1.0)]).validate()


@settings(max_examples=200, deadline=None)
@given(linked_scenarios())
def test_receiver_table_is_the_all_pairs_gain_lookup(scn):
    eng = engine.Engine(scn, seed=1)
    for src in eng.nodes:
        for chan in range(scn.num_channels):
            gains = {dst: scn.gain_db(src, dst, chan) for dst in sorted(eng.nodes)}
            assert gains == {dst: reference_gain_db(scn, src, dst, chan) for dst in gains}
            assert list(eng.receivers[src][chan].items()) == [
                (dst, g) for dst, g in gains.items() if dst != src and g != float("-inf")]


def test_engine_looks_up_linked_pairs_only(monkeypatch):
    # a pair that no link names is unconnected, so a 10 x 10 grid needs one
    # lookup per linked pair, direction and channel, not one per node pair
    scn = _grid(10)
    calls = 0
    gain_db = ch.Scenario.gain_db

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return gain_db(*args, **kwargs)

    monkeypatch.setattr(ch.Scenario, "gain_db", counted)
    engine.Engine(scn, seed=1)
    assert 0 < calls <= 2 * len(scn.links) * scn.num_channels == 1080


def test_unchanged_decoder_state_is_scored_once_truth_arrives():
    # receptions before the source registers a generation's truth are not
    # scored, so the first one after it is, even when it adds no rank; the
    # truth is packed bytes, scored against the estimates symbol by symbol
    eng = engine.Engine(_lossy_coded_butterfly7(), seed=1)
    X = np.frombuffer(gf.symbols_to_bytes(np.arange(32) % 16, 4), np.uint8).reshape(4, 4)
    pkt = rlnc.CodedPacket([1, 0, 0, 0], X[0])
    dec = rlnc.DecoderState(eng.ctx, 4, 4)
    dec.ingest(pkt)
    eng.on_destination_ingest(6, 0, 0, dec, 0)
    assert eng.truth == {}
    eng.register_truth(0, 0, X, 4)
    dec.ingest(pkt)
    eng.on_destination_ingest(6, 0, 0, dec, 1)
    assert eng.truth[(0, 0)].best == {6: 8}  # row 0's 8 symbols are certain


def test_truth_is_one_packed_copy():
    # a generation's truth is its source rows packed once; a rank-deficient
    # score unpacks them for itself and leaves nothing behind
    eng = engine.run(engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300), seed=1)
    coding = eng.scn.coding
    assert eng.log.summary["early_recovery_count"] > 0 and eng.truth
    for truth in eng.truth.values():
        assert type(truth.rows) is bytes
        assert len(truth.rows) == coding.block_size * coding.packet_len
        assert not any(isinstance(getattr(truth, f.name), np.ndarray)
                       for f in dataclasses.fields(truth))


@pytest.mark.parametrize("wrong_rows", [(), (2,), (0, 3), (0, 1, 2, 3)])
def test_decode_errors_count_each_wrong_source_row(wrong_rows):
    # at full rank every decoded source row is held against the truth, and
    # each one that differs counts once, whichever order the tags came in
    eng = engine.Engine(_lossy_coded_butterfly7(), seed=1)
    rng = np.random.default_rng(len(wrong_rows))
    X = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    eng.register_truth(0, 0, X, 4)
    got = X.copy()
    for r in wrong_rows:  # a wrong row differs in most of its bytes
        got[r, rng.permutation(6)[:4]] ^= 0x10
    dec = rlnc.DecoderState(eng.ctx, 4, 6)
    for c in (3, 1, 0, 2):
        tag = np.zeros(4, dtype=np.uint8)
        tag[c] = 1
        rank_before = dec.rank
        dec.ingest(rlnc.CodedPacket(tag, got[c]))
        eng.on_destination_ingest(6, 0, 0, dec, rank_before)
    assert dec.full_rank and eng.decode_errors == len(wrong_rows)


def test_generation_decoded_once_every_tag_column_is_a_pivot(monkeypatch):
    # h=2: a zero tag with a nonzero payload is not innovative, so it raises
    # neither the rank nor anything else; the generation decodes on the row
    # that makes both tag columns pivots, once, and a row inconsistent with
    # the decoded sources after that changes nothing either
    eng = engine.Engine(_lossy_coded_butterfly7(), seed=1)
    decoded = []
    on_decoded = engine.Engine._on_generation_decoded

    def recording(eng, dest, flow_index, gen_id, *args):
        decoded.append((dest, flow_index, gen_id))
        return on_decoded(eng, dest, flow_index, gen_id, *args)

    monkeypatch.setattr(engine.Engine, "_on_generation_decoded", recording)
    eng.register_truth(0, 0, np.array([[0x12, 0x34, 0x56, 0x78],
                                       [0x9A, 0xBC, 0xDE, 0xF0]], dtype=np.uint8), 2)
    dec = eng.nodes[6].decoders[(0, 0)] = rlnc.DecoderState(eng.ctx, 2, 4)
    rows = [([1, 0], [0x12, 0x34, 0x56, 0x78]), ([0, 0], [0, 0, 0xF5, 0]),
            ([0, 1], [0x9A, 0xBC, 0xDE, 0xF0]), ([1, 0], [9, 9, 9, 9])]
    trace = []
    for tag, payload in rows:
        rank_before = dec.rank
        dec.ingest(rlnc.CodedPacket(tag, payload))
        eng.on_destination_ingest(6, 0, 0, dec, rank_before)
        trace.append((dec.rank, dec.full_rank, len(decoded)))
    assert trace == [(1, False, 0), (1, False, 0), (2, True, 1), (2, True, 1)]
    assert decoded == [(6, 0, 0)]
    assert {c: p.tolist() for c, p in dec.delivered.items()} == {
        0: [0x12, 0x34, 0x56, 0x78], 1: [0x9A, 0xBC, 0xDE, 0xF0]}
    # node 7 has not decoded, so the generation is not delivered
    assert eng.delivered == {0: 0}


def test_different_seeds_differ():
    a = engine.run(engine.apply_override(ch.line7(), "duration_s", 150), seed=1)
    b = engine.run(engine.apply_override(ch.line7(), "duration_s", 150), seed=2)
    assert a.packet_log != b.packet_log


def test_line7_delivers_and_conserves():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    s = eng.log.summary
    assert s["delivered"]["0"] > 0
    assert s["delivered"]["0"] <= s["injected"]["0"]
    assert s["decode_errors"] == 0


def test_delivered_series_monotone_and_capped_by_injected():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 400), seed=6)
    dlv = [v for _, v in eng.log.series("delivered", flow=0)]
    inj = [v for _, v in eng.log.series("injected", flow=0)]
    assert dlv == sorted(dlv) and inj == sorted(inj)
    assert all(d <= i for d, i in zip(dlv, inj))


def test_overhead_counter_matches_packet_log():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 200), seed=3)
    counts = {n: Counter() for n in eng.nodes}
    for line in eng.packet_log:
        _, _, src, kind, _ = line.split()
        counts[int(src)][kind] += 1
    assert eng.frames_sent == counts
    assert all(counts[n]["DATA"] > 0 for n in range(1, 7))
    def last(nid, kind):
        return eng.log.series(kind, node=nid)[-1][1]
    for nid in eng.nodes:
        assert last(nid, "data_frames") == counts[nid]["DATA"]
        assert last(nid, "overhead") == sum(
            counts[nid][k] for k in ("DIS", "SYN", "RTS", "CTS"))


@pytest.mark.parametrize("make_scn", [ch.line7, _lossy_coded_butterfly7])
def test_summary_per_node_is_the_final_sample(make_scn):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", 300), seed=2)
    end_s = eng.duration_us / engine.US
    final = {(nid, kind): v for nid in eng.nodes
             for kind in ("energy_mj", "overhead", "data_frames", "backlog")
             for t, v in eng.log.series(kind, node=nid) if t == end_s}
    for nid in eng.nodes:
        per_node = eng.log.summary["per_node"][str(nid)]
        assert per_node["energy_mj"] == final[(nid, "energy_mj")]
        assert per_node["overhead_frames"] == final[(nid, "overhead")]
        assert per_node["data_frames"] == final[(nid, "data_frames")]
        assert per_node["final_backlog"] == final[(nid, "backlog")]


def test_energy_meter_matches_log_recomputation():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 200), seed=3)
    scn = eng.scn
    # rebuild each node's tx energy from the packet log alone
    tx_mj = {n: 0.0 for n in eng.nodes}
    air_us = {n: 0 for n in eng.nodes}
    power = {n: [] for n in eng.nodes}
    for line in eng.packet_log:
        _, _, src, _, payload = line.split()
        src = int(src)
        air = eng.airtimes[len(bytes.fromhex(payload))]
        air_us[src] += air
    # power varies over a run; compare total airtime and energy bounds instead
    pmin, pmax = ch.dbm_to_mw(scn.power.min_dbm), ch.dbm_to_mw(scn.power.max_dbm)
    for nid, node in eng.nodes.items():
        assert node.tx_airtime_us == air_us[nid]
        lo = pmin * air_us[nid] / 1e6
        hi = pmax * air_us[nid] / 1e6
        assert lo - 1e-9 <= node.tx_energy_mj <= hi + 1e-9


def test_energy_series_nondecreasing_and_linear():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    for nid in eng.nodes:
        series = eng.log.series("energy_mj", node=nid)
        ts = np.array([t for t, _ in series])
        es = np.array([v for _, v in series])
        assert np.all(np.diff(es) >= -1e-9)
        sel = ts >= 0.2 * ts[-1]
        t, e = ts[sel], es[sel]
        resid = e - np.polyval(np.polyfit(t, e, 1), t)
        r2 = 1 - resid.var() / e.var()
        assert r2 >= 0.9


def test_sense_backoff_reduces_collision_losses():
    """Two co-channel flows: paired-seed A/B with sensing on vs off."""
    def scenario(sensing):
        return ch.Scenario(
            name="cross", num_nodes=4, num_channels=1,
            links=[
                ch.LinkConfig(1, 2, ch.STRONG_GAIN_DB),
                ch.LinkConfig(3, 4, ch.STRONG_GAIN_DB),
                ch.LinkConfig(1, 4, ch.WEAK_GAIN_DB),
                ch.LinkConfig(3, 2, ch.WEAK_GAIN_DB),
                # transmitters hear each other, so carrier sense can act
                ch.LinkConfig(1, 3, ch.WEAK_GAIN_DB),
            ],
            flows=[ch.FlowConfig(1, (2,), 2.0), ch.FlowConfig(3, (4,), 2.0)],
            coding=ch.CodingConfig(enabled=False, block_size=1),
            sensing_enabled=sensing, duration_s=300,
        )
    on = sum(engine.run(scenario(True), seed=s).collision_losses for s in (1, 2, 3))
    off = sum(engine.run(scenario(False), seed=s).collision_losses for s in (1, 2, 3))
    assert on < off


def test_sweep_single_cell_matches_run():
    rows = engine.sweep(ch.line7(), "duration", [120], seeds=[9])
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 120), seed=9)
    assert rows[0]["digests"][0] == engine.packet_log_digest(eng.packet_log)
    assert rows[0]["delivered_mean"] == sum(eng.log.summary["delivered"].values())


def test_sweep_reports_early_recovery_mean(tmp_path):
    rows = engine.sweep(_lossy_coded_butterfly7(), "duration", [300], seeds=[1, 2])
    scn = engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 300)
    per_run = [engine.run(scn, seed=s).log.summary["early_recovery_mean"] for s in (1, 2)]
    assert rows[0]["early_recovery_mean"] == float(np.mean(per_run))
    # coding off: no run recovers symbols early, so the field is left blank
    plain = engine.sweep(ch.line7(), "duration", [60], seeds=[1])
    assert plain[0]["early_recovery_mean"] is None
    engine.write_sweep(rows + plain, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[:2] == ["# bpnc-sweep v2", "param,value,runs,delivered_mean,"
                         "delivered_std,early_recovery_mean"]
    assert lines[2].split(",")[-1] == str(rows[0]["early_recovery_mean"])
    assert lines[3].split(",")[-1] == ""


def test_sweep_parallel_matches_serial():
    serial = engine.sweep(ch.line7(), "duration", [90], seeds=[1, 2])
    par = engine.sweep(ch.line7(), "duration", [90], seeds=[1, 2], parallel=True)
    assert serial[0]["digests"] == par[0]["digests"]


def test_engine_loads_no_module_a_builtin_run_does_not_use():
    # PyYAML, the sweep's process pool and json are imported where they
    # are used, so a run's start-up does not pay for them
    src = str(Path(engine.__file__).resolve().parents[1])
    optional = ("yaml", "concurrent.futures", "multiprocessing", "json")
    code = (f"import sys\nsys.path.insert(0, {src!r})\n"
            "from bpnc import channel, engine\n"
            "engine.Engine(channel.butterfly7(), 1)\n"
            f"print([m for m in {optional!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_unknown_sweep_parameter_rejected():
    # the run seed is an argument of the engine, not a scenario field
    for key in ("warp_speed", "seed"):
        with pytest.raises(ch.ScenarioError):
            engine.apply_override(ch.line7(), key, 9)


def test_override_aliases_and_types():
    scn = engine.apply_override(ch.butterfly7(), "block_size", "6")
    assert scn.coding.block_size == 6
    scn = engine.apply_override(ch.line7(), "arrival_rate", 0.5)
    assert all(f.arrival_rate == 0.5 for f in scn.flows)
    scn = engine.apply_override(ch.line7(), "sensing", "false")
    assert scn.sensing_enabled is False


@pytest.mark.parametrize("value,want", [
    (True, True), (False, False), ("on", True), ("OFF", False), ("Yes", True),
    ("no", False), ("1", True), ("0", False), (1, True), (0, False),
])
def test_bool_override_accepts_switch_words(value, want):
    assert engine.apply_override(ch.line7(), "sensing", value).sensing_enabled is want


@pytest.mark.parametrize("value", ["maybe", "", "2", 2.0, None], ids=repr)
def test_bool_override_rejects_other_values(value):
    with pytest.raises(ch.ScenarioError, match="sensing"):
        engine.apply_override(ch.line7(), "sensing", value)


@pytest.mark.parametrize("value", [2.7, "2.7", 2.5, float("nan"), float("inf")], ids=repr)
def test_int_override_rejects_values_it_would_round(value):
    with pytest.raises(ch.ScenarioError, match="block_size"):
        engine.apply_override(ch.butterfly7(), "block_size", value)


@pytest.mark.parametrize("value", [4, "4", 4.0], ids=repr)
def test_int_override_accepts_integral_values(value):
    block_size = engine.apply_override(ch.butterfly7(), "block_size", value).coding.block_size
    assert block_size == 4 and type(block_size) is int


def test_override_converts_by_the_declared_field_type():
    # a float field that a scenario file wrote as an int is still a float
    d = ch.scenario_to_dict(ch.line7())
    d["timing"]["data_s"] = 30
    scn = ch.scenario_from_dict(d)
    assert type(scn.timing.data_s) is int
    for base in (scn, ch.line7()):
        assert engine.apply_override(base, "timing.data_s", "2.5").timing.data_s == 2.5
    assert type(engine.apply_override(scn, "timing.data_s", "30").timing.data_s) is float


@pytest.mark.parametrize("key", ["timing", "channels", "flows"])
def test_override_of_a_field_that_is_no_single_value_rejected(key):
    with pytest.raises(ch.ScenarioError, match=key):
        engine.apply_override(ch.line7(), key, 1)


@pytest.mark.parametrize("duration_s,samples", [(600, 121), (602.5, 122), (0, 1)])
def test_each_sample_taken_once(duration_s, samples):
    # an end on the sampling grid (every 5 s) is sampled once, after every
    # event at that time; a zero-length run's only sample is its first
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", duration_s), seed=1)
    assert len(eng.log.times) == samples
    assert eng.log.times.count(duration_s) == 1
    assert eng.log.times == sorted(set(eng.log.times))
    assert all(len(values) == samples for values in eng.log.columns.values())


def test_metrics_csv_rows_are_the_log_series(tmp_path):
    eng = engine.run(engine.apply_override(_two_way_line7(), "duration_s", 120), seed=1)
    engine.write_outputs(eng, tmp_path)
    rows = [r.split(",") for r in (tmp_path / "metrics.csv").read_text().splitlines()[2:]]
    read: dict[tuple, list] = {}
    for t, kind, node, flow, value in rows:
        key = (kind, int(node) if node else "", int(flow) if flow else "")
        read.setdefault(key, []).append((float(t), float(value)))
    assert list(read) == list(eng.log.columns)
    assert len(read) == 4 * len(eng.nodes) + 2 * len(eng.scn.flows)
    for key, pts in read.items():
        assert pts == eng.log.series(*key)
    # time-major: every series once per sample time
    assert [float(r[0]) for r in rows] == [t for t in eng.log.times for _ in read]


def test_overheard_rts_kept_for_the_resolve_window_only():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    window = 2 * eng.scn.timing.cts_wait_s * engine.US
    assert any(n.overheard_rts for n in eng.nodes.values())
    for n in eng.nodes.values():
        times = [t for t, _ in n.overheard_rts]
        assert not times or max(times) - min(times) <= window


def test_metrics_csv_and_outputs(tmp_path):
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 60), seed=1)
    engine.write_outputs(eng, tmp_path)
    text = (tmp_path / "metrics.csv").read_text().splitlines()
    assert text[0] == "# bpnc-metrics v1"
    assert text[1] == "time_s,kind,node,flow,value"
    assert len(text) > 10
    assert (tmp_path / "summary.json").exists()
    log = (tmp_path / "packets.log").read_text().splitlines()
    assert log == list(eng.packet_log)


def _decoded_everywhere(eng) -> set[tuple[int, int]]:
    """The (flow, generation) keys every destination's decoder holds at full
    rank, read from the nodes' decoders alone."""
    return {key for n in eng.nodes.values() for key in n.decoders
            if all((d := eng.nodes[dst].decoders.get(key)) is not None and d.full_rank
                   for dst in eng.scn.flows[key[0]].dsts)}


@pytest.mark.parametrize("make_scn,duration_s", [(_lossy_coded_butterfly7, 300), (ch.line7, 600)])
def test_decoders_hold_no_payload_copy(make_scn, duration_s):
    # a decoded source packet is read out of its pivot row, not copied
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    decoders = [d for n in eng.nodes.values() for d in n.decoders.values()]
    assert any(d.full_rank for d in decoders)
    for dec in decoders:
        delivered = dec.delivered
        assert len(delivered) == dec.decoded_count()
        assert all(np.shares_memory(p, dec.rref) for p in delivered.values())


def test_butterfly_counts_only_joint_decodes():
    eng = engine.run(engine.apply_override(ch.butterfly7(), "duration_s", 400), seed=1)
    per_dest = {int(d): n for d, n in
                eng.log.summary["decoded_generations_per_destination"].items()}
    joint = len(_decoded_everywhere(eng))
    h = eng.scn.coding.block_size
    assert sum(eng.delivered.values()) <= joint * h
    assert eng.delivered[0] <= min(per_dest.get(6, 0), per_dest.get(7, 0)) * h


@pytest.mark.parametrize("make_scn,duration_s",
                         [(ch.butterfly7, 600), (_unicast_and_multicast_butterfly7, 300)])
def test_truth_freed_once_every_destination_decoded(make_scn, duration_s):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    joint = _decoded_everywhere(eng)
    assert joint and eng.truth
    assert not joint & eng.truth.keys()


def test_link_added_after_construction_is_used(tmp_path):
    # the engine sees the links a saved scenario file holds
    scn = engine.apply_override(ch.line7(), "duration_s", 300)
    scn.links.append(ch.LinkConfig(2, 3, -80.0, channel=0))
    ch.save_scenario(scn, tmp_path / "scn.yaml")
    loaded = ch.load_scenario(tmp_path / "scn.yaml")
    assert scn.gain_db(2, 3, 0) == loaded.gain_db(2, 3, 0) == -80.0
    digests = [engine.packet_log_digest(engine.run(s, seed=1).packet_log)
               for s in (scn, loaded)]
    assert digests[0] == digests[1]


def test_packet_log_line_format():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 60), seed=2)
    for line in itertools.islice(eng.packet_log, 50):
        t, chan, src, kind, payload = line.split()
        assert t.isdigit() and chan.isdigit() and src.isdigit()
        assert kind in wire.TYPE_NAMES.values()
        frame = wire.unpack(bytes.fromhex(payload))
        assert frame is not None


@pytest.mark.parametrize("make_scn,duration_s", [(ch.line7, 600), (_lossy_coded_butterfly7, 300)])
def test_packet_log_keeps_the_frames_own_bytes(make_scn, duration_s):
    # one record of bytes per transmission, no text; a DATA frame is logged
    # as its cached raw, the object every hop that sends the frame shares
    sent = []

    class Recording(engine.Engine):
        def transmit(self, node, chan, frame):
            sent.append(frame)
            return super().transmit(node, chan, frame)

    eng = Recording(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    eng.run()
    records = eng.packet_log.records
    assert len(records) == len(sent) > 0
    assert not any(isinstance(x, str) for r in records for x in r)
    data = [(r[3], f) for r, f in zip(records, sent) if isinstance(f, wire.DataFrame)]
    assert data and all(raw is f.raw for raw, f in data)
    # relays re-send frames they received: their records share its bytes
    assert len({id(raw) for raw, _ in data}) < len(data)
    for r, line in zip(records, eng.packet_log, strict=True):
        assert bytes.fromhex(line.split(" ")[4]) == r[3]


def test_packet_log_is_iterated_as_its_lines_and_compared_as_records():
    a, b, c = (engine.run(engine.apply_override(ch.line7(), "duration_s", 150), seed=s).packet_log
               for s in (11, 11, 12))
    lines = [f"{t} {chan} {src} {wire.TYPE_NAMES[raw[0]]} {raw.hex()}"
             for t, chan, src, raw in a.records]
    assert len(a) == len(lines) > 50
    assert [line for line in a] == lines
    assert a == b and not a != b
    assert a != c and c != a


@pytest.mark.parametrize("make_scn,duration_s,digest", PINNED_DIGESTS[:2],
                         ids=["line7", "butterfly7_lossy_coded"])
def test_packets_log_file_hashes_to_the_pinned_digest(tmp_path, make_scn, duration_s, digest):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    engine.write_outputs(eng, tmp_path)
    assert hashlib.sha256((tmp_path / "packets.log").read_bytes()).hexdigest() == digest
