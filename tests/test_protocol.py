"""Node state machine: hopping, neighbor tables, conflict resolution, power."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc import channel as ch
from bpnc import engine, gf, rlnc, wire
from bpnc.protocol import (Node, Phase, RelayGen, RelayStore, apply_power_update,
                           resolve_conflicts)
from test_engine import _lossy_coded_butterfly7


class FakeEngine:
    """Just enough engine surface for single-node unit tests."""

    def __init__(self, scn):
        self.scn = scn
        self.ctx = gf.FieldContext(scn.coding.field_bits)
        self.now_us = 0
        self.scheduled = []
        self.sent = []  # (chan, frame)
        self.busy_mw = 0.0
        self.link_rates = ch.link_rate_table(scn)

    def schedule(self, delay_us, fn):
        self.scheduled.append((self.now_us + delay_us, fn))

    def transmit(self, node, chan, frame):
        self.sent.append((chan, frame))
        return 1000

    def sense(self, node_id, chan):
        return ch.dbm_to_mw(self.scn.phy.noise_floor_dbm) + self.busy_mw

    def register_truth(self, *a):
        pass

    def on_destination_ingest(self, *a):
        pass


def make_node(node_id=1, scn=None, seed=0):
    scn = scn or ch.line7()
    eng = FakeEngine(scn)
    return Node(node_id, scn, eng, np.random.default_rng(seed)), eng


# -- channel hopping --------------------------------------------------------

def test_hop_never_repeats_with_three_channels():
    node, _ = make_node()
    for _ in range(200):
        before = node.channel
        after = node.hop_next_channel()
        assert after != before
        assert 0 <= after < 3


def test_single_channel_config_stays_put():
    scn = ch.line7()
    scn.num_channels = 1
    node, _ = make_node(scn=scn)
    assert all(node.hop_next_channel() == 0 for _ in range(20))


def test_seeded_hop_sequence_reproducible():
    a, _ = make_node(seed=5)
    b, _ = make_node(seed=5)
    assert [a.hop_next_channel() for _ in range(50)] == \
           [b.hop_next_channel() for _ in range(50)]


def test_discovery_duration_is_channels_times_dwell():
    scn = ch.line7()
    assert scn.timing.discovery_s == scn.num_channels * scn.timing.channel_dwell_s


# -- DIS handling -----------------------------------------------------------

def test_mutual_dis_populates_both_tables():
    a, ea = make_node(1)
    b, eb = make_node(2)
    dis_a = wire.DisFrame(1, 2, ())
    dis_b = wire.DisFrame(2, 0, ())
    b.handle_frame(1, 0, dis_a, rx_power_dbm=-65.0, tx_power_dbm=-10.0)
    a.handle_frame(2, 0, dis_b, rx_power_dbm=-65.0, tx_power_dbm=-10.0)
    assert list(a.neighbors) == [2] and list(b.neighbors) == [1]
    assert a.neighbors[2].gains_db[0] == pytest.approx(-55.0)
    assert b.neighbors[1].gains_db[0] == pytest.approx(-55.0)


def test_dis_during_flow_update_still_updates_table():
    node, _ = make_node(2)
    node.enter_phase(Phase.FLOW_UPDATE)
    node.handle_frame(1, 1, wire.DisFrame(1, 0, ()), -60.0, -10.0)
    assert 1 in node.neighbors


# -- SYN handling -----------------------------------------------------------

def test_syn_lists_every_virtual_queue():
    scn = ch.line7()
    scn.flows = [
        ch.FlowConfig(1, (6, 7), 1.0),
        ch.FlowConfig(1, (5, 6), 1.0),
    ]
    node, eng = make_node(1, scn=scn)
    for fi in range(len(node.flows)):
        for _ in range(3):
            node.queues.add(fi)
    node.send_syn()
    frame = eng.sent[-1][1]
    assert len(frame.entries) == 4


def test_empty_queue_syn_still_sent():
    node, eng = make_node(3)
    node.send_syn()
    frame = eng.sent[-1][1]
    assert frame.entries == ()


def test_syn_backlogs_feed_flow_selection():
    # neighbor-reported backlogs flow from the wire into the schedule choice
    node, _ = make_node(2)
    # ten packets of generation 0 relayed from node 1 queue 10 for node 7
    node.begin_data_rx(1, 0)
    data = wire.DataFrame(0, 0, (1,), bytes(500), 4)
    for _ in range(10):
        node.on_data(1, data)
    syn = wire.SynFrame(3, ((1, (7,), 4),))
    node.handle_frame(3, 0, syn, -65.0, -10.0)
    sched = node.compute_schedule()
    assert sched is not None and sched.rts.rx == 3
    # score = [10 - 4]^+ = 6, utility = c * 6
    assert sched.rts.utility == pytest.approx(6 * node.link_rate_to(node.neighbors[3], 0))


def test_flow_tie_goes_to_lower_source_and_destinations():
    # node 4 of line7 relays two flows listed against (source, destinations)
    # order; with equal scores toward node 5 the lower flow, 2 -> 7, wins
    scn = ch.line7()
    scn.flows = [ch.FlowConfig(3, (7,), 1.0), ch.FlowConfig(2, (7,), 1.0)]
    node, _ = make_node(4, scn=scn.validate())
    node.begin_data_rx(3, 0)
    for fi in (0, 1):
        for _ in range(10):
            node.on_data(3, wire.DataFrame(fi, 0, (1,), bytes(500), 4))
    node.handle_frame(5, 0, wire.SynFrame(5, ()), -65.0, -10.0)
    sched = node.compute_schedule()
    assert sched is not None and sched.rts.rx == 5
    assert sched.rts.flow_index == 1
    assert sched.covered_dests == (7,)


@pytest.mark.parametrize("timed_out", [False, True])
def test_cts_matches_the_pending_rts(timed_out):
    # node 2 of line7 relays ten frames from node 1 and hears node 3's SYN,
    # so it schedules toward 3 and negotiates with that schedule's RTS
    node, eng = make_node(2)
    node.begin_data_rx(1, 0)
    for _ in range(10):
        node.on_data(1, wire.DataFrame(0, 0, (1,), bytes(500), 4))
    node.end_data_phase()
    node.handle_frame(3, 0, wire.SynFrame(3, ((1, (7,), 4),)), -65.0, -10.0)
    sched = node.compute_schedule()
    rts = sched.rts
    assert isinstance(rts, wire.RtsFrame) and rts.tx == node.id and rts.rx == 3
    node.begin_negotiation(sched)
    node.negotiation_tick()
    assert eng.sent[-2:] == [(rts.channel, rts)] * 2
    assert all(frame is rts for _, frame in eng.sent[-2:])
    if timed_out:
        # TDT expiry falls back to flow update and keeps the schedule
        eng.now_us += node.negotiation_us
        node.negotiation_tick()
        assert node.phase is Phase.FLOW_UPDATE and node.pending is sched
    phase = node.phase
    other_chan = (rts.channel + 1) % node.scn.num_channels
    for cts in (wire.CtsFrame(rts.rx, node.id, other_chan), wire.CtsFrame(1, node.id, rts.channel)):
        node.on_cts(cts)
        assert node.phase is phase and node.penalty.count(rts.flow_index, rts.rx) == 0
    node.on_cts(wire.CtsFrame(rts.rx, node.id, rts.channel))
    assert node.phase is Phase.DATA_TRANSFER
    assert (node.data_peer, node.channel) == (rts.rx, rts.channel)
    assert node.penalty.count(rts.flow_index, rts.rx) == 1
    chan, frame = eng.sent[-1]
    assert chan == rts.channel and isinstance(frame, wire.DataFrame)
    assert frame.flow_index == rts.flow_index


# -- relay generation choice ------------------------------------------------

def _scan_pick(store, fi, peer):
    """The relay choice by a full scan: oldest sendable generation of fi."""
    for key in sorted(store):
        if key[0] == fi and store[key].sendable_to(peer):
            return key
    return None


def _relay_node():
    """Node 4 of line7, relaying four flows with h=2 coding; it is also a
    destination of the fourth and the source of the fifth."""
    scn = ch.line7()
    scn.flows = [ch.FlowConfig(1, (7,), 1.0), ch.FlowConfig(1, (6, 7), 1.0),
                 ch.FlowConfig(2, (5,), 1.0), ch.FlowConfig(1, (4, 7), 1.0),
                 ch.FlowConfig(4, (6, 7), 1.0)]
    scn.coding = ch.CodingConfig(enabled=True, block_size=2, packet_len=4)
    node, _ = make_node(4, scn=scn.validate())
    return node


OWN = 4  # the flow _relay_node sources


def _assert_credit_index(store, sourced):
    """Each peer's list in the store's index is exactly what a brute-force
    sendable_to scan of every held generation finds.  An entry without
    origins is of a flow in sourced and keeps every frame credited to it,
    not all of them sent yet; a relay entry keeps its first 4h frames."""
    for fi, peers in store.index.items():
        for peer, gids in peers.items():
            assert gids == sorted(g for (f, g), rg in store.items()
                                  if f == fi and rg.sendable_to(peer))
    for (fi, _), rg in store.items():
        if rg.origins:
            assert fi not in sourced
            assert len(rg.pkts) == min(rg.rcvd, 4 * len(rg.pkts[0].tag))
        else:
            assert fi in sourced and len(rg.pkts) == rg.rcvd > rg.sent


def _source_step(node, step):
    """Run an "arrive" or "timeout" step at the source of OWN; a timeout
    closes the open generation unless it filled, as the timer does."""
    gen = node.open_gens.get(OWN)
    if step[0] == "arrive":
        node.app_arrival(OWN)
    elif gen is not None and not gen.full:
        node.close_generation(OWN, gen)


SOURCE_STEP = st.tuples(st.sampled_from(["arrive", "timeout"]))
RELAY_STEP = st.one_of(
    # ("rx", flow, gen id, sender): one packet arrives; frames of OWN come
    # back to their source
    st.tuples(st.just("rx"), st.integers(0, 4), st.integers(0, 5), st.integers(1, 3)),
    # ("tx", flow, peer): one packet is sent; peer 5 never sends to node 4
    st.tuples(st.just("tx"), st.integers(0, 4), st.integers(1, 3) | st.just(5)),
    SOURCE_STEP,
)


@given(st.lists(RELAY_STEP, max_size=60), st.booleans())
@settings(max_examples=200, deadline=None)
def test_relay_choice_matches_full_scan(steps, index_first):
    node = _relay_node()
    if index_first:
        # every peer's list built before any frame is held, so the send path
        # keeps all of them from the start; otherwise each is built at its
        # peer's first query, from what the node holds by then
        for fi in node.relay_gens.index:
            for peer in (1, 2, 3, 5):
                assert not node.has_sendable(fi, peer)
    for step in steps:
        if step[0] == "rx":
            _, fi, gid, sender = step
            node.begin_data_rx(sender, 0)
            node.on_data(sender, wire.DataFrame(fi, gid, (1, 3), bytes(4), 4))
        elif step[0] != "tx":
            _source_step(node, step)
        else:
            _, fi, peer = step
            expect = _scan_pick(node.relay_gens, fi, peer)
            assert node.has_sendable(fi, peer) == (expect is not None)
            before = {k: rg.sent for k, rg in node.relay_gens.items()}
            frame = node.next_coded_packet(fi, peer)
            sent = [k for k, rg in before.items()
                    if k not in node.relay_gens or node.relay_gens[k].sent != rg]
            if expect is None:
                assert frame is None and sent == []
            else:
                assert (frame.flow_index, frame.gen_id) == expect and sent == [expect]
        _assert_credit_index(node.relay_gens, {OWN})


# ("hold", flow, gen id, origin): flow 0 is coded at the store's node, and
# frames of flows 1 (h = 1) and 2 (h = 2) come from origin; ("take", flow,
# peer): one frame is sent
STORE_STEP = st.one_of(
    st.tuples(st.just("hold"), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(st.just("take"), st.integers(0, 2), st.integers(1, 4)),
)


@given(st.lists(STORE_STEP, max_size=80), st.booleans())
@settings(max_examples=200, deadline=None)
def test_relay_store_keeps_its_index(steps, index_first):
    # a bare store, driven by hold and take alone
    store = RelayStore(3)
    if index_first:
        for peers in store.index.values():
            for peer in (1, 2, 3, 4):
                assert peers[peer] == []
    for step in steps:
        if step[0] == "hold":
            _, fi, gid, origin = step
            store.hold(wire.DataFrame(fi, gid, (1,) * max(fi, 1), bytes(4), 4),
                       None if fi == 0 else origin)
        else:
            _, fi, peer = step
            expect = _scan_pick(store, fi, peer)
            before = {k: (rg, rg.sent) for k, rg in store.items()}
            got = store.take(fi, peer)
            if expect is None:
                assert got is None
                assert {k: (rg, rg.sent) for k, rg in store.items()} == before
            else:
                gid, rg = got
                assert (fi, gid) == expect and rg is before[expect][0]
                assert rg.sent == before[expect][1] + 1
                # drained, a coded entry is gone and a relayed one stays
                drained = rg.credit() == 0
                assert (expect in store) == (fi != 0 or not drained)
        _assert_credit_index(store, {0})


def _assert_queues(node):
    """No backlog is negative and the node keeps no queue for itself.  With
    one unicast flow, the node's backlog is the credit it holds."""
    for fi in range(len(node.flows)):
        backlogs = node.queues.flow_backlogs(fi)
        assert node.id not in backlogs and min(backlogs.values(), default=0) >= 0
    if len(node.flows) == 1 and len(node.flows[0][1]) == 1:
        assert node.queues.total() == sum(rg.credit() for rg in node.relay_gens.values())


@pytest.mark.parametrize("make_scn,duration_s",
                         [(ch.line7, 600), (_lossy_coded_butterfly7, 300),
                          (ch.ring7, 600), (ch.grid6, 600)],
                         ids=["line7", "butterfly7_lossy_coded", "ring7", "grid6"])
def test_every_store_keeps_its_index_through_a_run(make_scn, duration_s):
    eng = engine.run(engine.apply_override(make_scn(), "duration_s", duration_s), seed=1)
    for node in eng.nodes.values():
        sourced = {fi for fi, (src, _) in enumerate(node.flows) if src == node.id}
        _assert_credit_index(node.relay_gens, sourced)
        _assert_queues(node)


@dataclass
class ReferenceSourceGen:
    """One generation of the source send queue that sources used to keep
    apart from the relay store: frames coded so far, and frames sent."""

    gen_id: int
    filled: int = 0
    coded: int = 0
    sent: int = 0


class ReferenceSource:
    """The former source send path: a list of generations in the order
    opened; a pick sends the next frame of the oldest one with credit, and a
    full generation is dropped once that leaves it without credit."""

    def __init__(self, h, extra):
        self.h, self.extra = h, extra
        self.gens: list[ReferenceSourceGen] = []
        self.open: ReferenceSourceGen | None = None

    def arrive(self):
        if self.open is None or self.open.filled == self.h:
            self.open = ReferenceSourceGen(0 if self.open is None else self.open.gen_id + 1)
            self.gens.append(self.open)
        self.open.filled += 1
        self.open.coded += 1 + (self.extra if self.open.filled == self.h else 0)

    def timeout(self):
        g = self.open
        if g is not None and g.filled < self.h:
            g.coded += self.h - g.filled + self.extra
            g.filled = self.h

    def has_sendable(self):
        return any(g.coded > g.sent for g in self.gens)

    def pick(self):
        for i, g in enumerate(self.gens):
            if g.coded > g.sent:
                g.sent += 1
                if g.filled == self.h and g.coded == g.sent:
                    del self.gens[i]
                return g.gen_id, g.sent - 1
        return None


@given(st.lists(RELAY_STEP, max_size=80))
@settings(max_examples=200, deadline=None)
def test_source_choice_matches_source_gen_list(steps):
    node = _relay_node()
    ref = ReferenceSource(node.block_size(), node.extra_packets())
    coded = {}  # generation id -> every frame the source coded, in order

    def record_coded():
        # a source step adds its frames to the held ones, which keep every
        # frame not yet sent: new frames are the held ones not yet recorded
        for (fi, gid), rg in node.relay_gens.items():
            if fi == OWN:
                seen = coded.setdefault(gid, [])
                seen += [f for f in rg.pkts if not any(f is g for g in seen)]
    for step in steps:
        if step[0] == "rx":
            _, fi, gid, sender = step
            node.begin_data_rx(sender, 0)
            node.on_data(sender, wire.DataFrame(fi, gid, (1, 3), bytes(4), 4))
        elif step[0] == "tx" and step[1] == OWN:
            peer = step[2]
            assert node.has_sendable(OWN, peer) == ref.has_sendable()
            frame = node.next_coded_packet(OWN, peer)
            expect = ref.pick()
            if expect is None:
                assert frame is None
            else:
                gid, k = expect
                assert frame is coded[gid][k]
        elif step[0] == "tx":
            node.next_coded_packet(step[1], step[2])
        else:
            _source_step(node, step)
            record_coded()
            getattr(ref, step[0])()
        _assert_credit_index(node.relay_gens, {OWN})
    assert node.has_sendable(OWN, 5) == ref.has_sendable()
    _assert_credit_index(node.relay_gens, {OWN})


def test_generation_closes_once_when_full_or_at_its_timeout():
    # a block that fills is closed then and its timeout does nothing; a
    # block still short at its timeout is padded and closed by it
    node = _relay_node()
    eng = node.engine
    truths = []
    eng.register_truth = lambda fi, gid, rows, real: truths.append((gid, real))
    extra = node.extra_packets()
    for _ in range(2):
        node.app_arrival(OWN)
    timeout = eng.scheduled[-1][1]
    assert truths == [(0, 2)] and node.relay_gens[(OWN, 0)].rcvd == 2 + extra
    timeout()
    assert truths == [(0, 2)] and node.relay_gens[(OWN, 0)].rcvd == 2 + extra
    node.app_arrival(OWN)
    eng.scheduled[-1][1]()
    assert truths == [(0, 2), (1, 1)] and node.open_gens[OWN].full
    assert node.relay_gens[(OWN, 1)].rcvd == 2 + extra


def test_credit_index_follows_split_horizon():
    # a generation leaves the list of each peer it is heard from, and every
    # list once its credit is spent
    node = _relay_node()
    for peer in (1, 2, 3, 5):
        assert not node.has_sendable(0, peer)
    for sender in (1, 1, 2):
        node.begin_data_rx(sender, 0)
        node.on_data(sender, wire.DataFrame(0, 7, (1, 3), bytes(4), 4))
    assert node.relay_gens.index[0] == {1: [], 2: [], 3: [7], 5: [7]}
    _assert_credit_index(node.relay_gens, {OWN})
    for _ in range(3):
        assert node.next_coded_packet(0, 5).gen_id == 7
    assert node.relay_gens.index[0] == {1: [], 2: [], 3: [], 5: []}
    assert node.next_coded_packet(0, 3) is None
    _assert_credit_index(node.relay_gens, {OWN})


def test_source_holds_no_frame_of_its_own_flow():
    # DATA of its own flow that comes back to a source counts in its virtual
    # queues, but the source holds no frame for it and sends its own next
    node = _relay_node()
    node.app_arrival(OWN)
    own = node.relay_gens[(OWN, 0)].pkts[0]
    backlog = node.queues.flow_backlogs(OWN)
    assert backlog == {6: 1, 7: 1}
    node.begin_data_rx(3, 0)
    for gid in (0, 5):
        node.on_data(3, wire.DataFrame(OWN, gid, (1, 3), bytes(4), 4))
    assert node.queues.flow_backlogs(OWN) == {6: 3, 7: 3}
    assert list(node.relay_gens) == [(OWN, 0)] and node.relay_gens.index[OWN][3] == [0]
    assert node.relay_gens[(OWN, 0)].rcvd == 1
    assert node.next_coded_packet(OWN, 3) is own
    assert node.next_coded_packet(OWN, 3) is None


def test_generation_ids_end_at_the_wires_16_bits():
    # a generation's one id is its DATA frame's 16-bit id: a source opens
    # 0xFFFF, and a flow that would need one more stops as a scenario error
    node, _ = make_node(1)
    n = node.scn.coding.packet_len
    node.open_gens[0] = full = rlnc.Generation(0xFFFE, 1, n)
    full.add_source_packet(np.zeros(n, dtype=np.uint8))
    node.app_arrival(0)
    assert node.open_gens[0].gen_id == 0xFFFF and node.open_gens[0].full
    assert node.relay_gens[(0, 0xFFFF)].pkts[0].gen_id == 0xFFFF
    with pytest.raises(ch.ScenarioError, match=r"^flows\[0\]: "):
        node.app_arrival(0)


def test_relay_forwards_received_frame():
    # a relay re-sends the very frames it received, in arrival order, and
    # codes a new frame only for credit beyond its buffer of 4h frames
    node = _relay_node()
    node.begin_data_rx(3, 0)
    frames = [wire.DataFrame(0, 7, (1 + k % 3, k % 2), bytes([k, 2 * k, 3, 4]), 4)
              for k in range(9)]
    for f in frames:
        node.on_data(3, f)
    rg = node.relay_gens[(0, 7)]
    assert rg.pkts == frames[:8] and rg.credit() == 9
    for f in frames[:8]:
        assert node.next_coded_packet(0, 5) is f
    recoded = node.next_coded_packet(0, 5)
    assert isinstance(recoded, wire.DataFrame)
    assert all(recoded is not f for f in frames)
    assert (recoded.flow_index, recoded.gen_id, len(recoded.tag)) == (0, 7, 2)
    assert len(recoded.payload) == 4 and any(recoded.tag)
    assert node.next_coded_packet(0, 5) is None


def test_payload_packed_once_at_the_source(monkeypatch):
    # On line7 (coding off, so one packet per arrival and no recoding) a
    # payload's symbols are packed once, when the source draws them, and the
    # bytes are never split into symbols again: not at a relay hop, not at
    # a destination's decoder.
    calls = {"bytes_to_symbols": 0, "symbols_to_bytes": 0, "ingest": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("bytes_to_symbols", "symbols_to_bytes"):
        monkeypatch.setattr(gf, name, counted(name, getattr(gf, name)))
    monkeypatch.setattr(rlnc.DecoderState, "ingest",
                        counted("ingest", rlnc.DecoderState.ingest))
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 600), seed=1)
    hops = sum(sent["DATA"] for sent in eng.frames_sent.values())
    assert calls["ingest"] > 0 and hops > calls["ingest"]
    assert calls["bytes_to_symbols"] == 0
    assert calls["symbols_to_bytes"] == sum(eng.injected.values()) > 0


def _walk_counts(monkeypatch, scn):
    """RelayGen.sendable_to and Node.next_coded_packet calls in a seed-1 run
    of scn."""
    calls = {"sendable_to": 0, "next_coded_packet": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RelayGen, "sendable_to",
                        counted("sendable_to", RelayGen.sendable_to))
    monkeypatch.setattr(Node, "next_coded_packet",
                        counted("next_coded_packet", Node.next_coded_packet))
    engine.run(scn, seed=1)
    return calls


def test_relay_choice_does_not_scan_spent_generations(monkeypatch):
    # each DATA frame looks only at generations with credit, not at every
    # generation the relay has ever held
    calls = _walk_counts(monkeypatch, engine.apply_override(ch.line7(), "duration_s", 600))
    assert calls["next_coded_packet"] > 0
    assert calls["sendable_to"] <= 4 * calls["next_coded_packet"]


def test_credit_walk_tests_one_generation_per_pick_under_loss(monkeypatch):
    # lossy coded butterfly7 leaves relays holding credit that split horizon
    # forbids sending back: the walk reads each peer's own list, so it
    # tests about one generation per frame sent, not every credited one
    scn = engine.apply_override(_lossy_coded_butterfly7(), "duration_s", 600)
    calls = _walk_counts(monkeypatch, scn)
    assert calls["next_coded_packet"] > 3000
    assert calls["sendable_to"] <= 1.5 * calls["next_coded_packet"]


# -- conflict resolution ----------------------------------------------------

def rts(tx, rx, chan=0, u=1.0):
    return wire.RtsFrame(tx, rx, chan, 0, u)


def test_higher_utility_rts_wins():
    assert resolve_conflicts([rts(1, 5, u=6.0), rts(2, 5, u=4.0)], [], None).tx == 1


def test_mutual_rts_higher_utility_transmits():
    # i and j RTS each other; U_ij > U_ji means j receives (answers CTS)
    assert resolve_conflicts([rts(3, 7, u=9.0)], [], (4.0, 7)).tx == 3
    assert resolve_conflicts([rts(3, 7, u=2.0)], [], (4.0, 7)) is None


def test_utility_tie_lower_node_id_wins():
    winner = resolve_conflicts([rts(7, 9, u=5.0), rts(3, 9, u=5.0)], [], None)
    assert winner.tx == 3


def test_hidden_node_suppresses_cts():
    # an overheard stronger transmission on the same channel blocks the CTS
    assert resolve_conflicts([rts(1, 5, u=3.0)], [rts(8, 9, u=7.0)], None) is None
    assert resolve_conflicts([rts(1, 5, u=3.0)], [rts(8, 9, 1, u=7.0)], None).tx == 1


def test_resolution_uses_quantized_utilities():
    # difference below the q16.16 step is not a difference at all: tie, lower id
    winner = resolve_conflicts([rts(4, 5, u=1.0), rts(2, 5, u=1.0 + 2**-20)], [], None)
    assert winner.tx == 2


# -- power control ----------------------------------------------------------

def test_power_update_formula():
    # 4 mW with achieved SNR at twice the target halves the power
    p = apply_power_update(10 * np.log10(4.0), 8.0, 16.0, -100.0, 100.0)
    assert 10 ** (p / 10) == pytest.approx(2.0)


def test_power_update_fixed_point():
    p = apply_power_update(-10.0, 8.0, 8.0, -15.0, -5.0)
    assert p == pytest.approx(-10.0)


def test_power_clamped_to_range():
    assert apply_power_update(-10.0, 1000.0, 1.0, -15.0, -5.0) == -5.0
    assert apply_power_update(-10.0, 1.0, 1000.0, -15.0, -5.0) == -15.0
    assert apply_power_update(-10.0, 8.0, 0.0, -15.0, -5.0) == -5.0


def test_power_loop_converges_within_20_rounds():
    # static channel: achieved SNR proportional to power
    gain = ch.db_to_linear(-65.0)   # relative to a -90 dBm floor -> k
    noise = ch.dbm_to_mw(-90.0)
    target = ch.db_to_linear(15.0)
    p = -5.0
    for rounds in range(1, 21):
        gamma_hat = ch.dbm_to_mw(p) * gain / noise
        p = apply_power_update(p, target, gamma_hat, -15.0, -5.0)
        gamma = ch.dbm_to_mw(p) * gain / noise
        if abs(gamma - target) / target < 0.01:
            break
    assert abs(gamma - target) / target < 0.01 and rounds <= 20


# -- sensing ----------------------------------------------------------------

def test_idle_channel_not_busy():
    node, _ = make_node()
    assert not node.channel_busy(0)


def test_active_neighbor_trips_busy():
    node, eng = make_node()
    eng.busy_mw = ch.dbm_to_mw(-60.0)
    assert node.channel_busy(0)


def test_sensing_off_senses_nothing(monkeypatch):
    scn = ch.line7()
    scn.sensing_enabled = False
    node, eng = make_node(scn=scn)
    eng.busy_mw = ch.dbm_to_mw(-60.0)
    monkeypatch.setattr(FakeEngine, "sense", lambda *a: pytest.fail("sensed"))
    assert not node.channel_busy(0)


# -- data round accounting --------------------------------------------------

def run_logging_phases(monkeypatch, scn, seed):
    """A run, with each node's (time_us, phase) entries in the order it
    entered them."""
    phases = {}
    enter_phase = Node.enter_phase

    def logged(self, phase):
        enter_phase(self, phase)
        phases.setdefault(self.id, []).append((self.now(), phase))

    monkeypatch.setattr(Node, "enter_phase", logged)
    return engine.run(scn, seed=seed), phases


def test_data_phase_rate_bound(monkeypatch):
    """30 s at the medium's frame airtime bounds the packets one phase sends."""
    scn = ch.line7()
    eng, phases = run_logging_phases(monkeypatch, engine.apply_override(scn, "duration_s", 200), 3)
    airtime_s = eng.airtimes[510] / 1e6
    cap = int(scn.timing.data_s / airtime_s) + 1
    for node in eng.nodes.values():
        data_windows = sum(1 for _, p in phases[node.id] if p is Phase.DATA_TRANSFER)
        assert eng.frames_sent[node.id]["DATA"] <= cap * max(1, data_windows)


def test_destination_never_enqueues_own_queue():
    scn = ch.butterfly7()
    eng = engine.run(engine.apply_override(scn, "duration_s", 200), seed=2)
    flow = 0  # 1 -> (6, 7)
    # destination 6 keeps a virtual queue for 7 but never one for itself,
    # and 7 one for 6
    for nid, other in ((6, 7), (7, 6)):
        queues = eng.nodes[nid].queues
        assert nid not in queues.flow_backlogs(flow)
        assert [dsts[0] for _, dsts, _ in queues.entries()] == [other]


def test_phase_transitions_logged_and_power_in_range(monkeypatch):
    eng, phases = run_logging_phases(
        monkeypatch, engine.apply_override(ch.line7(), "duration_s", 120), 4)
    scn = eng.scn
    for node in eng.nodes.values():
        assert phases[node.id][0][1] is Phase.DISCOVERY
        # discovery hand-off happens at the first tick at/after TTR
        t_fu = next(t for t, p in phases[node.id] if p is Phase.FLOW_UPDATE)
        ttr = scn.timing.discovery_s * 1e6
        assert ttr <= t_fu <= ttr + (scn.timing.channel_dwell_s + 0.5) * 1e6
        assert scn.power.min_dbm <= node.power_dbm <= scn.power.max_dbm


def test_no_cts_without_matching_rts():
    eng = engine.run(engine.apply_override(ch.line7(), "duration_s", 300), seed=5)
    seen_rts = set()
    for line in eng.packet_log:
        t, chan, src, kind, payload = line.split()
        frame = wire.unpack(bytes.fromhex(payload))
        if kind == "RTS":
            seen_rts.add((frame.tx, frame.rx, frame.channel))
        elif kind == "CTS":
            assert (frame.tx, frame.rx, frame.channel) in seen_rts
