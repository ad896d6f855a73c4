"""Per-node four-phase coordination state machine.

Each Node is a single-owner state machine driven by timestamped engine
events; nodes never share memory and interact only through transmitted
frames.  Phases: Discovery -> FlowUpdate -> Negotiation -> DataTransfer,
with RTS/CTS conflict resolution in between.

A node's flows live in its ``VirtualQueueSet``, ``Node.queues``, alone, and
its coding rule (block size, redundancy packets, generation timeout) is
worked out once, in ``Node.__init__``.

Each coding record a node keeps has one writer.  The frames it holds to
send, coded or received, sit in its ``RelayStore``, ``Node.relay_gens``,
which only ``hold`` and ``take`` change.  The store's ``index`` lists, for
each flow and peer (built at the peer's first read), the generations with
credit that may go to that peer, so a ``next_coded_packet`` pick takes the
head of a list and a ``has_sendable`` test reads one entry.  The virtual
queues change only by ``VirtualQueueSet.add``, for an arrival or a
reception, and ``pay``, for a DATA frame sent.  ``Node.decoders``, a
``channel.Table``, opens a destination's decoder at its generation's first
frame, and ``close_generation`` closes a source's generation, full or timed
out.

A long run keeps a relay entry or a decoder for every generation a node
hears, so each is held once and small.  Every record of one generation, at
every node, is keyed by one (flow, generation id) tuple, the ``key`` its
frames hold (``wire.DataFrame.key``): a source builds it when it opens the
generation, every frame it codes and every recode of the generation holds
it, and a relay entry or a decoder is keyed by the tuple of the frame that
opens it.  A relay entry, a ``RelayGen``, is itself the list of its frames,
its counts in slots.

A coded packet is its ``wire.DataFrame``: a source builds it once, relays
buffer and re-send the frames they receive, and ``rlnc`` decodes and
recodes them as they are, the payload packed bytes from the moment a
source draws its symbols.  Each frame a node sends is kept in one form, the
frame itself: a pending ``Schedule`` is the RTS that negotiates it, sent
unchanged on every retry, beside the destinations its DATA covers, and
``Node.syn_sent`` is the last SYN, sent again while the queues' entries
equal its own.  Link rates come from the one ``Engine.link_rates``, by
received power (power + gain).
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import backpressure as bp
from . import channel as ch
from . import gf, rlnc, wire


class Phase(enum.Enum):
    DISCOVERY = "discovery"
    FLOW_UPDATE = "flow_update"
    NEGOTIATION = "negotiation"
    DATA_TRANSFER = "data_transfer"


# The members under plain names: reading a member off the class runs a
# descriptor each time, and the MAC compares phases on every frame.
DISCOVERY, FLOW_UPDATE, NEGOTIATION, DATA_TRANSFER = Phase


@dataclass(slots=True)
class NeighborRecord:
    gains_db: dict[int, float] = field(default_factory=dict)  # channel -> dB
    last_heard_us: int = 0
    # flow index -> {dest: backlog} from the last SYN
    backlogs: dict[int, dict[int, int]] = field(default_factory=dict)

    def best_gain_db(self) -> float:
        return max(self.gains_db.values())


@dataclass(slots=True)
class Schedule:
    """A pending transmission.  Its receiver, channel, flow and (snapped)
    utility are the fields of the RTS that negotiates it, sent unchanged
    on every retry."""

    rts: wire.RtsFrame
    covered_dests: tuple[int, ...]


class RelayGen(list):
    """Coded frames a node holds credit for in one (flow, generation): the
    entry is the list of the frames, with its counts in slots, so it is one
    object, not an object and a list.  A list compares by its items alone,
    so entries are told apart by ``is``, never by ``==``.

    A relay holds the frames it receives; a source's own frames live here
    too, coded the moment source data arrives (a combination can only cover
    packets that exist yet, which is what makes received tag matrices tend
    lower-triangular) and sent later in order.  ``rcvd`` counts the frames
    received or coded, and the entry keeps them, at a relay only until it
    holds 4h, so its first ``min(sent, len(entry))`` have been sent.
    ``origins`` is a bit mask of the nodes a relay heard the generation
    from: bit k is set once a frame came from node k.  Node ids are at most
    255, so an int holds it, and costs less than a set in each of the
    entries a long run keeps.  A source's entries have none (``origins ==
    0``).  Only a ``RelayStore`` changes an entry.
    """

    __slots__ = ("rcvd", "sent", "origins")

    def __init__(self, frames=()):
        list.__init__(self, frames)
        self.rcvd = self.sent = self.origins = 0

    def credit(self) -> int:
        return self.rcvd - self.sent

    def sendable_to(self, peer: int) -> bool:
        """Split horizon: never hand a generation back to a node it came
        from."""
        return self.credit() > 0 and not (self.origins >> peer) & 1


@functools.cache
def unit_tag(h: int, row: int) -> tuple[int, ...]:
    """The tag of source row ``row`` of h, sent as it is."""
    return tuple(int(k == row) for k in range(h))


def unlist(gids: list[int] | None, gid: int) -> None:
    """Remove gid from the ascending list gids, if it is there."""
    if gids:
        i = bisect.bisect_left(gids, gid)
        if i < len(gids) and gids[i] == gid:
            del gids[i]


class RelayStore(dict):
    """(flow, generation id) -> the ``RelayGen`` of the frames a node holds
    to send, keyed by the generation's own tuple, the ``key`` of the frame
    that opened the entry.  ``index[flow][peer]`` lists, in ascending order
    and built at the peer's first read, the ids of the flow's generations
    ``sendable_to`` peer, which split horizon reads from the entry's
    ``origins`` mask.  An entry with no origins, a source's, is dropped once
    its credit is 0, since a source keeps no frame it has sent."""

    __slots__ = ("index",)

    def __init__(self, num_flows: int):
        super().__init__()
        self.index: dict[int, ch.Table] = {
            fi: ch.Table(lambda peer, fi=fi: sorted(
                gid for (f, gid), rg in self.items() if f == fi and rg.sendable_to(peer)))
            for fi in range(num_flows)}

    def hold(self, frame: wire.DataFrame, origin: int | None = None) -> None:
        """Credit frame's generation with one frame from origin (None for
        one this node coded) and keep the frame; a relay keeps at most 4h."""
        key = frame.key
        fi, gid = key
        peers = self.index[fi]
        rg = self.get(key)
        if rg is None:
            # a new entry is listed nowhere yet; it is built holding the
            # frame, its list sized to it, where an append to an empty list
            # would reserve four slots
            rg = self[key] = RelayGen((frame,))
        else:
            if origin is not None and not (rg.origins >> origin) & 1:
                # split horizon: the generation no longer goes back to origin
                unlist(peers.get(origin), gid)
            if origin is None or len(rg) < 4 * len(frame.tag):
                rg.append(frame)
        if origin is not None:
            rg.origins |= 1 << origin
        if rg.rcvd == rg.sent:
            for peer, gids in peers.items():
                if not (rg.origins >> peer) & 1:
                    bisect.insort(gids, gid)
        rg.rcvd += 1

    def take(self, flow: int, peer: int) -> tuple[int, RelayGen] | None:
        """The oldest generation sendable to peer, as (id, entry), charged a frame sent."""
        gids = self.index[flow][peer]
        if not gids:
            return None
        gid = gids[0]
        rg = self[flow, gid]
        rg.sent += 1
        if rg.rcvd == rg.sent:
            for p, listed in self.index[flow].items():
                if not (rg.origins >> p) & 1:
                    unlist(listed, gid)
            if not rg.origins:
                del self[flow, gid]
        return gid, rg


class Node:
    """One cognitive radio: identical code at every node."""

    def __init__(self, node_id: int, scn: ch.Scenario, engine, rng):
        self.id = node_id
        t = scn.timing
        # the timing constants in integer microseconds, converted once;
        # ch.us(2 * cts_wait_s) rounds on its own, unlike 2 * ch.us(cts_wait_s)
        self.dwell_us = ch.us(t.channel_dwell_s)
        self.discovery_us = ch.us(t.discovery_s)
        self.flow_update_us = ch.us(t.flow_update_s)
        self.syn_interval_us = ch.us(t.syn_interval_s)
        self.negotiation_us = ch.us(t.negotiation_s)
        self.rts_interval_us = ch.us(t.rts_interval_s)
        self.cts_wait_us = ch.us(t.cts_wait_s)
        self.rts_window_us = ch.us(2 * t.cts_wait_s)
        self.data_us = ch.us(t.data_s)
        # the coding rule, stated here alone: with coding off a generation
        # is one packet, with no redundancy and no timeout.  gen_timeout_us
        # is None when no timeout is scheduled; one under 0.5 us is 0 us.
        c = scn.coding
        self.block_size = c.block_size if c.enabled else 1
        self.extra_packets = max(1, math.ceil(c.redundancy * c.block_size)) if c.enabled else 0
        self.gen_timeout_us = ch.us(c.gen_timeout_s) if c.enabled and c.gen_timeout_s > 0 else None
        # symbols in one source packet
        self.arrival_symbols = c.packet_len * gf.symbols_per_byte(c.field_bits)
        self.scn = scn
        self.engine = engine
        self.rng = rng
        self.ctx = engine.ctx
        self.phase = DISCOVERY
        self.phase_entry_us = 0
        self.tick_token = 0
        self.channel = 0
        self.neighbors: dict[int, NeighborRecord] = {}
        # the node's one record of its flows; a flow is its index
        self.queues = bp.VirtualQueueSet(node_id, [(f.src, f.dsts) for f in scn.flows])
        self.penalty = bp.PenaltyTracker()
        self.power_dbm = scn.power.init_dbm
        # sensed power above this reads as a busy channel
        self.busy_threshold_mw = (ch.dbm_to_mw(scn.phy.noise_floor_dbm)
                                  * ch.db_to_linear(scn.phy.busy_threshold_db))
        self.tx_airtime_us = 0
        self.tx_energy_mj = 0.0
        self.tx_until_us = 0
        # the last SYN sent, which the next reuses while its entries are equal
        self.syn_sent: wire.SynFrame | None = None
        # negotiation state
        self.pending: Schedule | None = None
        # RTS frames addressed here since the last resolve_rts, which the
        # first of them scheduled
        self.rts_inbox: list[wire.RtsFrame] = []
        # (t, frame) of RTS frames addressed elsewhere, heard within the
        # last 2 * cts_wait_s (see prune_overheard_rts)
        self.overheard_rts: list[tuple[int, wire.RtsFrame]] = []
        # data phase: a node receives in it iff pending is None
        self.data_peer = 0
        # coding state
        # flow -> the newest generation this node sources; it fills it with
        # arrivals until it is full, then opens the next
        self.open_gens: dict[int, rlnc.Generation] = {}
        # (flow, generation id) -> the frames held to send
        self.relay_gens = RelayStore(len(scn.flows))
        # (flow, generation id) -> decoder, opened at its first frame here
        self.decoders = ch.Table(lambda key: rlnc.DecoderState(
            self.ctx, self.block_size, scn.coding.packet_len))

    # -- helpers ------------------------------------------------------------

    def enter_phase(self, phase: Phase) -> None:
        self.phase = phase
        self.phase_entry_us = self.engine.now_us

    # -- phase drivers (called by engine timers) ----------------------------

    def schedule_tick(self, delay_us: int) -> None:
        """At most one live tick chain: older scheduled ticks become no-ops.

        Unsynchronized clocks are what lets half-duplex radios hear each
        other at all, so every tick carries random per-node jitter.
        """
        self.tick_token += 1
        token = self.tick_token
        jitter = int(self.rng.integers(0, 200_000))
        self.engine.schedule(delay_us + jitter, lambda: self.on_tick(token))

    def start(self) -> None:
        self.enter_phase(DISCOVERY)
        self.hop_next_channel()
        self.engine.schedule(int(self.rng.integers(0, 200_000)), self.send_dis)
        self.schedule_tick(self.dwell_us)

    def on_tick(self, token: int) -> None:
        if token != self.tick_token:
            return
        if self.phase is DISCOVERY:
            if self.engine.now_us - self.phase_entry_us >= self.discovery_us:
                self.enter_phase(FLOW_UPDATE)
                self.flow_update_tick()
                return
            self.hop_next_channel()
            self.send_dis()
            self.schedule_tick(self.dwell_us)
        elif self.phase is FLOW_UPDATE:
            self.flow_update_tick()
        # negotiation and data phases run on their own timers

    def flow_update_tick(self) -> None:
        self.hop_next_channel()
        self.expire_stale_neighbors()
        if not self.neighbors and self.engine.now_us - self.phase_entry_us >= self.flow_update_us:
            # nothing heard for a whole update period: rediscover
            self.enter_phase(DISCOVERY)
            self.send_dis()
            self.schedule_tick(self.dwell_us)
            return
        self.send_syn()
        self.update_power()
        sched = self.compute_schedule()
        if sched is not None:
            self.begin_negotiation(sched)
            return
        self.schedule_tick(self.syn_interval_us)

    def begin_negotiation(self, sched: Schedule) -> None:
        self.pending = sched
        self.enter_phase(NEGOTIATION)
        self.channel = sched.rts.channel
        self.negotiation_tick()

    def negotiation_tick(self) -> None:
        if self.phase is not NEGOTIATION:
            return
        engine = self.engine
        if engine.now_us - self.phase_entry_us >= self.negotiation_us:
            # TDT expiry: fall back, but keep pending so a late CTS still wins
            self.enter_phase(FLOW_UPDATE)
            self.schedule_tick(self.syn_interval_us)
            return
        if not self.channel_busy(self.pending.rts.channel):
            self.send_rts()
        jitter = int(self.rng.integers(0, 50_000))
        self.engine.schedule(self.rts_interval_us + jitter, self.negotiation_tick)

    # -- channel / sensing --------------------------------------------------

    def hop_next_channel(self) -> int:
        """Uniform hop to a different channel; degenerate 1-channel config
        stays put."""
        n = self.scn.num_channels
        if n > 1:
            step = int(self.rng.integers(1, n))
            self.channel = (self.channel + step) % n
        return self.channel

    def channel_busy(self, chan: int) -> bool:
        """Carrier sense; with sensing off, nothing is sensed and no channel is busy."""
        return (self.scn.sensing_enabled
                and self.engine.sense(self.id, chan) > self.busy_threshold_mw)

    # -- outbound frames ----------------------------------------------------

    def send_dis(self) -> None:
        nbrs = tuple(
            (nid, max(rec.gains_db, key=rec.gains_db.get), rec.best_gain_db())
            for nid, rec in sorted(self.neighbors.items())
        )[:255]
        frame = wire.DisFrame(self.id, self.channel, nbrs)
        self.engine.transmit(self, self.channel, frame)

    def send_syn(self) -> None:
        entries = self.queues.entries()
        sent = self.syn_sent
        # a backlog above 0xFFFF is clamped in the frame, so its entries
        # differ from the queues' and the frame is rebuilt, same bytes, on
        # each send
        if sent is None or sent.entries != entries:
            sent = self.syn_sent = wire.SynFrame(self.id, entries)
        self.engine.transmit(self, self.channel, sent)

    def send_rts(self) -> None:
        rts = self.pending.rts
        self.engine.transmit(self, rts.channel, rts)

    def send_cts(self, tx: int, chan: int) -> None:
        frame = wire.CtsFrame(self.id, tx, chan)
        self.engine.transmit(self, chan, frame)

    # -- backpressure decision ----------------------------------------------

    def link_rate_to(self, rec: NeighborRecord, chan: int) -> float:
        g = rec.gains_db.get(chan)
        if g is None:
            g = rec.best_gain_db()
        return self.engine.link_rates[self.power_dbm + g]

    def compute_schedule(self) -> Schedule | None:
        cands = []
        flows = self.queues.flows
        for nid in sorted(self.neighbors):
            rec = self.neighbors[nid]
            flow_cands = []
            for fi in self.queues.order:
                if nid == flows[fi][0] or not self.has_sendable(fi, nid):
                    continue
                flow_cands.append((fi, self.queues.flow_backlogs(fi), rec.backlogs.get(fi, {}),
                                   self.penalty.alpha(fi, nid)))
            got = bp.select_flow(flow_cands)
            if got is None:
                continue
            fi, score = got
            for chan in range(self.scn.num_channels):
                c = self.link_rate_to(rec, chan)
                cands.append((nid, chan, c, fi, score))
        pick = bp.select_next_hop(cands)
        if pick is None:
            return None
        nid, chan, fi, utility = pick
        covered = bp.positive_differentials(self.queues.flow_backlogs(fi),
                                            self.neighbors[nid].backlogs.get(fi, {}))
        return Schedule(wire.RtsFrame(self.id, nid, chan, fi, utility), tuple(covered))

    def expire_stale_neighbors(self) -> None:
        horizon = 3 * self.discovery_us
        cutoff = self.engine.now_us - horizon
        for nid in [n for n, rec in self.neighbors.items() if rec.last_heard_us < cutoff]:
            del self.neighbors[nid]

    # -- power control ------------------------------------------------------

    def update_power(self) -> None:
        best = max((r.best_gain_db() for r in self.neighbors.values()), default=None)
        if best is None:
            return
        gamma_hat = ch.db_to_linear(self.power_dbm + best - self.scn.phy.noise_floor_dbm)
        gamma_t = ch.db_to_linear(self.scn.power.target_snr_db)
        self.power_dbm = apply_power_update(
            self.power_dbm, gamma_t, gamma_hat,
            self.scn.power.min_dbm, self.scn.power.max_dbm,
        )

    # -- inbound frames -----------------------------------------------------

    def handle_frame(self, src: int, chan: int, frame,
                     rx_power_dbm: float, tx_power_dbm: float) -> None:
        # Engine._deliver alone decides reception: every sender here is
        # heard, and is a neighbour from now on
        rec = self.neighbors.get(src)
        if rec is None:
            rec = self.neighbors[src] = NeighborRecord()
        rec.gains_db[chan] = rx_power_dbm - tx_power_dbm
        rec.last_heard_us = self.engine.now_us
        kind = type(frame)  # frame classes are never subclassed; DATA is the most common
        if kind is wire.DataFrame:
            self.on_data(src, frame)
        elif kind is wire.SynFrame:
            for fsrc, dsts, backlog in frame.entries:
                fi = self.queues.index.get((fsrc, frozenset(dsts)))
                if fi is not None:
                    rec.backlogs.setdefault(fi, {})[dsts[0]] = backlog
        elif kind is wire.RtsFrame:
            self.on_rts(frame)
        elif kind is wire.CtsFrame:
            self.on_cts(frame)

    # -- negotiation --------------------------------------------------------

    def on_rts(self, frame: wire.RtsFrame) -> None:
        if self.phase is DATA_TRANSFER:
            return  # half-duplex: busy in a data phase
        if frame.rx == self.id:
            # resolve_rts clears the inbox cts_wait_s after its first entry
            if not self.rts_inbox:
                self.engine.schedule(self.cts_wait_us, self.resolve_rts)
            self.rts_inbox.append(frame)
        else:
            self.overheard_rts.append((self.engine.now_us, frame))
            self.prune_overheard_rts()

    def prune_overheard_rts(self) -> None:
        """Keep only the RTS frames overheard in the last 2 * cts_wait_s,
        the window resolve_rts weighs."""
        horizon = self.engine.now_us - self.rts_window_us
        self.overheard_rts = [(t, f) for t, f in self.overheard_rts if t >= horizon]

    def resolve_rts(self) -> None:
        inbox, self.rts_inbox = self.rts_inbox, []
        self.prune_overheard_rts()
        overheard = [f for _, f in self.overheard_rts]
        if self.phase is DATA_TRANSFER:
            return
        own_sched = self.pending
        if own_sched is None and self.phase is FLOW_UPDATE:
            # receive, or insist on our own (would-be) transmission?
            own_sched = self.compute_schedule()
        own = (own_sched.rts.utility, self.id) if own_sched is not None else None
        decision = resolve_conflicts(inbox, overheard, own)
        if decision is None:
            if self.pending is None and own_sched is not None:
                # our utility won: start negotiating it right away
                self.begin_negotiation(own_sched)
            return
        winner = decision
        # abandon own transmission: the winner's utility beat ours
        self.pending = None
        self.send_cts(winner.tx, winner.channel)
        self.begin_data_rx(winner.tx, winner.channel)

    def on_cts(self, frame: wire.CtsFrame) -> None:
        if frame.tx != self.id or self.pending is None or self.phase is DATA_TRANSFER:
            return
        rts = self.pending.rts
        if frame.rx != rts.rx or frame.channel != rts.channel:
            return
        # a CTS after fallback to flow update still starts the data phase
        self.penalty.record_visit(rts.flow_index, rts.rx)
        self.begin_data_tx()

    # -- data phase ---------------------------------------------------------

    def begin_data_rx(self, peer: int, chan: int) -> None:
        self.data_peer = peer
        self.channel = chan
        self.enter_phase(DATA_TRANSFER)
        self.engine.schedule(self.data_us, self.end_data_phase)

    def begin_data_tx(self) -> None:
        rts = self.pending.rts
        self.data_peer = rts.rx
        self.channel = rts.channel
        self.enter_phase(DATA_TRANSFER)
        self.send_next_data()

    def end_data_phase(self) -> None:
        if self.phase is not DATA_TRANSFER:
            return
        self.pending = None
        self.enter_phase(FLOW_UPDATE)
        # prompt tick: a SYN right after a burst keeps neighbor backlog
        # views from going a whole dwell stale
        self.schedule_tick(0)

    def send_next_data(self) -> None:
        s = self.pending
        if self.phase is not DATA_TRANSFER or s is None:
            return
        engine = self.engine
        if engine.now_us >= self.phase_entry_us + self.data_us:
            self.end_data_phase()
            return
        rts = s.rts
        if self.channel_busy(rts.channel):
            # carrier sense: another live transmission owns the channel;
            # retry after a random hold-off
            engine.schedule(int(self.rng.integers(2_000, 10_000)), self.send_next_data)
            return
        frame = self.next_coded_packet(rts.flow_index, self.data_peer)
        if frame is None:
            self.end_data_phase()
            return
        airtime = engine.transmit(self, rts.channel, frame)
        self.queues.pay(rts.flow_index, s.covered_dests)
        engine.schedule(airtime, self.send_next_data)

    def next_coded_packet(self, flow_index: int, peer: int) -> wire.DataFrame | None:
        """The next frame of the oldest generation with credit for peer:
        each held frame once, in the order it came (keeping the tag
        staircase intact), then recodes of a relay's buffer."""
        got = self.relay_gens.take(flow_index, peer)
        if got is None:
            return None
        rg = got[1]
        if rg.sent <= len(rg):
            return rg[rg.sent - 1]
        # a recode is a frame of the generation its entry's frames name
        return wire.DataFrame.of(rg[0].key, *rlnc.recode(self.ctx, rg, self.rng),
                                 self.scn.coding.field_bits)

    def has_sendable(self, flow_index: int, peer: int) -> bool:
        return bool(self.relay_gens.index[flow_index][peer])

    def on_data(self, src: int, frame: wire.DataFrame) -> None:
        if (self.phase is not DATA_TRANSFER or self.pending is not None
                or src != self.data_peer):
            return
        key = frame.key
        fi = key[0]
        source, dsts = self.queues.flows[fi]
        if self.id in dsts:
            # a decoder opened here is keyed by the frame's own tuple
            dec = self.decoders[key]
            self.engine.on_destination_ingest(self.id, fi, key[1], dec, dec.ingest(frame))
        # a destination of a multicast flow also relays it to the others; a
        # source already holds every frame of its own flow it may send
        if self.queues.dests_here[fi] and source != self.id:
            self.relay_gens.hold(frame, src)
        self.queues.add(fi)

    # -- application layer (source only) ------------------------------------

    def app_arrival(self, flow_index: int) -> None:
        m = self.ctx.m
        symbols = self.rng.integers(0, self.ctx.size, size=self.arrival_symbols, dtype=np.uint8)
        gen = self.open_gens.get(flow_index)
        if gen is None or gen.full:
            gen = self.open_generation(flow_index)
        # Systematic emission: the packet carries the newly arrived block
        # directly, so a destination decodes it even when earlier packets of
        # the same generation were dropped.  Packed once, into the frame: the
        # generation's row is a view of the frame's payload.
        frame = wire.DataFrame.of(gen.key, unit_tag(gen.block_size, gen.filled),
                                  gf.symbols_to_bytes(symbols, m), m)
        gen.add_source_packet(frame.payload)
        self.relay_gens.hold(frame)
        self.queues.add(flow_index)
        if gen.full:
            self.close_generation(flow_index, gen)

    def open_generation(self, flow_index: int) -> rlnc.Generation:
        last = self.open_gens.get(flow_index)
        gen_id = 0 if last is None else last.gen_id + 1
        if gen_id > 0xFFFF:  # the one id is the DATA frame's 16-bit one
            raise ch.ScenarioError(f"flows[{flow_index}]: needs more than 65536 "
                                   "generations, all a 16-bit DATA id can number")
        # the generation's one key tuple, which every frame of it holds
        gen = self.open_gens[flow_index] = rlnc.Generation(
            gen_id, self.block_size, self.scn.coding.packet_len, key=(flow_index, gen_id))
        if self.gen_timeout_us is not None:
            # a block that filled was closed then, and its timeout does nothing
            self.engine.schedule(self.gen_timeout_us,
                                 lambda: gen.full or self.close_generation(flow_index, gen))
        return gen

    def close_generation(self, flow_index: int, gen: rlnc.Generation) -> None:
        """Close gen, full or at its timeout: pad a short block with
        rlnc.pad_block's rows, code the redundancy packets, and register the
        truth of the rows that are not padding."""
        real_count = gen.filled
        if real_count < gen.block_size:
            pad = rlnc.pad_block(b"", self.scn.coding.packet_len, gen.block_size - real_count)
            for row in pad[0]:
                gen.add_source_packet(row)
                # a padding row is coded like an arrival, or the block could
                # never reach full rank
                self.queue_coded(flow_index, gen, 1)
        if self.extra_packets > 0:
            self.queue_coded(flow_index, gen, self.extra_packets)
        self.engine.register_truth(flow_index, gen.gen_id, b"".join(gen.source_rows), real_count)

    def queue_coded(self, flow_index: int, gen: rlnc.Generation, count: int) -> None:
        """Code count packets over gen's filled rows, to send in order."""
        m = self.scn.coding.field_bits
        for pkt in rlnc.encode_generation(self.ctx, gen, count, self.rng):
            self.relay_gens.hold(wire.DataFrame.of(gen.key, *pkt, m))


# -- pure decision functions (replayable in tests) --------------------------

def resolve_conflicts(
    inbox: list[wire.RtsFrame],
    overheard: list[wire.RtsFrame],
    own: tuple[float, int] | None,
) -> wire.RtsFrame | None:
    """Choose at most one RTS to answer with a CTS.

    Winner has the highest utility, as its RTS frame snapped it to q16.16;
    ties go to the lower node id.  The decision uses only frames this node
    heard: a competing transmission we overhear (hidden from the contenders)
    suppresses the CTS, and our own pending transmission, own = (its RTS's
    utility, this node's id), competes on equal terms.
    """
    if not inbox:
        return None
    winner = min(inbox, key=lambda f: (-f.utility, f.tx))
    best = (winner.utility, -winner.tx)
    if own is not None and (own[0], -own[1]) > best:
        return None  # insist on our own transmission
    for f in overheard:
        if f.channel == winner.channel and (f.utility, -f.tx) > best:
            return None  # a stronger transmission we can hear would collide
    return winner


def apply_power_update(
    power_dbm: float, gamma_t: float, gamma_hat: float,
    min_dbm: float, max_dbm: float,
) -> float:
    """Multiplicative power-control step, clamped to the configured range.

    gamma values are linear SNR; a dead measurement pins power at max.
    """
    if gamma_hat <= 0:
        return max_dbm
    p_mw = ch.dbm_to_mw(power_dbm) * gamma_t / gamma_hat
    p_dbm = 10 * math.log10(p_mw)
    return min(max_dbm, max(min_dbm, p_dbm))
