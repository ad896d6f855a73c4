"""Deterministic discrete-event core: clock, frame delivery, metrics.

Time is integer microseconds; ``channel.us`` alone converts seconds to
them.  Events with equal timestamps run in scheduling order, so a run is a
pure function of (scenario, seed); logging never consumes randomness.

The medium does each packet's work once.  Frames are built on the wire grid
and packed once, and no frame is parsed during a run: ``wire`` snaps every
field a frame carries when the frame is built, so the frame equals its own
parse, and every receiver is handed the sender's own frozen object.  The
bytes serve only for airtime, the success model and the packet log.  A DATA
frame's bytes are built with it, and its payload is read out of them, never
kept apart, so a relay re-sends the very object it received and the medium
never packs it again.  The packet log (``PacketLog``) keeps one record per transmission
in columns: the times in an ``array``, the channel and sender a byte each,
and those same bytes objects in a list.  It renders its text lines only as
it is iterated, and it stays in memory until the run ends.

What does not change from frame to frame is kept in per-run tables, each
keyed by the values its entry depends on and nothing else.  For each
(sender, channel), ``Engine.receivers`` maps every node the sender reaches
to its gain.  Every other table is a ``channel.Table``, which builds an
entry from its key on first read.  ``Engine.reach``, keyed by (sender,
channel, the sender's power in dBm), lists the nodes at or above
sensitivity at that power, with their received power; a delivery walks
that list.  That cut is the one reception rule: a node keeps no copy of it
and learns its neighbours only from the frames ``_deliver`` hands it.
``airtimes`` is keyed by frame length, ``mw`` by power in dBm (for energy
and carrier sense), the ``link_rates`` all nodes share by received power,
and ``clear_p_ok``, the success probability of a reception no other
carrier reaches, by received power and frame length.  Channel uniforms
come from ``DRAW_BUFFER``-sized blocks of the channel generator, the same
stream as one scalar draw at a time.  A coded packet travels as its
``wire.DataFrame``, and its payload stays packed bytes from source to
decoder.

A frame costs only the work it needs.  Every event still enters the heap
through ``schedule_at``, the one place events are counted; ``transmit``
schedules ``_deliver`` of its transmission as a closure, which costs less
to build and call than a ``functools.partial`` of the bound method, and
``_deliver`` lists concurrent carriers and their interference only when
another carrier is on the air.  A decoder's rows are judged against the
truth one way, ``Truth.compare``, row by row in packed bytes: a row equal
to its truth row is right throughout, and only the other rows are counted,
as the zero m-bit groups of row XOR truth (``gf.FieldContext.zero_groups``).
A rank-deficient estimate scores the symbols right in its rows with a
confidence; a decode at full rank adds its wrong rows to ``decode_errors``.
That judgement is the last read of a decoder's rows: it takes them
(``DecoderState.take_block``), and the decoder keeps only its counts, so
its rank, the frames it still receives and its accuracy entries read as
before while a decoded generation holds no payload.  Every node keys its
relay entries and decoders of a generation by the one tuple the
generation's frames hold (``wire.DataFrame.key``), so a long run keeps one
key per generation, not one per record.

Each engine fact is kept once.  The one per-generation table is ``truth``:
a generation's ``Truth`` holds its source rows as one packed ``bytes`` and,
for the rank-deficient decoder, each destination's best score before full
rank.  It is dropped once every destination has decoded.  Which
destinations have decoded is read from their own decoders
(``Node.decoders``), so the engine keeps no copy of it.  ``write_outputs``
writes a run's files.
"""

from __future__ import annotations

import heapq
import math
import typing
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field, is_dataclass
from functools import partial

import numpy as np

from . import channel as ch
from . import gf, rlnc, wire
from .protocol import Node

US = 1_000_000  # us per second, for us -> s; channel.us is the one s -> us
# channel uniforms are drawn this many at a time; Generator.random(n) yields
# the same stream as n scalar draws
DRAW_BUFFER = 1024


def _uniforms(rng: np.random.Generator):
    """rng's uniform stream, drawn DRAW_BUFFER at a time."""
    while True:
        yield from rng.random(DRAW_BUFFER).tolist()


@dataclass(slots=True)
class Transmission:
    start_us: int
    end_us: int
    src: int
    chan: int
    power_dbm: float
    frame: object  # the sender's own frame, on the wire grid and frozen, so
                   # receivers and later hops share it
    nbytes: int


@dataclass(slots=True)
class Truth:
    """A generation's ground truth, until every destination decodes it."""

    rows: bytes  # the source rows, packed, in order
    real: int    # rows that are not padding
    # destination -> most symbols estimated right below full rank
    best: dict[int, int] = field(default_factory=dict)

    def compare(self, ctx: gf.FieldContext, est: np.ndarray, rows) -> tuple[int, int]:
        """(symbols right, rows wrong) of the given rows of a decoder's
        packed (h, packet_len) rows against the truth.  A row equal to its
        truth row as bytes is right throughout; only the other rows are
        counted, as the zero m-bit groups of their XOR with the truth
        through ``ctx.zero_groups``, so the truth stays packed."""
        n, per = est.shape[1], 8 // ctx.m
        packed, truth = est.tobytes(), self.rows
        if packed == truth:  # every row is right
            return len(rows) * n * per, 0
        mine, theirs = [], []
        for c in rows:
            if (a := packed[c * n:(c + 1) * n]) != (b := truth[c * n:(c + 1) * n]):
                mine.append(a)
                theirs.append(b)
        right = (len(rows) - len(mine)) * n * per
        if mine:
            right += int(ctx.zero_groups.take(np.frombuffer(b"".join(mine), np.uint8)
                                              ^ np.frombuffer(b"".join(theirs), np.uint8)).sum())
        return right, len(mine)


class PacketLog:
    """The packet log: one record per transmission, held in four columns
    rather than as one object per record.  ``times`` is each start time in
    µs, an ``array('q')`` (a validated run is at most 2^53 µs long);
    ``chans`` and ``srcs`` are the channel and the sender, a byte each (both
    are at most 255); ``raws`` lists the very bytes objects the frames'
    ``pack`` returned (for a DATA frame its cached ``raw``, which every hop
    that re-sends the frame shares).

    It is iterated as its text lines, ``"<t_us> <chan> <src> <KIND>
    <hex>"``, in transmission order, each rendered from the columns as it
    is read; ``len`` counts them, and two logs are equal when their columns
    are.  The log stays in memory for the whole run: nothing streams it to
    disk yet."""

    __slots__ = ("times", "chans", "srcs", "raws")

    def __init__(self) -> None:
        self.times = array("q")
        self.chans = bytearray()
        self.srcs = bytearray()
        self.raws: list[bytes] = []

    def append(self, t_us: int, chan: int, src: int, raw: bytes) -> None:
        self.times.append(t_us)
        self.chans.append(chan)
        self.srcs.append(src)
        self.raws.append(raw)

    @staticmethod
    def line(t_us: int, chan: int, src: int, raw: bytes) -> str:
        return f"{t_us} {chan} {src} {wire.TYPE_NAMES[raw[0]]} {raw.hex()}"

    def __len__(self) -> int:
        return len(self.raws)

    def __iter__(self):
        return map(self.line, self.times, self.chans, self.srcs, self.raws)

    def __eq__(self, other) -> bool:
        if isinstance(other, PacketLog):
            return (self.times == other.times and self.chans == other.chans
                    and self.srcs == other.srcs and self.raws == other.raws)
        return NotImplemented


@dataclass
class MetricsLog:
    """``metrics.csv`` has one row per series per sample time, sampled at
    0 s, every ``sample_interval_s`` before the run's end and once at its
    end.  ``times`` lists the sample times; ``columns`` keys each
    (kind, node, flow) series, in row order, to its values at those times
    ("" names no node or no flow)."""

    times: list[float] = field(default_factory=list)
    columns: dict[tuple[str, int | str, int | str], list] = field(default_factory=dict)
    # packets received -> decoded fraction at each destination ingest, in
    # arrival order, 8 bytes each
    accuracy: dict[int, array] = field(default_factory=lambda: defaultdict(partial(array, "d")))
    early_recovery: list[float] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def series(self, kind: str, node: int | str = "", flow: int | str = ""):
        """(time_s, value) of every sample of one series."""
        return list(zip(self.times, self.columns[(kind, node, flow)]))


class Engine:
    """One simulation run; owns the clock, the medium, and all nodes."""

    def __init__(self, scn: ch.Scenario, seed: int):
        scn.validate()
        if type(seed) is not int or not 0 <= seed <= 0xFFFFFFFF:
            raise ch.ScenarioError(f"seed: must be an integer in 0..{0xFFFFFFFF}, got {seed!r}")
        self.scn = scn
        self.seed = seed
        self.duration_us = ch.us(scn.duration_s)
        self.ctx = gf.FieldContext(scn.coding.field_bits)
        self.now_us = 0
        self._seq = 0
        self._heap: list[tuple[int, int, object]] = []
        # the channel's draws: one per in-range receiver of a transmission,
        # and one more per DATA frame that draw lets through under frame loss
        self.uniforms = _uniforms(np.random.default_rng(
            np.random.SeedSequence([seed, 0x5EED])
        ))
        self.nodes: dict[int, Node] = {}
        for nid in range(1, scn.num_nodes + 1):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, nid])
            )
            self.nodes[nid] = Node(nid, scn, self, rng)
        # the topology is static for a run: receivers[src][chan] maps each
        # node that src reaches on chan (never src itself) to its gain,
        # in ascending node id.  Only a pair some link names, either way
        # round, can be connected, so only those pairs are looked up.
        self.receivers = {src: [{} for _ in range(scn.num_channels)] for src in self.nodes}
        for src, dst in sorted({p for l in scn.links if l.src != l.dst
                                for p in ((l.src, l.dst), (l.dst, l.src))}):
            for chan, table in enumerate(self.receivers[src]):
                if (g := scn.gain_db(src, dst, chan)) != float("-inf"):
                    table[dst] = g
        # (sender, channel, sender's power in dBm) -> (node id, node,
        # received dBm) of each node at or above sensitivity, in ascending id
        self.reach = ch.Table(lambda key: [
            (nid, self.nodes[nid], rxp) for nid, g in self.receivers[key[0]][key[1]].items()
            if (rxp := key[2] + g) >= scn.phy.sensitivity_dbm])
        # frame length in bytes -> airtime
        self.airtimes = ch.Table(lambda n: int(math.ceil(n * 8 / scn.phy.bit_rate() * US)))
        # power in dBm -> mW, for a sender's power or a received power
        self.mw = ch.Table(ch.dbm_to_mw)
        # received dBm -> link rate, which every node's schedules weigh by
        self.link_rates = ch.link_rate_table(scn)
        self.noise_mw = ch.dbm_to_mw(scn.phy.noise_floor_dbm)
        self.listen_mw = scn.phy.listen_power_frac * ch.dbm_to_mw(scn.power.max_dbm)
        self.active: list[Transmission] = []
        # (received dBm, frame bytes) -> success probability of a reception
        # no other carrier reaches: it depends on nothing else in a run
        self.clear_p_ok = ch.Table(lambda k: ch.frame_success_prob(ch.link_snr(scn, k[0]), k[1]))
        self.packet_log = PacketLog()
        self.log = MetricsLog()
        # (flow, generation) -> its truth, until every destination decodes it
        self.truth: dict[tuple[int, int], Truth] = {}
        self.injected: dict[int, int] = {i: 0 for i in range(len(scn.flows))}
        self.delivered: dict[int, int] = {i: 0 for i in range(len(scn.flows))}
        # node -> frame type name -> frames it sent
        self.frames_sent: dict[int, Counter] = {n: Counter() for n in self.nodes}
        self.collision_losses = 0
        self.decode_errors = 0

    # -- event loop ---------------------------------------------------------

    def schedule(self, delay_us: int, fn) -> None:
        self.schedule_at(self.now_us + max(0, int(delay_us)), fn)

    def schedule_at(self, t_us: int, fn) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t_us, self._seq, fn))

    def run(self) -> MetricsLog:
        for flow_index, fc in enumerate(self.scn.flows):
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0xA44, flow_index])
            )
            self._schedule_arrival(flow_index, fc, rng)
        for nid in sorted(self.nodes):
            self.nodes[nid].start()
        self._sample_metrics()
        if self.duration_us > 0:
            # an event past the end stays queued, so _seq - len(_heap)
            # counts exactly the events dispatched
            heap, heappop, end = self._heap, heapq.heappop, self.duration_us
            while heap and heap[0][0] <= end:
                t, _, fn = heappop(heap)
                self.now_us = t
                fn()
            # the final sample, after every event at the run's end; a
            # zero-length run's only sample is its first
            self.now_us = self.duration_us
            self._sample_metrics()
        self._finalize_summary()
        return self.log

    def _schedule_arrival(self, flow_index: int, fc: ch.FlowConfig, rng) -> None:
        gap = rng.exponential(1.0 / fc.arrival_rate)
        def fire():
            self.nodes[fc.src].app_arrival(flow_index)
            self.injected[flow_index] += 1
            self._schedule_arrival(flow_index, fc, rng)
        self.schedule(ch.us(gap), fire)

    # -- the medium ---------------------------------------------------------

    def transmit(self, node: Node, chan: int, frame) -> int:
        raw = frame.pack()
        nbytes = len(raw)
        air = self.airtimes[nbytes]
        now = self.now_us
        end = now + air
        power = node.power_dbm
        tx = Transmission(now, end, node.id, chan, power, frame, nbytes)
        active = self.active
        if active:
            active = self.active = [a for a in active if a.end_us > now]
        active.append(tx)
        if end > node.tx_until_us:
            node.tx_until_us = end
        node.tx_airtime_us += air
        node.tx_energy_mj += self.mw[power] * air / US
        self.frames_sent[node.id][wire.TYPE_NAMES[raw[0]]] += 1
        self.packet_log.append(now, chan, node.id, raw)
        self.schedule_at(end, lambda: self._deliver(tx))
        return air

    def _deliver(self, tx: Transmission) -> None:
        src, chan, start, frame = tx.src, tx.chan, tx.start_us, tx.frame
        nbytes, power = tx.nbytes, tx.power_dbm
        active = self.active
        if len(active) == 1 and active[0] is tx:
            # no other carrier is on the air
            concurrent = interferers = ()
        else:
            concurrent = [
                a for a in active
                if a is not tx and a.chan == chan
                and a.start_us < tx.end_us and a.end_us > start
            ]
            # the other senders on this channel, each with the gains it
            # reaches; a receiver's own carrier is not in its own table
            interferers = [(a.power_dbm, self.receivers[a.src][chan])
                           for a in concurrent if a.src != src]
        # frame loss draws are made for DATA frames only
        loss = self.scn.frame_loss if type(frame) is wire.DataFrame else 0.0
        uniforms, clear_p_ok = self.uniforms, self.clear_p_ok
        for nid, node, rxp in self.reach[src, chan, power]:
            # every in-range node gets its own draw from this transmission,
            # whether or not it is tuned here, so logging can't shift draws
            interference = interferers and [p + gains[nid] for p, gains in interferers
                                            if nid in gains]
            p_ok = (ch.frame_success_prob(ch.link_snr(self.scn, rxp, interference), nbytes)
                    if interference else clear_p_ok[rxp, nbytes])
            ok = next(uniforms) < p_ok
            if ok and loss:
                ok = next(uniforms) >= loss
            tuned = node.channel == chan and node.tx_until_us <= start
            if not ok:
                if concurrent and tuned:
                    self.collision_losses += 1
                continue
            if tuned:
                node.handle_frame(src, chan, frame, rxp, power)

    def sense(self, node_id: int, chan: int) -> float:
        """Received power in mW at a node from all live co-channel carriers."""
        total = self.noise_mw
        for a in self.active:
            if a.chan != chan or a.end_us <= self.now_us:
                continue
            g = self.receivers[a.src][chan].get(node_id)
            if g is not None:
                total += self.mw[a.power_dbm + g]
        return total

    # -- coding bookkeeping -------------------------------------------------

    def register_truth(self, flow_index: int, gen_id: int, rows, real_count: int) -> None:
        """rows: the source rows, packed, in order; kept as one bytes copy."""
        self.truth[(flow_index, gen_id)] = Truth(bytes(rows), real_count)

    def on_destination_ingest(self, dest: int, flow_index: int, gen_id: int,
                              dec, innovative: bool) -> None:
        self.log.accuracy[dec.received].append(len(dec.decoded) / dec.block_size)
        truth = self.truth.get((flow_index, gen_id))
        # A reception that is not innovative (``DecoderState.ingest``'s result)
        # left the decoder state as it was; truth is kept until every
        # destination has decoded, so if dest already has a best score that
        # state has been scored and solving again is waste.
        coding = self.scn.coding
        if not dec.full_rank:
            if (coding.decoder == "rank_deficient" and truth is not None
                    and (innovative or dest not in truth.best)):
                est, conf = rlnc.rank_deficient_solve(dec, coding.min_weight_limit)
                rows = [c for c, k in enumerate(conf.tolist()) if k]  # with a confidence
                correct = truth.compare(self.ctx, est, rows)[0]
                truth.best[dest] = max(truth.best.get(dest, 0), correct)
        elif innovative:
            # decoded on the reception after which every tag column is a pivot
            self._on_generation_decoded(dest, flow_index, gen_id, dec, truth)

    def _on_generation_decoded(self, dest, flow_index, gen_id, dec, truth) -> None:
        # truth is present: the source registers it in the event that adds
        # the generation's last row, tags are zero beyond the filled rows so
        # no frame reaches full rank before that, and it is dropped only
        # once every destination has decoded
        h = dec.block_size
        gen = (flow_index, gen_id)
        # at full rank the pivot columns are 0..h-1 and every pivot row is a
        # unit tag, so the payload block is the source rows, in order, when
        # the decode is right.  Nothing reads the rows after this judgement,
        # so the decoder hands them over and keeps only its counts.
        self.decode_errors += truth.compare(self.ctx, dec.take_block(), range(h))[1]
        if dest in truth.best:
            # a fraction of the generation's symbols
            symbols = h * dec.packet_len * gf.symbols_per_byte(self.ctx.m)
            self.log.early_recovery.append(truth.best.pop(dest) / symbols)
        if all((d := self.nodes[n].decoders.get(gen)) is not None and d.full_rank
               for n in self.scn.flows[flow_index].dsts):
            self.delivered[flow_index] += truth.real
            # no destination ingests this generation below full rank again
            del self.truth[gen]

    # -- metrics ------------------------------------------------------------

    def node_stats(self, nid: int) -> dict[str, float]:
        """A node's backlog, energy and frames sent so far, keyed by the
        metric names of ``metrics.csv``."""
        n = self.nodes[nid]
        listen_s = max(0, self.now_us - n.tx_airtime_us) / US
        sent = self.frames_sent[nid]
        return {
            "backlog": n.queues.total(),
            "energy_mj": round(n.tx_energy_mj + self.listen_mw * listen_s, 6),
            "overhead": sent.total() - sent["DATA"],
            "data_frames": sent["DATA"],
        }

    def _sample_metrics(self) -> None:
        """Sample every series at now_us; ``run`` takes the final sample."""
        cols = self.log.columns
        self.log.times.append(self.now_us / US)
        for nid in sorted(self.nodes):
            for kind, value in self.node_stats(nid).items():
                cols.setdefault((kind, nid, ""), []).append(value)
        for fi in self.delivered:
            cols.setdefault(("delivered", "", fi), []).append(self.delivered[fi])
            cols.setdefault(("injected", "", fi), []).append(self.injected[fi])
        step = ch.us(self.scn.timing.sample_interval_s)
        if self.now_us + step < self.duration_us:
            self.schedule(step, self._sample_metrics)

    def _finalize_summary(self) -> None:
        """Built at duration_us, from the values of the final sample."""
        cols = self.log.columns
        per_node = {}
        for nid in sorted(self.nodes):
            backlogs = cols[("backlog", nid, "")]
            per_node[str(nid)] = {
                "energy_mj": cols[("energy_mj", nid, "")][-1],
                "overhead_frames": cols[("overhead", nid, "")][-1],
                "data_frames": cols[("data_frames", nid, "")][-1],
                "final_backlog": backlogs[-1],
                "median_backlog": float(np.median(backlogs)),
                "power_dbm": round(self.nodes[nid].power_dbm, 3),
            }
        decoded = {nid: n for nid, node in sorted(self.nodes.items())
                   if (n := sum(d.full_rank for d in node.decoders.values()))}
        er = self.log.early_recovery
        self.log.summary = {
            "scenario": self.scn.name,
            "seed": self.seed,
            "duration_s": self.duration_us / US,
            "injected": {str(k): v for k, v in self.injected.items()},
            "delivered": {str(k): v for k, v in self.delivered.items()},
            "per_node": per_node,
            "decoded_generations_per_destination": {
                str(k): v for k, v in decoded.items()
            },
            "collision_losses": self.collision_losses,
            "decode_errors": self.decode_errors,
            "early_recovery_mean": float(np.mean(er)) if er else None,
            "early_recovery_count": len(er),
        }


def accuracy_curve(log: MetricsLog) -> list[tuple[int, float]]:
    """Mean decoded fraction as a function of packets received, pooled over
    all (flow, generation, destination) decode traces."""
    return [(r, float(np.mean(log.accuracy[r]))) for r in sorted(log.accuracy)]


def run(scn: ch.Scenario, seed: int) -> Engine:
    eng = Engine(scn, seed)
    eng.run()
    return eng


# -- parameter sweeps -------------------------------------------------------

SWEEP_ALIASES = {
    "block_size": "coding.block_size",
    "decoder": "coding.decoder",
    "field_bits": "coding.field_bits",
    "redundancy": "coding.redundancy",
    "duration": "duration_s",
    "sensing": "sensing_enabled",
}


# what a bool field takes, in any case; str(True) is "True"
BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _convert(key: str, convert, value):
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ch.ScenarioError(f"param {key}: cannot convert {value!r}") from e


def _to_int(value) -> int:
    """int(value), for an int or a string of one; a value int() would round,
    such as 2.7, is an error."""
    out = int(value)
    if not isinstance(value, str) and out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


# a field's declared type -> how a sweep value converts to it; no field of
# another type can be swept
CONVERTERS = {bool: lambda v: BOOL_WORDS[str(v).lower()], int: _to_int, float: float,
              str: str}


def _set_field(scn: ch.Scenario, key: str, value) -> None:
    """Change one dotted-path (or aliased) field of scn, the value converted
    by the field's declared type."""
    key = SWEEP_ALIASES.get(key, key)
    if key == "arrival_rate":
        rate = _convert(key, float, value)
        for f in scn.flows:
            f.arrival_rate = rate
        return
    obj = scn
    parts = key.split(".")
    for p in parts[:-1]:
        if not hasattr(obj, p):
            raise ch.ScenarioError(f"unknown sweep parameter {key!r}")
        obj = getattr(obj, p)
    leaf = parts[-1]
    hints = typing.get_type_hints(type(obj)) if is_dataclass(obj) else {}
    if leaf not in hints:
        raise ch.ScenarioError(f"unknown sweep parameter {key!r}")
    if hints[leaf] not in CONVERTERS:
        raise ch.ScenarioError(f"sweep parameter {key!r} is not a single value")
    setattr(obj, leaf, _convert(key, CONVERTERS[hints[leaf]], value))


def apply_overrides(scn: ch.Scenario, settings: dict) -> ch.Scenario:
    """Deep-copied scenario with every field of settings changed, validated
    once, after all of them, so only the final combination has to be valid."""
    import copy
    scn = copy.deepcopy(scn)
    for key, value in settings.items():
        _set_field(scn, key, value)
    return scn.validate()


def apply_override(scn: ch.Scenario, key: str, value) -> ch.Scenario:
    return apply_overrides(scn, {key: value})


def _run_one(args) -> dict:
    eng = run(*args)
    out = dict(eng.log.summary)
    out["packet_log_digest"] = packet_log_digest(eng.packet_log)
    out["accuracy_curve"] = accuracy_curve(eng.log)
    return out


def packet_log_digest(lines: Iterable[str]) -> str:
    import hashlib
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def sweep(scn: ch.Scenario, param: str, values, seeds, parallel: bool = False) -> list[dict]:
    """One run per (value, seed); rows aggregate delivered-packet stats.

    Parallel execution farms runs to worker processes; each run is seeded
    independently, so the schedule of workers cannot change any result.
    """
    if not values or not seeds:
        raise ch.ScenarioError(
            f"sweep: needs at least one value and one seed, got {len(values)} and {len(seeds)}")
    scns = [apply_override(scn, param, v) for v in values]  # one per value, run for each seed
    jobs = [(s, seed) for s in scns for seed in seeds]
    if parallel:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as ex:
            results = list(ex.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    rows = []
    for i, v in enumerate(values):
        chunk = results[i * len(seeds) : (i + 1) * len(seeds)]
        delivered = [sum(r["delivered"].values()) for r in chunk]
        recovered = [r["early_recovery_mean"] for r in chunk
                     if r["early_recovery_mean"] is not None]
        pooled: dict[int, list[float]] = {}
        for r in chunk:
            for received, frac in r["accuracy_curve"]:
                pooled.setdefault(received, []).append(frac)
        rows.append({
            "param": param,
            "value": v,
            "runs": len(chunk),
            "delivered_mean": float(np.mean(delivered)),
            "delivered_std": float(np.std(delivered)),
            # over the runs that recovered symbols before full rank, if any
            "early_recovery_mean": float(np.mean(recovered)) if recovered else None,
            "digests": [r["packet_log_digest"] for r in chunk],
            "accuracy_curve": [(k, float(np.mean(pooled[k]))) for k in sorted(pooled)],
        })
    return rows


def write_sweep(rows: list[dict], out_dir) -> None:
    """``sweep.csv``, one row per value, and ``accuracy.csv``, each value's
    decoded fraction by packets received, into out_dir."""
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as f:
        f.write("# bpnc-sweep v2\n")
        f.write("param,value,runs,delivered_mean,delivered_std,early_recovery_mean\n")
        for r in rows:
            er = r["early_recovery_mean"]
            f.write(f"{r['param']},{r['value']},{r['runs']},"
                    f"{r['delivered_mean']},{r['delivered_std']},{'' if er is None else er}\n")
    with open(out / "accuracy.csv", "w") as f:
        f.write("# bpnc-accuracy v1\n")
        f.write("value,received,decoded_fraction\n")
        for r in rows:
            for received, frac in r["accuracy_curve"]:
                f.write(f"{r['value']},{received},{frac}\n")


def write_outputs(eng: Engine, out_dir) -> None:
    """A run's ``metrics.csv``, ``summary.json`` and ``packets.log``, into out_dir."""
    import json
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = eng.log
    with open(out / "metrics.csv", "w") as f:
        f.write("# bpnc-metrics v1\n")
        f.write("time_s,kind,node,flow,value\n")
        for i, t in enumerate(log.times):
            for (kind, node, flow), values in log.columns.items():
                f.write(f"{t},{kind},{node},{flow},{values[i]}\n")
    with open(out / "summary.json", "w") as f:
        json.dump(log.summary, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(out / "packets.log", "w") as f:
        for line in eng.packet_log:
            f.write(line + "\n")
