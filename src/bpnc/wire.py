"""The five wire formats of the coordination protocol.

All multi-byte integers are little-endian with a 1-byte type tag first:

    DIS   type 0x01 | sender (1) | next channel (1) | neighbour count (1) |
          per neighbour: id (1) | channel (1) | gain (2)
    SYN   type 0x02 | sender (1) | entry count (1) |
          per entry: flow src (1) | dst count (1) | dsts (dst count) |
                     backlog (2)
    RTS   type 0x03 | tx (1) | rx (1) | channel (1) | flow index (1) |
          utility (4)
    CTS   type 0x04 | rx (1) | tx (1) | channel (1)
    DATA  type 0x05 | flow index (1) | generation id (2) |
          block size h (1) | column order (h) | tag (tag_wire_len(h, m)) |
          payload (rest, at most 500 bytes)

Link gains travel as q8.8 fixed point of (gain_db + 128); utilities as
q16.16.  A frame snaps its fields to that grid when it is built, and clamps
SYN backlogs to 0xFFFF, so ``unpack(f.pack()) == f`` for every frame a node
can build.  ``encode_utility`` is exact and monotone on the q16.16 grid, so
receivers compare the frames' snapped utilities as they are.

A DATA frame is the one representation of a coded packet outside
``rlnc``, and its ``key``, the (flow index, generation id) tuple, the
generation's one name: ``DataFrame(key, tag, payload, field_bits)`` is its
one constructor and holds the tuple it is given, and ``unpack`` builds the
key from the bytes.  A source numbers a flow's generations 0..0xFFFF and no
further.  Its tag symbols go 8 // m to a byte, so m must divide 8, and
each lies in 0..2^m - 1: a frame is not built from a symbol its m bits
cannot carry.  The column order is always 0..h-1: the stack never
reorders tag columns (column reordering is only the offline
preconditioning analysis), so ``unpack`` rejects any other order.
The bytes still travel because every packet-log digest covers them, and a
shorter frame changes each DATA frame's airtime and loss draws, and with
them the simulated routes.

Frames are built on the wire grid, and no frame is parsed during a run:
receivers share the sender's frozen frame.  A DATA frame is built whole
(see ``DataFrame``): its bytes are written once, with the frame, and its
payload is read out of them, so a held frame keeps one copy of its payload
and a relayed frame is never packed again.  RTS and SYN frames, which a
node re-sends unchanged, keep their ``raw`` bytes the same way.
``unpack`` is the typed gate for bytes from outside a run (tests, fuzzing,
packet-log readers).  Each branch parses the fields and builds the frame,
and the bytes are accepted only if that frame packs back to exactly them:
a frame's bytes are its one wire form.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import FrozenInstanceError, dataclass, field

TYPE_DIS = 0x01
TYPE_SYN = 0x02
TYPE_RTS = 0x03
TYPE_CTS = 0x04
TYPE_DATA = 0x05

TYPE_NAMES = {
    TYPE_DIS: "DIS",
    TYPE_SYN: "SYN",
    TYPE_RTS: "RTS",
    TYPE_CTS: "CTS",
    TYPE_DATA: "DATA",
}

MAX_PAYLOAD_BYTES = 500
GAIN_DB_BIAS = 128.0


class MalformedFrame(ValueError):
    pass


def encode_gain_db(gain_db: float) -> int:
    return int(round(max(0, min(0xFFFF, (gain_db + GAIN_DB_BIAS) * 256))))


def decode_gain_db(raw: int) -> float:
    return raw / 256.0 - GAIN_DB_BIAS


def encode_utility(u: float) -> int:
    return int(round(max(0, min(0xFFFFFFFF, u * 65536))))


def decode_utility(raw: int) -> float:
    return raw / 65536.0


def _require_field_bits(m: int) -> None:
    if m not in (1, 2, 4, 8):
        raise MalformedFrame(f"field_bits {m} does not divide 8")


def pack_tag(tag, m: int) -> bytes:
    """Tag symbols on the wire, m dividing 8.

    The symbols, each masked to m bits, go 8 // m to a byte, the first in
    the byte's high group, and the last byte is padded with zero symbols.
    """
    mask = (1 << m) - 1
    v = 0
    for t in tag:
        v = v << m | int(t) & mask
    n = tag_wire_len(len(tag), m)
    return (v << (8 * n - m * len(tag))).to_bytes(n, "big")


def tag_wire_len(h: int, m: int) -> int:
    spb = 8 // m
    return (h + spb - 1) // spb


def unpack_tag(raw: bytes, h: int, m: int) -> list[int]:
    """The first h tag symbols in raw (fewer if raw is short)."""
    mask = (1 << m) - 1
    v = int.from_bytes(raw, "big")
    top = 8 * len(raw) - m
    return [v >> (top - m * k) & mask for k in range(min(h, 8 * len(raw) // m))]


@dataclass(frozen=True, slots=True)
class DisFrame:
    sender: int
    next_channel: int
    neighbors: tuple[tuple[int, int, float], ...]  # (nbr id, channel, gain_db)

    def __post_init__(self):
        object.__setattr__(self, "neighbors", tuple(
            (nbr, chan, decode_gain_db(encode_gain_db(g))) for nbr, chan, g in self.neighbors))

    def pack(self) -> bytes:
        out = bytearray([TYPE_DIS, self.sender, self.next_channel, len(self.neighbors)])
        for nbr, chan, gain_db in self.neighbors:
            out += struct.pack("<BBH", nbr, chan, encode_gain_db(gain_db))
        return bytes(out)


@dataclass(frozen=True, slots=True)
class SynFrame:
    sender: int
    # one entry per virtual queue: (flow src, flow dst set with the entry's
    # destination listed first, backlog)
    entries: tuple[tuple[int, tuple[int, ...], int], ...]
    # the frame's one wire form, built with the frame: a node re-sends an
    # unchanged SYN as the same frame
    raw: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(
            (src, dsts, min(backlog, 0xFFFF)) for src, dsts, backlog in self.entries))
        out = bytearray([TYPE_SYN, self.sender, len(self.entries)])
        for src, dsts, backlog in self.entries:
            out += bytes([src, len(dsts), *dsts])
            out += struct.pack("<H", backlog)
        object.__setattr__(self, "raw", bytes(out))

    def pack(self) -> bytes:
        return self.raw


@dataclass(frozen=True, slots=True)
class RtsFrame:
    tx: int
    rx: int
    channel: int
    flow_index: int
    utility: float
    # the frame's one wire form, built with the frame: every retry of one
    # negotiation sends the same frame
    raw: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        u = encode_utility(self.utility)
        object.__setattr__(self, "utility", decode_utility(u))
        object.__setattr__(self, "raw", struct.pack(
            "<BBBBBI", TYPE_RTS, self.tx, self.rx, self.channel, self.flow_index, u))

    def pack(self) -> bytes:
        return self.raw


@dataclass(frozen=True, slots=True)
class CtsFrame:
    rx: int
    tx: int
    channel: int

    def pack(self) -> bytes:
        return bytes([TYPE_CTS, self.rx, self.tx, self.channel])


# type, flow index, generation id and block size h
_DATA_HEAD = struct.Struct("<BBHB")


@functools.cache
def _column_order(h: int) -> bytes:
    """The identity column order 0..h-1 (h <= 255), as it travels."""
    return bytes(range(h))


class DataFrame:
    """A DATA frame: one coded packet of generation ``key``, (flow index,
    generation id), built whole.

    Its bytes, ``raw``, are written once, with the frame, and the payload
    is not kept apart from them: ``payload`` is a read-only view of
    ``raw`` from ``offset`` on, made when it is read.  ``key`` is the one
    tuple that names the generation in every record a run keeps of it: the
    frame holds the very tuple it is built with, so a generation's frames,
    relay entries, decoders and truth share one.  The frame is immutable,
    and two frames are equal, and hash alike, when their bytes and field
    size are.
    """

    __slots__ = ("key", "tag", "field_bits", "raw", "offset")

    def __init__(self, key: tuple[int, int], tag: tuple[int, ...], payload,
                 field_bits: int = 4):
        # tag: h symbols, h the generation's block size; payload: any
        # bytes-like object, copied into raw
        m = field_bits
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise MalformedFrame("payload exceeds 500 bytes")
        h = len(tag)
        if h > 255:
            raise MalformedFrame("block size exceeds 255")
        _require_field_bits(m)
        if h and (min(tag) < 0 or max(tag) >> m):
            raise MalformedFrame(f"tag symbol out of range for GF(2^{m})")
        # header, column order and tag, then the payload's bytes, whatever
        # holds them
        head = _DATA_HEAD.pack(TYPE_DATA, *key, h) + _column_order(h) + pack_tag(tag, m)
        init = object.__setattr__
        init(self, "key", key)
        init(self, "tag", tag)
        init(self, "field_bits", m)
        init(self, "raw", b"".join((head, payload)))
        init(self, "offset", len(head))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def payload(self) -> memoryview:
        """The payload: a read-only view of raw, made on each read."""
        return memoryview(self.raw)[self.offset:]

    def __eq__(self, other):
        if type(other) is not DataFrame:
            return NotImplemented
        return self.raw == other.raw and self.field_bits == other.field_bits

    def __hash__(self):
        return hash((self.raw, self.field_bits))

    def __repr__(self):
        # the fields a reader needs, and no address of a view or of bytes
        return (f"DataFrame(key={self.key!r}, tag={self.tag!r}, "
                f"field_bits={self.field_bits!r})")

    def pack(self) -> bytes:
        return self.raw


def unpack(raw: bytes, field_bits: int = 4):
    """Decode any frame; raises MalformedFrame on garbage.

    Each branch parses the fields and builds the frame from them; only bytes
    the frame packs back to exactly are accepted, so they are its one wire
    form.
    """
    try:
        t = raw[0]
        if t == TYPE_DIS:
            nbrs = [struct.unpack_from("<BBH", raw, 4 + 4 * k) for k in range(raw[3])]
            frame = DisFrame(raw[1], raw[2], tuple((n, c, decode_gain_db(g)) for n, c, g in nbrs))
        elif t == TYPE_SYN:
            off = 3
            entries = []
            for _ in range(raw[2]):
                src, ndst = raw[off], raw[off + 1]
                dsts = tuple(raw[off + 2 : off + 2 + ndst])
                off += 2 + ndst
                (backlog,) = struct.unpack_from("<H", raw, off)
                off += 2
                entries.append((src, dsts, backlog))
            frame = SynFrame(raw[1], tuple(entries))
        elif t == TYPE_RTS:
            _, tx, rx, chan, fidx, u = struct.unpack_from("<BBBBBI", raw)
            frame = RtsFrame(tx, rx, chan, fidx, decode_utility(u))
        elif t == TYPE_CTS:
            frame = CtsFrame(raw[1], raw[2], raw[3])
        elif t == TYPE_DATA:
            # before any tag arithmetic: tag_wire_len divides by 8 // m
            _require_field_bits(field_bits)
            _, fidx, gen_id, h = _DATA_HEAD.unpack_from(raw)
            off = 5 + h
            tl = tag_wire_len(h, field_bits)
            tag = tuple(unpack_tag(raw[off : off + tl], h, field_bits))
            frame = DataFrame((fidx, gen_id), tag, raw[off + tl :], field_bits)
        else:
            raise MalformedFrame(f"unknown frame type 0x{t:02x}")
    except (struct.error, IndexError) as e:
        # IndexError: an empty frame, or a header or entry cut short, reads
        # past the end of raw
        raise MalformedFrame(str(e)) from e
    if frame.pack() != raw:
        raise MalformedFrame(f"{TYPE_NAMES[t]} bytes are not the ones the frame packs")
    return frame
