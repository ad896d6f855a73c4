import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc import gf, wire
from bpnc.wire import (
    CtsFrame,
    DataFrame,
    DisFrame,
    MalformedFrame,
    RtsFrame,
    SynFrame,
    unpack,
)


def test_dis_roundtrip():
    f = DisFrame(3, 1, ((2, 0, -55.0), (5, 2, -70.0)))
    raw = f.pack()
    assert raw[0] == 0x01
    assert len(raw) == 4 + 2 * 4
    g = unpack(raw)
    assert g.sender == 3 and g.next_channel == 1
    assert len(g.neighbors) == 2
    assert g.neighbors[0][2] == pytest.approx(-55.0, abs=1 / 256)


def test_syn_roundtrip_multicast_entries():
    f = SynFrame(4, ((1, (6, 7), 12), (1, (7, 6), 3)))
    g = unpack(f.pack())
    assert g == f


def test_syn_empty_still_packs():
    f = SynFrame(2, ())
    raw = f.pack()
    assert len(raw) == 3
    assert unpack(raw) == f


def test_rts_utility_quantized_roundtrip():
    f = RtsFrame(3, 4, 1, 0, 6.125)
    g = unpack(f.pack())
    assert g.utility == 6.125
    assert g.tx == 3 and g.rx == 4 and g.channel == 1


def test_cts_roundtrip():
    f = CtsFrame(4, 3, 2)
    raw = f.pack()
    assert len(raw) == 4
    assert unpack(raw) == f


def test_data_roundtrip_nibble_tag():
    f = DataFrame(0, 7, (0xA, 0, 0x3, 0x1), b"hello", 4)
    raw = f.pack()
    assert raw[5:9] == bytes([0, 1, 2, 3])  # column order
    g = unpack(raw, field_bits=4)
    assert g.gen_id == 7
    assert g.tag == (0xA, 0, 0x3, 0x1)
    assert g.payload == b"hello"


def test_data_odd_block_size_tag_padding():
    f = DataFrame(1, 0, (1, 2, 3), b"\x00" * 10, 4)
    g = unpack(f.pack(), field_bits=4)
    assert g.tag == (1, 2, 3)


def test_data_frame_bytes_pinned():
    # m=4, h=3: type, flow, gen id (LE), h, column order 0..2, tag nibbles
    # high first with a zero pad nibble, payload
    f = DataFrame(2, 0x0102, (0xA, 0x5, 0xF), b"\xde\xad", 4)
    assert f.pack() == bytes.fromhex("05 02 0201 03 000102 a5f0 dead")


def test_data_byte_tag_for_m8():
    f = DataFrame(0, 1, (200, 3), b"xy", 8)
    g = unpack(f.pack(), field_bits=8)
    assert g.tag == (200, 3)


def test_data_payload_limit():
    with pytest.raises(MalformedFrame):
        DataFrame(0, 0, (1,), b"\x00" * 501, 4).pack()


def test_data_frame_is_built_whole():
    # a DATA frame's bytes are built with it, once, and its payload is a
    # view of them; a parse of those bytes is the same frame
    built = DataFrame(3, 9, (1, 2, 3), b"xyz", 4)
    raw = built.raw
    assert raw == bytes.fromhex("05 03 0900 03 000102 1230") + b"xyz"
    assert built.pack() is raw
    assert built.payload.obj is raw and built.payload == b"xyz"
    parsed = unpack(raw, field_bits=4)
    assert parsed == built and hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    assert parsed.pack() == raw


def test_data_frame_equals_by_its_bytes_and_field():
    # a parse equals the frame and hashes alike; a frame that differs in
    # any one field differs, the field size too when the bytes are the same
    fields = (2, 0x0102, (0xA, 0x5, 0xF), b"\xde\xad", 4)
    f = DataFrame(*fields)
    g = unpack(f.pack(), field_bits=4)
    assert g is not f and g == f and hash(g) == hash(f) and not g != f
    for k, value in enumerate((3, 0x0103, (0xA, 0x5, 0xE), b"\xde\xae", 8)):
        other = DataFrame(*fields[:k], value, *fields[k + 1:])
        assert other != f and f != other
    assert DataFrame(0, 0, (), b"x", 4).raw == DataFrame(0, 0, (), b"x", 8).raw
    assert DataFrame(0, 0, (), b"x", 4) != DataFrame(0, 0, (), b"x", 8)
    assert f != f.raw and f != 0


def test_data_frame_holds_no_payload_view():
    # the payload is read out of raw when asked for; the frame keeps only
    # raw and where the payload starts in it, and no field can be changed
    f = DataFrame(3, 9, (1, 2, 3), b"xyz", 4)
    held = [getattr(f, name) for name in DataFrame.__slots__]
    assert not any(isinstance(v, memoryview) for v in held)
    assert f.payload.obj is f.raw and f.payload.readonly and f.payload is not f.payload
    assert f.raw[f.offset:] == b"xyz"
    for name in ("key", "tag", "raw", "offset", "field_bits", "payload", "gen_id"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    with pytest.raises(AttributeError):
        del f.raw
    assert f.raw[f.offset:] == b"xyz"


def test_a_frame_of_a_named_generation_holds_its_key():
    key = (3, 9)
    f = DataFrame.of(key, (1, 2), b"xy", 8)
    assert f.key is key and (f.flow_index, f.gen_id) == key
    assert f == DataFrame(3, 9, (1, 2), b"xy", 8)


@pytest.mark.parametrize("m,tag", [(4, (17, 3)), (4, (-1, 3)), (4, (1, 16)), (1, (0, 2)),
                                   (2, (4,)), (8, (256,)), (8, (-1,))])
def test_data_tag_symbol_out_of_range_is_malformed(m, tag):
    # a symbol outside 0..2^m-1 has no wire form: packed, it would be masked
    # to m bits, so the frame's tag would differ from its own parse
    with pytest.raises(MalformedFrame, match="out of range"):
        DataFrame(0, 0, tag, b"\x00", m)


def test_data_tag_symbol_range_edges_are_accepted():
    for m in (1, 2, 4, 8):
        top = (1 << m) - 1
        frame = DataFrame(0, 0, (0, top), bytes(1), m)
        assert unpack(frame.pack(), field_bits=m).tag == (0, top)


def reference_data_raw(flow_index, gen_id, tag, payload, m):
    """A DATA frame's bytes as they were built: one bytearray, appended to
    field by field."""
    out = bytearray([wire.TYPE_DATA, flow_index])
    out += struct.pack("<H", gen_id)
    out.append(len(tag))
    out += bytes(range(len(tag)))
    out += wire.pack_tag(tag, m)
    out += memoryview(payload)
    return bytes(out)


@given(st.sampled_from([1, 2, 4, 8]), st.data())
@settings(max_examples=300)
def test_data_raw_matches_reference(m, data):
    h = data.draw(st.sampled_from([0, 1, 2, 4, 8, 255]))
    tag = tuple(data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=h, max_size=h)))
    body = data.draw(st.binary(max_size=wire.MAX_PAYLOAD_BYTES))
    fidx, gid = data.draw(BYTE), data.draw(st.integers(0, 0xFFFF))
    expect = reference_data_raw(fidx, gid, tag, body, m)
    # a payload may come as bytes, a numpy array or a view into other bytes
    for payload in (body, np.frombuffer(body, dtype=np.uint8), memoryview(b"#" + body)[1:]):
        frame = DataFrame(fidx, gid, tag, payload, m)
        assert frame.raw == expect
        assert frame.payload == body and frame.payload.obj is frame.raw


@pytest.mark.parametrize("field_bits,raw", [
    pytest.param(4, bytes.fromhex("05 00 0000 03 000102 a5f1 dead"), id="m4-pad-nibble"),
    pytest.param(2, bytes.fromhex("05 00 0000 01 00 c1"), id="m2-pad-bits"),
    pytest.param(4, bytes.fromhex("05 00 0000 01 00 a0") + bytes(501), id="payload-501"),
])
def test_data_bytes_pack_cannot_write_rejected(field_bits, raw):
    # only bytes pack() writes parse, so they are a frame's one wire form
    with pytest.raises(MalformedFrame):
        unpack(raw, field_bits=field_bits)


def test_data_block_size_limit():
    # h travels in one byte
    assert len(DataFrame(0, 0, (1,) * 255, b"", 8).pack()) == 5 + 2 * 255
    with pytest.raises(MalformedFrame):
        DataFrame(0, 0, (1,) * 256, b"", 8).pack()


@pytest.mark.parametrize("order", [(1, 0, 2), (0, 1, 1), (0, 1, 3)])
def test_data_column_order_other_than_identity_rejected(order):
    # the stack never reorders tag columns, so it cannot honour another order
    raw = bytearray(DataFrame(0, 5, (1, 2, 3), b"abc", 4).pack())
    raw[5:8] = bytes(order)
    with pytest.raises(MalformedFrame):
        unpack(bytes(raw), field_bits=4)


def test_unknown_type_rejected():
    with pytest.raises(MalformedFrame):
        unpack(b"\x09\x01")
    with pytest.raises(MalformedFrame):
        unpack(b"")


def test_truncated_frames_rejected():
    raw = SynFrame(4, ((1, (7,), 5),)).pack()
    with pytest.raises(MalformedFrame):
        unpack(raw[:-1])
    with pytest.raises(MalformedFrame):
        unpack(DisFrame(1, 0, ((2, 0, -50.0),)).pack() + b"\x00")
    with pytest.raises(MalformedFrame):
        unpack(b"\x02\x01\x01")  # SYN promising one entry, header only
    with pytest.raises(MalformedFrame):
        unpack(b"\x01\x01")  # DIS cut inside its header


# arbitrary bytes, plus bytes that start with a known type tag so every
# parser branch sees garbage
ANY_FRAME_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda t, rest: bytes([t]) + rest,
              st.sampled_from(sorted(wire.TYPE_NAMES)), st.binary(max_size=64)),
)


@given(ANY_FRAME_BYTES, st.integers(0, 16))
@settings(max_examples=1000)
def test_unpack_fails_only_with_malformed_frame(raw, field_bits):
    # any byte string is a frame or a MalformedFrame, never a stray error;
    # a DATA frame with an unusable field size is a MalformedFrame too, not a
    # ZeroDivisionError
    try:
        frame = unpack(raw, field_bits=field_bits)
    except MalformedFrame:
        return
    assert type(frame) in (DisFrame, SynFrame, RtsFrame, CtsFrame, DataFrame)


@given(
    st.integers(0, 255),
    st.integers(0, 65535),
    st.lists(st.integers(0, 15), min_size=1, max_size=8),
    st.binary(max_size=64),
)
@settings(max_examples=200)
def test_data_roundtrip_property(fidx, gen, tag, payload):
    f = DataFrame(fidx, gen, tuple(tag), payload, 4)
    g = unpack(f.pack(), field_bits=4)
    assert (g.flow_index, g.gen_id, g.tag, g.payload) == (fidx, gen, tuple(tag), payload)


def reference_pack_tag(tag, m):
    """pack_tag as it was: a padded symbol list through gf.symbols_to_bytes."""
    tag = list(int(t) for t in tag)
    spb = 8 // m
    while len(tag) % spb:
        tag.append(0)
    return gf.symbols_to_bytes(tag, m)


def reference_unpack_tag(raw, h, m):
    """unpack_tag as it was: every byte through gf.bytes_to_symbols."""
    return list(gf.bytes_to_symbols(raw, m))[:h]


@given(st.sampled_from([1, 2, 4, 8]), st.data())
@settings(max_examples=500)
def test_tag_packing_matches_reference(m, data):
    h = data.draw(st.integers(1, 255))
    tag = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=h, max_size=h))
    raw = wire.pack_tag(tag, m)
    assert raw == reference_pack_tag(tag, m)
    assert len(raw) == wire.tag_wire_len(h, m)
    assert wire.unpack_tag(raw, h, m) == reference_unpack_tag(raw, h, m) == tag
    # any bytes, including a header cut short, parse as they did
    junk = data.draw(st.binary(max_size=wire.tag_wire_len(h, m)))
    assert wire.unpack_tag(junk, h, m) == reference_unpack_tag(junk, h, m)


def test_tag_layout_high_group_first_zero_padded():
    assert wire.pack_tag([0xA, 0xB, 0xC], 4) == b"\xab\xc0"
    assert wire.pack_tag([1, 0, 1], 1) == b"\xa0"
    # a DATA frame whose m does not divide 8 has no tag layout
    with pytest.raises(MalformedFrame, match="does not divide 8"):
        DataFrame(0, 0, (5, 6), b"", 3).pack()
    with pytest.raises(MalformedFrame, match="does not divide 8"):
        unpack(bytes.fromhex("05 00 0000 02 0001 0506"), field_bits=3)
    assert wire.pack_tag(np.array([3, 1], dtype=np.uint8), 2) == b"\xd0"


BYTE = st.integers(0, 255)
# gains and utilities drawn on their wire grids, so quantisation is exact
GAIN_DB = st.integers(0, 0xFFFF).map(wire.decode_gain_db)
UTILITY = st.integers(0, 0xFFFFFFFF).map(wire.decode_utility)


@st.composite
def data_frames(draw):
    m = draw(st.sampled_from([4, 8]))
    h = draw(st.integers(1, 255))
    tag = tuple(draw(st.lists(st.integers(0, (1 << m) - 1), min_size=h, max_size=h)))
    return DataFrame(draw(BYTE), draw(st.integers(0, 0xFFFF)), tag,
                     draw(st.binary(max_size=wire.MAX_PAYLOAD_BYTES)), m)


ANY_FRAME = st.one_of(
    st.builds(DisFrame, BYTE, BYTE,
              st.lists(st.tuples(BYTE, BYTE, GAIN_DB), max_size=255).map(tuple)),
    st.builds(SynFrame, BYTE,
              st.lists(st.tuples(BYTE, st.lists(BYTE, max_size=255).map(tuple),
                                 st.integers(0, 0xFFFF)), max_size=255).map(tuple)),
    st.builds(RtsFrame, BYTE, BYTE, BYTE, BYTE, UTILITY),
    st.builds(CtsFrame, BYTE, BYTE, BYTE),
    data_frames(),
)


@given(ANY_FRAME)
@settings(max_examples=500)
def test_unpack_inverts_pack(frame):
    parsed = unpack(frame.pack(), field_bits=getattr(frame, "field_bits", 4))
    assert parsed == frame and hash(parsed) == hash(frame)


FLOAT = st.floats(allow_nan=False)


@given(st.one_of(
    st.builds(DisFrame, BYTE, BYTE,
              st.lists(st.tuples(BYTE, BYTE, FLOAT), max_size=255).map(tuple)),
    st.builds(SynFrame, BYTE,
              st.lists(st.tuples(BYTE, st.lists(BYTE, max_size=8).map(tuple),
                                 st.integers(0, 1 << 20)), max_size=255).map(tuple)),
    st.builds(RtsFrame, BYTE, BYTE, BYTE, BYTE, FLOAT),
))
@settings(max_examples=500)
def test_built_frame_equals_its_parse(frame):
    # built from any gain, utility or backlog, a frame is already on the wire
    # grid, so a receiver can be handed the frame itself
    assert unpack(frame.pack()) == frame


def test_frames_snap_to_the_wire_grid_when_built():
    assert RtsFrame(1, 2, 0, 0, 0.1).utility == round(0.1 * 65536) / 65536
    assert RtsFrame(1, 2, 0, 0, -3.0).utility == 0.0
    assert RtsFrame(1, 2, 0, 0, float("inf")).utility == 0xFFFFFFFF / 65536
    assert DisFrame(1, 0, ((2, 0, -55.001),)).neighbors == ((2, 0, -55.0),)
    assert SynFrame(1, ((1, (7,), 70000),)).entries == ((1, (7,), 0xFFFF),)


def test_gain_encoding_monotone_and_clamped():
    assert wire.encode_gain_db(-200.0) == 0
    assert wire.encode_gain_db(200.0) == 0xFFFF
    assert wire.decode_gain_db(wire.encode_gain_db(-55.0)) == pytest.approx(-55.0, abs=1 / 256)


def reference_unpack(raw: bytes, field_bits: int = 4):
    """unpack as it was: one hand-written check for each byte string pack
    cannot write."""
    if not raw:
        raise MalformedFrame("empty frame")
    t = raw[0]
    try:
        if t == wire.TYPE_DIS:
            sender, next_chan, n = raw[1], raw[2], raw[3]
            nbrs = []
            off = 4
            for _ in range(n):
                nbr, chan, g = struct.unpack_from("<BBH", raw, off)
                nbrs.append((nbr, chan, wire.decode_gain_db(g)))
                off += 4
            if off != len(raw):
                raise MalformedFrame("trailing bytes in DIS")
            return DisFrame(sender, next_chan, tuple(nbrs))
        if t == wire.TYPE_SYN:
            sender, n = raw[1], raw[2]
            off = 3
            entries = []
            for _ in range(n):
                src, ndst = raw[off], raw[off + 1]
                off += 2
                dsts = tuple(raw[off : off + ndst])
                if len(dsts) != ndst:
                    raise MalformedFrame("short SYN entry")
                off += ndst
                (backlog,) = struct.unpack_from("<H", raw, off)
                off += 2
                entries.append((src, dsts, backlog))
            if off != len(raw):
                raise MalformedFrame("trailing bytes in SYN")
            return SynFrame(sender, tuple(entries))
        if t == wire.TYPE_RTS:
            _, tx, rx, chan, fidx, u = struct.unpack("<BBBBBI", raw)
            return RtsFrame(tx, rx, chan, fidx, wire.decode_utility(u))
        if t == wire.TYPE_CTS:
            if len(raw) != 4:
                raise MalformedFrame("bad CTS length")
            return CtsFrame(raw[1], raw[2], raw[3])
        if t == wire.TYPE_DATA:
            wire._require_field_bits(field_bits)
            fidx = raw[1]
            (gen_id,) = struct.unpack_from("<H", raw, 2)
            h = raw[4]
            off = 5 + h
            tl = wire.tag_wire_len(h, field_bits)
            tag = tuple(wire.unpack_tag(raw[off : off + tl], h, field_bits))
            if len(tag) != h:
                raise MalformedFrame("short DATA header")
            if raw[5:off] != bytes(range(h)):
                raise MalformedFrame("DATA column order must be 0..h-1")
            pad_bits = 8 * tl - field_bits * h
            if pad_bits and raw[off + tl - 1] & ((1 << pad_bits) - 1):
                raise MalformedFrame("nonzero DATA tag padding")
            if len(raw) - off - tl > wire.MAX_PAYLOAD_BYTES:
                raise MalformedFrame("payload exceeds 500 bytes")
            return DataFrame(fidx, gen_id, tag, bytes(raw[off + tl :]), field_bits)
    except (struct.error, IndexError) as e:
        raise MalformedFrame(str(e)) from e
    raise MalformedFrame(f"unknown frame type 0x{t:02x}")


FIELD_BITS = st.integers(0, 16)


@st.composite
def mutated_packs(draw):
    """A built frame's bytes, cut, extended or bit-flipped, with the frame's
    own field size or any other."""
    frame = draw(ANY_FRAME)
    raw = bytearray(frame.pack())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["cut", "extend", "flip"]))
        if op == "cut":
            del raw[draw(st.integers(0, len(raw))):]
        elif op == "extend":
            raw += draw(st.binary(min_size=1, max_size=4))
        elif raw:
            raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    m = draw(st.just(getattr(frame, "field_bits", 4)) | FIELD_BITS)
    return bytes(raw), m


def _outcome(parse, raw, m):
    try:
        return parse(raw, field_bits=m)
    except MalformedFrame:
        return MalformedFrame


@given(st.tuples(ANY_FRAME_BYTES, FIELD_BITS) | mutated_packs())
@settings(max_examples=2000)
def test_unpack_matches_reference(case):
    # the one round-trip rule accepts and refuses what the hand-written
    # checks did, and yields the same frames
    raw, m = case
    got, want = _outcome(unpack, raw, m), _outcome(reference_unpack, raw, m)
    assert type(got) is type(want) and got == want
