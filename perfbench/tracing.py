"""Per-layer spans for the bpnc benchmark, recorded from outside ``src/``.

The tracer swaps wrappers in for the public calls into each bpnc module and
restores the originals on exit.  Every function is patched at each place it
is looked up: ``rlnc`` binds ``gaussian_eliminate`` by name from ``gf``, so
both module attributes are replaced.  Methods are patched on their classes,
which also covers bound methods the engine schedules later, but only if the
tracer is installed before the ``Engine`` is constructed.

A span's self time is its duration minus the time covered by spans that
started inside it.  Durations are kept in memory as integer nanoseconds and
summarised when the run ends.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

from bpnc import backpressure, channel, engine, gf, protocol, rlnc, wire


def _count_innovative(tracer, fn):
    """DecoderState.ingest, counting the calls that raised the rank."""
    def ingest(state, *args, **kwargs):
        before = state.rank
        out = fn(state, *args, **kwargs)
        tracer.innovative += state.rank > before
        return out
    return ingest


def _count_rows(tracer, fn):
    """gaussian_eliminate, counting the matrix rows handed to it."""
    def eliminate(ctx, M, *args, **kwargs):
        tracer.eliminated_rows += len(M)
        return fn(ctx, M, *args, **kwargs)
    return eliminate


# (metric name, owner object, attribute, side stat or None): one timed span
# per name.  Several entries may share a name, and each patched owner adds to
# the same span.  A side stat wraps the original function to take an extra
# count for one of the ratios.
SPANS = [
    ("engine.deliver", engine.Engine, "_deliver", None),
    ("engine.transmit", engine.Engine, "transmit", None),
    ("engine.sense", engine.Engine, "sense", None),
    ("engine.on_destination_ingest", engine.Engine, "on_destination_ingest", None),
    ("protocol.next_coded_packet", protocol.Node, "next_coded_packet", None),
    ("protocol.has_sendable", protocol.Node, "has_sendable", None),
    ("protocol.compute_schedule", protocol.Node, "compute_schedule", None),
    ("backpressure.select_flow", backpressure, "select_flow", None),
    ("backpressure.select_next_hop", backpressure, "select_next_hop", None),
    ("rlnc.ingest", rlnc.DecoderState, "ingest", _count_innovative),
    ("rlnc.rank_deficient_solve", rlnc, "rank_deficient_solve", None),
    ("rlnc.encode_generation", rlnc, "encode_generation", None),
    ("rlnc.recode", rlnc, "recode", None),
    ("gf.gaussian_eliminate", gf, "gaussian_eliminate", _count_rows),
    ("gf.gaussian_eliminate", rlnc, "gaussian_eliminate", _count_rows),
    ("gf.matmul", gf.FieldContext, "matmul", None),
    ("gf.bytes_to_symbols", gf, "bytes_to_symbols", None),
    ("gf.symbols_to_bytes", gf, "symbols_to_bytes", None),
    ("wire.unpack", wire, "unpack", None),
    ("wire.pack", wire.DisFrame, "pack", None),
    ("wire.pack", wire.SynFrame, "pack", None),
    ("wire.pack", wire.RtsFrame, "pack", None),
    ("wire.pack", wire.CtsFrame, "pack", None),
    ("wire.pack", wire.DataFrame, "pack", None),
    ("channel.link_snr", channel, "link_snr", None),
]

# Called too often for a timed span to be cheap enough: counted only.
COUNTS = [
    ("protocol.sendable_to", protocol.RelayGen, "sendable_to"),
    ("channel.frame_success_prob", channel, "frame_success_prob"),
]

SPAN_NAMES = sorted({name for name, _, _, _ in SPANS})


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of a sorted sequence; 0 when it is empty."""
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


class _Span:
    __slots__ = ("durations", "self_ns")

    def __init__(self):
        self.durations = array("q")
        self.self_ns = 0


class Tracer:
    """Context manager that installs the wrappers and collects the stats."""

    def __init__(self):
        self.spans = {name: _Span() for name in SPAN_NAMES}
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.innovative = 0          # DecoderState.ingest calls that raised rank
        self.eliminated_rows = 0     # rows handed to gaussian_eliminate
        self._saved: list[tuple[str, object, str, object]] = []  # name, owner, attr, fn
        self._stack: list[int] = []  # child-span time of each open span

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for name, owner, attr, side in SPANS:
            self._patch(name, owner, attr, functools.partial(self._timed, side=side))
        for name, owner, attr in COUNTS:
            self._patch(name, owner, attr, self._counted)
        return self

    def __exit__(self, *exc):
        for _, owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        return False

    def _patch(self, name, owner, attr, make):
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((name, owner, attr, fn))
        setattr(owner, attr, make(name, fn))

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, side=None):
        span = self.spans[name]
        stack = self._stack
        inner = side(self, fn) if side else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return inner(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span.durations.append(dt)
                span.self_ns += dt - child
        return wrapper

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return len(self.spans[name].durations)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            span = self.spans[name]
            out[f"{name}.calls"] = (len(span.durations), "count")
            out[f"{name}.self_s"] = (span.self_ns / 1e9, "s")
            ordered = sorted(span.durations)
            out[f"{name}.p50_us"] = (_percentile(ordered, 0.50) / 1e3, "us")
            out[f"{name}.p99_us"] = (_percentile(ordered, 0.99) / 1e3, "us")
        for name in self.counts:
            out[f"{name}.calls"] = (self.counts[name], "count")

        def ratio(num, den):
            return num / den if den else 0.0
        out["protocol.relay_scan_per_pkt"] = (ratio(
            self.counts["protocol.sendable_to"],
            self.calls("protocol.next_coded_packet")), "ratio")
        out["rlnc.ingest.innovative_ratio"] = (ratio(
            self.innovative, self.calls("rlnc.ingest")), "ratio")
        out["gf.gaussian_eliminate.rows_per_call"] = (ratio(
            self.eliminated_rows, self.calls("gf.gaussian_eliminate")), "rows")
        out["wire.unpack_per_tx"] = (ratio(
            self.calls("wire.unpack"), self.calls("engine.transmit")), "ratio")
        return out

    def code_keys(self) -> dict[str, list[tuple[str, int, str]]]:
        """cProfile keys (file, first line, name) of every wrapped function."""
        keys: dict[str, list[tuple[str, int, str]]] = {}
        for name, _, _, fn in self._saved:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key not in keys.setdefault(name, []):
                keys[name].append(key)
        return keys
