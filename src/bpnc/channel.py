"""Software stand-in for the RF emulator and PHY: per-link gains, SINR, the
BER/link-rate model, and the four canonical topologies.

All functions are pure over the scenario config; the engine owns time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields


class ScenarioError(ValueError):
    """Config validation failure; message names the offending field."""


def dbm_to_mw(dbm: float) -> float:
    return 10 ** (dbm / 10)


def db_to_linear(db: float) -> float:
    return 10 ** (db / 10)


class Table(dict):
    """A per-run table: reading a missing key by subscript builds its entry
    as ``build(key)`` and keeps it.  ``get`` and ``in`` never build."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _check(label: str, v, ok, what: str) -> None:
    """v is a number (not a bool) for which ok holds."""
    # every comparison is False for NaN
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not ok(v):
        raise ScenarioError(f"{label}: must be {what}, got {v!r}")


def _require(section: str, cfg, names, ok, what: str) -> None:
    """_check each named field of cfg, as section.name (name for a
    top-level field)."""
    for name in names:
        _check(f"{section}.{name}" if section else name, getattr(cfg, name), ok, what)


# every dB and dBm field and every finite link gain lies within +-DB_LIMIT,
# and a bit rate is at least MIN_BIT_RATE: the model then takes 10 ** (x / 10)
# of sums of up to three of them, and divides by the rate, without overflow
DB_LIMIT = 1000.0
DB_RANGE = f"a number in [-{DB_LIMIT:g}, {DB_LIMIT:g}]"
MIN_BIT_RATE = 1.0  # bits/s
# every seconds field, and the mean arrival gap 1 / arrival_rate, is at most
# 2^53 us (about 285 years), the most whole microseconds a float holds
# exactly: each then converts to integer microseconds without overflow
MAX_SECONDS = 2.0 ** 53 / 1e6
MIN_ARRIVAL_RATE = 1 / MAX_SECONDS  # packets/s
# a full generation codes ceil(redundancy x block_size) extra packets at
# once, in one array: at most this many keeps it within tens of MB, where a
# count near the float maximum made numpy refuse it mid-run
MAX_EXTRA_PACKETS = 0xFFFF


def us(seconds: float) -> int:
    """seconds in whole microseconds, rounded to the nearest: a run's one
    seconds -> us rule.  A value in [0, MAX_SECONDS] gives at most 2^53."""
    return int(round(seconds * 1_000_000))


def _require_seconds(section: str, cfg, names) -> None:
    _require(section, cfg, names, lambda v: 0 <= v <= MAX_SECONDS,
             f"a number of seconds in [0, {MAX_SECONDS:g}]")


def _require_bool(section: str, cfg, names) -> None:
    """Switches are bools: any truthy value would otherwise switch a layer
    on, "off" included."""
    for name in names:
        v = getattr(cfg, name)
        if type(v) is not bool:
            label = f"{section}.{name}" if section else name
            raise ScenarioError(f"{label}: must be true or false, got {v!r}")


def _is_int_in(v, lo, hi) -> bool:
    return type(v) is int and lo <= v <= hi


def _require_int(section: str, cfg, names, lo: int, hi: float = math.inf) -> None:
    """Counts and indices are ints: a float or a bool would pass a range
    check here and fail mid-run."""
    what = f"an integer >= {lo}" if hi == math.inf else f"an integer in {lo}..{hi}"
    _require(section, cfg, names, lambda v: _is_int_in(v, lo, hi), what)


@dataclass
class LinkConfig:
    src: int
    dst: int
    gain_db: float
    channel: int | None = None  # None = every channel


@dataclass
class FlowConfig:
    src: int
    dsts: tuple[int, ...]
    arrival_rate: float  # packets per second (Poisson)

    def __post_init__(self):
        self.dsts = tuple(self.dsts)


@dataclass
class TimingConfig:
    channel_dwell_s: float = 2.0
    discovery_s: float = 6.0       # TTR = num_channels x dwell
    flow_update_s: float = 20.0
    negotiation_s: float = 60.0    # TDT
    data_s: float = 30.0
    syn_interval_s: float = 2.0
    rts_interval_s: float = 0.5
    cts_wait_s: float = 0.25
    sample_interval_s: float = 5.0

    def validate(self):
        _require_seconds("timing", self, [f.name for f in fields(self)])
        # metrics sampling reschedules itself this far ahead, in whole
        # microseconds: 0 would never let simulated time advance
        if us(self.sample_interval_s) < 1:
            raise ScenarioError(
                f"timing.sample_interval_s: must be at least 1e-6, got {self.sample_interval_s}")


# one rank-deficient solve enumerates at most 2^16 = 65,536 assignments
MIN_WEIGHT_SEARCH_BITS = 16
DECODERS = ("earliest", "rank_deficient")


@dataclass
class CodingConfig:
    enabled: bool = False
    block_size: int = 4
    field_bits: int = 4
    # Nodes decode by elimination with either, so the packet log is the
    # same; "rank_deficient" only has the engine score an estimate below full
    # rank (early_recovery_*).  The switch stays because that scoring costs
    # CPU, and at m=8, T=2 peak memory too (measured in the README).
    decoder: str = "earliest"      # one of DECODERS
    packet_len: int = 500          # bytes
    redundancy: float = 0.25       # extra coded packets per generation
    gen_timeout_s: float = 10.0    # close a partial generation after this
    min_weight_limit: int = 2

    def validate(self):
        _require_bool("coding", self, ("enabled",))
        # a payload byte packs whole symbols only when m divides 8
        _require("coding", self, ("field_bits",),
                 lambda v: type(v) is int and v in (1, 2, 4, 8), "1, 2, 4 or 8")
        _require_int("coding", self, ("block_size",), 1, 255)
        if self.decoder not in DECODERS:
            raise ScenarioError(f"coding.decoder: unknown mode {self.decoder!r}")
        _require_int("coding", self, ("packet_len",), 1, 500)  # bytes
        # gen_timeout_s 0 disables the timeout
        _require_seconds("coding", self, ("gen_timeout_s",))
        # compared as floats: ceil of a product near the float maximum overflows
        _require("coding", self, ("redundancy",),
                 lambda v: 0 <= v and v * self.block_size <= MAX_EXTRA_PACKETS,
                 f"a number >= 0 with redundancy x block_size at most {MAX_EXTRA_PACKETS}")
        _require_int("coding", self, ("min_weight_limit",), 0)
        limit = self.min_weight_limit
        # the rank-deficient solve scores all 2^(field_bits x limit)
        # assignments of up to limit free tag columns against the payload
        # columns, so past 2^MIN_WEIGHT_SEARCH_BITS its tables outgrow memory
        if self.decoder == "rank_deficient" and self.field_bits * limit > MIN_WEIGHT_SEARCH_BITS:
            raise ScenarioError(
                f"coding.min_weight_limit: field_bits x limit must be at most "
                f"{MIN_WEIGHT_SEARCH_BITS} with the rank_deficient decoder, got "
                f"{self.field_bits} x {limit}")


@dataclass
class PowerConfig:
    min_dbm: float = -15.0
    max_dbm: float = -5.0
    init_dbm: float = -10.0
    target_snr_db: float = 15.0

    def validate(self):
        _require("power", self, [f.name for f in fields(self)],
                 lambda v: abs(v) <= DB_LIMIT, DB_RANGE)
        if not self.min_dbm <= self.init_dbm <= self.max_dbm:
            raise ScenarioError(
                "power: need min_dbm <= init_dbm <= max_dbm, got "
                f"{self.min_dbm}, {self.init_dbm}, {self.max_dbm}")


@dataclass
class PhyConfig:
    sample_rate: float = 250e3
    fft_len: int = 512
    cp_len: int = 128
    occupied: int = 200
    noise_floor_dbm: float = -90.0
    sensitivity_dbm: float = -88.0
    busy_threshold_db: float = 6.0
    listen_power_frac: float = 0.1

    def validate(self):
        # airtime divides by bit_rate(), which divides by fft_len
        _require("phy", self, ("sample_rate",), lambda v: 0 < v < math.inf,
                 "a finite number > 0")
        _require_int("phy", self, ("fft_len", "occupied"), 1)
        _require_int("phy", self, ("cp_len",), 0)
        _require("phy", self, ("noise_floor_dbm", "sensitivity_dbm", "busy_threshold_db"),
                 lambda v: abs(v) <= DB_LIMIT, DB_RANGE)
        _require("phy", self, ("listen_power_frac",), lambda v: 0 <= v <= 1, "in [0, 1]")
        if self.occupied > self.fft_len:
            raise ScenarioError(
                f"phy.occupied: at most fft_len {self.fft_len}, got {self.occupied}")
        if not self.bit_rate() >= MIN_BIT_RATE:
            raise ScenarioError(f"phy: bit rate must be at least {MIN_BIT_RATE:g} bit/s, "
                                f"got {self.bit_rate()!r}")

    def bit_rate(self) -> float:
        """OFDM goodput in bits/s: symbol rate x occupied fraction x CP
        efficiency x bits per carrier (BPSK = 1)."""
        occ = self.occupied / self.fft_len
        cp_eff = self.fft_len / (self.fft_len + self.cp_len)
        return self.sample_rate * occ * cp_eff


@dataclass
class Scenario:
    name: str
    num_nodes: int
    num_channels: int
    links: list[LinkConfig]
    flows: list[FlowConfig]
    timing: TimingConfig = field(default_factory=TimingConfig)
    coding: CodingConfig = field(default_factory=CodingConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    frame_loss: float = 0.0
    sensing_enabled: bool = True
    duration_s: float = 600.0

    def validate(self):
        if not isinstance(self.name, str):
            raise ScenarioError(f"name: must be a string, got {self.name!r}")
        # node ids, flow indices and channel indices each travel in one byte
        _require_int("", self, ("num_nodes",), 1, 255)
        _require_int("", self, ("num_channels",), 1, 256)
        for i, l in enumerate(self.links):
            _require_int(f"links[{i}]", l, ("src", "dst"), 1, self.num_nodes)
            # -inf means no link, as for a pair that no link names
            _require(f"links[{i}]", l, ("gain_db",),
                     lambda v: v == -math.inf or abs(v) <= DB_LIMIT, f"{DB_RANGE} or -inf")
            if l.channel is not None:
                _require_int(f"links[{i}]", l, ("channel",), 0, self.num_channels - 1)
        if not self.flows:
            raise ScenarioError("flows: need at least one flow")
        if len(self.flows) > 256:
            raise ScenarioError(f"flows: at most 256, got {len(self.flows)}")
        # SYN names a flow by its source and destination set, so no two flows
        # may share both, and a destination set must not repeat a node
        seen = set()
        for i, f in enumerate(self.flows):
            _require_int(f"flows[{i}]", f, ("src",), 1, self.num_nodes)
            if not f.dsts:
                raise ScenarioError(f"flows: flow from {f.src} needs at least one destination")
            for d in f.dsts:
                _check(f"flows[{i}].dsts", d, lambda v: _is_int_in(v, 1, self.num_nodes),
                       f"node ids in 1..{self.num_nodes}")
            if f.src in f.dsts:
                raise ScenarioError("flows: source cannot be a destination")
            if len(set(f.dsts)) != len(f.dsts):
                raise ScenarioError(f"flows: flow {f.src}->{f.dsts} repeats a destination")
            key = (f.src, frozenset(f.dsts))
            if key in seen:
                raise ScenarioError(
                    f"flows: two flows {f.src}->{f.dsts} share a source and destination set")
            seen.add(key)
            # arrival gaps are drawn with mean 1 / arrival_rate
            _require(f"flows[{i}]", f, ("arrival_rate",),
                     lambda v: MIN_ARRIVAL_RATE <= v < math.inf,
                     f"a finite number >= {MIN_ARRIVAL_RATE:g}")
        # a SYN counts its sender's (flow, destination) queues in one byte;
        # node n can hold one for each destination of each flow but itself
        queues = sum(len(f.dsts) for f in self.flows)
        as_dst = Counter(d for f in self.flows for d in f.dsts)
        for n in range(1, self.num_nodes + 1):
            if queues - as_dst[n] > 255:
                raise ScenarioError(
                    f"flows: node {n} can hold {queues - as_dst[n]} (flow, destination) "
                    f"queues, but a SYN carries at most 255")
        _require("", self, ("frame_loss",), lambda v: 0 <= v < 1, "in [0, 1)")
        _require_bool("", self, ("sensing_enabled",))
        _require_seconds("", self, ("duration_s",))
        self.timing.validate()
        self.coding.validate()
        self.power.validate()
        self.phy.validate()
        return self

    def gain_db(self, i: int, j: int, chan: int) -> float:
        """Directional lookup with symmetric fallback; -inf if disconnected.

        Resolved from the current ``links``, so a link added or edited after
        construction counts; of two links with the same key, the later wins.
        Directed beats symmetric, and channel-pinned beats all-channel.
        """
        gains = {(l.src, l.dst, l.channel): l.gain_db for l in self.links}
        return next((gains[k] for k in ((i, j, chan), (j, i, chan), (i, j, None), (j, i, None))
                     if k in gains), float("-inf"))


# -- SNR / BER / rate -------------------------------------------------------

def link_snr(scn: Scenario, rx_power_dbm: float, interference_dbm=()) -> float:
    """Linear SINR at a receiver, from the received power of the signal and
    of each co-channel interferer, in dBm (-inf when out of reach)."""
    noise = dbm_to_mw(scn.phy.noise_floor_dbm)
    interference = sum(dbm_to_mw(p) for p in interference_dbm)
    return dbm_to_mw(rx_power_dbm) / (noise + interference)


def ber(sinr: float) -> float:
    """BPSK bit-error probability, Q(sqrt(2*SINR)) via erfc."""
    if sinr <= 0:
        return 0.5
    return 0.5 * math.erfc(math.sqrt(sinr))


def frame_success_prob(sinr: float, frame_len_bytes: int) -> float:
    p_bit = ber(sinr)
    return (1.0 - p_bit) ** (8 * frame_len_bytes)


def link_rate(scn: Scenario, sinr: float, frame_len_bytes: int) -> tuple[float, float]:
    """(c_ij in packets/s, frame success probability)."""
    p = frame_success_prob(sinr, frame_len_bytes)
    bits = 8 * frame_len_bytes
    return scn.phy.bit_rate() * p / bits, p


def link_rate_table(scn: Scenario) -> Table:
    """Received dBm -> c_ij of a DATA frame that no other carrier reaches."""
    return Table(lambda rxp: link_rate(
        scn, db_to_linear(rxp - scn.phy.noise_floor_dbm), scn.coding.packet_len)[0])


# -- canonical topologies ---------------------------------------------------

STRONG_GAIN_DB = -55.0  # 25 dB SNR at -10 dBm over a -90 dBm floor
WEAK_GAIN_DB = -70.0    # 10 dB SNR


def _links(pairs):
    return [LinkConfig(a, b, STRONG_GAIN_DB) for a, b in pairs]


def line7() -> Scenario:
    """Seven nodes in a line; single unicast flow 1 -> 7, no coding."""
    return Scenario(
        name="line7",
        num_nodes=7,
        num_channels=3,
        links=_links([(i, i + 1) for i in range(1, 7)]),
        flows=[FlowConfig(1, (7,), arrival_rate=1.2)],
        coding=CodingConfig(enabled=False, block_size=1),
    )


def ring7() -> Scenario:
    """Seven-node ring: two node-disjoint routes 1-2-6-7 and 1-3-4-5-7.

    The short route's first hop (1,2) is strong and (1,3) weak, so node 2 is
    scheduled more, as in the reference layout.
    """
    links = _links([(1, 2), (2, 6), (6, 7), (3, 4), (4, 5), (5, 7)])
    links.append(LinkConfig(1, 3, WEAK_GAIN_DB))
    return Scenario(
        name="ring7",
        num_nodes=7,
        num_channels=3,
        links=links,
        flows=[FlowConfig(1, (7,), arrival_rate=1.2)],
        coding=CodingConfig(enabled=False, block_size=1),
    )


def grid6() -> Scenario:
    """2x3 grid, source 1 (corner) to destination 6 (opposite corner)."""
    return Scenario(
        name="grid6",
        num_nodes=6,
        num_channels=3,
        links=_links([(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)]),
        flows=[FlowConfig(1, (6,), arrival_rate=1.2)],
        coding=CodingConfig(enabled=False, block_size=1),
    )


def butterfly7() -> Scenario:
    """Butterfly: source 1 multicasts to 6 and 7 through relays 2-5; a packet
    counts toward throughput only when both destinations decode it."""
    return Scenario(
        name="butterfly7",
        num_nodes=7,
        num_channels=3,
        links=_links(
            [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 6), (3, 7), (5, 6), (5, 7)]
        ),
        flows=[FlowConfig(1, (6, 7), arrival_rate=1.0)],
        coding=CodingConfig(enabled=True, block_size=4, decoder="earliest",
                            redundancy=0.5),
    )


BUILTINS = {"line7": line7, "ring7": ring7, "grid6": grid6, "butterfly7": butterfly7}


# -- scenario files ---------------------------------------------------------

def scenario_to_dict(scn: Scenario) -> dict:
    return asdict(scn)


def save_scenario(scn: Scenario, path) -> None:
    import yaml
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scn), fh, sort_keys=False)


# the nested sections of a scenario file, each built from its mapping
SECTIONS = {"timing": TimingConfig, "coding": CodingConfig, "power": PowerConfig,
            "phy": PhyConfig}


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a file's mapping describes.  The dataclasses above are
    the schema: a key they do not declare, a missing field or a value of the
    wrong type is a ScenarioError."""
    try:
        scn = Scenario(**{
            "name": "unnamed",
            **d,
            "links": [LinkConfig(**l) for l in d["links"]],
            "flows": [FlowConfig(**f) for f in d["flows"]],
            **{k: cls(**d[k]) for k, cls in SECTIONS.items() if k in d},
        })
    except (KeyError, TypeError) as e:
        raise ScenarioError(f"scenario file: {e}") from e
    return scn.validate()


def load_scenario(path) -> Scenario:
    """The scenario a YAML file describes; a file that cannot be read or
    parsed is a ScenarioError that names it."""
    import yaml
    try:
        with open(path) as fh:
            d = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
        raise ScenarioError(f"scenario file {path}: {e}") from e
    if not isinstance(d, dict):
        raise ScenarioError(f"scenario file {path}: top level must be a mapping")
    return scenario_from_dict(d)
