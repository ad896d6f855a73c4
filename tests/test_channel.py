import math

import pytest
import yaml

from bpnc import channel as ch
from bpnc import engine
from bpnc.channel import (
    STRONG_GAIN_DB,
    FlowConfig,
    LinkConfig,
    Scenario,
    ScenarioError,
    ber,
    butterfly7,
    grid6,
    line7,
    link_rate,
    link_snr,
    load_scenario,
    ring7,
    save_scenario,
)


def connected(scn, i, j):
    """Whether i and j hear each other on some channel."""
    return any(scn.gain_db(i, j, c) > float("-inf") for c in range(scn.num_channels))


def test_snr_20db_above_noise():
    scn = line7()
    # signal at noise + 20 dB: -15 dBm tx over the -55 dB link is -70 dBm
    sinr = link_snr(scn, -15.0 + scn.gain_db(1, 2, 0))
    # -70 dBm over -90 floor -> 20 dB -> 100 linear
    assert sinr == pytest.approx(100.0)


def test_equal_power_cochannel_interferer():
    scn = line7()
    # node 3 interferes at node 2 with the same gain class as the 1->2 signal
    sinr = link_snr(scn, -10.0 + scn.gain_db(1, 2, 0), [-10.0 + scn.gain_db(3, 2, 0)])
    assert sinr == pytest.approx(1.0, rel=0.01)


def test_sinr_decreases_with_interferers():
    scn = grid6()
    signal = -10.0 + scn.gain_db(1, 2, 0)
    at_2 = [-10.0 + scn.gain_db(k, 2, 0) for k in (5, 3)]
    base = link_snr(scn, signal)
    one = link_snr(scn, signal, at_2[:1])
    two = link_snr(scn, signal, at_2)
    assert base > one > two


def test_disconnected_link_zero_snr():
    scn = line7()
    assert link_snr(scn, -5.0 + scn.gain_db(1, 7, 0)) == 0.0


def test_ber_examples():
    assert ber(0.0) == 0.5
    assert ber(1.0) == pytest.approx(0.5 * math.erfc(1.0))
    assert ber(1.0) == pytest.approx(0.0786, abs=1e-3)


def test_ber_monotone():
    prev = 0.5
    for s in [0.1, 0.5, 1, 2, 5, 10, 50]:
        b = ber(s)
        assert b <= prev
        prev = b


def test_link_rate_zero_ber():
    scn = line7()
    c, p = link_rate(scn, 1e9, 500)
    assert p == pytest.approx(1.0)
    assert c == pytest.approx(scn.phy.bit_rate() / 4000)


def test_link_rate_half_ber():
    scn = line7()
    c, p = link_rate(scn, 0.0, 500)
    assert p < 1e-100
    assert c < 1e-90


def test_rate_tracks_success_probability_monte_carlo():
    import numpy as np

    scn = line7()
    # find an SINR whose 500-byte frame success probability is around 0.5
    lo, hi = 1.0, 20.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if ch.frame_success_prob(mid, 500) < 0.5:
            lo = mid
        else:
            hi = mid
    sinr = (lo + hi) / 2
    c, p = link_rate(scn, sinr, 500)
    assert p == pytest.approx(0.5, abs=0.01)
    assert c == pytest.approx(0.5 * scn.phy.bit_rate() / 4000, rel=0.05)
    # Monte-Carlo draw oracle
    rng = np.random.default_rng(0)
    draws = rng.random(20000) < p
    assert draws.mean() == pytest.approx(p, abs=0.02)


def test_table_builds_each_entry_once_on_first_read():
    built = []

    def square(k):
        built.append(k)
        return k * k

    table = ch.Table(square)
    # neither get nor in builds an entry
    assert table.get(3) is None and 3 not in table and table.get(3, "x") == "x"
    assert built == [] and table == {}
    assert [table[k] for k in (3, 4, 3, 4, 3)] == [9, 16, 9, 16, 9]
    assert built == [3, 4]
    assert 3 in table and table.get(4) == 16 and built == [3, 4]
    assert table == {k: square(k) for k in (3, 4)}


def test_builtins_shapes():
    scns = {name: make() for name, make in ch.BUILTINS.items()}
    assert set(scns) == {"line7", "ring7", "grid6", "butterfly7"}
    for s in scns.values():
        s.validate()


def test_line7_connectivity():
    scn = line7()
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            assert connected(scn, i, j) == (abs(i - j) == 1)


def test_ring7_two_disjoint_routes():
    scn = ring7()
    # route A: 1-2-6-7, route B: 1-3-4-5-7; disjoint except endpoints
    for a, b in [(1, 2), (2, 6), (6, 7), (1, 3), (3, 4), (4, 5), (5, 7)]:
        assert connected(scn, a, b)
    assert not connected(scn, 2, 3)
    assert not connected(scn, 2, 7)


def test_butterfly7_flow_and_links():
    scn = butterfly7()
    f = scn.flows[0]
    assert f.src == 1 and set(f.dsts) == {6, 7}
    assert scn.coding.enabled
    for a, b in [(2, 6), (3, 7), (5, 6), (5, 7)]:
        assert connected(scn, a, b)
    assert not connected(scn, 1, 6)
    assert not connected(scn, 1, 7)


def test_gain_symmetric_lookup():
    scn = line7()
    assert scn.gain_db(2, 1, 0) == scn.gain_db(1, 2, 0)


def test_gain_lookup_precedence():
    # own direction on the channel, then reverse, then any channel; of two
    # links with the same key the later one counts
    scn = line7()
    scn.links = [LinkConfig(1, 2, -50.0), LinkConfig(2, 1, -60.0, channel=1),
                 LinkConfig(1, 2, -70.0, channel=1), LinkConfig(1, 2, -65.0)]
    assert scn.gain_db(1, 2, 1) == -70.0
    assert scn.gain_db(2, 1, 1) == -60.0
    assert scn.gain_db(1, 2, 0) == -65.0
    assert scn.gain_db(2, 1, 0) == -65.0
    assert scn.gain_db(1, 3, 0) == float("-inf")


def test_validation_errors():
    scn = line7()
    scn.coding.field_bits = 9
    with pytest.raises(ScenarioError):
        scn.validate()
    scn2 = line7()
    scn2.flows[0].arrival_rate = -1
    with pytest.raises(ScenarioError):
        scn2.validate()
    scn3 = line7()
    scn3.links[0].src = 99
    with pytest.raises(ScenarioError):
        scn3.validate()


# node ids, flow indices and channel indices each travel in one wire byte,
# so a scenario past those limits must fail validation, not a run


def test_validate_rejects_node_ids_beyond_a_byte():
    scn = line7()
    scn.num_nodes = 255
    scn.validate()
    scn.num_nodes = 300
    scn.links.append(LinkConfig(300, 7, STRONG_GAIN_DB))
    with pytest.raises(ScenarioError, match="num_nodes"):
        scn.validate()


def test_validate_rejects_more_than_256_flows():
    # 20 nodes offer 20 x 19 distinct unicast flows; of the first 256, each
    # node is the destination of at least 12, so it holds at most 244 queues
    flows = [FlowConfig(src, (dst,), 0.01) for src in range(1, 21)
             for dst in range(1, 21) if dst != src]
    scn = line7()
    scn.num_nodes = 20
    scn.flows = flows[:256]
    scn.validate()
    scn.flows = flows[:257]
    with pytest.raises(ScenarioError, match="at most 256"):
        scn.validate()


# SYN names a flow by (source, destination set): flows the wire cannot tell
# apart would share every per-flow table at the receiving node


@pytest.mark.parametrize("flows", [
    [FlowConfig(1, (), 1.0)],
    [FlowConfig(1, (1, 7), 1.0)],
    [FlowConfig(1, (7, 7), 1.0)],
    [FlowConfig(1, (7,), 0.6), FlowConfig(1, (7,), 0.6)],
    [FlowConfig(1, (6, 7), 0.5), FlowConfig(1, (7, 6), 0.5)],
], ids=["no_destination", "source_is_destination", "repeated_destination",
        "same_flow_twice", "same_destination_set"])
def test_validate_rejects_flows_the_wire_cannot_tell_apart(flows):
    scn = butterfly7()
    scn.flows = flows
    with pytest.raises(ScenarioError, match="flows"):
        scn.validate()


def test_validate_accepts_flows_that_differ_in_source_or_destinations():
    scn = butterfly7()
    scn.flows = [FlowConfig(1, (6, 7), 0.5), FlowConfig(1, (6,), 0.5),
                 FlowConfig(2, (6, 7), 0.5), FlowConfig(7, (1,), 0.5)]
    scn.validate()


# a SYN counts its sender's (flow, destination) queues in one byte, and
# node 1 holds one queue for each destination of each flow it sources


def _fan_out(last_a, last_b):
    scn = line7()
    scn.num_nodes = 130
    scn.flows = [FlowConfig(1, tuple(range(2, last_a + 1)), 0.5),
                 FlowConfig(1, tuple(range(2, last_b + 1)), 0.5)]
    return scn


def test_validate_rejects_more_than_255_queues_at_a_node():
    _fan_out(129, 128).validate()  # 128 + 127 queues
    with pytest.raises(ScenarioError, match=r"flows: node 1 can hold 257 "):
        _fan_out(130, 129).validate()


def test_validate_rejects_more_than_256_channels():
    scn = line7()
    scn.num_channels = 256
    scn.validate()
    scn.num_channels = 257
    with pytest.raises(ScenarioError, match="num_channels"):
        scn.validate()


@pytest.mark.parametrize("bits", [0, 3, 5, 6, 7, 9])
def test_validate_rejects_field_bits_that_do_not_divide_a_byte(bits):
    # payload bytes must split into whole symbols, or the first arrival fails
    scn = butterfly7()
    scn.coding.field_bits = bits
    with pytest.raises(ScenarioError, match="field_bits"):
        scn.validate()


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
def test_validate_accepts_field_bits_dividing_a_byte(bits):
    scn = butterfly7()
    scn.coding.field_bits = bits
    scn.validate()


def test_validate_rejects_unknown_tag_mode():
    # sources draw uniform tags; the schema has no tag mode to choose
    d = ch.scenario_to_dict(butterfly7())
    d["coding"]["tag_mode"] = "rank_increasing"
    with pytest.raises(ScenarioError, match="tag_mode"):
        ch.scenario_from_dict(d)


@pytest.mark.parametrize("value", [2.5, True, "2", None])
def test_validate_rejects_non_integer_min_weight_limit(value):
    scn = butterfly7()
    scn.coding.min_weight_limit = value
    with pytest.raises(ScenarioError, match="coding.min_weight_limit"):
        scn.validate()


# the rank-deficient solve enumerates 2^(field_bits x limit) assignments


@pytest.mark.parametrize("bits,limit", [(8, 3), (4, 5), (2, 9), (1, 17), (4, 10**6)])
def test_validate_rejects_min_weight_limit_past_the_search_bound(bits, limit):
    scn = butterfly7()
    scn.coding.decoder = "rank_deficient"
    scn.coding.field_bits = bits
    scn.coding.min_weight_limit = limit
    with pytest.raises(ScenarioError, match="coding.min_weight_limit"):
        scn.validate()


@pytest.mark.parametrize("bits,limit", [(8, 2), (4, 4), (2, 8), (1, 16)])
def test_validate_accepts_min_weight_limit_at_the_search_bound(bits, limit):
    scn = butterfly7()
    scn.coding.decoder = "rank_deficient"
    scn.coding.field_bits = bits
    scn.coding.min_weight_limit = limit
    scn.validate()


def test_min_weight_limit_search_bound_applies_to_rank_deficient_only():
    # the earliest decoder never runs the solve, so the limit is unused
    scn = butterfly7()
    scn.coding.field_bits = 8
    scn.coding.min_weight_limit = 10**6
    scn.validate()


@pytest.mark.parametrize("section,name,value", [
    ("timing", "sample_interval_s", 0.0),
    ("timing", "sample_interval_s", 1e-9),  # rounds to 0 us
    ("timing", "data_s", -1.0),
    ("timing", "channel_dwell_s", math.nan),
    ("timing", "cts_wait_s", math.inf),
    ("timing", "negotiation_s", "60"),
    ("coding", "redundancy", -0.25),
    ("coding", "gen_timeout_s", -1.0),
    ("coding", "min_weight_limit", -1),
    ("power", "max_dbm", -20.0),   # below min_dbm and init_dbm
    ("power", "init_dbm", -16.0),  # below min_dbm
    ("power", "init_dbm", 0.0),    # above max_dbm
])
def test_validate_rejects_out_of_range_numbers(section, name, value):
    scn = butterfly7()
    setattr(getattr(scn, section), name, value)
    with pytest.raises(ScenarioError, match=section):
        scn.validate()


@pytest.mark.parametrize("name,value", [
    ("sample_rate", 0.0),
    ("sample_rate", -1.0),
    ("sample_rate", math.inf),
    ("fft_len", 0),
    ("fft_len", math.nan),
    ("occupied", 0),
    ("occupied", -200),
    ("occupied", 513),  # more carriers than the FFT has
    ("cp_len", -1),
    ("cp_len", math.inf),
    ("noise_floor_dbm", math.nan),
    ("sensitivity_dbm", -math.inf),
    ("busy_threshold_db", math.inf),
    ("listen_power_frac", -0.1),
    ("listen_power_frac", 1.5),
    ("listen_power_frac", math.nan),
    ("sample_rate", "250e3"),
])
def test_validate_rejects_bad_phy_settings(name, value):
    scn = line7()
    setattr(scn.phy, name, value)
    with pytest.raises(ScenarioError, match=f"phy.{name}"):
        scn.validate()


def test_validate_accepts_phy_edges():
    scn = line7()
    scn.phy.occupied = scn.phy.fft_len
    scn.phy.cp_len = 0
    scn.phy.listen_power_frac = 0.0
    scn.validate()
    scn.phy.listen_power_frac = 1.0
    scn.validate()


def test_validate_accepts_range_edges():
    scn = butterfly7()
    scn.timing.data_s = 0.0
    scn.timing.sample_interval_s = 1e-6
    scn.coding.redundancy = 0.0
    scn.coding.gen_timeout_s = 0.0  # disables the generation timeout
    scn.coding.min_weight_limit = 0
    scn.power.min_dbm = scn.power.init_dbm = scn.power.max_dbm = -10.0
    scn.duration_s = 0.0
    scn.validate()


def _set(scn, section, name, value):
    """Set one scenario setting: a field of a section, or the gain of the
    first link."""
    setattr(scn.links[0] if section == "links" else getattr(scn, section), name, value)


# the first seven passed validation once, then stopped a run with
# OverflowError or ZeroDivisionError; the rest lie just outside the range
@pytest.mark.parametrize("section,name,value", [
    ("phy", "noise_floor_dbm", 4000.0),
    ("phy", "noise_floor_dbm", -4000.0),
    ("phy", "busy_threshold_db", 4000.0),
    ("power", "target_snr_db", 4000.0),
    ("power", "max_dbm", 4000.0),
    ("phy", "sample_rate", 1e-300),
    ("links", "gain_db", 1e308),
    ("links", "gain_db", math.nextafter(-ch.DB_LIMIT, -math.inf)),
    ("phy", "sensitivity_dbm", math.nextafter(ch.DB_LIMIT, math.inf)),
    ("power", "min_dbm", math.nextafter(-ch.DB_LIMIT, -math.inf)),
])
def test_validate_rejects_settings_the_model_overflows_on(section, name, value):
    scn = line7()
    _set(scn, section, name, value)
    with pytest.raises(ScenarioError, match=section):
        scn.validate()
    with pytest.raises(ScenarioError):
        engine.run(engine.apply_override(scn, "duration_s", 60), seed=1)


@pytest.mark.parametrize("section,name,value", [
    ("phy", "noise_floor_dbm", ch.DB_LIMIT),
    ("phy", "noise_floor_dbm", -ch.DB_LIMIT),
    ("phy", "sensitivity_dbm", -ch.DB_LIMIT),
    ("phy", "busy_threshold_db", ch.DB_LIMIT),
    ("power", "target_snr_db", ch.DB_LIMIT),
    ("power", "target_snr_db", -ch.DB_LIMIT),
    ("power", "max_dbm", ch.DB_LIMIT),
    ("power", "min_dbm", -ch.DB_LIMIT),
    ("links", "gain_db", ch.DB_LIMIT),
    ("links", "gain_db", -ch.DB_LIMIT),
    ("links", "gain_db", -math.inf),  # no link
])
def test_settings_at_the_range_edges_run(section, name, value):
    scn = line7()
    _set(scn, section, name, value)
    engine.run(engine.apply_override(scn, "duration_s", 60), seed=1)


def test_bit_rate_at_the_minimum_runs_and_below_it_is_refused():
    # one carrier of a one-point FFT with no prefix: bit rate = sample rate
    scn = line7()
    scn.phy.fft_len = scn.phy.occupied = 1
    scn.phy.cp_len = 0
    scn.phy.sample_rate = ch.MIN_BIT_RATE
    assert scn.phy.bit_rate() == ch.MIN_BIT_RATE
    engine.run(engine.apply_override(scn, "duration_s", 60), seed=1)
    scn.phy.sample_rate = math.nextafter(ch.MIN_BIT_RATE, 0)
    with pytest.raises(ScenarioError, match="phy: bit rate"):
        scn.validate()


# arrivals are drawn with mean gap 1 / arrival_rate: 0 divides by zero, NaN
# fails mid-run and infinity never lets simulated time advance, so validation
# is the only place these are tested


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_validate_rejects_bad_arrival_rate(rate):
    scn = line7()
    scn.flows[0].arrival_rate = rate
    with pytest.raises(ScenarioError, match="arrival_rate"):
        scn.validate()


@pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
def test_validate_rejects_bad_duration(duration):
    scn = line7()
    scn.duration_s = duration
    with pytest.raises(ScenarioError, match="duration_s"):
        scn.validate()


def test_validate_accepts_small_arrival_rate():
    scn = line7()
    scn.flows[0].arrival_rate = 1e-9
    scn.validate()


def test_scenario_file_roundtrip(tmp_path):
    scn = butterfly7()
    scn.frame_loss = 0.05
    path = tmp_path / "scn.yaml"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert loaded.name == "butterfly7"
    assert loaded.frame_loss == 0.05
    assert loaded.coding.block_size == scn.coding.block_size
    assert len(loaded.links) == len(scn.links)
    assert loaded.gain_db(1, 2, 0) == scn.gain_db(1, 2, 0)


@pytest.mark.parametrize("key,value", [("frame_los", 0.2), ("seed", 5)])
def test_scenario_file_rejects_unknown_top_level_key(tmp_path, key, value):
    # a typo or a removed field must not load silently with its default
    d = ch.scenario_to_dict(line7())
    d[key] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)


def test_scenario_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("just a string")
    with pytest.raises(ScenarioError):
        load_scenario(p)
    p.write_text("num_nodes: 3\n")
    with pytest.raises(ScenarioError):
        load_scenario(p)


def _line7_dict_with(path, value) -> dict:
    """line7's scenario file with the field at path set to value."""
    d = ch.scenario_to_dict(line7())
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


def _line7_field_paths():
    """Every field of line7's scenario file: top level, each config section,
    the first link and the first flow."""
    d = ch.scenario_to_dict(line7())
    paths = [(k,) for k in d]
    paths += [(s, k) for s in ("timing", "coding", "power", "phy") for k in d[s]]
    paths += [(s, 0, k) for s in ("links", "flows") for k in d[s][0]]
    return paths


@pytest.mark.parametrize("path,value", [
    (("num_nodes",), 7.9),
    (("links", 0, "src"), 1.0),
    (("flows", 0, "dsts"), [7.0]),
    (("coding", "block_size"), 4.0),
    (("phy", "fft_len"), True),
])
def test_scenario_file_count_must_be_an_integer(path, value):
    # a float count would be truncated or fail mid-run, and True is no count
    with pytest.raises(ScenarioError, match=str(path[-1])):
        ch.scenario_from_dict(_line7_dict_with(path, value))


@pytest.mark.parametrize("path,value", [
    (("duration_s",), True),
    (("frame_loss",), "0.1"),
    (("flows", 0, "arrival_rate"), True),
    (("num_channels",), 3.0),
], ids=["duration_s", "frame_loss", "arrival_rate", "num_channels"])
def test_scenario_file_value_is_checked_as_written(path, value):
    # the loader converts nothing: a bool or a string is no number, and a
    # float is no count, so each fails validation naming its field
    with pytest.raises(ScenarioError, match=str(path[-1])):
        ch.scenario_from_dict(_line7_dict_with(path, value))


@pytest.mark.parametrize("value", ["off", "on", 1, 0, None])
@pytest.mark.parametrize("path", [("coding", "enabled"), ("sensing_enabled",)])
def test_scenario_switch_must_be_a_bool(path, value):
    # "off" is truthy, so a coerced or unchecked switch would turn its layer on
    with pytest.raises(ScenarioError, match=path[-1]):
        ch.scenario_from_dict(_line7_dict_with(path, value))


def test_unquoted_yaml_off_loads_as_false(tmp_path):
    text = yaml.safe_dump(ch.scenario_to_dict(butterfly7()))
    text = text.replace("sensing_enabled: true", "sensing_enabled: off")
    text = text.replace("  enabled: true", "  enabled: off")
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    scn = load_scenario(path)
    assert scn.coding.enabled is False and scn.sensing_enabled is False


# keys a scenario file no longer takes, since no run read them: the channel
# list (num_channels counts the channels), the tag mode and the modulation
REMOVED_KEYS = [("channels",), ("coding", "tag_mode"), ("phy", "modulation")]


@pytest.mark.parametrize("value", ["x", None, [1]], ids=["str", "none", "list"])
@pytest.mark.parametrize("path", _line7_field_paths() + REMOVED_KEYS,
                         ids=lambda p: ".".join(map(str, p)))
def test_malformed_scenario_field_fails_validation_or_runs(path, value):
    # a field of the wrong type must not escape as a raw ValueError or
    # TypeError, neither from loading nor mid-run; a removed key fails
    # loading whatever its value
    if path in REMOVED_KEYS:
        with pytest.raises(ScenarioError, match=path[-1]):
            ch.scenario_from_dict(_line7_dict_with(path, value))
        return
    try:
        scn = ch.scenario_from_dict(_line7_dict_with(path, value))
    except ScenarioError:
        return
    engine.run(scn, seed=1)
