"""CLI front end: flags, exit codes, files, doc coverage."""

import json
import re
import shlex
from pathlib import Path

import pytest
import yaml

from bpnc import channel as ch
from bpnc import engine
from bpnc.cli import build_parser, main, parse_param


def test_run_writes_expected_files(tmp_path):
    rc = main(["run", "--builtin", "line7", "--seed", "1",
               "--duration", "60", "--out", str(tmp_path)])
    assert rc == 0
    metrics = (tmp_path / "metrics.csv").read_text()
    assert metrics.startswith("# bpnc-metrics v1\n") and len(metrics) > 100
    assert (tmp_path / "packets.log").read_text()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "line7" and summary["seed"] == 1


def test_run_butterfly_reports_per_destination_counts(tmp_path):
    rc = main(["run", "--builtin", "butterfly7", "--block-size", "6",
               "--seed", "1", "--duration", "200", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "decoded_generations_per_destination" in summary


def test_invalid_field_bits_exits_2(tmp_path):
    rc = main(["run", "--builtin", "line7", "--field-bits", "9",
               "--duration", "10", "--out", str(tmp_path)])
    assert rc == 2


def test_field_bits_not_dividing_a_byte_exits_2(tmp_path):
    rc = main(["run", "--builtin", "butterfly7", "--field-bits", "3",
               "--duration", "10", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("section,key,value", [
    ("coding", "tag_mode", "bogus"),
    ("timing", "sample_interval_s", 0),
    ("power", "min_dbm", 0),
    ("coding", "enabled", "off"),  # a quoted string, not YAML's false
])
def test_scenario_file_with_invalid_setting_exits_2(tmp_path, section, key, value):
    d = ch.scenario_to_dict(ch.butterfly7())
    d[section][key] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "60",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("decoder,limit,args", [
    ("rank_deficient", 2.5, []),
    ("rank_deficient", True, []),
    ("rank_deficient", 5, []),                      # 2^(4 x 5) assignments
    ("earliest", 3, ["--decoder", "rank_deficient", "--field-bits", "8"]),
    ("rank_deficient", 4, ["--field-bits", "8"]),   # accepted at m=4 only
])
def test_scenario_file_with_unusable_min_weight_limit_exits_2(tmp_path, capsys,
                                                             decoder, limit, args):
    # rejected before the run starts: the solve would enumerate the
    # assignments mid-run
    d = ch.scenario_to_dict(ch.butterfly7())
    d["coding"]["decoder"] = decoder
    d["coding"]["min_weight_limit"] = limit
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "60",
               "--out", str(tmp_path / "o"), *args])
    assert rc == 2
    assert "coding.min_weight_limit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overrides_are_validated_together(tmp_path):
    # --decoder alone would pair rank_deficient with the file's m=8, which
    # allows no limit of 3; with --field-bits 2 the final combination is
    # valid, and only it is validated
    d = ch.scenario_to_dict(ch.butterfly7())
    d["coding"]["field_bits"] = 8
    d["coding"]["min_weight_limit"] = 3
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30", "--out", str(tmp_path / "o"),
               "--decoder", "rank_deficient", "--field-bits", "2"])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["scenario"] == "butterfly7"


@pytest.mark.parametrize("key,value", [
    ("occupied", 0),             # used to divide by zero at the first frame
    ("fft_len", 0),
    ("sample_rate", -1),         # used to run and exit 0
    ("listen_power_frac", float("nan")),
    ("modulation", "qpsk"),      # no longer a key: BPSK is the only model
])
def test_scenario_file_with_invalid_phy_exits_2(tmp_path, key, value):
    d = ch.scenario_to_dict(ch.line7())
    d["phy"][key] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("flows", [
    [{"src": 1, "dsts": [], "arrival_rate": 1.0}],
    [{"src": 1, "dsts": [7, 7], "arrival_rate": 1.0}],
    [{"src": 1, "dsts": [7], "arrival_rate": 0.6}] * 2,
    [{"src": 1, "dsts": [6, 7], "arrival_rate": 0.5},
     {"src": 1, "dsts": [7, 6], "arrival_rate": 0.5}],
], ids=["no_destination", "repeated_destination", "same_flow_twice",
        "same_destination_set"])
def test_scenario_file_with_indistinct_flows_exits_2(tmp_path, flows):
    d = ch.scenario_to_dict(ch.line7())
    d["flows"] = flows
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_scenario_file_with_more_queues_than_a_syn_counts_exits_2(tmp_path):
    # node 1 would hold 129 + 128 (flow, destination) queues, and a SYN
    # counts them in one byte: this used to fail mid-run with exit code 3
    d = ch.scenario_to_dict(ch.line7())
    d["num_nodes"] = 130
    d["flows"] = [{"src": 1, "dsts": list(range(2, 131)), "arrival_rate": 0.5},
                  {"src": 1, "dsts": list(range(2, 130)), "arrival_rate": 0.5}]
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("field,value", [
    ("arrival_rate", 0.0),          # used to divide by zero at the first arrival
    ("arrival_rate", float("nan")),
    ("duration_s", float("nan")),
    ("duration_s", float("inf")),
])
def test_scenario_file_with_bad_rate_or_duration_exits_2(tmp_path, field, value):
    # an infinite arrival_rate is tested only through Scenario.validate:
    # if validation missed it, the run would never finish
    d = ch.scenario_to_dict(ch.line7())
    if field == "arrival_rate":
        d["flows"][0]["arrival_rate"] = value
    else:
        d["duration_s"] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


# each passed validation once, then stopped the run with exit code 3:
# OverflowError converting to integer microseconds, or numpy refusing to
# code that many redundancy packets
@pytest.mark.parametrize("keys,value", [
    (("timing", "data_s"), 1e308),
    (("timing", "channel_dwell_s"), 1e308),
    (("timing", "sample_interval_s"), 1e308),
    (("coding", "gen_timeout_s"), 1e308),
    (("duration_s",), 1e308),
    (("flows", 0, "arrival_rate"), 1e-320),
    (("coding", "redundancy"), 1e300),
])
def test_scenario_file_with_a_value_the_run_overflows_on_exits_2(tmp_path, capsys, keys, value):
    d = ch.scenario_to_dict(ch.butterfly7())
    *path, key = keys
    section = d
    for k in path:
        section = section[k]
    section[key] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    label = keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys[1:])
    assert f"{label}:" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["nan", "inf", "-5"])
def test_run_with_bad_duration_exits_2(tmp_path, duration):
    # --duration is applied to duration_s and validated like a scenario field
    rc = main(["run", "--builtin", "line7", "--duration", duration,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_unknown_builtin_exits_2(tmp_path):
    rc = main(["run", "--builtin", "mesh99", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("text", ["num_nodes: [1, 2\n", None],
                         ids=["yaml_syntax_error", "missing_path"])
def test_scenario_file_that_cannot_be_read_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    if text is not None:
        path.write_text(text)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scn.yaml"
    ch.save_scenario(ch.line7(), path)
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 0


def test_scenario_with_node_id_past_a_byte_exits_2(tmp_path):
    scn = ch.line7()
    scn.num_nodes = 300
    scn.links.append(ch.LinkConfig(300, 7, ch.STRONG_GAIN_DB))
    path = tmp_path / "scn.yaml"
    ch.save_scenario(scn, path)
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("section,key,value", [
    (None, "channels", [2410.0, 2430.0, 2460.0]),  # num_channels counts them
    ("coding", "tag_mode", "uniform"),
    ("phy", "modulation", "bpsk"),
], ids=["channels", "tag_mode", "modulation"])
def test_scenario_file_with_a_removed_key_exits_2(tmp_path, capsys, section, key, value):
    # rejected even with the value every run used: no shim reads old files
    d = ch.scenario_to_dict(ch.line7())
    (d if section is None else d[section])[key] = value
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_scenario_file_with_yaml_yes_for_a_number_exits_2(tmp_path):
    # YAML reads yes as true, which is no duration
    text = yaml.safe_dump(ch.scenario_to_dict(ch.line7()))
    text = text.replace("duration_s: 600.0", "duration_s: yes")
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_readme_scenario_runs(tmp_path):
    # the scenario file README shows is the schema as loaded
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scn.yaml"
    path.write_text(block)
    scn = ch.load_scenario(path)
    assert scn.num_channels == 3
    eng = engine.run(engine.apply_override(scn, "duration_s", 30), seed=1)
    assert eng.packet_log


def test_sweep_over_num_channels(tmp_path):
    rc = main(["sweep", "--builtin", "line7", "--param", "num_channels=1,3",
               "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[2:]] == [
        ["num_channels", "1"], ["num_channels", "3"]]


def test_scenario_file_with_unknown_key_exits_2(tmp_path):
    d = ch.scenario_to_dict(ch.line7())
    d["frame_los"] = 0.2
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(path), "--duration", "30",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_sweep_table_shape(tmp_path):
    rc = main(["sweep", "--builtin", "butterfly7", "--param", "duration=30,60",
               "--seeds", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# bpnc-sweep v2"
    assert len(lines) == 4  # header comment + column row + 2 value rows


def test_decoder_sweep_writes_accuracy_curves(tmp_path):
    rc = main(["sweep", "--builtin", "butterfly7", "--param",
               "decoder=earliest,rank_deficient", "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 0
    acc = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert acc[0] == "# bpnc-accuracy v1"
    assert len(acc) > 2


def test_every_sweep_writes_accuracy_curves(tmp_path):
    rc = main(["sweep", "--builtin", "butterfly7", "--param", "block_size=2,4",
               "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 0
    acc = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert acc[:2] == ["# bpnc-accuracy v1", "value,received,decoded_fraction"]
    assert {line.split(",")[0] for line in acc[2:]} == {"2", "4"}


def test_accuracy_csv_pinned(tmp_path):
    # each point is np.mean over a received index's fractions; a running
    # sum / count differs from it in the last bit at h=6, so the file is
    # pinned byte for byte
    import hashlib
    rc = main(["sweep", "--builtin", "butterfly7", "--param", "block_size=4,6",
               "--seeds", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert hashlib.sha256((tmp_path / "accuracy.csv").read_bytes()).hexdigest() == (
        "62fd6a27ca56010f82912203c1c88a3a4d09e56dfcf865a3ac22614564c94a9d")


def test_empty_param_values_exit_2(tmp_path):
    rc = main(["sweep", "--builtin", "line7", "--param", "block_size=",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("param", ["frame_loss=abc", "block_size=2.5", "arrival_rate=fast",
                                   "sensing=maybe"])
def test_sweep_param_value_that_does_not_convert_exits_2(tmp_path, capsys, param):
    rc = main(["sweep", "--builtin", "line7", "--param", param, "--seeds", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    key, _, value = param.partition("=")
    err = capsys.readouterr().err
    assert key in err and repr(value) in err
    assert not (tmp_path / "o").exists()


def test_sweep_float_field_a_scenario_file_wrote_as_int(tmp_path):
    # a scenario file may write a float field as an int; the field still
    # takes a float sweep value
    d = ch.scenario_to_dict(ch.line7())
    d["timing"]["data_s"] = 30
    d["duration_s"] = 30
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(d))
    rc = main(["sweep", "--scenario", str(path), "--param", "timing.data_s=2.5",
               "--seeds", "1", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "sweep.csv").exists()


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_run_with_a_seed_outside_32_bits_exits_2(tmp_path, capsys, seed):
    rc = main(["run", "--builtin", "line7", "--seed", seed,
               "--duration", "10", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_without_seeds_exits_2(tmp_path, seeds):
    rc = main(["sweep", "--builtin", "line7", "--param", "duration=5",
               "--seeds", seeds, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["sweep", "--builtin", "line7", "--param", "duration=5"],
                                     ["paper-suite"]])
def test_commands_over_seeds_take_no_seed(tmp_path, command):
    # they run seeds 1..--seeds; --seed is neither read nor taken for --seeds
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_paper_suite_without_seeds_exits_2(tmp_path):
    rc = main(["paper-suite", "--seeds", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_paper_suite_writes_every_report_once(tmp_path):
    assert main(["paper-suite", "--seeds", "1", "--out", str(tmp_path)]) == 0
    files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert files == {"preconditioning/report.csv", "blocksize/sweep.csv",
                     "blocksize/accuracy.csv"} | {
        f"{name}/seed1/{f}" for name in ("line7", "ring7", "grid6")
        for f in ("metrics.csv", "summary.json", "packets.log")}
    assert (tmp_path / "preconditioning" / "report.csv").read_text().splitlines() == [
        "packet,rate_before,rate_after", "1,0.943,1.0", "2,0.9405,1.0", "3,0.941,1.0",
        "4,1.0,1.0"]
    # one butterfly7 sweep: the rank-deficient decoder scores early recovery
    # on every row and runs the same simulation as the earliest decoder
    rows = (tmp_path / "blocksize" / "sweep.csv").read_text().splitlines()[2:]
    cells = [r.split(",") for r in rows]
    assert all(c[-1] for c in cells)
    plain = engine.sweep(ch.butterfly7(), "block_size", [2, 4, 6, 8], [1])
    assert [float(c[3]) for c in cells] == [r["delivered_mean"] for r in plain]


@pytest.mark.parametrize("values,seeds", [([], [1]), ([5], [])])
def test_sweep_over_nothing_is_a_scenario_error(values, seeds):
    with pytest.raises(ch.ScenarioError):
        engine.sweep(ch.line7(), "duration", values, seeds)


def test_parse_param():
    assert parse_param("block_size=2,4") == ("block_size", ["2", "4"])
    with pytest.raises(ch.ScenarioError):
        parse_param("block_size")


def test_bpnc_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("BPNC_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--builtin", "line7", "--duration", "10"])
    assert rc == 0
    assert (tmp_path / "envout" / "summary.json").exists()


def test_readme_commands_parse():
    # every bpnc command README shows parses, and each value its --param
    # lists converts for the scenario field it names
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("bpnc ")]
    assert len(lines) >= 6
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if getattr(args, "param", None):
            key, values = parse_param(args.param)
            for v in values:
                engine.apply_override(ch.BUILTINS[args.builtin](), key, v)


def test_help_documents_every_flag():
    parser = build_parser()
    for sub in ("run", "sweep"):
        help_text = None
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices and sub in action.choices:
                help_text = action.choices[sub].format_help()
        assert help_text is not None
        expected = ["--scenario", "--builtin", "--out"]
        if sub == "run":
            expected += ["--seed", "--duration", "--block-size", "--decoder", "--field-bits"]
        else:
            expected += ["--param", "--seeds", "--parallel"]
            # a sweep runs seeds 1..--seeds, so it takes no --seed
            assert not re.search(r"--seed\b", help_text)
        for flag in expected:
            assert flag in help_text
        # every flag names the scenario field it maps to
        for field_name in ("coding.block_size", "coding.decoder",
                           "coding.field_bits"):
            if sub == "run":
                assert field_name in help_text
        # the seed is an engine argument; no scenario field holds it
        assert "scenario.seed" not in help_text
