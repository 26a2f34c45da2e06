import hashlib
import json
import re
import warnings

import pytest

from evfeeder import scenario
from evfeeder.cli import main
from evfeeder.loads import FleetDataWarning
from evfeeder.scenario import default_fleet_path, default_zones_path

pytestmark = pytest.mark.filterwarnings("ignore::evfeeder.loads.FleetDataWarning")


def test_run_subcommand(tmp_path, capsys):
    rc = main(["run", "--strategy", "semismart", "--seed", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["scenario"] == "semismart"
    assert (tmp_path / "run" / "voltages.csv").exists()


def test_sweep_subcommand(tmp_path, capsys):
    rc = main(["sweep", "--seed", "1", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uncontrolled" in out and "semismart" in out
    assert (tmp_path / "sweep" / "comparison.csv").exists()
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["config"]["strategy"] == "semismart"


def test_validate_subcommand(capsys):
    rc = main(["validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "valley" in out and "peak" in out


def test_sample_subcommand(tmp_path, capsys):
    rc = main(["sample", "--penetration", "0.6", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    fleet_file = tmp_path / "fleet.txt"
    assert fleet_file.exists()
    rows = [ln for ln in fleet_file.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 34
    out = capsys.readouterr().out
    assert "34 vehicles" in out


# SHA-256 of households.csv from `sample --seed 3 --penetration 0.1 --households`,
# taken before that file went through the shared CSV writer
HOUSEHOLDS_SEED3_SHA256 = "6be0f12cef745aca97124ff0ec938119908c1f0d5929805a4efd95f32a32327e"


def test_sample_households(tmp_path):
    rc = main(["sample", "--penetration", "0.1", "--seed", "3", "--households",
               "--out", str(tmp_path)])
    assert rc == 0
    data = (tmp_path / "households.csv").read_bytes()
    hh = data.decode().splitlines()
    assert hh[0] == "bus,phase,slot,p_w,q_var"
    assert len(hh) == 1 + 57 * 96
    assert hashlib.sha256(data).hexdigest() == HOUSEHOLDS_SEED3_SHA256


def test_run_with_custom_inputs(tmp_path, capsys):
    rc = main([
        "run", "--strategy", "timer", "--timer-start", "22:00",
        "--trials", "2", "--seed", "9", "--sigma", "0.1",
        "--out", str(tmp_path / "custom"),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "custom" / "summary.json").read_text())
    assert summary["trials"] == 2
    assert len(summary["per_trial"]) == 2


def test_run_with_sampled_fleet(tmp_path, capsys):
    rc = main(["run", "--strategy", "uncontrolled", "--penetration", "0.3",
               "--seed", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_loss_kwh"] > 0


def test_infeasible_run_exits_nonzero(tmp_path, capsys):
    feeder = tmp_path / "weak.txt"
    feeder.write_text("slack_voltage 220\nline 1 2 9.0 1.0\n")
    curve = tmp_path / "curve.txt"
    curve.write_text("2000.0\n" * 96)
    fleet = tmp_path / "fleet.txt"
    fleet.write_text("2 a 30 17:00 07:00 25\n")
    rc = main(["run", "--strategy", "uncontrolled", "--feeder", str(feeder),
               "--curve", str(curve), "--fleet", str(fleet)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_malformed_feeder_row_exits_cleanly(tmp_path, capsys):
    feeder = tmp_path / "bad.txt"
    feeder.write_text("slack_voltage 220\nline 1 2 0.1 oops\n")
    rc = main(["run", "--feeder", str(feeder)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {feeder}:2: malformed row 'line 1 2 0.1 oops'\n"


def test_missing_feeder_file_exits_cleanly(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    rc = main(["sweep", "--feeder", str(missing)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_non_finite_curve_value_exits_cleanly(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text("# watts\n" + "500.0\n" * 40 + "nan\n" + "500.0\n" * 55)
    rc = main(["run", "--curve", str(curve)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {curve}:42: non-finite curve value 'nan'\n"


# a repeated (bus, phase) at line 6, before a row at fault at line 8
_REPEAT_THEN_FAULT_FLEET = (
    "# bus phase capacity_kwh arrival departure soc\n"
    "2 a 20 17:00 05:00 50\n2 b 20 17:00 05:00 50\n3 a 20 17:00 05:00 50\n"
    "3 b 20 17:00 05:00 50\n2 b 10 18:00 06:00 50\n4 a 20 17:00 05:00 50\n"
    "4 b 20 17:00 17:00 50\n"
)


@pytest.mark.parametrize("option, text, where, message", [
    ("--feeder", "slack_voltage 220\nline 1 2 0.1 0.0\nline 1 3 0.1 0.0\nline 2 3 0.1 0.0\n",
     ":4", "bus 3 has two parents (1 and 2)"),
    ("--feeder", "slack_voltage 220\nline 1 2 0.1 0.0\nline 1 2 0.2 0.0\n",
     ":3", "duplicate line 1->2"),
    ("--feeder", "slack_voltage 220\nline 1 2 0.1 0.0\nline 2 9 0.1 0.0\n",
     "", "9 buses need 8 lines, found 2"),
    ("--feeder", "slack_voltage 220 230\nline 1 2 0.1 0.0\n",
     ":1", "malformed row 'slack_voltage 220 230'"),
    ("--feeder", "slack_voltage 220\nv_base 220 junk\nline 1 2 0.1 0.0\n",
     ":2", "malformed row 'v_base 220 junk'"),
    ("--feeder", "# header\nslack_voltage 220\nv_base 230\n# the last v_base row counts\n"
     "v_base -5\nline 1 2 0.1 0.0\n",
     ":5", "slack voltage and v_base must be positive and finite"),
    ("--feeder", "v_base 0\nslack_voltage 220\nline 1 2 0.1 0.0\n",
     ":1", "slack voltage and v_base must be positive and finite"),
    ("--curve", "500.0\n" * 95, "", "base curve needs 96 values, got (95,)"),
    ("--curve", "# watts\n" + "500.0\n" * 40 + "-5\n" + "500.0\n" * 55,
     ":42", "negative curve value '-5'"),
    ("--fleet", _REPEAT_THEN_FAULT_FLEET, ":6", "two vehicles at bus 2 phase b"),
    ("--fleet", "# bus phase capacity_kwh arrival departure soc\n2 a 20 17:00 05:00 50\n"
     "99 b 20 18:00 07:00 50\n", ":3", "vehicle at bus 99 is outside the feeder's 19 buses"),
    ("--fleet", "# bus phase capacity_kwh arrival departure soc\n2 a 20 17:00 05:00 50\n"
     "3 b 20 1_0:00 07:00 50\n", ":3", "bad time '1_0:00', expected HH:MM"),
], ids=["two-parents", "duplicate-line", "line-count", "header-extra-value", "header-junk",
        "v-base-negative", "v-base-zero", "curve-count", "curve-negative", "fleet-repeat",
        "fleet-outside-feeder", "fleet-bad-time"])
def test_faulty_input_file_is_named(tmp_path, capsys, option, text, where, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc = main(["run", "--strategy", "uncontrolled", option, str(path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}{where}: {message}"]


@pytest.mark.parametrize("option, data, where", [
    ("--feeder", b"slack_voltage 220\nline 1 2 0.1 0.0 # \xff\n", ":2"),
    ("--curve", b"# watts\n" + b"500.0\n" * 40 + b"5\xff0.0\n" + b"500.0\n" * 55, ":42"),
    ("--fleet", b"# bus phase capacity_kwh arrival departure soc\n2 a 20 17:00 05:00 50\n"
     b"3 \xff 20 17:00 05:00 50\n", ":3"),
    ("--zones", b"zone 1 23:00 2,3\r\nzone 2 \xff 4\r\n", ":2"),
], ids=["feeder", "curve", "fleet", "zones"])
def test_input_file_that_is_not_utf8_is_named(tmp_path, capsys, option, data, where):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    strategy = "zoned" if option == "--zones" else "uncontrolled"  # only a zoned run reads zones
    rc = main(["run", "--strategy", strategy, option, str(path)])
    assert rc == 2
    message = "byte 0xff is not UTF-8 (invalid start byte)"
    assert capsys.readouterr().err.splitlines() == [f"error: {path}{where}: {message}"]


def _two_bus_feeder(tmp_path, r_ohm="0.1", x_ohm="0.0"):
    feeder = tmp_path / "feeder.txt"
    feeder.write_text(f"slack_voltage 220\nline 1 2 {r_ohm} {x_ohm}\n")
    return feeder


def test_infeasible_validate_exits_cleanly(tmp_path, capsys):
    feeder = _two_bus_feeder(tmp_path, "9.0", "1.0")
    curve = tmp_path / "curve.txt"
    curve.write_text("2000.0\n" * 96)
    rc = main(["validate", "--feeder", str(feeder), "--curve", str(curve)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: valley snapshot, slot 0: |v_")


def test_zone_plan_is_read_only_by_zoned_runs(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["run", "--strategy", "uncontrolled", "--zones", missing]) == 0
    capsys.readouterr()
    assert main(["run", "--strategy", "zoned", "--zones", missing]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("old, new, where, bus", [
    ("17,18,19", "17,18,91", ":3", 91),  # a typo for bus 19
    ("7,8,9", "0,7,8,9", ":5", 0),
], ids=["typo", "bus-zero"])
def test_zone_plan_bus_outside_feeder_is_named(tmp_path, capsys, old, new, where, bus):
    path = tmp_path / "zones.txt"
    path.write_text(default_zones_path().read_text().replace(old, new))
    for command in (["sweep"], ["run", "--strategy", "zoned"]):
        assert main([*command, "--zones", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}{where}: bus {bus} is outside the feeder's 19 buses\n")


def test_fleet_outside_feeder_exits_cleanly(tmp_path, capsys):
    rc = main(["run", "--feeder", str(_two_bus_feeder(tmp_path))])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {default_fleet_path()}:7: vehicle at bus 3 is outside the feeder's 2 buses\n"
    )


def test_non_finite_impedance_exits_cleanly(tmp_path, capsys):
    feeder = _two_bus_feeder(tmp_path, "nan")
    rc = main(["validate", "--feeder", str(feeder)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {feeder}:2: line 1->2 has a non-finite impedance\n"


@pytest.mark.parametrize("option, value, name", [
    ("--tolerance", "nan", "tolerance"),
    ("--tolerance", "inf", "tolerance"),
    ("--tolerance", "-1", "tolerance"),
    ("--max-iter", "0", "max_iterations"),
    ("--sigma", "nan", "sigma_fraction"),
    ("--seed", "-1", "seed"),
])
def test_bad_numeric_option_exits_cleanly(capsys, option, value, name):
    rc = main(["run", "--strategy", "baseline", option, value])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {name} must be")


def test_sample_with_bad_sigma_writes_nothing(tmp_path, capsys):
    rc = main(["sample", "--sigma", "nan", "--households", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sigma_fraction must be in [0, inf), got nan"]
    assert not (tmp_path / "out" / "fleet.txt").exists()


def test_penetration_with_fleet_file_exits_cleanly(capsys):
    rc = main(["run", "--strategy", "uncontrolled", "--fleet", str(default_fleet_path()),
               "--penetration", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: penetration samples a fleet and fleet_file loads one; give only one\n"
    )


def test_validate_feeder_without_lines(tmp_path, capsys):
    feeder = tmp_path / "slack_only.txt"
    feeder.write_text("slack_voltage 220\n")
    rc = main(["validate", "--feeder", str(feeder)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"


@pytest.mark.parametrize("argv", [
    ["validate", "--trials", "2"], ["validate", "--out", "out"], ["validate", "--zones", "z.txt"],
    ["sample", "--max-iter", "3"], ["sample", "--tolerance", "1"], ["sample", "--fleet", "f.txt"],
])
def test_subcommand_rejects_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_timer_start_exits_cleanly(capsys):
    assert main(["run", "--timer-start", "25:00"]) == 2
    assert capsys.readouterr().err == "error: bad time '25:00'\n"
    # not 00:30: 24:00 is the only time past 23:45
    assert main(["run", "--strategy", "timer", "--timer-start", "24:30"]) == 2
    assert capsys.readouterr().err == "error: bad time '24:30'\n"
    # not 10:00: each half is digits only
    assert main(["run", "--strategy", "timer", "--timer-start", "1_0:00"]) == 2
    assert capsys.readouterr().err == "error: bad time '1_0:00', expected HH:MM\n"


def test_warnings_print_as_one_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("default", FleetDataWarning)  # this module ignores it elsewhere
        assert main(["run"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("warning: ") for line in err)
    assert any("initial SOC outside" in line for line in err)
    assert not any("scenario.py" in line for line in err)


def test_validate_names_each_failing_snapshot_and_its_cause(capsys, monkeypatch):
    assert main(["validate", "--max-iter", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"FAIL: {name} snapshot, slot {t}: the {solver} solver stopped unconverged after 3 iterations"
        for name, t in (("valley", 8), ("shoulder", 32), ("peak", 72)) for solver in ("sweep", "direct")
    ]
    monkeypatch.setattr(scenario, "ORACLE_TOLERANCE_PU", 1e-20)
    assert main(["validate"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in err] == [
        " valley snapshot, slot 8", " shoulder snapshot, slot 32", " peak snapshot, slot 72"]
    for line in err:
        assert re.fullmatch(r"FAIL: \w+ snapshot, slot \d+: the solvers disagree by "
                            r"\d\.\d{3}e-\d\d pu, beyond 1e-20 pu", line)


def test_a_vehicle_needing_more_slots_than_an_integer_holds_exits_cleanly(tmp_path, capsys):
    fleet = tmp_path / "fleet.txt"
    fleet.write_text("3 a 1e20 19:00 07:00 50\n")
    assert main(["run", "--fleet", str(fleet)]) == 2
    assert capsys.readouterr().err == (
        "error: vehicle at bus 3 phase a needs 51428571428571422720 slots, "
        "more than one day at 3500.0 W\n"
    )
