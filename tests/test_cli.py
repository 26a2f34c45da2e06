import hashlib
import json

import pytest

from evfeeder.cli import main
from evfeeder.scenario import default_fleet_path

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


def test_fleet_outside_feeder_exits_cleanly(tmp_path, capsys):
    rc = main(["run", "--feeder", str(_two_bus_feeder(tmp_path))])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {default_fleet_path()}: vehicle at bus 3 is outside the feeder's 2 buses\n"
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
