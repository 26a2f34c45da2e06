import dataclasses
import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from evfeeder import metrics, powerflow, scenario
from evfeeder.charging import ScheduleWarning, ev_power_frame
from evfeeder.loads import FleetDataWarning, load_fleet
from evfeeder.metrics import ReducedRows, compare_scenarios, reduce_horizon, row_sink
from evfeeder.powerflow import (
    CHUNK_BUS_SLOTS,
    HorizonState,
    InfeasibleInjectionError,
    collapse_points,
    solve_batch,
    solve_stream,
    solve_sweep,
)
from evfeeder.scenario import (
    STRATEGIES,
    ScenarioConfig,
    SimulationError,
    _Inputs,
    build_schedule,
    consumers_of,
    default_feeder_path,
    default_fleet_path,
    household_frame,
    run_scenario,
    run_sweep,
    solve_horizon,
    trial_seeds,
    validate,
    write_report_files,
)
from evfeeder.network import WIRES, LineSegment, NetworkTopology, load_topology, save_topology
from evfeeder.slots import SLOTS_PER_DAY, slot_of

from test_metrics import reduce_rows
from test_powerflow import assert_same_state, random_injections, random_radial, walk_sweep

pytestmark = pytest.mark.filterwarnings("ignore::evfeeder.loads.FleetDataWarning")


@pytest.fixture(scope="module")
def sweep_reports():
    return run_sweep(ScenarioConfig(seed=1))


def test_consumers_are_one_per_bus_and_phase():
    topo = load_topology(default_feeder_path())
    consumers = consumers_of(topo)
    assert len(consumers) == 57
    assert consumers[0] == (1, "a")
    assert consumers[-1] == (19, "c")


def test_trial_seeds_deterministic():
    assert trial_seeds(1, 3) == trial_seeds(1, 3)
    assert trial_seeds(1, 3) != trial_seeds(2, 3)
    assert len({s["household"] for s in trial_seeds(9, 5)}) == 5


@pytest.fixture(scope="module")
def two_trial_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep2")
    return run_sweep(ScenarioConfig(seed=1, trials=2, out_dir=out)), out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_scenario_matches_sweep(strategy, two_trial_sweep, tmp_path):
    # one strategy alone sees the same draws, and writes the same files,
    # as it does inside the five-strategy sweep
    reports, sweep_out = two_trial_sweep
    solo = run_scenario(ScenarioConfig(strategy=strategy, seed=1, trials=2, out_dir=tmp_path))
    assert solo.extra["per_trial"] == reports[strategy].extra["per_trial"]
    for name in ("voltages.csv", "currents.csv", "losses.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (sweep_out / strategy / name).read_bytes()


# SHA-256 of every file that `run_sweep(ScenarioConfig(seed=1, out_dir=...))`
# writes except manifest.json, which carries a wall-clock stamp. Refactors
# must keep these bytes; only a deliberate change of the model may move it.
SEED1_SWEEP_SHA256 = "22ca9de036339e9a077b2b4c4cc68852ae85f7933adc405f95d7ef0322ef497b"


def test_seed1_sweep_outputs_match_golden_hash(tmp_path):
    run_sweep(ScenarioConfig(seed=1, out_dir=tmp_path))
    h = hashlib.sha256()
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.name != "manifest.json")
    assert len(files) == 5 * 4 + 2
    for path in files:
        h.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == SEED1_SWEEP_SHA256


def test_baseline_schedule_is_none():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        fleet = load_fleet(default_fleet_path())
    assert build_schedule("baseline", fleet) is None


def test_build_schedule_rejects_unknown_strategy_and_zoned_without_plan():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        fleet = load_fleet(default_fleet_path())
    with pytest.raises(ValueError, match=r"^unknown strategy 'smart'$"):
        build_schedule("smart", fleet)
    with pytest.raises(ValueError, match=r"^zoned strategy needs a zone plan$"):
        build_schedule("zoned", fleet)


def test_semi_smart_windows_end_at_departure_in_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        fleet = load_fleet(default_fleet_path())
    sched = build_schedule("semismart", fleet)
    charging = sched.n_slots > 0
    ends = (sched.start + sched.n_slots) % SLOTS_PER_DAY
    assert np.array_equal(ends[charging], fleet.departure[charging])


def test_sweep_reproduces_strategy_orderings(sweep_reports):
    losses = {s: r.total_loss_kwh for s, r in sweep_reports.items()}
    assert (losses["uncontrolled"] > losses["timer"] > losses["zoned"]
            > losses["semismart"] > losses["baseline"])
    minima = {s: r.min_voltage["overall"].value_pu for s, r in sweep_reports.items()}
    ev_scenarios = [s for s in STRATEGIES if s != "baseline"]
    assert min(ev_scenarios, key=lambda s: minima[s]) == "timer"
    assert max(ev_scenarios, key=lambda s: minima[s]) == "semismart"
    assert all(minima["baseline"] >= minima[s] for s in ev_scenarios)


def test_baseline_bounds_every_ev_scenario(sweep_reports):
    base_loss = sweep_reports["baseline"].total_loss_kwh
    for s, r in sweep_reports.items():
        assert r.total_loss_kwh >= base_loss


def test_sweep_writes_expected_files(tmp_path):
    cfg = ScenarioConfig(seed=1, out_dir=tmp_path)
    run_sweep(cfg)
    for strategy in STRATEGIES:
        for name in ("summary.json", "voltages.csv", "currents.csv", "losses.csv"):
            assert (tmp_path / strategy / name).exists()
    assert (tmp_path / "comparison.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert manifest["config"] == {key: str(value) if isinstance(value, Path) else value
                                  for key, value in dataclasses.asdict(cfg.resolved()).items()}
    assert manifest["trial_seeds"] == trial_seeds(1, 1)
    comparison = (tmp_path / "comparison.csv").read_text().splitlines()
    assert comparison[0].startswith("scenario,")
    assert len(comparison) == 1 + len(STRATEGIES)


def test_sweep_determinism_byte_identical(tmp_path):
    cfg_a = ScenarioConfig(seed=7, out_dir=tmp_path / "a")
    cfg_b = ScenarioConfig(seed=7, out_dir=tmp_path / "b")
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    for rel in [f"{s}/{n}" for s in STRATEGIES
                for n in ("voltages.csv", "currents.csv", "losses.csv", "summary.json")] + [
                    "comparison.csv"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_sweep_rewrites_an_existing_out_dir_with_new_files(tmp_path):
    # A rerun replaces each file rather than truncating it in place; a hard
    # link keeps the first run's file, so every rewrite must be a new inode.
    out, first = tmp_path / "out", tmp_path / "first"
    run_sweep(ScenarioConfig(seed=7, out_dir=out))
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert len(files) == 5 * 4 + 3
    for rel in files:
        (first / rel).parent.mkdir(parents=True, exist_ok=True)
        (first / rel).hardlink_to(out / rel)
    run_sweep(ScenarioConfig(seed=7, out_dir=out))
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
    for rel in files:
        assert not (out / rel).samefile(first / rel), rel
        if rel.name != "manifest.json":
            assert (out / rel).read_bytes() == (first / rel).read_bytes(), rel


def test_different_seed_changes_outputs(tmp_path):
    run_scenario(ScenarioConfig(strategy="baseline", seed=1, out_dir=tmp_path / "s1"))
    run_scenario(ScenarioConfig(strategy="baseline", seed=2, out_dir=tmp_path / "s2"))
    a = (tmp_path / "s1" / "voltages.csv").read_bytes()
    b = (tmp_path / "s2" / "voltages.csv").read_bytes()
    assert a != b


def test_household_frames_shared_across_strategies():
    # the sweep isolates the strategy: identical household demand under all
    # five modes means report differences come from charging alone
    reports = run_sweep(ScenarioConfig(seed=3))
    base = reports["baseline"]
    for s in ("uncontrolled", "timer", "zoned", "semismart"):
        r = reports[s]
        assert r.load_energy_kwh > base.load_energy_kwh  # EVs add energy
    # identical fleet energy across strategies
    ev_energy = {s: reports[s].load_energy_kwh - base.load_energy_kwh
                 for s in ("uncontrolled", "timer", "zoned", "semismart")}
    values = list(ev_energy.values())
    assert all(v == pytest.approx(values[0], rel=1e-9) for v in values)


def test_zero_penetration_sweep_collapses_to_baseline(tmp_path):
    cfg = ScenarioConfig(seed=5, penetration=0.0, fleet_file=None)
    reports = run_sweep(cfg)
    base = reports["baseline"].total_loss_kwh
    for s, r in reports.items():
        assert r.total_loss_kwh == pytest.approx(base, rel=1e-12)


def test_multi_trial_aggregates():
    report = run_scenario(ScenarioConfig(strategy="baseline", seed=4, trials=3))
    agg = report.extra["aggregate"]
    per_trial = report.extra["per_trial"]
    assert len(per_trial) == 3
    assert per_trial[0] == report.summary()  # the returned report is trial 0's
    losses = [t["total_loss_kwh"] for t in per_trial]
    assert agg["total_loss_kwh"]["mean"] == pytest.approx(np.mean(losses))
    assert agg["total_loss_kwh"]["std"] == pytest.approx(np.std(losses))
    assert len(set(losses)) == 3  # household noise differs per trial


def read_voltages_csv(path, topology):
    """Reconstruct the (96, n_buses, 4) per-unit voltage profile."""
    wire_index = {w: i for i, w in enumerate(WIRES)}
    out = np.full((SLOTS_PER_DAY, topology.n_buses, 4), np.nan)
    with open(path) as f:
        assert f.readline() == "bus,wire,slot,v_pu\n"
        for row in f:
            bus, wire, slot, v = row.rstrip("\n").split(",")
            out[int(slot), int(bus) - 1, wire_index[wire]] = float(v)
    assert not np.any(np.isnan(out)), "incomplete voltage profile"
    return out


def test_voltages_csv_round_trip(tmp_path):
    cfg = ScenarioConfig(strategy="semismart", seed=1, out_dir=tmp_path)
    report = run_scenario(cfg)
    topo = load_topology(default_feeder_path())
    back = read_voltages_csv(tmp_path / "voltages.csv", topo)
    # 9 significant digits survive the text round trip at that precision
    assert np.allclose(back, report.voltage_pu, rtol=1.1e-8, atol=0)
    reformatted = np.vectorize(lambda x: float(format(x, ".9g")))(report.voltage_pu)
    assert np.array_equal(back, reformatted)


def reference_write_csv(path, header, keyed):
    """The per-value writer that `_write_rows` replaced: one format() per value.

    ``keyed`` yields ``(key, columns)`` with one (96,) array per value column.
    """
    def fmt(x):
        return format(float(x), ".9g")

    with open(path, "w") as f:
        f.write(header + "\n")
        for key, (first, *rest) in keyed:
            cells = map(fmt, first.tolist())
            for column in rest:
                cells = map("{},{}".format, cells, map(fmt, column.tolist()))
            f.writelines(f"{key}{t},{cell}\n" for t, cell in enumerate(cells))


def reference_report_files(out, report, topology):
    out.mkdir()
    reference_write_csv(out / "voltages.csv", "bus,wire,slot,v_pu", (
        (f"{b + 1},{wire},", (report.voltage_pu[:, b, w],))
        for b in range(topology.n_buses) for w, wire in enumerate(WIRES)
    ))
    reference_write_csv(out / "currents.csv", "from_bus,to_bus,wire,slot,i_a", (
        (f"{ln.from_bus},{ln.to_bus},{wire},", (report.current_a[:, k, w],))
        for k, ln in enumerate(topology.lines) for w, wire in enumerate(WIRES)
    ))
    reference_write_csv(out / "losses.csv", "slot,loss_kw", [("", (report.loss_kw,))])


EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.5e-05, 1234567890.0, 1e16, 0.99999999995,
               np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("n_columns", [1, 2])
def test_write_rows_matches_per_value_writer_on_edge_values(tmp_path, n_columns):
    keys = ["1,a,", "1,b,", "2,n,"]
    columns = [np.resize(np.roll(EDGE_VALUES, c), (SLOTS_PER_DAY, 3)) for c in range(n_columns)]
    scenario._write_rows({tmp_path / "rows.csv": ONE_DAY}, "key,slot,x", keys, *columns)
    reference_write_csv(tmp_path / "ref.csv", "key,slot,x",
                        zip(keys, zip(*(column.T for column in columns))))
    text = (tmp_path / "rows.csv").read_text()
    assert len(text.splitlines()) == 1 + 3 * SLOTS_PER_DAY
    cells = set(text.replace("\n", ",").split(","))
    assert {"-0", "4.94065646e-324", "1e+16", "inf", "-inf", "nan"} <= cells
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_report_files_match_per_value_writer_on_a_400_bus_feeder(tmp_path):
    # 1600 voltage keys fill whole blocks of 10 keys; the 1596 current keys
    # end in a part block
    topo, demand = wide_feeder_day()
    rows = reduce_rows(solve_rows(topo, demand, {"": ONE_DAY}), topo)
    report = reduce_horizon("uncontrolled", rows, ONE_DAY)
    write_report_files(tmp_path / "rows", rows, {"": ONE_DAY}, topo)
    reference_report_files(tmp_path / "ref", report, topo)
    for name in ("voltages.csv", "currents.csv", "losses.csv"):
        assert (tmp_path / "rows" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_sweep_files_match_per_value_writer_on_each_strategy_report(tmp_path, monkeypatch):
    # Two trials on a 12-bus feeder: trial 1's rows are pulled and solved
    # ahead while trial 0's, which every strategy's files read, are held.
    # Trial 0 has about 200 distinct rows, so its blocks of 5 keys leave a
    # part block of the 48 voltage and 44 current keys.
    rng = np.random.default_rng(3)
    topo = NetworkTopology(lines=tuple(
        LineSegment(ln.from_bus, ln.to_bus, ln.z_phase / 100, ln.z_neutral / 100)
        for ln in random_radial(rng, n_buses=12).lines
    ))
    save_topology(topo, tmp_path / "feeder.txt")
    (tmp_path / "zones.txt").write_text(f"zone 1 23:00 {','.join(map(str, topo.buses))}\n")
    events = []
    trial_rows, solve = scenario._trial_rows, scenario.solve_horizon

    def pulled(*args):
        rows, days = trial_rows(*args)
        events.append(len(rows))
        return rows, days

    def solved(*args):
        rows = solve(*args)
        events.append("solved")
        return rows

    monkeypatch.setattr(scenario, "_trial_rows", pulled)
    monkeypatch.setattr(scenario, "solve_horizon", solved)
    cfg = ScenarioConfig(feeder=tmp_path / "feeder.txt", zones=tmp_path / "zones.txt",
                         penetration=0.5, trials=2, seed=4, out_dir=tmp_path / "out")
    reports = run_sweep(cfg)
    n_rows, _, first_solve, _ = events  # trial 1's rows pulled before trial 0's state
    assert first_solve == "solved"
    per_block = 1024 // n_rows
    assert 4 * topo.n_buses % per_block and 4 * (topo.n_buses - 1) % per_block
    (tmp_path / "ref").mkdir()
    for strategy, report in reports.items():
        reference_report_files(tmp_path / "ref" / strategy, report, topo)
        for name in ("voltages.csv", "currents.csv", "losses.csv"):
            written = (tmp_path / "out" / strategy / name).read_bytes()
            assert written == (tmp_path / "ref" / strategy / name).read_bytes(), (strategy, name)


def test_sampled_fleet_mode_runs():
    cfg = ScenarioConfig(strategy="semismart", penetration=0.6, fleet_file=None, seed=2)
    report = run_scenario(cfg)
    assert report.total_loss_kwh > 0


def test_validate_passes_on_shipped_feeder():
    result = validate(ScenarioConfig())
    assert result["ok"]
    json.dumps(result)  # every number a Python one
    assert set(result["snapshots"]) == {"valley", "shoulder", "peak"}
    for row in result["snapshots"].values():
        assert row["disagreement_pu"] < 1e-8
        assert row["kcl_residual_a"] < 1e-6


def test_validate_tighter_tolerance_needs_more_iterations():
    loose = validate(ScenarioConfig(tolerance=1e-4))
    tight = validate(ScenarioConfig(tolerance=1e-10))
    assert tight["ok"] and loose["ok"]
    assert (tight["snapshots"]["peak"]["sweep_iterations"]
            > loose["snapshots"]["peak"]["sweep_iterations"])


def test_corrupted_feeder_reports_row(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("slack_voltage 220\nline 1 2 0.1 oops\n")
    from evfeeder.network import FeederFormatError

    with pytest.raises(FeederFormatError, match=":2:"):
        run_scenario(ScenarioConfig(feeder=bad))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        ScenarioConfig(strategy="psychic")
    with pytest.raises(ValueError, match="trials"):
        ScenarioConfig(trials=0)
    with pytest.raises(ValueError, match="penetration"):
        ScenarioConfig(penetration=1.5)
    with pytest.raises(ValueError, match="penetration samples a fleet and fleet_file"):
        ScenarioConfig(penetration=0.5, fleet_file=default_fleet_path())
    for seed in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ScenarioConfig(seed=seed)


def test_config_rejects_a_fractional_trial_count():
    with pytest.raises(ValueError, match="trials must be a positive integer, got 2.5"):
        ScenarioConfig(trials=2.5)


def test_config_rejects_a_fractional_iteration_limit():
    # a slot that neither converges nor collapses would never leave the solver
    with pytest.raises(ValueError, match="max_iterations must be a positive integer, got 2.5"):
        ScenarioConfig(max_iterations=2.5)


def test_config_rejects_a_fractional_timer_start():
    # a fractional slot cannot index the day: rejected up front, not as an IndexError
    for start in (2.5, 96.0, "96"):
        with pytest.raises(ValueError, match="timer_start must be an integer slot"):
            ScenarioConfig(strategy="timer", timer_start=start)


def test_config_rejects_a_bad_charge_power():
    # blamed on the field, not on the fleet file whose vehicles it would set
    for power in (-5, 0, np.nan, np.inf):
        with pytest.raises(ValueError, match="charge_power_w must be positive and finite"):
            ScenarioConfig(charge_power_w=power)


def test_config_rejects_a_bad_power_factor():
    # rejected up front, not in the solver stream's first pull
    for pf in (0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"power_factor must be in \(0, 1\]"):
            ScenarioConfig(power_factor=pf)


def test_config_rejects_a_bad_tolerance():
    # rejected up front, not in the solver loop; None keeps the default
    for tolerance in (-1, 0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ScenarioConfig(tolerance=tolerance)
    assert ScenarioConfig(tolerance=None).tolerance is None


def test_timer_start_wraps_by_the_day():
    # the 24:00 default is slot 0, and an integer start is taken modulo the day
    assert ScenarioConfig().timer_start == 0
    default = run_scenario(ScenarioConfig(strategy="timer", seed=1)).summary()
    wrapped = ScenarioConfig(strategy="timer", seed=1, timer_start=np.int64(SLOTS_PER_DAY))
    assert run_scenario(wrapped).summary() == default
    assert run_scenario(ScenarioConfig(strategy="timer", seed=1, timer_start=2)).summary() != default


def test_comparison_against_uncontrolled(sweep_reports):
    table = compare_scenarios(
        {s: r.summary() for s, r in sweep_reports.items()}, baseline="uncontrolled"
    )
    assert table["semismart"]["loss_change_pct"] < -5.0
    assert table["baseline"]["loss_change_pct"] < 0
    assert table["timer"]["min_voltage_delta_pp"] < 0


def test_shipped_seed1_regression_anchors(sweep_reports):
    # frozen from the shipped configuration; guards refactors of any stage
    # of the pipeline (sampling order, solver, reductions)
    expected_loss = {
        "baseline": 12.772,
        "uncontrolled": 56.482,
        "timer": 55.947,
        "zoned": 47.700,
        "semismart": 39.648,
    }
    for name, value in expected_loss.items():
        assert sweep_reports[name].total_loss_kwh == pytest.approx(value, abs=2e-3)
    assert sweep_reports["timer"].min_voltage["overall"].value_pu == pytest.approx(
        0.5660, abs=2e-4
    )
    assert sweep_reports["baseline"].min_voltage["overall"].value_pu == pytest.approx(
        0.9109, abs=2e-4
    )
    # every scenario's deepest sag sits at the high-impedance leaf
    for r in sweep_reports.values():
        assert r.min_voltage["overall"].bus == 10


def test_multi_trial_sweep_aggregates_and_isolation(tmp_path):
    reports = run_sweep(ScenarioConfig(seed=11, trials=2, out_dir=tmp_path))
    for r in reports.values():
        assert len(r.extra["per_trial"]) == 2
        assert "mean" in r.extra["aggregate"]["total_loss_kwh"]
    # per-trial EV energy identical across strategies within each trial
    for t in range(2):
        deltas = {
            s: (reports[s].extra["per_trial"][t]["load_energy_kwh"]
                - reports["baseline"].extra["per_trial"][t]["load_energy_kwh"])
            for s in STRATEGIES if s != "baseline"
        }
        values = list(deltas.values())
        assert all(v == pytest.approx(values[0], rel=1e-9) for v in values)
    summary = json.loads((tmp_path / "semismart" / "summary.json").read_text())
    assert summary["trials"] == 2


# --- the trial as one batch -------------------------------------------------

ONE_DAY = np.arange(SLOTS_PER_DAY)


def strategy_days(seed):
    """Each strategy's demand frame in the first trial of a default sweep."""
    inputs = _Inputs(ScenarioConfig(seed=seed).resolved())
    seeds = trial_seeds(seed, 1)[0]
    frame = household_frame(inputs.households_for_trial(seeds["household"]), inputs.topology)
    fleet = inputs.fleet_for_trial(seeds["fleet"])
    days = {}
    for strategy in STRATEGIES:
        schedule = build_schedule(strategy, fleet, zone_plan=inputs.zone_plan)
        ev = 0 if schedule is None else ev_power_frame(schedule, inputs.topology)
        days[strategy] = frame + ev
    return inputs.topology, days


@pytest.fixture(scope="module")
def seed1_days():
    return strategy_days(1)


def solve_rows(topology, rows, days, sink=None, **limits):
    """solve_horizon of one trial's rows, fed alone to a stream with `sink`."""
    return solve_horizon(topology, solve_stream(topology, [rows], sink=sink, **limits), days)


# the report quantities of a row, and how the solver fared on it
REDUCED_FIELDS = ("voltage_pu", "current_a", "loss_kw", "slack_w", "load_w", "iterations", "max_dv")


@pytest.fixture
def horizon_calls(monkeypatch):
    """Every scenario.solve_horizon call of the test: (days, solved)."""
    calls = []
    solve = scenario.solve_horizon

    def recording(topology, stream, days):
        solved = solve(topology, stream, days)
        calls.append((days, solved))
        return solved

    monkeypatch.setattr(scenario, "solve_horizon", recording)
    return calls


def dense_trial_rows(inputs, seeds, strategies):
    """A trial's rows and days built from dense (96, buses, 3) household and EV
    frames, one per trial and charging strategy: the reference for _trial_rows."""
    frame = household_frame(inputs.households_for_trial(seeds["household"]), inputs.topology)
    fleet = inputs.fleet_for_trial(seeds["fleet"])
    evs = {}
    for strategy in strategies:
        schedule = build_schedule(strategy, fleet, timer_start=inputs.cfg.timer_start,
                                  zone_plan=inputs.zone_plan)
        if schedule is not None:
            evs[strategy] = ev_power_frame(schedule, inputs.topology)
    no_ev = np.zeros(SLOTS_PER_DAY, dtype=bool)
    own = {s: evs[s].any(axis=(1, 2)) if s in evs else no_ev for s in strategies}
    shared = ~np.logical_and.reduce(list(own.values()))
    ends = np.cumsum([shared.sum()] + [mask.sum() for mask in own.values()])
    rows = np.empty((ends[-1],) + frame.shape[1:], dtype=complex)
    np.compress(shared, frame, axis=0, out=rows[: ends[0]])
    days = {}
    for (strategy, mask), start, stop in zip(own.items(), ends, ends[1:]):
        days[strategy] = np.cumsum(shared) - 1
        days[strategy][mask] = np.arange(start, stop)
        if strategy in evs:
            out = np.compress(mask, frame, axis=0, out=rows[start:stop])
            out += np.compress(mask, evs[strategy], axis=0)
    return rows, days


@pytest.mark.parametrize("extra", [
    {}, {"penetration": 0.6}, {"penetration": 0.0}, {"leading_pf": True, "sigma_fraction": 3.0},
    {"penetration": 0.3, "leading_pf": True, "timer_start": 90},
], ids=["file-fleet", "sampled", "no-evs", "leading-pf", "sampled-leading-late-timer"])
@pytest.mark.parametrize("strategies", [STRATEGIES] + [(s,) for s in STRATEGIES],
                         ids=["sweep", *STRATEGIES])
def test_trial_rows_match_the_dense_frame_construction(extra, strategies):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleWarning)
        inputs = _Inputs(ScenarioConfig(seed=7, **extra).resolved(), strategies)
        for seeds in trial_seeds(7, 2):
            rows, days = scenario._trial_rows(inputs, seeds)
            ref_rows, ref_days = dense_trial_rows(inputs, seeds, strategies)
            assert rows.tobytes() == ref_rows.tobytes()
            assert list(days) == list(ref_days) == list(strategies)
            for strategy, index in days.items():
                assert index.tobytes() == ref_days[strategy].tobytes(), strategy
            if "sigma_fraction" in extra:  # clipped draws give -0.0 vars, and no row keeps one
                q = inputs.households_for_trial(seeds["household"]).q
                assert np.signbit(q[q == 0]).any() and not np.signbit(rows.imag[rows.imag == 0]).any()


def test_a_file_fleets_schedules_are_built_once_per_run(monkeypatch):
    built, build = [], scenario.build_schedule

    def recording(strategy, *args, **kwargs):
        built.append(strategy)
        return build(strategy, *args, **kwargs)

    monkeypatch.setattr(scenario, "build_schedule", recording)
    run_sweep(ScenarioConfig(seed=1, trials=3, sigma_fraction=0.02))
    assert built == list(STRATEGIES)
    built.clear()
    run_sweep(ScenarioConfig(seed=1, trials=2, penetration=0.1, sigma_fraction=0.02))
    assert built == list(STRATEGIES) * 2  # a sampled fleet's, once per trial


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trial_batch_gathers_each_strategys_full_day(seed, horizon_calls):
    run_sweep(ScenarioConfig(seed=seed))
    [(days, solved)] = horizon_calls
    assert list(days) == list(STRATEGIES)
    topo, demand = strategy_days(seed)
    for strategy, index in days.items():
        alone = reduce_rows(solve_batch(topo, demand[strategy]), topo)
        for name in REDUCED_FIELDS:
            got = getattr(solved, name)[index]
            assert got.tobytes() == getattr(alone, name).tobytes(), (strategy, name)


def test_solve_horizon_rows_yield_each_rows_iterations(seed1_days, horizon_calls):
    # what a trace of the run reads: `.iterations` of each item of the rows
    run_sweep(ScenarioConfig(seed=1))
    [(days, solved)] = horizon_calls
    per_row = [row.iterations for row in solved]
    assert len(per_row) == len(solved) == 245
    assert all(type(k) is int for k in per_row)
    topo, demand = seed1_days
    for strategy, index in days.items():
        alone = solve_batch(topo, demand[strategy])
        assert [per_row[r] for r in index] == [state.iterations for state in alone], strategy


def test_runs_hold_no_complex_state(monkeypatch):
    def refuse(n_slots, topology):
        raise AssertionError("a run built a complex HorizonState")

    monkeypatch.setattr(HorizonState, "zeros", refuse)
    run_sweep(ScenarioConfig(seed=1, trials=2))
    run_scenario(ScenarioConfig(strategy="timer", seed=1))
    with pytest.raises(AssertionError):
        solve_batch(load_topology(default_feeder_path()), np.zeros((1, 19, 3)))


def test_trial_solves_each_distinct_row_once(horizon_calls):
    run_sweep(ScenarioConfig(seed=1, trials=2))
    assert [len(solved) for _, solved in horizon_calls] == [245, 245]
    for strategy in STRATEGIES:
        horizon_calls.clear()
        run_scenario(ScenarioConfig(strategy=strategy, seed=1))
        assert [len(solved) for _, solved in horizon_calls] == [96]


def test_trial_names_the_first_failed_strategy(tmp_path):
    # one vehicle on the weak leaf: charging from 03:00 the feeder carries it,
    # from the timer's 19:00 on top of the evening peak it collapses
    fleet = tmp_path / "fleet.txt"
    fleet.write_text("10 b 20 03:00 12:00 30\n")
    kw = dict(seed=1, fleet_file=fleet, charge_power_w=5000.0, timer_start=slot_of("19:00"))
    for strategy in ("baseline", "uncontrolled"):
        run_scenario(ScenarioConfig(strategy=strategy, **kw))
    with pytest.raises(SimulationError) as caught:
        run_sweep(ScenarioConfig(**kw))
    assert str(caught.value) == (
        "trial 0: slot 76 under strategy 'timer': |v_b - v_n| at bus 10 fell to "
        "106.6 V (< 110.0 V) in iteration 6; the injections exceed what the feeder "
        "can deliver"
    )


def test_trial_names_a_failure_in_a_later_trial(tmp_path):
    # the vehicle's evening charge fits trial 0's household draw but not trial
    # 1's: trial 1's rows are solved while trial 0's last slots iterate, and
    # its failure is named as when the trials were solved one after another
    fleet = tmp_path / "fleet.txt"
    fleet.write_text("10 b 20 03:00 12:00 30\n")
    kw = dict(seed=4, fleet_file=fleet, charge_power_w=4400.0, timer_start=slot_of("19:00"))
    run_sweep(ScenarioConfig(**kw))
    with pytest.raises(SimulationError) as caught:
        run_sweep(ScenarioConfig(trials=2, **kw))
    assert str(caught.value) == (
        "trial 1: slot 76 under strategy 'timer': no convergence after 100 iterations "
        "(last voltage change 4.222e-07 V)"
    )


def test_baseline_run_reads_no_fleet():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_scenario(ScenarioConfig(strategy="baseline", seed=1))
    assert not [w for w in caught if issubclass(w.category, FleetDataWarning)]
    assert report.total_loss_kwh > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_solve_horizon_matches_single_slot_solves(strategy, seed1_days):
    topo, days = seed1_days
    day = solve_rows(topo, days[strategy], {strategy: ONE_DAY})
    assert len(day) == 96
    for t, state in enumerate(day):
        assert_same_state(state, solve_sweep(topo, days[strategy][t]))
        assert_same_state(state, walk_sweep(topo, days[strategy][t]))


def wide_feeder_day():
    """A 400-bus radial feeder, light enough to converge, and a day of demand."""
    rng = np.random.default_rng(5)
    wide = random_radial(rng, n_buses=400)
    topo = NetworkTopology(lines=tuple(
        LineSegment(ln.from_bus, ln.to_bus, ln.z_phase / 100, ln.z_neutral / 100)
        for ln in wide.lines
    ))
    return topo, np.stack([random_injections(rng, topo, p_max=300.0) for _ in range(96)])


def test_solve_horizon_spanning_chunks_matches_single_slot_solves():
    topo, demand = wide_feeder_day()
    assert 96 * topo.n_buses > CHUNK_BUS_SLOTS
    day = solve_rows(topo, demand, {"": ONE_DAY})
    for t, state in enumerate(day):
        assert_same_state(state, solve_sweep(topo, demand[t]))


def test_solve_horizon_names_the_first_collapsed_slot(seed1_days):
    topo, days = seed1_days
    demand = days["baseline"].copy()
    demand[5, 9, 1] += 6000.0
    demand[8, 9, 1] += 60000.0  # collapses in an earlier iteration than slot 5
    with pytest.raises(InfeasibleInjectionError) as alone:
        solve_sweep(topo, demand[5])
    for sink in (row_sink(topo), None):  # reduced as a run's rows are, and complex
        with pytest.raises(SimulationError) as caught:
            solve_rows(topo, demand, {"timer": ONE_DAY}, sink)
        assert str(caught.value) == f"slot 5 under strategy 'timer': {alone.value}"
        assert isinstance(caught.value.__cause__, InfeasibleInjectionError)


def test_solve_horizon_names_the_first_failure_in_strategy_order(seed1_days):
    topo, days = seed1_days
    rows = days["baseline"].copy()
    rows[5, 9, 1] += 6000.0
    rows[8, 9, 1] += 60000.0
    with pytest.raises(InfeasibleInjectionError) as alone:
        solve_sweep(topo, rows[8])
    # neither the lowest failed row (5) nor the lowest failed slot (2) is named
    zoned, semismart = np.zeros(96, int), np.zeros(96, int)
    zoned[40], semismart[2] = 8, 5
    for sink in (row_sink(topo), None):
        with pytest.raises(SimulationError) as caught:
            solve_rows(topo, rows, {"zoned": zoned, "semismart": semismart}, sink)
        assert str(caught.value) == f"slot 40 under strategy 'zoned': {alone.value}"


def test_solve_horizon_names_the_first_unconverged_slot(seed1_days):
    topo, days = seed1_days
    alone = solve_sweep(topo, days["uncontrolled"][0], max_iterations=2)
    assert not alone.converged
    for sink in (row_sink(topo), None):
        with pytest.raises(SimulationError) as caught:
            solve_rows(topo, days["uncontrolled"], {"": ONE_DAY}, sink, max_iterations=2)
        assert str(caught.value) == (
            f"slot 0: no convergence after 2 iterations "
            f"(last voltage change {alone.max_dv:.3e} V)"
        )


def test_sweep_peak_holds_two_batches_of_float_rows(tmp_path, monkeypatch):
    # On 300 buses two trials of ~230 rows hold more than CHUNK_BUS_SLOTS
    # bus-slots, so no third trial's rows join them in flight. Each slot is
    # reduced to float rows as it leaves the solver, so no trial's complex
    # state is held, and each trial's float rows are dropped once the
    # strategies have gathered theirs.
    rng = np.random.default_rng(7)
    lines = tuple(LineSegment(ln.from_bus, ln.to_bus, ln.z_phase / 1000, ln.z_neutral / 1000)
                  for ln in random_radial(rng, n_buses=300).lines)
    topo = NetworkTopology(lines=lines)
    save_topology(topo, tmp_path / "feeder.txt")
    (tmp_path / "zones.txt").write_text(f"zone 1 23:00 {','.join(map(str, topo.buses))}\n")
    n_rows = []
    solve = scenario.solve_horizon

    def counting(topology, stream, days):
        solved = solve(topology, stream, days)
        n_rows.append(len(solved))
        return solved

    monkeypatch.setattr(scenario, "solve_horizon", counting)
    cfg = ScenarioConfig(feeder=tmp_path / "feeder.txt", zones=tmp_path / "zones.txt",
                         penetration=0.6, trials=3, seed=5)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = max(n_rows)
    assert len(n_rows) == 3 and 2 * rows * topo.n_buses > CHUNK_BUS_SLOTS
    # bytes per row: its float reduction and its injections
    one = ReducedRows.zeros(1, topo)
    float_row = one.voltage_pu.nbytes + one.current_a.nbytes + 8 * 3
    injection_row = 16 * 3 * topo.n_buses
    # two batches of float rows in flight and half a batch of the next
    # trial's frames, one trial's float and injection rows, and the five
    # strategies' first reports and one being gathered
    bound = rows * (2.5 * float_row + float_row + injection_row) + 6 * 96 * float_row
    assert peak < bound


@pytest.fixture
def reduce_calls(monkeypatch):
    """The number of leaving slots in each reduce call of a run's row sink."""
    calls = []
    sink = metrics.row_sink

    def counting(topology):
        make, reduce = sink(topology)

        def counted(values):
            calls.append(len(values["iterations"]))
            return reduce(values)

        return make, counted

    monkeypatch.setattr(metrics, "row_sink", counting)
    return calls


def test_row_sink_stream_matches_each_batch_solved_alone(seed1_days):
    # five one-day batches on 19 buses: several are in flight at once, and
    # their leaving slots wait to be reduced together, across batches
    topo, days = seed1_days
    batches = [days[strategy].copy() for strategy in STRATEGIES]
    slow, weak = STRATEGIES.index("baseline"), STRATEGIES.index("timer")
    batches[slow][3, 9, 1] += 5100.0  # runs out of iterations
    batches[weak][8, 9, 1] += 60000.0  # collapses
    pulled = []

    def feed():
        for batch in batches:
            pulled.append(batch)
            yield batch

    stream = solve_stream(topo, feed(), sink=row_sink(topo))
    solved = [next(stream)]
    assert len(pulled) > 2
    solved += stream
    for batch, rows in zip(batches, solved, strict=True):
        alone = solve_batch(topo, batch)
        expected = reduce_rows(alone, topo)
        ok = ~alone.collapsed
        for name in REDUCED_FIELDS + ("converged", "collapsed"):
            got, want = getattr(rows, name), getattr(expected, name)
            if name in ("voltage_pu", "current_a", "loss_kw", "slack_w", "load_w"):
                got, want = got[ok], want[ok]  # not solved in a collapsed row
            assert got.tobytes() == want.tobytes(), name
        for t in np.flatnonzero(~ok):
            at, volts = collapse_points(alone.v[t:t + 1])
            assert (rows.collapse_at[t], rows.collapse_v[t]) == (at[0], volts[0])
    assert solved[slow].iterations[3] == 100 and not solved[slow].converged[3]
    assert not solved[slow].collapsed[3]
    assert solved[weak].collapsed[8] and sum(rows.collapsed.sum() for rows in solved) == 1


def test_one_trial_sweep_reduces_its_rows_in_at_most_two_calls(reduce_calls):
    run_sweep(ScenarioConfig(seed=1))
    assert sum(reduce_calls) == 245
    assert len(reduce_calls) <= 2


def test_large_feeder_reduces_each_iterations_leaving_slots_at_once(
    tmp_path, monkeypatch, reduce_calls
):
    # on 300 buses the active set uses every bus-slot it may, so no slot
    # waits: each reduce call takes the slots of the one iteration they left
    rng = np.random.default_rng(7)
    lines = tuple(LineSegment(ln.from_bus, ln.to_bus, ln.z_phase / 1000, ln.z_neutral / 1000)
                  for ln in random_radial(rng, n_buses=300).lines)
    topo = NetworkTopology(lines=lines)
    save_topology(topo, tmp_path / "feeder.txt")
    (tmp_path / "zones.txt").write_text(f"zone 1 23:00 {','.join(map(str, topo.buses))}\n")
    iterations_per_store = []
    store = powerflow._store

    def recording(flight, waiting, *args):
        iterations_per_store.append(len(waiting))
        return store(flight, waiting, *args)

    monkeypatch.setattr(powerflow, "_store", recording)
    run_sweep(ScenarioConfig(feeder=tmp_path / "feeder.txt", zones=tmp_path / "zones.txt",
                             penetration=0.6, trials=2, seed=5))
    assert len(reduce_calls) == len(iterations_per_store) > 2
    assert set(iterations_per_store) == {1}
