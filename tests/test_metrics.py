import numpy as np
import pytest

from evfeeder.metrics import (
    ReducedRows, compare_scenarios, format_comparison, reduce_horizon, row_sink,
)
from evfeeder.network import LineSegment, NetworkTopology, load_topology
from evfeeder.powerflow import HorizonState, NetworkState, slack_voltages, solve_stream
from evfeeder.scenario import default_feeder_path, solve_horizon

TANPHI = np.tan(np.arccos(0.91))
SLOTS = np.arange(96)
ONE_DAY = {"": SLOTS}


def two_bus(z_ph=0.1 + 0j, z_n=None):
    z_n = z_ph if z_n is None else z_n
    return NetworkTopology(lines=(LineSegment(1, 2, z_ph, z_n),))


def synthetic_state(topology, i_line=None, v=None):
    n, m = topology.n_buses, len(topology.lines)
    return NetworkState(
        v=np.tile(slack_voltages(topology), (n, 1)) if v is None else v,
        i_line=np.zeros((m, 4), complex) if i_line is None else i_line,
        i_load=np.zeros((n, 3), complex),
        converged=True,
        iterations=1,
        max_dv=0.0,
    )


def stacked(states):
    """The HorizonState of a list of per-slot states."""
    return HorizonState(
        *(np.stack([getattr(st, f) for st in states]) for f in ("v", "i_line", "i_load")),
        iterations=np.array([st.iterations for st in states]),
        max_dv=np.array([st.max_dv for st in states]),
        converged=np.array([st.converged for st in states]),
        collapsed=np.zeros(len(states), bool),
        collapse_at=np.zeros(len(states), int),
        collapse_v=np.zeros(len(states)),
    )


def reduce_rows(day, topology):
    """Every row of a solved batch, reduced in one call of row_sink's reduce
    (a collapsed row from its unsolved currents)."""
    rows = ReducedRows.zeros(len(day), topology)
    for name, value in row_sink(topology)[1](dict(vars(day))).items():
        getattr(rows, name)[:] = value
    return rows


def solve_day(topology, demand):
    return solve_horizon(topology, solve_stream(topology, [demand]), ONE_DAY)


def reduce_solved(topology, demand):
    return reduce_horizon("test", reduce_rows(solve_day(topology, demand), topology), SLOTS)


def reduce_synthetic(topology, states):
    rows = reduce_rows(stacked(states), topology)
    return reduce_horizon("synthetic", rows, np.arange(len(states)))


def test_zero_load_day():
    topo = two_bus()
    report = reduce_synthetic(topo, [synthetic_state(topo) for _ in range(96)])
    assert report.total_loss_kwh == 0.0
    assert report.min_voltage["overall"].value_pu == pytest.approx(1.0)
    assert report.max_neutral.value_pu == 0.0


def test_hand_computed_loss():
    # one line with 0.1 ohm on phase and neutral; 10 A on phase a returning
    # on the neutral for four slots = 1 h: 2 * (10^2 * 0.1) W * 1 h
    topo = two_bus(z_ph=0.1 + 0j)
    states = []
    for t in range(96):
        i_line = np.zeros((1, 4), complex)
        if t < 4:
            i_line[0, 0] = 10.0
            i_line[0, 3] = -10.0
        states.append(synthetic_state(topo, i_line=i_line))
    report = reduce_synthetic(topo, states)
    assert report.total_loss_kwh == pytest.approx(0.02)
    assert report.loss_kw[:4] == pytest.approx([0.02] * 4)
    assert not report.loss_kw[4:].any()
    assert report.current_a[0, 0] == pytest.approx([10.0, 0.0, 0.0, 10.0])


def test_losses_refuse_non_converged():
    topo = two_bus()
    states = [synthetic_state(topo) for _ in range(96)]
    states[37].converged = False
    with pytest.raises(ValueError, match=r"\[37\]"):
        reduce_synthetic(topo, states)


def test_reduce_refuses_a_partial_day():
    topo = two_bus()
    with pytest.raises(ValueError, match="expected 96 states, got 95"):
        reduce_synthetic(topo, [synthetic_state(topo) for _ in range(95)])


def test_worst_bus_is_the_weak_leaf():
    feeder = load_topology(default_feeder_path())
    demand = np.zeros((96, 19, 3), complex)
    demand[:, 9, 1] = 2000.0 * (1 + 1j * TANPHI)  # only bus 10 loaded
    report = reduce_solved(feeder, demand)
    minima, at_worst = report.min_voltage, report.phase_minima_at_worst_bus
    assert minima["overall"].bus == 10
    assert minima["b"].bus == 10
    assert minima["b"].value_pu < 1.0
    assert set(at_worst) == {"a", "b", "c"}
    assert at_worst["b"] == pytest.approx(minima["b"].value_pu)


def test_extremes_match_the_solved_states():
    feeder = load_topology(default_feeder_path())
    demand = np.zeros((96, 19, 3), complex)
    demand[:, :, 0] = 800.0
    demand[30:50, 14, 2] += 2500.0
    states = solve_day(feeder, demand)
    report = reduce_horizon("test", reduce_rows(states, feeder), SLOTS)
    phase = np.stack([st.phase_voltage_pu(feeder.v_base) for st in states])
    neutral = np.stack([st.neutral_voltage_pu(feeder.v_base) for st in states])
    for i, ph in enumerate("abc"):
        e = report.min_voltage[ph]
        assert e.value_pu == phase[:, :, i].min() == phase[e.slot, e.bus - 1, i]
    assert report.min_voltage["overall"].value_pu == phase.min()
    e = report.max_neutral
    assert e.value_pu == neutral.max() == neutral[e.slot, e.bus - 1]


def test_summary_only_report_matches_the_gathered_day():
    # a trial's rows through an index with repeats: tied extremes in two
    # slots are located at the first, as on the gathered (96, bus) arrays
    feeder = load_topology(default_feeder_path())
    demand = np.zeros((96, 19, 3), complex)
    demand[:, :, 1] = 600.0
    demand[::7, 9, :] += 1800.0
    rows = reduce_rows(solve_day(feeder, demand), feeder)
    slots = np.random.default_rng(3).integers(0, 96, 96)
    full = reduce_horizon("test", rows, slots)
    brief = reduce_horizon("test", rows, slots, arrays=False)
    assert brief.voltage_pu is None and brief.current_a is None
    assert brief.summary() == full.summary()
    day = rows.voltage_pu[slots]
    assert full.voltage_pu.tobytes() == day.tobytes()
    for key, (wire, arg) in {"a": (0, np.argmin), "b": (1, np.argmin),
                             "c": (2, np.argmin), "neutral": (3, np.argmax)}.items():
        t, b = divmod(int(arg(day[:, :, wire])), 19)
        e = full.max_neutral if key == "neutral" else full.min_voltage[key]
        assert (e.slot, e.bus, e.value_pu) == (t, b + 1, day[t, b, wire]), key
    assert len(set(slots.tolist())) < 96  # some rows are read by two slots


def test_neutral_voltage_positive_under_unbalance():
    topo = two_bus(z_ph=0.2 + 0.05j)  # z_n = z_ph: neutral drop visible
    demand = np.zeros((96, 2, 3), complex)
    demand[:, 1, 0] = 1500.0  # single phase only
    assert reduce_solved(topo, demand).max_neutral.value_pu > 1e-4


def test_neutral_voltage_zero_when_balanced():
    topo = two_bus(z_ph=0.2 + 0.05j)
    demand = np.zeros((96, 2, 3), complex)
    demand[:, 1, :] = 1200.0 + 300.0j
    assert reduce_solved(topo, demand).max_neutral.value_pu < 1e-10


def test_reduce_horizon_cross_checks():
    feeder = load_topology(default_feeder_path())
    demand = np.zeros((96, 19, 3), complex)
    demand[:, :, :] = 500.0 * (1 + 1j * TANPHI)
    demand[40:60, 9, 1] += 3000.0
    report = reduce_solved(feeder, demand)
    # slack energy accounts for delivered load plus series losses
    assert report.slack_energy_kwh == pytest.approx(
        report.load_energy_kwh + report.total_loss_kwh, rel=1e-9
    )
    assert report.total_loss_kwh > 0
    assert report.voltage_pu.shape == (96, 19, 4)
    assert report.current_a.shape == (96, 18, 4)
    assert report.min_voltage["overall"].value_pu <= report.min_voltage["a"].value_pu
    # adding load can only push the minimum voltage down and the losses up
    lighter = demand.copy()
    lighter[40:60, 9, 1] -= 3000.0
    light_report = reduce_solved(feeder, lighter)
    assert light_report.total_loss_kwh < report.total_loss_kwh
    assert light_report.min_voltage["overall"].value_pu >= report.min_voltage["overall"].value_pu


def test_compare_scenarios_reference_arithmetic():
    summaries = {
        "uncontrolled": {"total_loss_kwh": 287.249, "min_voltage_pu": {"overall": 0.8962}},
        "timer": {"total_loss_kwh": 271.949, "min_voltage_pu": {"overall": 0.8829}},
        "semismart": {"total_loss_kwh": 256.240, "min_voltage_pu": {"overall": 0.9121}},
    }
    table = compare_scenarios(summaries, baseline="uncontrolled")
    assert table["timer"]["loss_change_pct"] == pytest.approx(-5.3264, abs=1e-3)
    assert table["semismart"]["loss_change_pct"] == pytest.approx(-10.795, abs=1e-3)
    assert table["semismart"]["min_voltage_delta_pp"] == pytest.approx(1.59, abs=0.01)
    assert table["uncontrolled"]["loss_change_pct"] == 0.0


def test_compare_scenarios_identical_reports():
    summaries = {
        "x": {"total_loss_kwh": 10.0, "min_voltage_pu": {"overall": 0.9}},
        "y": {"total_loss_kwh": 10.0, "min_voltage_pu": {"overall": 0.9}},
    }
    table = compare_scenarios(summaries, baseline="x")
    assert table["y"]["loss_change_pct"] == 0.0
    assert table["y"]["min_voltage_delta_pp"] == 0.0


def test_compare_scenarios_missing_baseline():
    with pytest.raises(KeyError, match="baseline"):
        compare_scenarios({"a": {"total_loss_kwh": 1.0, "min_voltage_pu": {"overall": 1.0}}},
                          baseline="zzz")


def test_format_comparison_is_printable():
    summaries = {
        "uncontrolled": {"total_loss_kwh": 56.5, "min_voltage_pu": {"overall": 0.64}},
        "semismart": {"total_loss_kwh": 39.6, "min_voltage_pu": {"overall": 0.73}},
    }
    text = format_comparison(compare_scenarios(summaries, "uncontrolled"), "uncontrolled")
    assert "semismart" in text and "%" in text
