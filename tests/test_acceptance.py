"""Acceptance gate: every shipped-configuration guarantee, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
import warnings

import numpy as np
import pytest

from evfeeder.charging import ev_power_frame
from evfeeder.loads import (
    ARRIVAL_H,
    CAPACITY_KWH,
    DEPARTURE_H,
    INITIAL_SOC,
    FleetDataWarning,
    charge_duration_slots,
    load_base_curve,
    load_fleet,
    sample_household_loads,
    truncated_normal,
)
from evfeeder.network import load_topology
from evfeeder.powerflow import (
    InfeasibleInjectionError,
    residuals,
    solve_direct,
    solve_sweep,
)
from evfeeder.scenario import (
    STRATEGIES,
    ScenarioConfig,
    build_schedule,
    consumers_of,
    default_feeder_path,
    default_fleet_path,
    household_frame,
    run_sweep,
    trial_seeds,
)
from evfeeder.slots import SLOTS_PER_DAY

from test_loads import truncated_normal_mean
from test_network import loads_topology
from test_powerflow import base_current, random_injections, random_radial

pytestmark = pytest.mark.filterwarnings("ignore::evfeeder.loads.FleetDataWarning")

SEED = 1  # the single published-configuration seed used throughout the gate


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def feeder19():
    return load_topology(default_feeder_path())


@pytest.fixture(scope="module")
def fleet34():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        return load_fleet(default_fleet_path())


@pytest.fixture(scope="module")
def scenario_b_states(feeder19, fleet34):
    """Uncontrolled charging over the full day at the shipped defaults."""
    cfg = ScenarioConfig(strategy="uncontrolled", seed=SEED).resolved()
    sd = trial_seeds(cfg.seed, 1)[0]
    households = sample_household_loads(
        load_base_curve(cfg.curve), consumers_of(feeder19), cfg.sigma_fraction,
        cfg.power_factor, seed=sd["household"], leading=cfg.leading_pf)
    demand = household_frame(households, feeder19) + ev_power_frame(
        build_schedule("uncontrolled", fleet34), feeder19
    )
    states = [solve_sweep(feeder19, demand[t]) for t in range(SLOTS_PER_DAY)]
    return states, demand


@pytest.fixture(scope="module")
def sweep_reports():
    return run_sweep(ScenarioConfig(seed=SEED))


def test_criterion_1_oracle_equivalence(feeder19):
    """Sweep and direct nodal solves agree on 500 random radial networks."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 500:
        topo = random_radial(rng)
        s = random_injections(rng, topo, p_max=5000.0)
        try:
            sweep = solve_sweep(topo, s, tolerance=1e-10 * topo.v_base, max_iterations=400)
        except InfeasibleInjectionError:
            continue
        if not sweep.converged:
            continue
        direct = solve_direct(topo, s, tolerance=1e-10 * topo.v_base, max_iterations=400)
        gap = float(np.max(np.abs(sweep.v - direct.v))) / topo.v_base
        worst = max(worst, gap)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 30.0
    _verdict(1, f"oracle equivalence ({checked} networks, worst {worst:.2e} pu, "
                f"{elapsed:.1f} s)", ok)
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_2_physics_residuals(feeder19, scenario_b_states):
    """KCL and slack power balance hold at every slot of scenario B."""
    states, demand = scenario_b_states
    i_base = base_current(feeder19)
    worst_kcl = 0.0
    worst_balance = 0.0
    for t, st in enumerate(states):
        assert st.converged, f"slot {t} did not converge"
        kcl, p_err, q_err = residuals(st, feeder19, demand[t])
        worst_kcl = max(worst_kcl, kcl)
        worst_balance = max(worst_balance, p_err, q_err)
    ok = worst_kcl < 1e-9 * i_base and worst_balance < 1e-6
    _verdict(2, f"physics residuals (kcl {worst_kcl:.2e} A, "
                f"balance {worst_balance:.2e})", ok)
    assert worst_kcl < 1e-9 * i_base
    assert worst_balance < 1e-6


def test_criterion_3_balanced_symmetry(feeder19):
    """Balanced loading leaves the neutral silent on every line and bus."""
    worst_vn = 0.0
    worst_in = 0.0
    variants = [feeder19]
    # the symmetry cannot depend on the neutral impedance; check z_n = z_ph too
    text = default_feeder_path().read_text().replace("neutral_scale 0.02",
                                                     "neutral_scale 1.0")
    variants.append(loads_topology(text))
    for topo in variants:
        i_base = base_current(topo)
        for level in (400.0, 1100.0, 2000.0):
            s = np.full((topo.n_buses, 3), level * (1 + 0.4556j), dtype=complex)
            st = solve_sweep(topo, s)
            assert st.converged
            worst_vn = max(worst_vn, float(np.max(np.abs(st.v[:, 3]))) / topo.v_base)
            worst_in = max(worst_in, float(np.max(np.abs(st.i_line[:, 3]))) / i_base)
    ok = worst_vn < 1e-10 and worst_in < 1e-10
    _verdict(3, f"balanced symmetry (|Vn| {worst_vn:.1e} pu, |In| {worst_in:.1e} pu)", ok)
    assert worst_vn < 1e-10
    assert worst_in < 1e-10


def test_criterion_4_charge_energy_and_departures(fleet34):
    """All 34 vehicles hit the 95% target with < 0.875 kWh surplus and the
    semi-smart window of each ends exactly at its listed departure."""
    sched = build_schedule("semismart", fleet34)
    assert sched.n_slots.size == 34
    slots = charge_duration_slots(
        fleet34.capacity_kwh, fleet34.initial_soc, fleet34.charge_power_w
    )
    assert np.array_equal(sched.n_slots, slots)
    delivered = slots * 0.25 * fleet34.charge_power_w / 1000.0
    needed = fleet34.capacity_kwh * (0.95 - fleet34.initial_soc)
    surplus = delivered - needed
    short = np.flatnonzero(surplus <= -1e-9)
    assert not short.size, [(fleet34.bus[k], fleet34.phase[k]) for k in short]
    worst_surplus = max(0.0, float(surplus.max()))
    late = np.flatnonzero((sched.start + sched.n_slots) % SLOTS_PER_DAY != fleet34.departure)
    assert not late.size, [(fleet34.bus[k], fleet34.phase[k]) for k in late]
    ok = worst_surplus < 0.875
    _verdict(4, f"charge energy and departures (max surplus {worst_surplus:.3f} kWh)", ok)
    assert worst_surplus < 0.875


def test_criterion_5_loss_ordering(sweep_reports):
    """Wasted energy orders uncontrolled > timer > zoned > semi-smart >
    baseline, and semi-smart saves at least 5% against uncontrolled."""
    losses = {s: r.total_loss_kwh for s, r in sweep_reports.items()}
    ordered = (losses["uncontrolled"] > losses["timer"] > losses["zoned"]
               > losses["semismart"] > losses["baseline"])
    reduction = 100.0 * (losses["uncontrolled"] - losses["semismart"]) / losses["uncontrolled"]
    ok = ordered and reduction >= 5.0
    chain = " > ".join(f"{losses[s]:.2f}" for s in
                       ("uncontrolled", "timer", "zoned", "semismart", "baseline"))
    _verdict(5, f"loss ordering ({chain} kWh, semi-smart -{reduction:.1f}%)", ok)
    assert ordered
    assert reduction >= 5.0


def test_criterion_6_voltage_ordering(sweep_reports):
    """The global timer digs the deepest voltage sag; semi-smart the least."""
    minima = {s: r.min_voltage["overall"].value_pu for s, r in sweep_reports.items()}
    ev_scenarios = [s for s in STRATEGIES if s != "baseline"]
    lowest = min(ev_scenarios, key=lambda s: minima[s])
    highest = max(ev_scenarios, key=lambda s: minima[s])
    ok = lowest == "timer" and highest == "semismart"
    listing = ", ".join(f"{s} {minima[s]:.4f}" for s in ev_scenarios)
    _verdict(6, f"voltage ordering ({listing})", ok)
    assert lowest == "timer"
    assert highest == "semismart"


def test_criterion_7_monte_carlo_sanity():
    """100 000 draws per fleet parameter stay in bounds and match the means.

    For the truncated normals the reference is the truncated distribution's
    exact mean; for the uniform capacity it is the stated 18 kWh.
    """
    rng = np.random.default_rng(99)
    n = 100_000
    results = []

    caps = rng.uniform(*CAPACITY_KWH, n)
    results.append(("capacity", caps, CAPACITY_KWH, 18.0))
    for name, params in (("arrival", ARRIVAL_H), ("departure", DEPARTURE_H), ("soc", INITIAL_SOC)):
        draws = truncated_normal(rng, *params, size=n)
        results.append((name, draws, params[2:], truncated_normal_mean(*params)))

    ok = True
    details = []
    for name, draws, (lo, hi), expected in results:
        in_bounds = bool(np.all((draws >= lo) & (draws <= hi)))
        se = draws.std() / math.sqrt(n)
        mean_ok = abs(draws.mean() - expected) < 3 * se
        ok = ok and in_bounds and mean_ok
        details.append(f"{name} {draws.mean():.3f}~{expected:.3f}")
        assert in_bounds, name
        assert mean_ok, (name, draws.mean(), expected, se)
    _verdict(7, f"monte carlo sanity ({', '.join(details)})", ok)


def test_criterion_8_determinism(tmp_path):
    """Two sweeps with the same configuration emit byte-identical CSVs."""
    run_sweep(ScenarioConfig(seed=SEED, out_dir=tmp_path / "first"))
    run_sweep(ScenarioConfig(seed=SEED, out_dir=tmp_path / "second"))
    csvs = [f"{s}/{name}" for s in STRATEGIES
            for name in ("voltages.csv", "currents.csv", "losses.csv")]
    csvs.append("comparison.csv")
    identical = all(
        (tmp_path / "first" / rel).read_bytes() == (tmp_path / "second" / rel).read_bytes()
        for rel in csvs
    )
    _verdict(8, f"determinism ({len(csvs)} CSV files byte-identical)", identical)
    assert identical
