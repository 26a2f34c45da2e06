import math

import numpy as np
import pytest

from evfeeder.loads import (
    BaseLoadCurve,
    EvDistributions,
    EvSpec,
    FleetDataWarning,
    FleetFormatError,
    FleetSpec,
    charge_duration_slots,
    default_base_curve,
    load_base_curve,
    load_fleet,
    reactive_from_active,
    sample_fleet,
    sample_household_loads,
    save_base_curve,
    save_fleet,
    truncated_normal,
    truncated_normal_mean,
)
from evfeeder.scenario import default_curve_path, default_fleet_path
from evfeeder.slots import slot_of

CONSUMERS_57 = [(bus, ph) for bus in range(1, 20) for ph in "abc"]


# --- base curve --------------------------------------------------------------

def test_default_curve_shape():
    curve = default_base_curve()
    assert curve.p_base.shape == (96,)
    assert curve.peak_w == 2000.0
    assert curve.p_base.min() == pytest.approx(400.0)        # night valley
    assert curve.p_base[slot_of("03:00")] == pytest.approx(400.0)
    assert curve.p_base[slot_of("08:00")] == pytest.approx(1000.0)  # shoulder
    assert curve.p_base[slot_of("19:00")] == pytest.approx(2000.0)  # peak
    assert np.all(curve.p_base >= 0)


def test_default_curve_scales_with_peak():
    curve = default_base_curve(700.0)
    assert curve.peak_w == pytest.approx(700.0)
    assert np.allclose(curve.p_base, default_base_curve().p_base * 0.35)


def test_shipped_curve_file_matches_default_scaled():
    curve = load_base_curve(default_curve_path())
    assert np.array_equal(curve.p_base, default_base_curve(700.0).p_base)


def test_curve_file_round_trip(tmp_path):
    curve = default_base_curve(1234.0)
    save_base_curve(curve, tmp_path / "c.txt")
    again = load_base_curve(tmp_path / "c.txt")
    assert np.array_equal(curve.p_base, again.p_base)


def test_curve_validation():
    with pytest.raises(ValueError):
        BaseLoadCurve(np.ones(95))
    with pytest.raises(ValueError):
        BaseLoadCurve(np.full(96, -1.0))
    for bad in (np.nan, np.inf):
        values = np.ones(96)
        values[5] = bad
        with pytest.raises(ValueError, match="finite"):
            BaseLoadCurve(values)


# --- household sampling ------------------------------------------------------

def test_zero_sigma_reproduces_curve():
    curve = default_base_curve()
    loads = sample_household_loads(curve, CONSUMERS_57, sigma_fraction=0.0, seed=3)
    for h in loads:
        assert np.array_equal(h.p, curve.p_base)


def test_reactive_power_ratio():
    q = reactive_from_active(1000.0, 0.91)
    assert q == pytest.approx(455.6, abs=0.1)
    assert reactive_from_active(1000.0, 0.91, leading=True) == pytest.approx(-q)
    assert reactive_from_active(500.0, 1.0) == pytest.approx(0.0)


def test_household_mean_at_peak_slot():
    # statistical oracle: the sample mean over many draws approaches the
    # curve value within three standard errors
    curve = default_base_curve()  # peak 2000 W
    consumers = [(1, "a")] * 10_000
    loads = sample_household_loads(curve, consumers, sigma_fraction=0.20, seed=11)
    peak_slot = int(np.argmax(curve.p_base))
    draws = np.array([h.p[peak_slot] for h in loads])
    se = 0.20 * 2000.0 / math.sqrt(len(draws))
    assert abs(draws.mean() - 2000.0) < 3 * se
    assert np.all(draws >= 0)


def test_household_sampling_deterministic():
    curve = default_base_curve()
    a = sample_household_loads(curve, CONSUMERS_57, seed=42)
    b = sample_household_loads(curve, CONSUMERS_57, seed=42)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha.p, hb.p)
        assert np.array_equal(ha.q, hb.q)
    c = sample_household_loads(curve, CONSUMERS_57, seed=43)
    assert not np.array_equal(a[0].p, c[0].p)


# --- EV sampling -------------------------------------------------------------

def test_fleet_count_matches_penetration():
    fleet = sample_fleet(CONSUMERS_57, penetration=0.60, seed=5)
    assert len(fleet.vehicles) == 34  # floor(0.6 * 57)


def test_zero_penetration_gives_empty_fleet():
    fleet = sample_fleet(CONSUMERS_57, penetration=0.0, seed=5)
    assert fleet.vehicles == ()


def test_sampled_capacity_moments():
    rng = np.random.default_rng(2)
    n = 100_000
    caps = rng.uniform(6.0, 30.0, n)  # oracle draw of the same distribution
    dist = EvDistributions()
    assert dist.capacity_range_kwh == (6.0, 30.0)
    se = 6.93 / math.sqrt(n)
    assert abs(caps.mean() - 18.0) < 3 * se
    # and bounds hold through the public API
    consumers = [(b, p) for b in range(1, 68) for p in "abc"][:200]
    fleet = sample_fleet(consumers, penetration=1.0, seed=9)
    got = np.array([ev.capacity_kwh for ev in fleet.vehicles])
    assert np.all((got >= 6.0) & (got <= 30.0))


def test_truncated_normal_bounds_and_mean():
    rng = np.random.default_rng(8)
    n = 100_000
    for mean, sd, lo, hi, frozen_mean in (
        (19.0, 2.0, 16.0, 25.0, 19.2685),   # arrival hours
        (7.0, 2.0, 5.0, 12.0, 7.5375),      # departure hours
        (0.75, 0.25, 0.25, 0.95, 0.67301),  # initial SOC
    ):
        draws = truncated_normal(rng, mean, sd, lo, hi, n)
        assert np.all((draws >= lo) & (draws <= hi))
        theory = truncated_normal_mean(mean, sd, lo, hi)
        assert theory == pytest.approx(frozen_mean, abs=1e-3)
        assert abs(draws.mean() - theory) < 3 * draws.std() / math.sqrt(n)


def test_sampled_fleet_fields_within_bounds_many_seeds():
    dist = EvDistributions()
    for seed in range(20):
        fleet = sample_fleet(CONSUMERS_57, penetration=0.6, seed=seed)
        assert len(fleet.vehicles) == 34
        for ev in fleet.vehicles:
            assert 6.0 <= ev.capacity_kwh <= 30.0
            assert 0.25 <= ev.initial_soc <= 0.95
            # arrival wraps midnight: 16:00..24:00 or 00:00..01:00
            assert ev.arrival >= slot_of("16:00") or ev.arrival <= slot_of("01:00")
            assert slot_of("05:00") <= ev.departure <= slot_of("12:00")


def test_sample_fleet_deterministic():
    a = sample_fleet(CONSUMERS_57, penetration=0.6, seed=77)
    b = sample_fleet(CONSUMERS_57, penetration=0.6, seed=77)
    assert a == b
    c = sample_fleet(CONSUMERS_57, penetration=0.6, seed=78)
    assert a != c


def test_one_vehicle_per_consumer():
    fleet = sample_fleet(CONSUMERS_57, penetration=1.0, seed=0)
    spots = {(ev.bus, ev.phase) for ev in fleet.vehicles}
    assert len(spots) == len(fleet.vehicles) == 57


# --- fleet file --------------------------------------------------------------

def test_shipped_fleet_has_34_vehicles():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    assert len(fleet.vehicles) == 34
    assert fleet.charge_power_w == 3500.0


def test_shipped_fleet_first_row():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    ev = fleet.vehicles[0]
    assert (ev.bus, ev.phase) == (1, "a")
    assert ev.capacity_kwh == 26.0
    assert ev.arrival == slot_of("17:00")
    assert ev.departure == slot_of("05:30")
    assert ev.initial_soc == pytest.approx(0.65)


def test_low_soc_rows_warn_but_load(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("7 b 28 16:00 08:30 5\n")
    with pytest.warns(FleetDataWarning, match="initial SOC 5%"):
        fleet = load_fleet(path)
    assert fleet.vehicles[0].initial_soc == pytest.approx(0.05)


def test_empty_fleet_file(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("# nothing here\n")
    assert load_fleet(path).vehicles == ()


def test_duplicate_spot_rejected(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("1 a 20 17:00 05:00 50\n1 a 10 18:00 06:00 50\n")
    with pytest.raises(FleetFormatError, match="two vehicles"):
        load_fleet(path)


def test_malformed_fleet_row(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("1 a 20 17:00\n")
    with pytest.raises(FleetFormatError, match=":1:"):
        load_fleet(path)


@pytest.mark.parametrize("capacity", ["nan", "inf"])
def test_non_finite_capacity_rejected_with_line_number(tmp_path, capacity):
    path = tmp_path / "fleet.txt"
    path.write_text(f"1 a 20 17:00 05:00 50\n2 b {capacity} 17:00 05:00 50\n")
    with pytest.raises(FleetFormatError, match=rf":2: capacity {capacity} kWh must be positive and finite"):
        load_fleet(path)


def test_fleet_round_trip(tmp_path):
    import warnings

    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    save_fleet(fleet, tmp_path / "f.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        again = load_fleet(tmp_path / "f.txt")
    assert again == fleet


# --- charge duration ---------------------------------------------------------

def test_charge_duration_examples():
    ev = EvSpec(bus=1, phase="a", capacity_kwh=26, arrival=68, departure=22, initial_soc=0.65)
    assert charge_duration_slots(ev, 3500.0) == 9  # 2.22857 h rounds up
    ev = EvSpec(bus=2, phase="a", capacity_kwh=30, arrival=72, departure=31, initial_soc=0.17)
    assert charge_duration_slots(ev, 3500.0) == 27  # 6.68571 h
    ev = EvSpec(bus=2, phase="b", capacity_kwh=8, arrival=66, departure=38, initial_soc=0.14)
    assert charge_duration_slots(ev, 3500.0) == 8  # 1.85143 h
    full = EvSpec(bus=3, phase="c", capacity_kwh=20, arrival=70, departure=30, initial_soc=0.95)
    assert charge_duration_slots(full, 3500.0) == 0


def test_charge_duration_exact_slot_boundary():
    # 25 kWh * 0.35 / 3.5 kW = 2.5 h exactly: ten slots, not eleven
    ev = EvSpec(bus=4, phase="c", capacity_kwh=25, arrival=80, departure=47, initial_soc=0.60)
    assert charge_duration_slots(ev, 3500.0) == 10


def test_shipped_fleet_durations():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    durations = {(ev.bus, ev.phase): charge_duration_slots(ev) for ev in fleet.vehicles}
    expected = {
        (1, "a"): 9, (1, "b"): 7, (2, "a"): 27, (2, "b"): 8, (3, "b"): 11,
        (3, "c"): 3, (4, "a"): 11, (4, "c"): 10, (5, "a"): 20, (5, "c"): 5,
        (6, "c"): 9, (7, "a"): 9, (7, "b"): 29, (7, "c"): 8, (8, "b"): 5,
        (8, "c"): 8, (9, "a"): 19, (9, "b"): 9, (9, "c"): 16, (10, "b"): 19,
        (11, "a"): 12, (12, "a"): 6, (12, "c"): 4, (13, "a"): 3, (13, "c"): 10,
        (14, "c"): 14, (15, "a"): 7, (15, "b"): 8, (16, "c"): 7, (17, "a"): 12,
        (17, "b"): 10, (18, "a"): 6, (18, "b"): 2, (19, "c"): 9,
    }
    assert durations == expected


def test_charge_duration_monotonic():
    def dur(cap, soc):
        ev = EvSpec(bus=1, phase="a", capacity_kwh=cap, arrival=0, departure=40,
                    initial_soc=soc)
        return charge_duration_slots(ev)

    socs = np.linspace(0.0, 0.95, 25)
    durs = [dur(20.0, s) for s in socs]
    assert all(a >= b for a, b in zip(durs, durs[1:]))  # nonincreasing in SOC
    caps = np.linspace(5.0, 30.0, 25)
    durs = [dur(c, 0.4) for c in caps]
    assert all(a <= b for a, b in zip(durs, durs[1:]))  # nondecreasing in capacity


def test_charge_energy_surplus_under_one_slot():
    rng = np.random.default_rng(4)
    for _ in range(300):
        cap = rng.uniform(6, 30)
        soc = rng.uniform(0.0, 0.95)
        ev = EvSpec(bus=1, phase="a", capacity_kwh=cap, arrival=0, departure=40,
                    initial_soc=soc)
        slots = charge_duration_slots(ev, 3500.0)
        delivered = slots * 0.25 * 3.5
        needed = cap * (0.95 - soc)
        assert delivered - needed > -1e-9
        assert delivered - needed < 0.875


def test_ev_spec_validation():
    with pytest.raises(ValueError):
        EvSpec(bus=1, phase="d", capacity_kwh=10, arrival=0, departure=1, initial_soc=0.5)
    with pytest.raises(ValueError):
        EvSpec(bus=1, phase="a", capacity_kwh=-1, arrival=0, departure=1, initial_soc=0.5)
    with pytest.raises(ValueError, match="finite"):
        EvSpec(bus=1, phase="a", capacity_kwh=math.inf, arrival=0, departure=1, initial_soc=0.5)
    with pytest.raises(ValueError):
        EvSpec(bus=1, phase="a", capacity_kwh=10, arrival=5, departure=5, initial_soc=0.5)
    with pytest.raises(ValueError):
        EvSpec(bus=1, phase="a", capacity_kwh=10, arrival=0, departure=1, initial_soc=0.97)
    with pytest.raises(ValueError):
        FleetSpec(vehicles=(), charge_power_w=0.0)
