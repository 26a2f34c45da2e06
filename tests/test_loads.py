import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from evfeeder import loads
from evfeeder.loads import (
    BaseLoadCurve,
    FleetDataWarning,
    FleetFormatError,
    FleetSpec,
    charge_duration_slots,
    load_base_curve,
    load_fleet,
    reactive_from_active,
    sample_fleet,
    sample_household_loads,
    save_fleet,
    truncated_normal,
)
from evfeeder.network import load_topology
from evfeeder.scenario import (
    consumers_of,
    default_curve_path,
    default_feeder_path,
    default_fleet_path,
    household_frame,
)
from evfeeder.slots import slot_of

CONSUMERS_57 = [(bus, ph) for bus in range(1, 20) for ph in "abc"]
FLEET_COLUMNS = ("bus", "phase", "capacity_kwh", "arrival", "departure", "initial_soc")
SHIPPED_CURVE = load_base_curve(default_curve_path())  # peak 700 W


def columns_of(fleet):
    return tuple(getattr(fleet, name).tobytes() for name in FLEET_COLUMNS)


# --- base curve --------------------------------------------------------------

def test_shipped_curve_shape():
    p = SHIPPED_CURVE.p_base
    assert p.shape == (96,)
    assert p.min() == p[slot_of("03:00")] == 140.0  # night valley
    assert p[slot_of("08:00")] == 350.0  # morning shoulder
    assert p.max() == p[slot_of("19:00")] == 700.0  # evening peak


def truncated_normal_mean(mean: float, sd: float, low: float, high: float) -> float:
    """Exact mean of the truncated normal, for statistical oracles."""
    a = (low - mean) / sd
    b = (high - mean) / sd
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    return mean + sd * (phi(a) - phi(b)) / (cdf(b) - cdf(a))


def save_base_curve(curve: BaseLoadCurve, path) -> None:
    Path(path).write_text("".join(f"{float(v)!r}\n" for v in curve.p_base))


def test_curve_file_round_trip(tmp_path):
    curve = BaseLoadCurve(SHIPPED_CURVE.p_base * 1234.0 / 700.0)
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


def test_non_numeric_curve_value_names_its_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# watts\n" + "500.0\n" * 10 + "lots\n" + "500.0\n" * 85)
    with pytest.raises(ValueError) as err:
        load_base_curve(path)
    assert str(err.value) == f"{path}:12: bad curve value 'lots'"


# --- household sampling ------------------------------------------------------

def test_zero_sigma_reproduces_curve():
    curve = SHIPPED_CURVE
    households = sample_household_loads(curve, CONSUMERS_57, sigma_fraction=0.0, seed=3)
    assert households.p.shape == (57, 96)
    for p in households.p:
        assert np.array_equal(p, curve.p_base)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma_fraction"):
        sample_household_loads(SHIPPED_CURVE, CONSUMERS_57, sigma_fraction=sigma)


def test_reactive_power_ratio():
    q = reactive_from_active(1000.0, 0.91)
    assert q == pytest.approx(455.6, abs=0.1)
    assert reactive_from_active(1000.0, 0.91, leading=True) == pytest.approx(-q)
    assert reactive_from_active(500.0, 1.0) == pytest.approx(0.0)


@pytest.mark.parametrize("power_factor", [0.0, 1.5])
def test_bad_power_factor_rejected(power_factor):
    with pytest.raises(ValueError, match=r"^power factor must be in \(0, 1\]$"):
        reactive_from_active(1000.0, power_factor)


def test_consumer_on_unknown_phase_rejected():
    with pytest.raises(ValueError, match=r"^unknown phase 'x'$"):
        sample_household_loads(SHIPPED_CURVE, CONSUMERS_57 + [(20, "x")])


def test_household_mean_at_peak_slot():
    # statistical oracle: the sample mean over many draws approaches the
    # curve value within three standard errors
    curve = SHIPPED_CURVE  # peak 700 W
    consumers = [(1, "a")] * 10_000
    households = sample_household_loads(curve, consumers, sigma_fraction=0.20, seed=11)
    peak_slot = int(np.argmax(curve.p_base))
    draws = households.p[:, peak_slot]
    se = 0.20 * 700.0 / math.sqrt(len(draws))
    assert abs(draws.mean() - 700.0) < 3 * se
    assert np.all(draws >= 0)


def test_household_sampling_deterministic():
    curve = SHIPPED_CURVE
    a = sample_household_loads(curve, CONSUMERS_57, seed=42)
    b = sample_household_loads(curve, CONSUMERS_57, seed=42)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.q, b.q)
    c = sample_household_loads(curve, CONSUMERS_57, seed=43)
    assert not np.array_equal(a.p[0], c.p[0])


def reference_households(curve, consumers, sigma, leading, seed, n_buses):
    """One 96-value draw and one frame add per consumer in turn: the loop the
    whole-array sampler and frame replace. Returns (p, q, frame)."""
    rng = np.random.default_rng(seed)
    base = curve.p_base
    frame = np.zeros((96, n_buses, 3), dtype=complex)
    p_rows, q_rows = [], []
    for bus, phase in consumers:
        p = np.maximum(base + sigma * base * rng.standard_normal(96), 0.0)
        q = reactive_from_active(p, leading=leading)
        frame[:, bus - 1, "abc".index(phase)] += p + 1j * q
        p_rows.append(p)
        q_rows.append(q)
    return np.array(p_rows), np.array(q_rows), frame


# zero-demand slots give p = 0, so a leading pf draws q = -0.0
ZERO_NIGHT_CURVE = BaseLoadCurve(np.where(np.arange(96) < 8, 0.0, SHIPPED_CURVE.p_base))


@pytest.mark.parametrize("leading", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_household_sampling_matches_per_consumer_loop_with_repeated_consumers(sigma, leading):
    # two consumers repeat a (bus, phase); each keeps its own draw
    consumers = CONSUMERS_57 + [(5, "b"), (1, "a")]
    households = sample_household_loads(ZERO_NIGHT_CURVE, consumers, sigma, seed=7, leading=leading)
    p, q, _ = reference_households(ZERO_NIGHT_CURVE, consumers, sigma, leading, 7, 19)
    assert households.consumers == consumers
    assert households.p.tobytes() == p.tobytes()
    assert households.q.tobytes() == q.tobytes()


@pytest.mark.parametrize("leading", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_household_sampling_and_frame_match_per_consumer_loop(sigma, leading):
    topo = load_topology(default_feeder_path())
    consumers = consumers_of(topo)
    households = sample_household_loads(ZERO_NIGHT_CURVE, consumers, sigma, seed=7, leading=leading)
    p, q, frame = reference_households(ZERO_NIGHT_CURVE, consumers, sigma, leading, 7, topo.n_buses)
    assert households.p.tobytes() == p.tobytes()
    assert households.q.tobytes() == q.tobytes()
    assert household_frame(households, topo).tobytes() == frame.tobytes()


def test_household_frame_needs_the_canonical_consumers():
    topo = load_topology(default_feeder_path())
    curve = SHIPPED_CURVE
    canonical = consumers_of(topo)
    for consumers in (canonical[:-1], canonical[3:] + canonical[:3], canonical + [(1, "a")]):
        households = sample_household_loads(curve, consumers, seed=1)
        with pytest.raises(ValueError, match="one consumer per bus and phase"):
            household_frame(households, topo)


# --- EV sampling -------------------------------------------------------------

def test_fleet_count_matches_penetration():
    fleet = sample_fleet(19, penetration=0.60, seed=5)
    assert fleet.bus.size == 34  # floor(0.6 * 57)


def test_zero_penetration_gives_empty_fleet():
    fleet = sample_fleet(19, penetration=0.0, seed=5)
    assert all(getattr(fleet, name).size == 0 for name in FLEET_COLUMNS)


def test_sampled_capacity_moments():
    rng = np.random.default_rng(2)
    n = 100_000
    caps = rng.uniform(6.0, 30.0, n)  # oracle draw of the same distribution
    assert loads.CAPACITY_KWH == (6.0, 30.0)
    se = 6.93 / math.sqrt(n)
    assert abs(caps.mean() - 18.0) < 3 * se
    # and bounds hold through the public API
    fleet = sample_fleet(67, penetration=1.0, seed=9)
    got = fleet.capacity_kwh
    assert got.size == 201
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


def test_truncated_normal_rejects_empty_interval():
    with pytest.raises(ValueError, match="^low > high$"):
        truncated_normal(np.random.default_rng(0), 0.0, 1.0, 2.0, 1.0, 5)


@pytest.mark.parametrize("penetration", [-0.1, 1.5, math.nan])
def test_bad_penetration_rejected(penetration):
    with pytest.raises(ValueError, match=r"^penetration must be in \[0, 1\]$"):
        sample_fleet(19, penetration)


def test_sampled_fleet_fields_within_bounds_many_seeds():
    assert (loads.ARRIVAL_H, loads.DEPARTURE_H, loads.INITIAL_SOC) == (
        (19.0, 2.0, 16.0, 25.0), (7.0, 2.0, 5.0, 12.0), (0.75, 0.25, 0.25, 0.95))
    for seed in range(20):
        fleet = sample_fleet(19, penetration=0.6, seed=seed)
        assert fleet.bus.size == 34
        assert np.all((6.0 <= fleet.capacity_kwh) & (fleet.capacity_kwh <= 30.0))
        assert np.all((0.25 <= fleet.initial_soc) & (fleet.initial_soc <= 0.95))
        # arrival wraps midnight: 16:00..24:00 or 00:00..01:00
        assert np.all((fleet.arrival >= slot_of("16:00")) | (fleet.arrival <= slot_of("01:00")))
        assert np.all((slot_of("05:00") <= fleet.departure) & (fleet.departure <= slot_of("12:00")))


def test_sample_fleet_deterministic():
    a = sample_fleet(19, penetration=0.6, seed=77)
    b = sample_fleet(19, penetration=0.6, seed=77)
    assert columns_of(a) == columns_of(b)
    c = sample_fleet(19, penetration=0.6, seed=78)
    assert columns_of(a) != columns_of(c)


def test_one_vehicle_per_consumer():
    fleet = sample_fleet(19, penetration=1.0, seed=0)
    spots = set(zip(fleet.bus.tolist(), fleet.phase.tolist()))
    assert len(spots) == fleet.bus.size == 57


# --- fleet file --------------------------------------------------------------

def test_shipped_fleet_has_34_vehicles():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    assert fleet.bus.size == 34
    assert fleet.charge_power_w == 3500.0


def test_shipped_fleet_first_row():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    assert (fleet.bus[0], fleet.phase[0]) == (1, 0)
    assert fleet.capacity_kwh[0] == 26.0
    assert fleet.arrival[0] == slot_of("17:00")
    assert fleet.departure[0] == slot_of("05:30")
    assert fleet.initial_soc[0] == pytest.approx(0.65)


def test_low_soc_rows_warn_but_load(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("7 b 28 16:00 08:30 5\n")
    with pytest.warns(FleetDataWarning, match="initial SOC 5%"):
        fleet = load_fleet(path)
    assert fleet.initial_soc[0] == pytest.approx(0.05)


def test_shipped_fleet_warns_once_listing_every_row():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_fleet(default_fleet_path())
    fleet_warnings = [w for w in caught if issubclass(w.category, FleetDataWarning)]
    assert len(fleet_warnings) == 1
    message = str(fleet_warnings[0].message)
    for lineno, soc in ((5, 17), (6, 14), (15, 5), (18, 22), (23, 23)):
        assert f"line {lineno}: initial SOC {soc}%" in message


def test_empty_fleet_file(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("# nothing here\n")
    assert load_fleet(path).bus.size == 0


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
    assert columns_of(again) == columns_of(fleet)
    assert again.charge_power_w == fleet.charge_power_w


# --- charge duration ---------------------------------------------------------

def test_charge_duration_examples():
    assert charge_duration_slots(26, 0.65, 3500.0) == 9  # 2.22857 h rounds up
    assert charge_duration_slots(30, 0.17, 3500.0) == 27  # 6.68571 h
    assert charge_duration_slots(8, 0.14, 3500.0) == 8  # 1.85143 h
    assert charge_duration_slots(20, 0.95, 3500.0) == 0
    assert charge_duration_slots([26, 30, 8, 20], [0.65, 0.17, 0.14, 0.95]).tolist() == [9, 27, 8, 0]


@pytest.mark.parametrize("power_w", [0.0, -3500.0, math.nan, math.inf])
def test_charge_duration_needs_positive_finite_power(power_w):
    with pytest.raises(ValueError, match=rf"^charge power {power_w} W must be positive and finite$"):
        charge_duration_slots(10.0, 0.5, power_w)


def test_charge_duration_exact_slot_boundary():
    # 25 kWh * 0.35 / 3.5 kW = 2.5 h exactly: ten slots, not eleven
    assert charge_duration_slots(25, 0.60, 3500.0) == 10


def ref_duration_slots(capacity_kwh, initial_soc, charge_power_w):
    """Each value rounded to nine places with the built-in round(), then up:
    the reference for charge_duration_slots."""
    deficit = np.maximum(0.95 - np.asarray(initial_soc, dtype=float), 0.0)
    slots = np.multiply(capacity_kwh, deficit) / (charge_power_w / 1000.0) / 0.25
    return [math.ceil(round(x, 9)) for x in np.ravel(slots).tolist()]


def test_charge_duration_rounds_as_the_built_in_round_does():
    k = np.arange(97.0)
    offsets = (0.0, 1e-10, -1e-10, 5e-10, -5e-10, 9e-9, 2e-8, 0.5)
    near = np.concatenate([k + d for d in offsets])
    cap, soc = (grid.ravel() for grid in np.meshgrid(np.arange(1, 61) * 0.5, np.arange(20) * 0.05))
    for args in (
        (near * 0.25 * 3.5 / 0.95, 0.0, 3500.0),  # slots 1e-10 either side of whole numbers
        (cap, soc, 3500.0), (cap, soc, 7400.0), (cap, soc, 2300.0),  # exact multiples, with noise
    ):
        got = charge_duration_slots(*args)
        assert got.tolist() == ref_duration_slots(*args)
    slots = near * 0.25 * 3.5 / 0.95 * 0.95 / 3.5 / 0.25
    past = slots - np.round(slots)
    assert ((0 < past) & (past <= 1e-9)).any() and ((-1e-9 <= past) & (past < 0)).any()
    assert (past == 0).any()
    # where the built-in round() decides: just past a whole number, it holds
    capacity = np.array([1 + 1e-10, 1 + 2e-8]) * 0.25 * 3.5 / 0.95
    assert charge_duration_slots(capacity, 0.0).tolist() == [1, 2]


def test_shipped_fleet_durations():
    with pytest.warns(FleetDataWarning):
        fleet = load_fleet(default_fleet_path())
    spots = zip(fleet.bus.tolist(), ("abc"[p] for p in fleet.phase.tolist()))
    durations = dict(zip(spots, charge_duration_slots(fleet.capacity_kwh, fleet.initial_soc).tolist()))
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
    socs = np.linspace(0.0, 0.95, 25)
    durs = charge_duration_slots(np.full(25, 20.0), socs).tolist()
    assert all(a >= b for a, b in zip(durs, durs[1:]))  # nonincreasing in SOC
    caps = np.linspace(5.0, 30.0, 25)
    durs = charge_duration_slots(caps, np.full(25, 0.4)).tolist()
    assert all(a <= b for a, b in zip(durs, durs[1:]))  # nondecreasing in capacity


def test_charge_energy_surplus_under_one_slot():
    rng = np.random.default_rng(4)
    cap = rng.uniform(6, 30, 300)
    soc = rng.uniform(0.0, 0.95, 300)
    slots = charge_duration_slots(cap, soc, 3500.0)
    for one in range(300):  # whole arrays and single vehicles agree
        assert charge_duration_slots(cap[one], soc[one], 3500.0) == slots[one]
    delivered = slots * 0.25 * 3.5
    needed = cap * (0.95 - soc)
    assert np.all(delivered - needed > -1e-9)
    assert np.all(delivered - needed < 0.875)


def one_vehicle(phase=0, capacity_kwh=10.0, arrival=0, departure=1, initial_soc=0.5, **kw):
    return FleetSpec([1], [phase], [capacity_kwh], [arrival], [departure], [initial_soc], **kw)


def test_fleet_column_validation():
    with pytest.raises(ValueError, match="unknown phase"):
        one_vehicle(phase=3)
    with pytest.raises(ValueError, match="capacity"):
        one_vehicle(capacity_kwh=-1)
    with pytest.raises(ValueError, match="finite"):
        one_vehicle(capacity_kwh=math.inf)
    with pytest.raises(ValueError, match="coincide"):
        one_vehicle(arrival=5, departure=5)
    with pytest.raises(ValueError, match="slot indices"):
        one_vehicle(departure=96)
    with pytest.raises(ValueError, match="initial SOC"):
        one_vehicle(initial_soc=0.97)
    with pytest.raises(ValueError):
        one_vehicle(charge_power_w=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            one_vehicle(charge_power_w=bad)
    with pytest.raises(ValueError, match="one length"):
        FleetSpec([1, 2], [0], [10.0], [0], [1], [0.5])
    with pytest.raises(ValueError, match="read-only"):
        one_vehicle().capacity_kwh[0] = 20.0  # checked columns stay as checked
    # the first vehicle at fault, in fleet order, names its first fault
    with pytest.raises(ValueError, match=r"^capacity nan kWh must be positive and finite$"):
        FleetSpec([1, 2, 3], [0, 0, 3], [10.0, math.nan, 10.0], [0, 0, 0], [1, 0, 1], [0.5] * 3)
    with pytest.raises(ValueError, match=r"^two vehicles at bus 2 phase b$"):
        FleetSpec([2, 1, 2, 1], [1, 0, 1, 0], [10.0] * 4, [0] * 4, [1] * 4, [0.5] * 4)
    # spots compare as (bus, phase) pairs; 3 * bus + phase wraps to bus 1 phase a here
    FleetSpec([1, 6148914691236517206], [0, 1], [10.0] * 2, [0] * 2, [1] * 2, [0.5] * 2)


def test_fleet_load_checks_each_vehicle_once(monkeypatch):
    calls = []

    def counted(*columns):
        calls.append(len(columns[0]))
        return vehicle_fault(*columns)

    vehicle_fault = loads._vehicle_fault
    monkeypatch.setattr(loads, "_vehicle_fault", counted)
    with pytest.warns(FleetDataWarning):
        load_fleet(default_fleet_path())
    assert calls == [34]


def test_first_faulty_fleet_row_is_reported(tmp_path):
    path = tmp_path / "fleet.txt"
    path.write_text("1 a 20 17:00 05:00 50\n2 b 20 17:00 17:00 50\n3 d 20 17:00 05:00 50\n")
    with pytest.raises(FleetFormatError, match=r":2: arrival and departure coincide$"):
        load_fleet(path)
    path.write_text("1 a 20 17:00 05:00 50\n2 b 20 17:00 05:00 50\n3 d 20 17:00 05:00 50\n")
    with pytest.raises(FleetFormatError, match=r":3: unknown phase 'd'$"):
        load_fleet(path)
    path.write_text("1 a 20 17:00 05:00 50\n\n100000000000000000000 b 20 17:00 05:00 50\n")
    with pytest.raises(FleetFormatError, match=r":3: bus 100000000000000000000 is outside every feeder$"):
        load_fleet(path)
    # a repeated (bus, phase) is its row's fault, ahead of a later row's
    path.write_text("1 a 20 17:00 05:00 50\n1 a 10 18:00 06:00 50\n2 b 20 17:00 17:00 50\n")
    with pytest.raises(FleetFormatError, match=r":2: two vehicles at bus 1 phase a$"):
        load_fleet(path)
