import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from evfeeder.charging import (
    ChargeSchedule,
    ScheduleWarning,
    SchedulingError,
    ZonePlan,
    ev_power_frame,
    load_zone_plan,
    schedule_semi_smart,
    schedule_timer,
    schedule_uncontrolled,
    schedule_zoned,
)
from evfeeder.loads import (
    ARRIVAL_H,
    CAPACITY_KWH,
    DEPARTURE_H,
    INITIAL_SOC,
    FleetDataWarning,
    FleetSpec,
    charge_duration_slots,
    load_fleet,
    sample_fleet,
    truncated_normal,
)
from evfeeder.network import PHASES, load_topology
from evfeeder.scenario import (
    consumers_of,
    default_feeder_path,
    default_fleet_path,
    default_zones_path,
)
from evfeeder.slots import slot_of, time_of

from test_powerflow import random_radial
from test_slots import window_slots


@pytest.fixture(scope="module")
def fleet34():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        return load_fleet(default_fleet_path())


@pytest.fixture(scope="module")
def zones3():
    return load_zone_plan(default_zones_path())


def by_spot(schedule):
    """Each vehicle's (start, n_slots, end) window by (bus, phase letter)."""
    end = (schedule.start + schedule.n_slots) % 96
    return {
        (bus, PHASES[phase]): (start, n, stop)
        for bus, phase, start, n, stop in zip(
            schedule.bus.tolist(), schedule.phase.tolist(), schedule.start.tolist(),
            schedule.n_slots.tolist(), end.tolist(),
        )
    }


def windows_of(schedule):
    """(bus, phase letter, start, n_slots) per vehicle, in fleet order."""
    return [(bus, phase, start, n) for (bus, phase), (start, n, _) in by_spot(schedule).items()]


def ends(schedule):
    return (schedule.start + schedule.n_slots) % 96


def ev(bus=1, phase="a", cap=26.0, arrival="17:00", departure="05:30", soc=0.65):
    """One vehicle's row: (bus, phase letter, capacity, arrival slot, departure slot, SOC)."""
    return bus, phase, cap, slot_of(arrival), slot_of(departure), soc


def fleet_of(*vehicles, charge_power_w=3500.0):
    """A fleet of `ev` rows."""
    columns = list(zip(*vehicles)) or [()] * 6
    columns[1] = [PHASES.index(p) for p in columns[1]]
    return FleetSpec(*columns, charge_power_w=charge_power_w)


def columns_of(schedule):
    return tuple(getattr(schedule, name).tobytes() for name in ("bus", "phase", "start", "n_slots"))


# --- uncontrolled ------------------------------------------------------------

def test_uncontrolled_starts_at_arrival(fleet34):
    sched = schedule_uncontrolled(fleet34)
    assert np.array_equal(sched.start, fleet34.arrival)
    assert np.array_equal(sched.n_slots, charge_duration_slots(
        fleet34.capacity_kwh, fleet34.initial_soc, fleet34.charge_power_w
    ))


def test_uncontrolled_known_windows(fleet34):
    windows = by_spot(schedule_uncontrolled(fleet34))
    # 17:00 arrival, 9 slots -> ends 19:15
    assert windows[(1, "a")] == (slot_of("17:00"), 9, slot_of("19:15"))
    # 16:30 arrival, 8 slots -> ends 18:30
    assert windows[(2, "b")] == (slot_of("16:30"), 8, slot_of("18:30"))


def test_full_battery_gives_empty_window():
    sched = schedule_uncontrolled(fleet_of(ev(soc=0.95)))
    assert sched.n_slots[0] == 0
    assert not ev_power_frame(sched, load_topology(default_feeder_path())).any()


def test_window_wraps_midnight(fleet34):
    start, n, _ = by_spot(schedule_uncontrolled(fleet34))[(14, "c")]  # 23:00 + 14 slots
    slots = window_slots(start, n)
    assert slots[0] == slot_of("23:00")
    assert slots[-1] == slot_of("02:15")
    assert len(slots) == 14


# --- timer -------------------------------------------------------------------

def test_timer_default_start_is_midnight(fleet34):
    assert np.all(schedule_timer(fleet34).start == 0)


def test_timer_known_windows(fleet34):
    windows = by_spot(schedule_timer(fleet34))
    assert (windows[(1, "a")][0], windows[(1, "a")][2]) == (0, slot_of("02:15"))
    assert (windows[(2, "a")][0], windows[(2, "a")][2]) == (0, slot_of("06:45"))


def test_timer_custom_start(fleet34):
    sched = schedule_timer(fleet34, start=slot_of("22:00"))
    assert np.all(sched.start == slot_of("22:00"))


def test_timer_empty_fleet():
    sched = schedule_timer(fleet_of())
    assert sched.start.size == sched.n_slots.size == 0


# --- zoned -------------------------------------------------------------------

def test_shipped_zone_plan(zones3):
    assert zones3.start_times == {1: slot_of("23:30"), 2: 0, 3: slot_of("01:00")}
    assert zones3.zones[1] == 1 and zones3.zones[15] == 1 and zones3.zones[19] == 1
    assert zones3.zones[3] == 2 and zones3.zones[14] == 2
    assert zones3.zones[7] == 3 and zones3.zones[12] == 3
    assert sorted(zones3.zones) == list(range(1, 20))


def test_zoned_start_times(fleet34, zones3):
    windows = by_spot(schedule_zoned(fleet34, zones3))
    assert windows[(1, "a")][0] == slot_of("23:30")   # zone 1
    assert windows[(13, "a")][0] == slot_of("24:00")  # zone 2
    assert windows[(7, "b")][0] == slot_of("01:00")   # zone 3


def test_zoned_missing_bus_errors(fleet34):
    plan = ZonePlan(zones={1: 1}, start_times={1: 0})
    with pytest.raises(SchedulingError, match="no zone"):
        schedule_zoned(fleet34, plan)


def save_zone_plan(plan: ZonePlan, path) -> None:
    rows = ["# zone <number> <charging start> <buses>"]
    for zone in sorted(plan.start_times):
        buses = sorted(b for b, z in plan.zones.items() if z == zone)
        rows.append(f"zone {zone} {time_of(plan.start_times[zone])} "
                    + ",".join(str(b) for b in buses))
    Path(path).write_text("\n".join(rows) + "\n")


def test_zone_plan_round_trip(tmp_path, zones3):
    save_zone_plan(zones3, tmp_path / "z.txt")
    again = load_zone_plan(tmp_path / "z.txt")
    assert again == zones3


def test_zone_plan_rejects_double_assignment(tmp_path):
    (tmp_path / "z.txt").write_text("zone 1 23:00 1,2\nzone 2 24:00 2,3\n")
    with pytest.raises(ValueError, match="already in zone"):
        load_zone_plan(tmp_path / "z.txt")


@pytest.mark.parametrize("text, message", [
    ("zone 1 23:00 1,2\nzone 2 24:00\n", ":2: expected `zone <n> <HH:MM> <buses>`"),
    ("zone one 23:00 1,2\n", ":1: invalid literal for int() with base 10: 'one'"),
    ("zone 1 23:00 1,2\nzone 1 24:00 3\n", ":2: zone 1 defined twice"),
    ("zone 1 1_0:00 1,2\n", ":1: bad time '1_0:00', expected HH:MM"),
], ids=["short-row", "zone-not-integer", "zone-twice", "bad-time"])
def test_zone_plan_fault_names_its_line(tmp_path, text, message):
    path = tmp_path / "z.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_zone_plan(path)
    assert str(err.value) == f"{path}{message}"


# --- semi-smart --------------------------------------------------------------

def test_semi_smart_windows_end_at_departure(fleet34):
    sched = schedule_semi_smart(fleet34)
    charging = sched.n_slots > 0
    assert np.array_equal(ends(sched)[charging], fleet34.departure[charging])


def test_semi_smart_known_windows(fleet34):
    windows = by_spot(schedule_semi_smart(fleet34))
    # departs 05:30, 9 slots -> starts 03:15
    assert (windows[(1, "a")][0], windows[(1, "a")][2]) == (slot_of("03:15"), slot_of("05:30"))
    # departs 07:45, 27 slots -> starts 01:00
    assert (windows[(2, "a")][0], windows[(2, "a")][2]) == (slot_of("01:00"), slot_of("07:45"))


def test_semi_smart_zero_slots_empty_window():
    assert schedule_semi_smart(fleet_of(ev(soc=0.95))).n_slots[0] == 0


def test_semi_smart_warns_when_charge_exceeds_plug_in_time():
    # needs ~7 h but is only plugged in for 2 h
    cramped = fleet_of(ev(cap=30.0, soc=0.1, arrival="04:00", departure="06:00"))
    with pytest.warns(ScheduleWarning, match="starts before its arrival"):
        sched = schedule_semi_smart(cramped)
    assert ends(sched)[0] == cramped.departure[0]  # the published rule is still honoured


def test_duration_longer_than_a_day_is_infeasible():
    huge = fleet_of(ev(cap=30.0, soc=0.0), charge_power_w=100.0)
    with pytest.raises(SchedulingError, match="more than one day"):
        schedule_uncontrolled(huge)


@pytest.mark.parametrize("cap, power_w, slots", [
    (1e20, 3500.0, "51428571428571422720"),  # past every 64-bit integer
    (1e10, 1e-300, "inf"),
])
def test_a_duration_no_integer_holds_is_more_than_a_day(cap, power_w, slots):
    fleet = fleet_of(ev(cap=cap, soc=0.5), charge_power_w=power_w)
    message = f"^vehicle at bus 1 phase a needs {slots} slots, more than one day at {power_w} W$"
    for schedule in (schedule_uncontrolled, schedule_timer, schedule_semi_smart):
        with pytest.raises(SchedulingError, match=message):
            schedule(fleet)


def test_strategies_are_pure(fleet34, zones3):
    for strategy in (schedule_uncontrolled, schedule_timer, schedule_semi_smart):
        assert columns_of(strategy(fleet34)) == columns_of(strategy(fleet34))
    assert columns_of(schedule_zoned(fleet34, zones3)) == columns_of(schedule_zoned(fleet34, zones3))


def test_energy_identity_for_every_strategy(fleet34, zones3):
    needed = fleet34.capacity_kwh * (0.95 - fleet34.initial_soc)
    for sched in (
        schedule_uncontrolled(fleet34),
        schedule_timer(fleet34),
        schedule_zoned(fleet34, zones3),
        schedule_semi_smart(fleet34),
    ):
        delivered = sched.n_slots * 0.25 * sched.power_w / 1000.0
        assert np.all(delivered - needed > -1e-9)
        assert np.all(delivered - needed < 0.25 * sched.power_w / 1000.0)


# --- power frame -------------------------------------------------------------

def test_empty_schedule_zero_frame(fleet34):
    topo = load_topology(default_feeder_path())
    sched = schedule_timer(fleet_of())
    assert np.all(ev_power_frame(sched, topo) == 0)


def test_single_ev_frame():
    topo = load_topology(default_feeder_path())
    one = ev(bus=5, phase="b", cap=26.0, soc=0.65, arrival="17:00", departure="05:30")
    sched = schedule_uncontrolled(fleet_of(one))
    frame = ev_power_frame(sched, topo)
    assert frame.shape == (96, 19, 3)
    hot = frame[:, 4, 1]
    assert np.count_nonzero(hot) == 9
    assert np.all(hot[slot_of("17:00"):slot_of("19:15")] == 3500.0)
    assert frame.sum() == pytest.approx(9 * 3500.0)


def loop_power_frame(windows, power_w, n_buses):
    """The EV frame one window slot at a time, from (bus, phase letter, start,
    n_slots) windows: the reference for ev_power_frame."""
    frame = np.zeros((96, n_buses, 3))
    for bus, phase, start, n_slots in windows:
        for t in window_slots(start, n_slots):
            frame[t, bus - 1, PHASES.index(phase)] += power_w
    return frame


def test_frame_matches_the_per_slot_loop(fleet34, zones3):
    topo = load_topology(default_feeder_path())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleWarning)
        schedules = [schedule_uncontrolled(fleet34), schedule_timer(fleet34),
                     schedule_zoned(fleet34, zones3), schedule_semi_smart(fleet34)]
    # windows wrapping midnight, two of exactly a day (one of them wrapping) and an empty one
    spots = [(3, "a", 94, 4), (7, "c", 0, 96), (12, "b", 50, 0), (19, "a", 90, 96)]
    bus, phase, start, n_slots = (np.array(c) for c in zip(*spots))
    schedules.append(ChargeSchedule(bus, np.array([PHASES.index(p) for p in phase]),
                                    start, n_slots, power_w=7400.0))
    for schedule in schedules:
        reference = loop_power_frame(windows_of(schedule), schedule.power_w, topo.n_buses)
        assert ev_power_frame(schedule, topo).tobytes() == reference.tobytes()


def test_frame_total_energy_matches_slot_count(fleet34):
    topo = load_topology(default_feeder_path())
    frame = ev_power_frame(schedule_semi_smart(fleet34), topo)
    total_slots = charge_duration_slots(
        fleet34.capacity_kwh, fleet34.initial_soc, fleet34.charge_power_w
    ).sum()
    assert frame.sum() * 0.25 / 1000.0 == pytest.approx(total_slots * 0.25 * 3.5)


def test_charge_window_slots_modular():
    topo = load_topology(default_feeder_path())
    sched = ChargeSchedule(np.array([1]), np.array([0]), np.array([94]), np.array([4]), 3500.0)
    assert window_slots(94, 4) == [94, 95, 0, 1]
    assert np.flatnonzero(ev_power_frame(sched, topo)[:, 0, 0]).tolist() == [0, 1, 94, 95]
    assert ends(sched)[0] == 2


# --- the per-vehicle reference -----------------------------------------------
# Fleets, durations and windows one vehicle at a time, as before fleets and
# schedules became columns. The column code must match it byte for byte,
# error and warning texts included.

@dataclass(frozen=True)
class RefEv:
    bus: int
    phase: str
    capacity_kwh: float
    arrival: int
    departure: int
    initial_soc: float


def ref_sample_fleet(consumers, penetration, seed):
    rng = np.random.default_rng(seed)
    count = int(penetration * len(consumers))
    if count == 0:
        return []
    chosen = sorted(rng.choice(len(consumers), size=count, replace=False).tolist())
    capacity = rng.uniform(*CAPACITY_KWH, size=count)
    arrival_h = truncated_normal(rng, *ARRIVAL_H, size=count)
    departure_h = truncated_normal(rng, *DEPARTURE_H, size=count)
    soc = truncated_normal(rng, *INITIAL_SOC, size=count)
    return [
        RefEv(*consumers[ci], float(capacity[i]), int(float(arrival_h[i]) * 4 + 0.5) % 96,
              int(float(departure_h[i]) * 4 + 0.5) % 96, float(soc[i]))
        for i, ci in enumerate(chosen)
    ]


def ref_vehicles(fleet):
    return [
        RefEv(bus, PHASES[phase], cap, arrival, departure, soc)
        for bus, phase, cap, arrival, departure, soc in zip(
            fleet.bus.tolist(), fleet.phase.tolist(), fleet.capacity_kwh.tolist(),
            fleet.arrival.tolist(), fleet.departure.tolist(), fleet.initial_soc.tolist(),
        )
    ]


def ref_duration(ev, power_w):
    hours = ev.capacity_kwh * max(0.95 - ev.initial_soc, 0.0) / (power_w / 1000.0)
    n = math.ceil(round(hours / 0.25, 9))
    if n > 96:
        raise SchedulingError(
            f"vehicle at bus {ev.bus} phase {ev.phase} needs {n} slots, "
            f"more than one day at {power_w} W"
        )
    return n


def ref_windows(strategy, vehicles, power_w, plan=None):
    """(bus, phase letter, start, n_slots) per vehicle, in fleet order."""
    windows = []
    for ev in vehicles:
        if strategy == "zoned" and ev.bus not in plan.zones:
            raise SchedulingError(f"bus {ev.bus} has no zone in the plan")
        n = ref_duration(ev, power_w)
        if strategy == "uncontrolled":
            start = ev.arrival
        elif strategy == "timer":
            start = 0  # the default 24:00
        elif strategy == "zoned":
            start = plan.start_times[plan.zones[ev.bus]]
        else:
            start = (ev.departure - n) % 96
            if n > (ev.departure - ev.arrival) % 96:
                warnings.warn(
                    f"vehicle at bus {ev.bus} phase {ev.phase}: {n}-slot charge "
                    f"starts before its arrival {time_of(ev.arrival)}",
                    ScheduleWarning,
                )
        windows.append((ev.bus, ev.phase, start, n))
    return windows


def column_schedule(strategy, fleet, plan=None):
    if strategy == "uncontrolled":
        return schedule_uncontrolled(fleet)
    if strategy == "timer":
        return schedule_timer(fleet)
    if strategy == "zoned":
        return schedule_zoned(fleet, plan)
    return schedule_semi_smart(fleet)


def outcome(schedule, *args):
    """What a scheduler returns or raises, with the texts of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = schedule(*args)
        except SchedulingError as exc:
            result = f"SchedulingError: {exc}"
    return result, [str(w.message) for w in caught if w.category is ScheduleWarning]


STRATEGY_NAMES = ("uncontrolled", "timer", "zoned", "semismart")


@pytest.mark.parametrize("roster", ["ev34", "radial2000"])
def test_column_fleet_and_schedules_match_the_per_vehicle_reference(roster, zones3):
    if roster == "ev34":
        topo = load_topology(default_feeder_path())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FleetDataWarning)
            fleet = load_fleet(default_fleet_path())
        vehicles, plan = ref_vehicles(fleet), zones3
    else:
        topo = random_radial(np.random.default_rng(0), 2000)
        consumers = consumers_of(topo)
        fleet = sample_fleet(consumers, 0.6, seed=12)
        vehicles = ref_sample_fleet(consumers, 0.6, seed=12)
        assert len(vehicles) == 3600
        assert ref_vehicles(fleet) == vehicles
        assert fleet.capacity_kwh.tobytes() == np.array([v.capacity_kwh for v in vehicles]).tobytes()
        assert fleet.initial_soc.tobytes() == np.array([v.initial_soc for v in vehicles]).tobytes()
        plan = ZonePlan(zones={b: 1 + b % 3 for b in topo.buses},
                        start_times={1: slot_of("23:30"), 2: 0, 3: slot_of("01:00")})
    for strategy in STRATEGY_NAMES:
        windows, ref_warned = outcome(ref_windows, strategy, vehicles, fleet.charge_power_w, plan)
        schedule, warned = outcome(column_schedule, strategy, fleet, plan)
        assert warned == ref_warned, strategy
        assert windows_of(schedule) == windows, strategy
        reference = loop_power_frame(windows, fleet.charge_power_w, topo.n_buses)
        assert ev_power_frame(schedule, topo).tobytes() == reference.tobytes(), strategy


def test_scheduling_errors_and_warnings_match_the_per_vehicle_reference(zones3):
    # buses 1 and 5 warn under semi-smart; at 400 W bus 3 needs more than a day
    rows = [ev(1, "a", 10.0, "04:00", "06:00", 0.05), ev(2, "b", 6.0, "17:00", "07:00", 0.5),
            ev(3, "c", 30.0, "18:00", "07:00", 0.2), ev(5, "a", 20.0, "05:00", "06:00", 0.3),
            ev(20, "b", 30.0, "18:00", "07:00", 0.0)]
    for power_w in (3500.0, 400.0):
        fleet = fleet_of(*rows, charge_power_w=power_w)
        vehicles = ref_vehicles(fleet)
        for strategy in STRATEGY_NAMES:
            windows, ref_warned = outcome(ref_windows, strategy, vehicles, power_w, zones3)
            schedule, warned = outcome(column_schedule, strategy, fleet, zones3)
            if isinstance(windows, str):
                assert schedule == windows, (power_w, strategy)
                continue
            assert warned == ref_warned, (power_w, strategy)
            if strategy == "semismart":
                assert [w.split(":")[0] for w in warned] == [
                    "vehicle at bus 1 phase a", "vehicle at bus 5 phase a"]
            assert windows_of(schedule) == windows, (power_w, strategy)
    # bus 20 has no zone; at 400 W bus 3's vehicle, earlier in the fleet, needs too long
    assert outcome(column_schedule, "zoned", fleet_of(*rows), zones3)[0] == (
        "SchedulingError: bus 20 has no zone in the plan")
    assert outcome(column_schedule, "zoned", fleet, zones3)[0] == (
        "SchedulingError: vehicle at bus 3 phase c needs 225 slots, more than one day at 400.0 W")
