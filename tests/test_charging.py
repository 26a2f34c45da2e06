import warnings

import numpy as np
import pytest

from evfeeder.charging import (
    ChargeSchedule,
    ChargeWindow,
    ScheduleWarning,
    SchedulingError,
    ZonePlan,
    ev_power_frame,
    load_zone_plan,
    save_zone_plan,
    schedule_semi_smart,
    schedule_timer,
    schedule_uncontrolled,
    schedule_zoned,
)
from evfeeder.loads import EvSpec, FleetDataWarning, FleetSpec, charge_duration_slots, load_fleet
from evfeeder.network import PHASES, load_topology
from evfeeder.scenario import default_feeder_path, default_fleet_path, default_zones_path
from evfeeder.slots import slot_of


@pytest.fixture(scope="module")
def fleet34():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FleetDataWarning)
        return load_fleet(default_fleet_path())


@pytest.fixture(scope="module")
def zones3():
    return load_zone_plan(default_zones_path())


def by_spot(schedule):
    return {(w.ev.bus, w.ev.phase): w for w in schedule.windows}


def ev(bus=1, phase="a", cap=26.0, arrival="17:00", departure="05:30", soc=0.65):
    return EvSpec(bus=bus, phase=phase, capacity_kwh=cap,
                  arrival=slot_of(arrival), departure=slot_of(departure), initial_soc=soc)


# --- uncontrolled ------------------------------------------------------------

def test_uncontrolled_starts_at_arrival(fleet34):
    sched = schedule_uncontrolled(fleet34)
    for w in sched.windows:
        assert w.start == w.ev.arrival
        assert w.n_slots == charge_duration_slots(w.ev, fleet34.charge_power_w)


def test_uncontrolled_known_windows(fleet34):
    windows = by_spot(schedule_uncontrolled(fleet34))
    w = windows[(1, "a")]  # 17:00 arrival, 9 slots -> ends 19:15
    assert (w.start, w.n_slots, w.end) == (slot_of("17:00"), 9, slot_of("19:15"))
    w = windows[(2, "b")]  # 16:30 arrival, 8 slots -> ends 18:30
    assert (w.start, w.n_slots, w.end) == (slot_of("16:30"), 8, slot_of("18:30"))


def test_full_battery_gives_empty_window():
    fleet = FleetSpec(vehicles=(ev(soc=0.95),))
    sched = schedule_uncontrolled(fleet)
    assert sched.windows[0].n_slots == 0
    assert sched.windows[0].slots() == []


def test_window_wraps_midnight(fleet34):
    w = by_spot(schedule_uncontrolled(fleet34))[(14, "c")]  # 23:00 + 14 slots
    slots = w.slots()
    assert slots[0] == slot_of("23:00")
    assert slots[-1] == slot_of("02:15")
    assert len(slots) == 14


# --- timer -------------------------------------------------------------------

def test_timer_default_start_is_midnight(fleet34):
    sched = schedule_timer(fleet34)
    for w in sched.windows:
        assert w.start == 0


def test_timer_known_windows(fleet34):
    windows = by_spot(schedule_timer(fleet34))
    assert (windows[(1, "a")].start, windows[(1, "a")].end) == (0, slot_of("02:15"))
    assert (windows[(2, "a")].start, windows[(2, "a")].end) == (0, slot_of("06:45"))


def test_timer_custom_start(fleet34):
    sched = schedule_timer(fleet34, start=slot_of("22:00"))
    assert all(w.start == slot_of("22:00") for w in sched.windows)


def test_timer_empty_fleet():
    assert schedule_timer(FleetSpec(vehicles=())).windows == ()


# --- zoned -------------------------------------------------------------------

def test_shipped_zone_plan(zones3):
    assert zones3.start_times == {1: slot_of("23:30"), 2: 0, 3: slot_of("01:00")}
    assert zones3.zones[1] == 1 and zones3.zones[15] == 1 and zones3.zones[19] == 1
    assert zones3.zones[3] == 2 and zones3.zones[14] == 2
    assert zones3.zones[7] == 3 and zones3.zones[12] == 3
    assert sorted(zones3.zones) == list(range(1, 20))


def test_zoned_start_times(fleet34, zones3):
    windows = by_spot(schedule_zoned(fleet34, zones3))
    assert windows[(1, "a")].start == slot_of("23:30")   # zone 1
    assert windows[(13, "a")].start == slot_of("24:00")  # zone 2
    assert windows[(7, "b")].start == slot_of("01:00")   # zone 3


def test_zoned_missing_bus_errors(fleet34):
    plan = ZonePlan(zones={1: 1}, start_times={1: 0})
    with pytest.raises(SchedulingError, match="no zone"):
        schedule_zoned(fleet34, plan)


def test_zone_plan_round_trip(tmp_path, zones3):
    save_zone_plan(zones3, tmp_path / "z.txt")
    again = load_zone_plan(tmp_path / "z.txt")
    assert again == zones3


def test_zone_plan_rejects_double_assignment(tmp_path):
    (tmp_path / "z.txt").write_text("zone 1 23:00 1,2\nzone 2 24:00 2,3\n")
    with pytest.raises(ValueError, match="already in zone"):
        load_zone_plan(tmp_path / "z.txt")


# --- semi-smart --------------------------------------------------------------

def test_semi_smart_windows_end_at_departure(fleet34):
    sched = schedule_semi_smart(fleet34)
    for w in sched.windows:
        if w.n_slots:
            assert w.end == w.ev.departure


def test_semi_smart_known_windows(fleet34):
    windows = by_spot(schedule_semi_smart(fleet34))
    w = windows[(1, "a")]  # departs 05:30, 9 slots -> starts 03:15
    assert (w.start, w.end) == (slot_of("03:15"), slot_of("05:30"))
    w = windows[(2, "a")]  # departs 07:45, 27 slots -> starts 01:00
    assert (w.start, w.end) == (slot_of("01:00"), slot_of("07:45"))


def test_semi_smart_zero_slots_empty_window():
    fleet = FleetSpec(vehicles=(ev(soc=0.95),))
    w = schedule_semi_smart(fleet).windows[0]
    assert w.n_slots == 0


def test_semi_smart_warns_when_charge_exceeds_plug_in_time():
    # needs ~7 h but is only plugged in for 2 h
    cramped = ev(cap=30.0, soc=0.1, arrival="04:00", departure="06:00")
    with pytest.warns(ScheduleWarning, match="starts before its arrival"):
        sched = schedule_semi_smart(FleetSpec(vehicles=(cramped,)))
    w = sched.windows[0]
    assert w.end == cramped.departure  # the published rule is still honoured


def test_duration_longer_than_a_day_is_infeasible():
    huge = ev(cap=30.0, soc=0.0)
    with pytest.raises(SchedulingError, match="more than one day"):
        schedule_uncontrolled(FleetSpec(vehicles=(huge,), charge_power_w=100.0))


def test_strategies_are_pure(fleet34, zones3):
    assert schedule_uncontrolled(fleet34) == schedule_uncontrolled(fleet34)
    assert schedule_timer(fleet34) == schedule_timer(fleet34)
    assert schedule_zoned(fleet34, zones3) == schedule_zoned(fleet34, zones3)
    assert schedule_semi_smart(fleet34) == schedule_semi_smart(fleet34)


def test_energy_identity_for_every_strategy(fleet34, zones3):
    for sched in (
        schedule_uncontrolled(fleet34),
        schedule_timer(fleet34),
        schedule_zoned(fleet34, zones3),
        schedule_semi_smart(fleet34),
    ):
        for w in sched.windows:
            delivered = w.n_slots * 0.25 * sched.power_w / 1000.0
            needed = w.ev.capacity_kwh * (0.95 - w.ev.initial_soc)
            assert delivered - needed > -1e-9
            assert delivered - needed < 0.25 * sched.power_w / 1000.0


# --- power frame -------------------------------------------------------------

def test_empty_schedule_zero_frame(fleet34):
    topo = load_topology(default_feeder_path())
    sched = schedule_timer(FleetSpec(vehicles=()))
    assert np.all(ev_power_frame(sched, topo) == 0)


def test_single_ev_frame():
    topo = load_topology(default_feeder_path())
    one = ev(bus=5, phase="b", cap=26.0, soc=0.65, arrival="17:00", departure="05:30")
    sched = schedule_uncontrolled(FleetSpec(vehicles=(one,)))
    frame = ev_power_frame(sched, topo)
    assert frame.shape == (96, 19, 3)
    hot = frame[:, 4, 1]
    assert np.count_nonzero(hot) == 9
    assert np.all(hot[slot_of("17:00"):slot_of("19:15")] == 3500.0)
    assert frame.sum() == pytest.approx(9 * 3500.0)


def loop_power_frame(schedule, topology):
    """The EV frame one window slot at a time: the reference for ev_power_frame."""
    frame = np.zeros((96, topology.n_buses, 3))
    for w in schedule.windows:
        for t in w.slots():
            frame[t, w.ev.bus - 1, PHASES.index(w.ev.phase)] += schedule.power_w
    return frame


def test_frame_matches_the_per_slot_loop(fleet34, zones3):
    topo = load_topology(default_feeder_path())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleWarning)
        schedules = [schedule_uncontrolled(fleet34), schedule_timer(fleet34),
                     schedule_zoned(fleet34, zones3), schedule_semi_smart(fleet34)]
    # windows wrapping midnight, two of exactly a day (one of them wrapping) and an empty one
    spots = [(3, "a", 94, 4), (7, "c", 0, 96), (12, "b", 50, 0), (19, "a", 90, 96)]
    windows = tuple(ChargeWindow(ev=ev(bus=b, phase=p), start=t, n_slots=n) for b, p, t, n in spots)
    schedules.append(ChargeSchedule(windows=windows, power_w=7400.0))
    for schedule in schedules:
        assert ev_power_frame(schedule, topo).tobytes() == loop_power_frame(schedule, topo).tobytes()


def test_frame_total_energy_matches_slot_count(fleet34):
    topo = load_topology(default_feeder_path())
    frame = ev_power_frame(schedule_semi_smart(fleet34), topo)
    total_slots = sum(
        charge_duration_slots(v, fleet34.charge_power_w) for v in fleet34.vehicles
    )
    assert frame.sum() * 0.25 / 1000.0 == pytest.approx(total_slots * 0.25 * 3.5)


def test_charge_window_slots_modular():
    w = ChargeWindow(ev=ev(arrival="23:30", departure="12:00", cap=10, soc=0.25),
                     start=94, n_slots=4)
    assert w.slots() == [94, 95, 0, 1]
    assert w.end == 2
