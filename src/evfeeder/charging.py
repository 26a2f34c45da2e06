"""Charging strategies: when each vehicle's fixed-rate window runs.

All strategies charge at the fleet's fixed rate for exactly the duration
needed to reach the 95% SOC target (see loads.charge_duration_slots); they
differ only in where the window sits on the modular 96-slot day:

* uncontrolled -- the window starts the moment the car arrives home.
* timer        -- every window starts at one configured time (default 24:00).
* zoned        -- like timer, but the start time depends on the bus's zone.
* semi-smart   -- the window is placed so it ENDS exactly at departure; the
                  start is computed locally from the owner's inputs, with no
                  communication to anything upstream.

Windows are half-open [start, start + duration) and may wrap midnight. A
schedule holds every vehicle's window as columns, in fleet order; a strategy
that cannot schedule the fleet names its first such vehicle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .loads import FleetSpec, charge_duration_slots
from .network import PHASES, NetworkTopology, read_text, statements
from .slots import SLOTS_PER_DAY, slot_of, time_of

TIMER_DEFAULT_START = slot_of("24:00")


class SchedulingError(ValueError):
    """A vehicle cannot be scheduled under the requested strategy."""


class ScheduleWarning(UserWarning):
    """A window violates a soft expectation (e.g. starts before arrival)."""


@dataclass(frozen=True, eq=False)
class ChargeSchedule:
    """Each vehicle's window [start, start + n_slots) on the modular day, as
    columns in fleet order; bus and phase (an index into PHASES) are the
    fleet's. Every vehicle charges at power_w."""

    bus: np.ndarray
    phase: np.ndarray
    start: np.ndarray   # slot
    n_slots: np.ndarray
    power_w: float

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, 0-based bus, phase) of every charging slot, vehicle after vehicle.

        A fleet has one vehicle per (bus, phase) and a window of at most one
        day, so no cell repeats.
        """
        n_slots = self.n_slots
        # each charging slot's offset into its window
        offset = np.arange(n_slots.sum()) - np.repeat(np.cumsum(n_slots) - n_slots, n_slots)
        slot = (np.repeat(self.start, n_slots) + offset) % SLOTS_PER_DAY
        return slot, np.repeat(self.bus - 1, n_slots), np.repeat(self.phase, n_slots)


@dataclass(frozen=True)
class ZonePlan:
    """Bus-to-zone assignment and one start time per zone."""

    zones: dict[int, int]        # bus -> zone
    start_times: dict[int, int]  # zone -> slot

    def __post_init__(self):
        missing = {z for z in self.zones.values() if z not in self.start_times}
        if missing:
            raise ValueError(f"zones {sorted(missing)} have no start time")


def _durations(fleet: FleetSpec, unzoned: np.ndarray | None = None) -> np.ndarray:
    """Each vehicle's charge slots.

    The first vehicle, in fleet order, that cannot be scheduled raises: one
    that `unzoned` marks as having no zone, or one that needs more than a day.
    """
    n = charge_duration_slots(fleet.capacity_kwh, fleet.initial_soc, fleet.charge_power_w)
    bad = n > SLOTS_PER_DAY  # as floats: a long one may fit no integer
    if unzoned is not None:
        bad |= unzoned
    if bad.any():
        i = int(bad.argmax())
        if unzoned is not None and unzoned[i]:
            raise SchedulingError(f"bus {fleet.bus[i]} has no zone in the plan")
        raise SchedulingError(
            f"vehicle at bus {fleet.bus[i]} phase {PHASES[fleet.phase[i]]} needs {n[i]:.0f} slots, "
            f"more than one day at {fleet.charge_power_w} W"
        )
    return n.astype(int)


def _schedule(fleet: FleetSpec, start: np.ndarray, n_slots: np.ndarray) -> ChargeSchedule:
    return ChargeSchedule(fleet.bus, fleet.phase, start, n_slots, fleet.charge_power_w)


def schedule_uncontrolled(fleet: FleetSpec) -> ChargeSchedule:
    """Plug in and charge immediately on arrival."""
    return _schedule(fleet, fleet.arrival, _durations(fleet))


def schedule_timer(fleet: FleetSpec, start: int = TIMER_DEFAULT_START) -> ChargeSchedule:
    """Every vehicle starts at the same timer setting."""
    return _schedule(fleet, np.full(fleet.bus.size, start % SLOTS_PER_DAY), _durations(fleet))


def schedule_zoned(fleet: FleetSpec, plan: ZonePlan) -> ChargeSchedule:
    """Timer charging with per-zone start times."""
    zone_start = {bus: plan.start_times[zone] for bus, zone in plan.zones.items()}
    start = np.array([zone_start.get(bus, -1) for bus in fleet.bus.tolist()], dtype=int)
    return _schedule(fleet, start, _durations(fleet, unzoned=start < 0))


def schedule_semi_smart(fleet: FleetSpec) -> ChargeSchedule:
    """Place each window so it ends exactly at the owner's departure.

    If the computed start precedes the arrival (the rule never checks), the
    window is kept as defined and a per-vehicle warning is emitted.
    """
    n = _durations(fleet)
    plugged = (fleet.departure - fleet.arrival) % SLOTS_PER_DAY
    for i in np.flatnonzero(n > plugged).tolist():
        warnings.warn(
            f"vehicle at bus {fleet.bus[i]} phase {PHASES[fleet.phase[i]]}: {n[i]}-slot charge "
            f"starts before its arrival {time_of(fleet.arrival[i])}",
            ScheduleWarning,
            stacklevel=2,
        )
    return _schedule(fleet, (fleet.departure - n) % SLOTS_PER_DAY, n)


def ev_power_frame(schedule: ChargeSchedule, topology: NetworkTopology) -> np.ndarray:
    """Active EV power in watts per (slot, bus, phase); reactive is zero.

    Vehicles draw active power only, so the frame superposes onto household
    demand without touching its reactive part.
    """
    frame = np.zeros((SLOTS_PER_DAY, topology.n_buses, 3))
    frame[schedule.cells()] = schedule.power_w
    return frame


def load_zone_plan(path: str | Path) -> ZonePlan:
    """Read a zone plan file: `zone <number> <start HH:MM> <bus,bus,...>`."""
    zones: dict[int, int] = {}
    starts: dict[int, int] = {}
    for lineno, stmt in statements(read_text(path)):
        parts = stmt.split()
        if len(parts) != 4 or parts[0] != "zone":
            raise ValueError(f"{path}:{lineno}: expected `zone <n> <HH:MM> <buses>`")
        try:
            zone = int(parts[1])
            start = slot_of(parts[2])
            buses = [int(tok) for tok in parts[3].split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if zone in starts:
            raise ValueError(f"{path}:{lineno}: zone {zone} defined twice")
        starts[zone] = start
        for b in buses:
            if b in zones:
                raise ValueError(f"{path}:{lineno}: bus {b} already in zone {zones[b]}")
            zones[b] = zone
    return ZonePlan(zones=zones, start_times=starts)
