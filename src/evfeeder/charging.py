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

Windows are half-open [start, start + duration) and may wrap midnight.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .loads import EvSpec, FleetSpec, charge_duration_slots
from .network import PHASES, NetworkTopology
from .slots import SLOTS_PER_DAY, slot_of, time_of, window_slots

TIMER_DEFAULT_START = slot_of("24:00")


class SchedulingError(ValueError):
    """A vehicle cannot be scheduled under the requested strategy."""


class ScheduleWarning(UserWarning):
    """A window violates a soft expectation (e.g. starts before arrival)."""


@dataclass(frozen=True)
class ChargeWindow:
    ev: EvSpec
    start: int      # slot
    n_slots: int

    @property
    def end(self) -> int:
        """First slot after the window, modulo one day."""
        return (self.start + self.n_slots) % SLOTS_PER_DAY

    def slots(self) -> list[int]:
        return window_slots(self.start, self.n_slots)


@dataclass(frozen=True)
class ChargeSchedule:
    windows: tuple[ChargeWindow, ...]
    power_w: float


@dataclass(frozen=True)
class ZonePlan:
    """Bus-to-zone assignment and one start time per zone."""

    zones: dict[int, int]        # bus -> zone
    start_times: dict[int, int]  # zone -> slot

    def __post_init__(self):
        missing = {z for z in self.zones.values() if z not in self.start_times}
        if missing:
            raise ValueError(f"zones {sorted(missing)} have no start time")


def _duration(ev: EvSpec, fleet: FleetSpec) -> int:
    n = charge_duration_slots(ev, fleet.charge_power_w)
    if n > SLOTS_PER_DAY:
        raise SchedulingError(
            f"vehicle at bus {ev.bus} phase {ev.phase} needs {n} slots, "
            f"more than one day at {fleet.charge_power_w} W"
        )
    return n


def schedule_uncontrolled(fleet: FleetSpec) -> ChargeSchedule:
    """Plug in and charge immediately on arrival."""
    windows = tuple(
        ChargeWindow(ev=ev, start=ev.arrival, n_slots=_duration(ev, fleet))
        for ev in fleet.vehicles
    )
    return ChargeSchedule(windows=windows, power_w=fleet.charge_power_w)


def schedule_timer(fleet: FleetSpec, start: int = TIMER_DEFAULT_START) -> ChargeSchedule:
    """Every vehicle starts at the same timer setting."""
    windows = tuple(
        ChargeWindow(ev=ev, start=start % SLOTS_PER_DAY, n_slots=_duration(ev, fleet))
        for ev in fleet.vehicles
    )
    return ChargeSchedule(windows=windows, power_w=fleet.charge_power_w)


def schedule_zoned(fleet: FleetSpec, plan: ZonePlan) -> ChargeSchedule:
    """Timer charging with per-zone start times."""
    windows = []
    for ev in fleet.vehicles:
        if ev.bus not in plan.zones:
            raise SchedulingError(f"bus {ev.bus} has no zone in the plan")
        start = plan.start_times[plan.zones[ev.bus]]
        windows.append(ChargeWindow(ev=ev, start=start, n_slots=_duration(ev, fleet)))
    return ChargeSchedule(windows=tuple(windows), power_w=fleet.charge_power_w)


def schedule_semi_smart(fleet: FleetSpec) -> ChargeSchedule:
    """Place each window so it ends exactly at the owner's departure.

    If the computed start precedes the arrival (the rule never checks), the
    window is kept as defined and a per-vehicle warning is emitted.
    """
    windows = []
    for ev in fleet.vehicles:
        n = _duration(ev, fleet)
        start = (ev.departure - n) % SLOTS_PER_DAY
        plugged = (ev.departure - ev.arrival) % SLOTS_PER_DAY
        if n > plugged:
            warnings.warn(
                f"vehicle at bus {ev.bus} phase {ev.phase}: {n}-slot charge "
                f"starts before its arrival {time_of(ev.arrival)}",
                ScheduleWarning,
                stacklevel=2,
            )
        windows.append(ChargeWindow(ev=ev, start=start, n_slots=n))
    return ChargeSchedule(windows=tuple(windows), power_w=fleet.charge_power_w)


def ev_power_frame(schedule: ChargeSchedule, topology: NetworkTopology) -> np.ndarray:
    """Active EV power in watts per (slot, bus, phase); reactive is zero.

    Vehicles draw active power only, so the frame superposes onto household
    demand without touching its reactive part. A fleet has one vehicle per
    (bus, phase) and a window of at most one day, so each cell is set once.
    """
    frame = np.zeros((SLOTS_PER_DAY, topology.n_buses, 3))
    start, bus, phase, n_slots = np.array(
        [(w.start, w.ev.bus - 1, PHASES.index(w.ev.phase), w.n_slots) for w in schedule.windows],
        dtype=int,
    ).reshape(-1, 4).T
    # each charging slot's offset into its window
    offset = np.arange(n_slots.sum()) - np.repeat(np.cumsum(n_slots) - n_slots, n_slots)
    slot = (np.repeat(start, n_slots) + offset) % SLOTS_PER_DAY
    frame[slot, np.repeat(bus, n_slots), np.repeat(phase, n_slots)] = schedule.power_w
    return frame


def load_zone_plan(path: str | Path) -> ZonePlan:
    """Read a zone plan file: `zone <number> <start HH:MM> <bus,bus,...>`."""
    zones: dict[int, int] = {}
    starts: dict[int, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split()
        if len(parts) != 4 or parts[0] != "zone":
            raise ValueError(f"{path}:{lineno}: expected `zone <n> <HH:MM> <buses>`")
        try:
            zone = int(parts[1])
            start = slot_of(parts[2])
            buses = [int(tok) for tok in parts[3].split(",") if tok]
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


def save_zone_plan(plan: ZonePlan, path: str | Path) -> None:
    rows = ["# zone <number> <charging start> <buses>"]
    for zone in sorted(plan.start_times):
        buses = sorted(b for b, z in plan.zones.items() if z == zone)
        rows.append(f"zone {zone} {time_of(plan.start_times[zone])} "
                    + ",".join(str(b) for b in buses))
    Path(path).write_text("\n".join(rows) + "\n")
