"""Stochastic household demand and EV fleet models.

Household demand: every consumer (one per bus and phase) draws an active
power per slot from a normal distribution centred on a shared 96-point base
curve with a standard deviation proportional to the curve value, clipped at
zero. Reactive power follows from a fixed power factor. The draw is one
(consumers, 96) array each of p and q, returned with the consumer list.

EV fleet: either sampled from the study's fixed distributions (battery
capacity uniform on `CAPACITY_KWH`; arrival, departure and initial state of
charge truncated normals, `ARRIVAL_H`, `DEPARTURE_H` and `INITIAL_SOC`) or
loaded from a plain-text fleet file. A fleet is a set of columns with one
entry per vehicle, checked as whole arrays. Charging always runs at a fixed
rate and targets 95% state of charge, so the charge duration in slots is
fully determined by the vehicle record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .network import PHASES, _repeats, read_text, statements
from .slots import SLOTS_PER_DAY, SLOT_HOURS, slot_of, slot_of_hours, time_of

DEFAULT_SIGMA_FRACTION = 0.20
DEFAULT_POWER_FACTOR = 0.91
DEFAULT_CHARGE_POWER_W = 3500.0
SOC_TARGET = 0.95


class FleetFormatError(ValueError):
    """A fleet file could not be parsed."""


class FleetDataWarning(UserWarning):
    """A fleet record is outside the sampling bounds but was accepted."""


def reactive_from_active(p, power_factor: float = DEFAULT_POWER_FACTOR, *, leading: bool = False):
    """Vars drawn (lagging, positive) for a given active power and pf.

    `leading=True` flips the sign for capacitive consumers.
    """
    if not 0 < power_factor <= 1:
        raise ValueError("power factor must be in (0, 1]")
    q = np.asarray(p, dtype=float) * math.tan(math.acos(power_factor))
    return -q if leading else q


@dataclass(frozen=True)
class BaseLoadCurve:
    """Mean active household demand per slot, watts."""

    p_base: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p_base, dtype=float)
        if arr.shape != (SLOTS_PER_DAY,):
            raise ValueError(f"base curve needs {SLOTS_PER_DAY} values, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("base curve values must be finite")
        if np.any(arr < 0):
            raise ValueError("base curve values must be nonnegative")
        object.__setattr__(self, "p_base", arr)


def load_base_curve(path: str | Path) -> BaseLoadCurve:
    """Read a 96-value curve file (one value in watts per line, # comments)."""
    values = []
    for lineno, stmt in statements(read_text(path)):
        try:
            value = float(stmt)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad curve value {stmt!r}") from exc
        if not np.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite curve value {stmt!r}")
        if value < 0:
            raise ValueError(f"{path}:{lineno}: negative curve value {stmt!r}")
        values.append(value)
    try:
        return BaseLoadCurve(np.array(values))
    except ValueError as exc:  # only the count is left to fail: each value is checked above
        raise ValueError(f"{path}: {exc}") from None


class Households(NamedTuple):
    """Every consumer's sampled day: row k of p and q belongs to consumers[k]."""

    consumers: list[tuple[int, str]]
    p: np.ndarray  # watts, (consumers, 96)
    q: np.ndarray  # vars, (consumers, 96)


def sample_household_loads(
    curve: BaseLoadCurve,
    consumers: list[tuple[int, str]],
    sigma_fraction: float = DEFAULT_SIGMA_FRACTION,
    power_factor: float = DEFAULT_POWER_FACTOR,
    seed=0,
    *,
    leading: bool = False,
) -> Households:
    """Draw every consumer's active power per slot, seeded and reproducible.

    p[t] ~ Normal(curve[t], sigma_fraction * curve[t]), clipped at zero;
    q[t] follows from the power factor. sigma_fraction = 0 reproduces the
    curve exactly. One (consumers, 96) draw, the same stream as drawing one
    consumer's day after another.
    """
    if not 0 <= sigma_fraction < math.inf:
        raise ValueError(f"sigma_fraction must be in [0, inf), got {sigma_fraction}")
    if not {phase for _, phase in consumers} <= set(PHASES):
        unknown = next(phase for _, phase in consumers if phase not in PHASES)
        raise ValueError(f"unknown phase {unknown!r}")
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((len(consumers), SLOTS_PER_DAY))  # scaled in place
    p *= sigma_fraction * curve.p_base
    p += curve.p_base
    np.maximum(p, 0.0, out=p)
    return Households(consumers, p, reactive_from_active(p, power_factor, leading=leading))


_PHASE_INDEX = {phase: k for k, phase in enumerate(PHASES)}

# FleetSpec's per-vehicle columns and their types
_FLEET_COLUMNS = (
    ("bus", int), ("phase", int), ("capacity_kwh", float),
    ("arrival", int), ("departure", int), ("initial_soc", float),
)


def _vehicle_fault(bus, phase, capacity_kwh, arrival, departure, initial_soc) -> tuple[int, str] | None:
    """The first vehicle, in fleet order, that fails a check, and the first check it fails."""
    def on_day(slot):
        return (0 <= slot) & (slot < SLOTS_PER_DAY)

    failed = np.stack([
        (phase < 0) | (phase >= len(PHASES)),
        ~((0 < capacity_kwh) & (capacity_kwh < math.inf)),
        ~((0 <= initial_soc) & (initial_soc <= SOC_TARGET)),
        ~(on_day(arrival) & on_day(departure)),
        arrival == departure,
        _repeats(phase, bus),  # a (bus, phase) an earlier vehicle holds
    ])
    bad = np.flatnonzero(failed.any(axis=0))
    if not bad.size:
        return None
    i = int(bad[0])
    texts = (  # built for the check that failed only
        lambda: f"unknown phase index {phase[i]}",
        lambda: f"capacity {capacity_kwh[i]} kWh must be positive and finite",
        lambda: f"initial SOC {initial_soc[i]} outside [0, {SOC_TARGET}]",
        lambda: "arrival/departure must be slot indices",
        lambda: "arrival and departure coincide",
        lambda: f"two vehicles at bus {bus[i]} phase {PHASES[phase[i]]}",
    )
    return i, texts[int(failed[:, i].argmax())]()


@dataclass(frozen=True, eq=False)
class FleetSpec:
    """All vehicles on the feeder as read-only columns, one entry per vehicle
    in fleet order, plus their common charging rate.

    Vehicle k plugs in at ``bus[k]`` on phase ``PHASES[phase[k]]``; arrival
    and departure are slots. At most one vehicle per (bus, phase).
    """

    bus: np.ndarray
    phase: np.ndarray
    capacity_kwh: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    initial_soc: np.ndarray
    charge_power_w: float = DEFAULT_CHARGE_POWER_W

    def __post_init__(self):
        for name, dtype in _FLEET_COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.bus.ndim != 1 or len({getattr(self, n).shape for n, _ in _FLEET_COLUMNS}) != 1:
            raise ValueError("fleet columns must be one-dimensional and of one length")
        fault = _vehicle_fault(*(getattr(self, name) for name, _ in _FLEET_COLUMNS))
        if fault is not None:
            raise ValueError(fault[1])
        if not 0 < self.charge_power_w < math.inf:
            raise ValueError(f"charge power {self.charge_power_w} W must be positive and finite")


# Fleet sampling: capacity uniform on (low, high) kWh; arrival and departure
# hours (an arrival above 24 wraps past midnight) and initial SOC as
# truncated_normal's (mean, sd, low, high).
CAPACITY_KWH = (6.0, 30.0)
ARRIVAL_H = (19.0, 2.0, 16.0, 25.0)
DEPARTURE_H = (7.0, 2.0, 5.0, 12.0)
INITIAL_SOC = (0.75, 0.25, 0.25, 0.95)


def truncated_normal(rng, mean: float, sd: float, low: float, high: float, size: int) -> np.ndarray:
    """Normal draws resampled until they land inside [low, high]."""
    if low > high:
        raise ValueError("low > high")
    out = rng.normal(mean, sd, size)
    bad = (out < low) | (out > high)
    while np.any(bad):
        out[bad] = rng.normal(mean, sd, int(bad.sum()))
        bad = (out < low) | (out > high)
    return out


def sample_fleet(
    consumers: list[tuple[int, str]],
    penetration: float,
    charge_power_w: float = DEFAULT_CHARGE_POWER_W,
    seed=0,
) -> FleetSpec:
    """Assign EVs to floor(penetration * len(consumers)) consumers.

    Owners are chosen uniformly without replacement and kept in consumer
    order; per-vehicle parameters follow CAPACITY_KWH, ARRIVAL_H, DEPARTURE_H
    and INITIAL_SOC. Fully determined by the seed.
    """
    if not 0 <= penetration <= 1:
        raise ValueError("penetration must be in [0, 1]")
    rng = np.random.default_rng(seed)
    count = int(penetration * len(consumers))
    chosen = np.sort(rng.choice(len(consumers), size=count, replace=False))
    capacity = rng.uniform(*CAPACITY_KWH, size=count)
    arrival_h = truncated_normal(rng, *ARRIVAL_H, size=count)
    departure_h = truncated_normal(rng, *DEPARTURE_H, size=count)
    soc = truncated_normal(rng, *INITIAL_SOC, size=count)
    # the owners' columns, gathered and mapped in C, not in a Python loop
    bus, phase = list(zip(*map(consumers.__getitem__, chosen.tolist()))) or [(), ()]
    try:
        phase = np.fromiter(map(_PHASE_INDEX.__getitem__, phase), int, count)
    except KeyError as exc:
        raise ValueError(f"unknown phase {exc.args[0]!r}") from None
    return FleetSpec(
        bus=np.fromiter(bus, int, count),
        phase=phase,
        capacity_kwh=capacity,
        arrival=slot_of_hours(arrival_h),
        departure=slot_of_hours(departure_h),
        initial_soc=soc,
        charge_power_w=charge_power_w,
    )


def _parse_vehicle(stmt: str) -> tuple:
    """One fleet file row as (bus, phase index, capacity, arrival, departure, SOC)."""
    parts = stmt.split()
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    bus, capacity = int(parts[0]), float(parts[2])
    arrival, departure, soc = slot_of(parts[3]), slot_of(parts[4]), float(parts[5]) / 100.0
    if parts[1] not in PHASES:
        raise ValueError(f"unknown phase {parts[1]!r}")
    if not -2**63 <= bus < 2**63:  # the bus column holds 64-bit integers
        raise ValueError(f"bus {bus} is outside every feeder")
    return bus, PHASES.index(parts[1]), capacity, arrival, departure, soc


def load_fleet(
    fleet_file: str | Path, charge_power_w: float = DEFAULT_CHARGE_POWER_W
) -> FleetSpec:
    """Read a fleet file: `bus phase capacity_kwh arrival departure soc_percent`.

    A faulty row raises naming the file and its line; of several, the first
    row. Initial SOC outside the sampling bounds is accepted with one warning
    per file listing every such row: the shipped roster takes precedence
    over the distribution's bounds.
    """
    path = Path(fleet_file)
    text = read_text(path)
    rows, linenos = [], []

    def columns() -> list[np.ndarray]:
        return [np.array(column) for column in zip(*rows)] or [np.zeros(0)] * 6

    try:
        for lineno, stmt in statements(text):
            where = f"{path}:{lineno}"
            rows.append(_parse_vehicle(stmt))
            linenos.append(lineno)
        where = str(path)
        fleet = FleetSpec(*columns(), charge_power_w=charge_power_w)
    except ValueError as exc:
        # only a failed load looks for its row: one read before a malformed row is named first
        fault = _vehicle_fault(*columns())
        if fault is not None:
            where, exc = f"{path}:{linenos[fault[0]]}", fault[1]
        raise FleetFormatError(f"{where}: {exc}") from None
    lo, hi = INITIAL_SOC[2:]
    out_of_range = [
        f"line {lineno}: initial SOC {soc:.0%}"
        for lineno, soc in zip(linenos, fleet.initial_soc.tolist())
        if not lo <= soc <= hi
    ]
    if out_of_range:
        warnings.warn(
            f"{path}: initial SOC outside [{lo:.0%}, {hi:.0%}], kept: "
            + "; ".join(out_of_range),
            FleetDataWarning,
            stacklevel=2,
        )
    return fleet


def save_fleet(fleet: FleetSpec, path: str | Path) -> None:
    rows = ["# bus phase capacity_kwh arrival departure initial_soc_percent"]
    columns = zip(*(getattr(fleet, name).tolist() for name, _ in _FLEET_COLUMNS))
    for bus, phase, capacity, arrival, departure, soc in columns:
        rows.append(
            f"{bus} {PHASES[phase]} {capacity!r} "
            f"{time_of(arrival)} {time_of(departure)} {soc * 100!r}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


def charge_duration_slots(
    capacity_kwh, initial_soc, charge_power_w: float = DEFAULT_CHARGE_POWER_W
) -> np.ndarray:
    """Slots of fixed-rate charging each vehicle needs to reach the 95% SOC target.

    energy deficit [kWh] / rate [kW], rounded up to whole slots so the
    target is always met or exceeded. Float noise can lift an exact multiple
    of a slot just past its whole number, so a value within 1e-8 above one
    is rounded to nine places with the built-in round() first; np.round
    rounds differently. Takes arrays or scalars, and returns their shape, as
    whole-number floats: a duration no integer type holds still compares.
    """
    if charge_power_w <= 0:
        raise ValueError("charge power must be positive")
    deficit = np.maximum(SOC_TARGET - np.asarray(initial_soc, dtype=float), 0.0)
    # inf slots are more than a day, which the caller checks; nothing is near them
    with np.errstate(over="ignore", invalid="ignore"):
        slots = np.asarray(np.multiply(capacity_kwh, deficit) / (charge_power_w / 1000.0) / SLOT_HOURS)
        x = slots.ravel()
        whole = np.ceil(x)
        above = x - (whole - 1.0)  # how far past the whole number below
    near = np.flatnonzero((0 < above) & (above <= 1e-8))
    whole[near] = [math.ceil(round(v, 9)) for v in x[near].tolist()]
    return whole.reshape(slots.shape)
