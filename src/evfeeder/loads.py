"""Stochastic household demand and EV fleet models.

Household demand: every consumer (one per bus and phase) draws an active
power per slot from a normal distribution centred on a shared 96-point base
curve with a standard deviation proportional to the curve value, clipped at
zero. Reactive power follows from a fixed power factor.

EV fleet: either sampled (battery capacity uniform, arrival/departure/initial
state of charge truncated normal, all parameters bounded) or loaded from a
plain-text fleet file. Charging always runs at a fixed rate and targets 95%
state of charge, so the charge duration in slots is fully determined by the
vehicle record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import PHASES
from .slots import SLOTS_PER_DAY, SLOT_HOURS, slot_of, slot_of_hours, time_of

DEFAULT_PEAK_W = 2000.0
DEFAULT_SIGMA_FRACTION = 0.20
DEFAULT_POWER_FACTOR = 0.91
DEFAULT_CHARGE_POWER_W = 3500.0
SOC_TARGET = 0.95

# Shape of the default residential curve as (hour, fraction of peak) anchors:
# a night valley, a morning shoulder, and an evening peak plateau that decays
# slowly until midnight, linearly interpolated over the 96 slots.
_CURVE_ANCHORS_H = (0.0, 2.0, 5.0, 7.0, 9.0, 12.0, 16.0, 18.0, 21.0, 24.0)
_CURVE_ANCHORS_FRAC = (0.875, 0.20, 0.20, 0.50, 0.50, 0.45, 0.60, 1.00, 1.00, 0.875)


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

    @property
    def peak_w(self) -> float:
        return float(self.p_base.max())


def default_base_curve(peak_w: float = DEFAULT_PEAK_W) -> BaseLoadCurve:
    """Piecewise-linear residential curve scaled so its maximum is `peak_w`."""
    if peak_w <= 0:
        raise ValueError("peak_w must be positive")
    hours = np.arange(SLOTS_PER_DAY) * SLOT_HOURS
    values = np.interp(hours, _CURVE_ANCHORS_H, _CURVE_ANCHORS_FRAC) * peak_w
    return BaseLoadCurve(values)


def load_base_curve(path: str | Path) -> BaseLoadCurve:
    """Read a 96-value curve file (one value in watts per line, # comments)."""
    values = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        try:
            value = float(stmt)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad curve value {stmt!r}") from exc
        if not np.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite curve value {stmt!r}")
        values.append(value)
    return BaseLoadCurve(np.array(values))


def save_base_curve(curve: BaseLoadCurve, path: str | Path) -> None:
    Path(path).write_text("".join(f"{float(v)!r}\n" for v in curve.p_base))


@dataclass(frozen=True)
class HouseholdLoad:
    """One consumer's day of demand."""

    bus: int
    phase: str
    p: np.ndarray  # watts, 96 values
    q: np.ndarray  # vars, 96 values


def sample_household_loads(
    curve: BaseLoadCurve,
    consumers: list[tuple[int, str]],
    sigma_fraction: float = DEFAULT_SIGMA_FRACTION,
    power_factor: float = DEFAULT_POWER_FACTOR,
    seed=0,
    *,
    leading: bool = False,
) -> list[HouseholdLoad]:
    """Draw every consumer's active power per slot, seeded and reproducible.

    p[t] ~ Normal(curve[t], sigma_fraction * curve[t]), clipped at zero;
    q[t] follows from the power factor. sigma_fraction = 0 reproduces the
    curve exactly. One (consumers, 96) draw, which each returned row views.
    """
    if not 0 <= sigma_fraction < math.inf:
        raise ValueError(f"sigma_fraction must be in [0, inf), got {sigma_fraction}")
    for _, phase in consumers:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((len(consumers), SLOTS_PER_DAY))  # scaled in place
    p *= sigma_fraction * curve.p_base
    p += curve.p_base
    np.maximum(p, 0.0, out=p)
    q = reactive_from_active(p, power_factor, leading=leading)
    return [HouseholdLoad(b, ph, p_row, q_row) for (b, ph), p_row, q_row in zip(consumers, p, q)]


@dataclass(frozen=True)
class EvSpec:
    """One vehicle: where it plugs in and what its battery needs."""

    bus: int
    phase: str
    capacity_kwh: float
    arrival: int    # slot
    departure: int  # slot
    initial_soc: float

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if not 0 < self.capacity_kwh < math.inf:
            raise ValueError(f"capacity {self.capacity_kwh} kWh must be positive and finite")
        if not 0 <= self.initial_soc <= SOC_TARGET:
            raise ValueError(f"initial SOC {self.initial_soc} outside [0, {SOC_TARGET}]")
        if not (0 <= self.arrival < SLOTS_PER_DAY and 0 <= self.departure < SLOTS_PER_DAY):
            raise ValueError("arrival/departure must be slot indices")
        if self.arrival == self.departure:
            raise ValueError("arrival and departure coincide")


@dataclass(frozen=True)
class FleetSpec:
    """All vehicles on the feeder plus their common charging rate."""

    vehicles: tuple[EvSpec, ...]
    charge_power_w: float = DEFAULT_CHARGE_POWER_W

    def __post_init__(self):
        if not 0 < self.charge_power_w < math.inf:
            raise ValueError(f"charge power {self.charge_power_w} W must be positive and finite")
        seen = set()
        for ev in self.vehicles:
            key = (ev.bus, ev.phase)
            if key in seen:
                raise ValueError(f"two vehicles at bus {ev.bus} phase {ev.phase}")
            seen.add(key)


@dataclass(frozen=True)
class EvDistributions:
    """Sampling bounds and moments for fleet generation.

    Capacity is uniform; arrival, departure and initial SOC are truncated
    normals (resampled until inside the bounds). Arrival hours above 24 wrap
    past midnight.
    """

    capacity_range_kwh: tuple[float, float] = (6.0, 30.0)
    arrival_mean_h: float = 19.0
    arrival_sd_h: float = 2.0
    arrival_range_h: tuple[float, float] = (16.0, 25.0)
    departure_mean_h: float = 7.0
    departure_sd_h: float = 2.0
    departure_range_h: tuple[float, float] = (5.0, 12.0)
    soc_mean: float = 0.75
    soc_sd: float = 0.25
    soc_range: tuple[float, float] = (0.25, 0.95)


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


def truncated_normal_mean(mean: float, sd: float, low: float, high: float) -> float:
    """Exact mean of the truncated normal, for statistical oracles."""
    a = (low - mean) / sd
    b = (high - mean) / sd
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    return mean + sd * (phi(a) - phi(b)) / (cdf(b) - cdf(a))


def sample_fleet(
    consumers: list[tuple[int, str]],
    penetration: float,
    dist: EvDistributions = EvDistributions(),
    charge_power_w: float = DEFAULT_CHARGE_POWER_W,
    seed=0,
) -> FleetSpec:
    """Assign EVs to floor(penetration * len(consumers)) consumers.

    Owners are chosen uniformly without replacement; per-vehicle parameters
    follow `dist`. Fully determined by the seed.
    """
    if not 0 <= penetration <= 1:
        raise ValueError("penetration must be in [0, 1]")
    rng = np.random.default_rng(seed)
    count = int(penetration * len(consumers))
    if count == 0:
        return FleetSpec(vehicles=(), charge_power_w=charge_power_w)
    chosen = sorted(rng.choice(len(consumers), size=count, replace=False).tolist())
    capacity = rng.uniform(*dist.capacity_range_kwh, size=count)
    arrival_h = truncated_normal(
        rng, dist.arrival_mean_h, dist.arrival_sd_h, *dist.arrival_range_h, size=count
    )
    departure_h = truncated_normal(
        rng, dist.departure_mean_h, dist.departure_sd_h, *dist.departure_range_h, size=count
    )
    soc = truncated_normal(rng, dist.soc_mean, dist.soc_sd, *dist.soc_range, size=count)
    vehicles = []
    for i, ci in enumerate(chosen):
        bus, phase = consumers[ci]
        vehicles.append(
            EvSpec(
                bus=bus,
                phase=phase,
                capacity_kwh=float(capacity[i]),
                arrival=slot_of_hours(float(arrival_h[i])),
                departure=slot_of_hours(float(departure_h[i])),
                initial_soc=float(soc[i]),
            )
        )
    return FleetSpec(vehicles=tuple(vehicles), charge_power_w=charge_power_w)


def load_fleet(
    fleet_file: str | Path, charge_power_w: float = DEFAULT_CHARGE_POWER_W
) -> FleetSpec:
    """Read a fleet file: `bus phase capacity_kwh arrival departure soc_percent`.

    Initial SOC outside the sampling bounds is accepted with one warning per
    file listing every such row: the shipped roster takes precedence over
    the distribution's bounds.
    """
    path = Path(fleet_file)
    lo, hi = EvDistributions().soc_range
    vehicles = []
    out_of_range = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split()
        if len(parts) != 6:
            raise FleetFormatError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        try:
            bus = int(parts[0])
            phase = parts[1]
            capacity = float(parts[2])
            arrival = slot_of(parts[3])
            departure = slot_of(parts[4])
            soc = float(parts[5]) / 100.0
        except ValueError as exc:
            raise FleetFormatError(f"{path}:{lineno}: {exc}") from None
        if not lo <= soc <= hi:
            out_of_range.append(f"line {lineno}: initial SOC {soc:.0%}")
        try:
            vehicles.append(
                EvSpec(bus=bus, phase=phase, capacity_kwh=capacity,
                       arrival=arrival, departure=departure, initial_soc=soc)
            )
        except ValueError as exc:
            raise FleetFormatError(f"{path}:{lineno}: {exc}") from None
    try:
        fleet = FleetSpec(vehicles=tuple(vehicles), charge_power_w=charge_power_w)
    except ValueError as exc:
        raise FleetFormatError(f"{path}: {exc}") from None
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
    for ev in fleet.vehicles:
        rows.append(
            f"{ev.bus} {ev.phase} {ev.capacity_kwh!r} "
            f"{time_of(ev.arrival)} {time_of(ev.departure)} {ev.initial_soc * 100!r}"
        )
    Path(path).write_text("\n".join(rows) + "\n")


def charge_duration_slots(ev: EvSpec, charge_power_w: float = DEFAULT_CHARGE_POWER_W) -> int:
    """Slots of fixed-rate charging needed to reach the 95% SOC target.

    energy deficit [kWh] / rate [kW], rounded up to whole slots so the
    target is always met or exceeded. The rounding tolerates float noise so
    exact multiples of a slot do not spill into an extra one.
    """
    if charge_power_w <= 0:
        raise ValueError("charge power must be positive")
    hours = ev.capacity_kwh * max(SOC_TARGET - ev.initial_soc, 0.0) / (charge_power_w / 1000.0)
    return math.ceil(round(hours / SLOT_HOURS, 9))
