"""Reduction of a solved day into the reported study quantities.

:func:`reduce_horizon` reads the solved day as slot-major arrays: the
per-unit voltages, the line current magnitudes, and per slot the series
losses and the slack/load powers; the extremes are then located on the
voltages. Losses are resistive I^2 R over every conductor including the
neutral, integrated over the day. Voltages are reported per unit as
|v_phase - v_neutral| / v_base for the phases and |v_neutral| / v_base for
the neutral wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import PHASES, NetworkTopology
from .powerflow import HorizonState, slot_chunks
from .slots import SLOT_HOURS, SLOTS_PER_DAY


@dataclass(frozen=True)
class Extremum:
    """A per-unit extreme value with its location on the horizon."""

    value_pu: float
    bus: int
    slot: int


@dataclass
class ScenarioReport:
    """Everything the study reports about one simulated day."""

    scenario: str
    total_loss_kwh: float
    loss_kw: np.ndarray                  # (96,) series losses per slot
    min_voltage: dict[str, Extremum]     # keys 'a','b','c','overall'
    phase_minima_at_worst_bus: dict[str, float]
    max_neutral: Extremum
    voltage_pu: np.ndarray               # (96, n_buses, 4) magnitudes
    current_a: np.ndarray                # (96, n_lines, 4) magnitudes
    slack_energy_kwh: float
    load_energy_kwh: float
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Scalar view used for JSON output and comparisons."""
        return {
            "scenario": self.scenario,
            "total_loss_kwh": self.total_loss_kwh,
            "slack_energy_kwh": self.slack_energy_kwh,
            "load_energy_kwh": self.load_energy_kwh,
            "min_voltage_pu": {k: e.value_pu for k, e in self.min_voltage.items()},
            "min_voltage_bus": {k: e.bus for k, e in self.min_voltage.items()},
            "min_voltage_slot": {k: e.slot for k, e in self.min_voltage.items()},
            "phase_minima_at_worst_bus": dict(self.phase_minima_at_worst_bus),
            "max_neutral_voltage_pu": self.max_neutral.value_pu,
            "max_neutral_bus": self.max_neutral.bus,
            "max_neutral_slot": self.max_neutral.slot,
        }


def _extremum(pu: np.ndarray, arg) -> Extremum:
    """Locate ``arg`` (np.argmin or np.argmax) over a (slot, bus) array."""
    t, b = np.unravel_index(int(arg(pu)), pu.shape)
    return Extremum(value_pu=float(pu[t, b]), bus=int(b) + 1, slot=int(t))


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each slot's values; row by row, bitwise the per-slot np.sum."""
    return np.sum(x.reshape(len(x), -1), axis=1)


def reduce_horizon(
    scenario: str, day: HorizonState, topology: NetworkTopology, slots: np.ndarray
) -> ScenarioReport:
    """Build the full report for one solved day from its slot-major arrays.

    ``slots`` indexes the day's 96 slots in ``day``, which may hold a whole
    trial's batch. The per-phase minima are independent per phase;
    ``phase_minima_at_worst_bus`` evaluates all three phases at the single
    overall worst bus, since the two conventions differ on unbalanced
    feeders. The slack and load energies integrate the slack supply and the
    delivered load slot by slot.
    """
    bad = np.flatnonzero(~day.converged[slots]).tolist()
    if bad:
        raise ValueError(f"slots {bad} are not converged; refusing to reduce")
    if len(slots) != SLOTS_PER_DAY:
        raise ValueError(f"expected {SLOTS_PER_DAY} states, got {len(slots)}")
    frm, _, z = topology.line_arrays
    r = z.real
    voltage_pu = np.empty((SLOTS_PER_DAY, topology.n_buses, 4))
    current_a = np.empty((SLOTS_PER_DAY, len(topology.lines), 4))
    loss_kw = np.empty(SLOTS_PER_DAY)
    slack_va = np.empty(SLOTS_PER_DAY, dtype=complex)
    load_va = np.empty(SLOTS_PER_DAY, dtype=complex)
    # gathered in chunks of the solver's largest active set, which bound the temporaries
    for c in slot_chunks(SLOTS_PER_DAY, topology):
        v, i_line, i_load = day.v[slots[c]], day.i_line[slots[c]], day.i_load[slots[c]]
        u = v[..., :3] - v[..., 3:4]
        voltage_pu[c, :, :3] = np.abs(u) / topology.v_base
        voltage_pu[c, :, 3] = np.abs(v[..., 3]) / topology.v_base
        current_a[c] = np.abs(i_line)
        loss_kw[c] = _row_sums(current_a[c] ** 2 * r) / 1e3
        # supplied through the slack's lines plus served at the slack bus
        slack_va[c] = _row_sums(v[:, :1] * np.conj(i_line[:, frm == 0]))
        slack_va[c] += _row_sums(u[:, 0] * np.conj(i_load[:, 0]))
        load_va[c] = _row_sums(u * np.conj(i_load))
    # sequential sums: np.sum over the slots would pair them differently
    slack_wh = 0.0
    load_wh = 0.0
    for slack, load in zip(slack_va.real.tolist(), load_va.real.tolist()):
        slack_wh += slack * SLOT_HOURS
        load_wh += load * SLOT_HOURS
    minima = {ph: _extremum(voltage_pu[:, :, i], np.argmin) for i, ph in enumerate(PHASES)}
    worst = min(minima.values(), key=lambda e: e.value_pu)
    minima["overall"] = worst
    at_worst = {
        ph: float(voltage_pu[:, worst.bus - 1, i].min()) for i, ph in enumerate(PHASES)
    }
    return ScenarioReport(
        scenario=scenario,
        total_loss_kwh=float(loss_kw.sum() * SLOT_HOURS),
        loss_kw=loss_kw,
        min_voltage=minima,
        phase_minima_at_worst_bus=at_worst,
        max_neutral=_extremum(voltage_pu[:, :, 3], np.argmax),
        voltage_pu=voltage_pu,
        current_a=current_a,
        slack_energy_kwh=slack_wh / 1e3,
        load_energy_kwh=load_wh / 1e3,
    )


def compare_scenarios(
    summaries: dict[str, dict], baseline: str
) -> dict[str, dict[str, float]]:
    """Absolute values plus changes relative to a named baseline scenario.

    Losses are compared as signed percentages of the baseline losses
    (negative = reduction); minimum voltages as percentage-point changes.
    `summaries` maps scenario names to ScenarioReport.summary() dicts.
    """
    if baseline not in summaries:
        raise KeyError(f"baseline scenario {baseline!r} missing from reports")

    def _fields(entry):
        return entry["total_loss_kwh"], entry["min_voltage_pu"]["overall"]

    base_loss, base_minv = _fields(summaries[baseline])
    table = {}
    for name, entry in summaries.items():
        loss, minv = _fields(entry)
        table[name] = {
            "total_loss_kwh": loss,
            "loss_change_pct": 100.0 * (loss - base_loss) / base_loss if base_loss else 0.0,
            "min_voltage_pu": minv,
            "min_voltage_delta_pp": 100.0 * (minv - base_minv),
        }
    return table


def format_comparison(table: dict[str, dict[str, float]], baseline: str) -> str:
    """Plain-text comparison table."""
    header = (
        f"{'scenario':<14} {'loss_kwh':>12} {'vs ' + baseline:>10} "
        f"{'min_v_pu':>10} {'delta_pp':>9}"
    )
    rows = [header, "-" * len(header)]
    for name, row in table.items():
        rows.append(
            f"{name:<14} {row['total_loss_kwh']:>12.3f} "
            f"{row['loss_change_pct']:>+9.2f}% {row['min_voltage_pu']:>10.4f} "
            f"{row['min_voltage_delta_pp']:>+9.3f}"
        )
    return "\n".join(rows)
