"""Reductions of a solved horizon into the reported study quantities.

Losses are resistive I^2 R over every conductor including the neutral,
integrated over the day. Voltages are reported per unit as
|v_phase - v_neutral| / v_base for the phases and |v_neutral| / v_base for
the neutral wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import PHASES, NetworkTopology
from .powerflow import NetworkState, complex_power_balance
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


def _require_converged(states: list[NetworkState]) -> None:
    bad = [t for t, st in enumerate(states) if not st.converged]
    if bad:
        raise ValueError(f"slots {bad} are not converged; refusing to reduce")


def losses_per_slot_kw(states: list[NetworkState], topology: NetworkTopology) -> np.ndarray:
    """Series I^2 R losses per slot in kW, neutral conductor included."""
    _require_converged(states)
    r = topology.line_arrays[2].real
    out = np.empty(len(states))
    for t, st in enumerate(states):
        out[t] = np.sum(np.abs(st.i_line) ** 2 * r) / 1e3
    return out


def energy_losses(states: list[NetworkState], topology: NetworkTopology) -> float:
    """Wasted energy over the horizon in kWh."""
    return float(np.sum(losses_per_slot_kw(states, topology)) * SLOT_HOURS)


def worst_bus_voltages(
    states: list[NetworkState], topology: NetworkTopology
) -> tuple[dict[str, Extremum], dict[str, float]]:
    """Per-phase minima of |v_ph - v_n|/v_base with bus and slot attribution.

    Returns the independent per-phase minima (plus the overall minimum) and,
    separately, the per-phase minima evaluated at the single overall worst
    bus, since the two conventions differ for unbalanced feeders.
    """
    _require_converged(states)
    pu = np.stack([st.phase_voltage_pu(topology.v_base) for st in states])  # (T, N, 3)
    result: dict[str, Extremum] = {}
    for i, ph in enumerate(PHASES):
        t, b = np.unravel_index(int(np.argmin(pu[:, :, i])), pu[:, :, i].shape)
        result[ph] = Extremum(value_pu=float(pu[t, b, i]), bus=int(b) + 1, slot=int(t))
    overall_key = min(PHASES, key=lambda ph: result[ph].value_pu)
    worst = result[overall_key]
    result["overall"] = Extremum(value_pu=worst.value_pu, bus=worst.bus, slot=worst.slot)
    at_worst_bus = {
        ph: float(pu[:, worst.bus - 1, i].min()) for i, ph in enumerate(PHASES)
    }
    return result, at_worst_bus


def max_neutral_voltage(states: list[NetworkState], topology: NetworkTopology) -> Extremum:
    """Largest |v_n|/v_base over buses and slots."""
    _require_converged(states)
    pu = np.stack([st.neutral_voltage_pu(topology.v_base) for st in states])  # (T, N)
    t, b = np.unravel_index(int(np.argmax(pu)), pu.shape)
    return Extremum(value_pu=float(pu[t, b]), bus=int(b) + 1, slot=int(t))


def reduce_horizon(
    scenario: str,
    states: list[NetworkState],
    topology: NetworkTopology,
    injections: np.ndarray,
) -> ScenarioReport:
    """Build the full report for one solved day.

    `injections` is the (96, n_buses, 3) complex demand frame the states
    were solved from; it feeds the slack/load energy cross-check.
    """
    _require_converged(states)
    if len(states) != SLOTS_PER_DAY:
        raise ValueError(f"expected {SLOTS_PER_DAY} states, got {len(states)}")
    loss_kw = losses_per_slot_kw(states, topology)
    minima, at_worst = worst_bus_voltages(states, topology)
    neutral = max_neutral_voltage(states, topology)
    voltage_pu = np.empty((SLOTS_PER_DAY, topology.n_buses, 4))
    current_a = np.empty((SLOTS_PER_DAY, len(topology.lines), 4))
    slack_wh = 0.0
    load_wh = 0.0
    for t, st in enumerate(states):
        voltage_pu[t, :, :3] = st.phase_voltage_pu(topology.v_base)
        voltage_pu[t, :, 3] = st.neutral_voltage_pu(topology.v_base)
        current_a[t] = np.abs(st.i_line)
        bal = complex_power_balance(st, topology, injections[t])
        slack_wh += bal["slack"].real * SLOT_HOURS
        load_wh += bal["load"].real * SLOT_HOURS
    return ScenarioReport(
        scenario=scenario,
        total_loss_kwh=float(loss_kw.sum() * SLOT_HOURS),
        loss_kw=loss_kw,
        min_voltage=minima,
        phase_minima_at_worst_bus=at_worst,
        max_neutral=neutral,
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
