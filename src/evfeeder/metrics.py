"""Reduction of a solved day into the reported study quantities.

Each solved row is reduced once, whichever strategies read it:
:func:`row_sink` turns the rows that left the solver into per-unit voltages,
line current magnitudes, and each row's series losses and slack/load powers:
a trial's rows in a few calls on a small feeder, and each iteration's on a
large one, whose solver has no bus-slots to spare for waiting rows. A run so
holds no complex state per trial. :func:`reduce_horizon` then gathers one
strategy's 96 slots of voltages and currents through its row index, locates
the extremes and sums the energies in slot order. A collapsed row keeps
where it fell, which the solver located: ``ReducedRows`` and
``powerflow.HorizonState`` are both ``powerflow.SlotRecord``s, whose outcome
arrays ``powerflow.check_collapse`` reads. Losses are resistive I^2 R over
every conductor including the neutral, integrated over the day. Voltages
are reported per unit as |v_phase - v_neutral| / v_base for the phases and
|v_neutral| / v_base for the neutral wire.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .network import PHASES, NetworkTopology
from .powerflow import SlotRecord, phase_to_neutral, slot_sums
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
    t, b = divmod(int(arg(pu)), pu.shape[1])
    return Extremum(value_pu=float(pu[t, b]), bus=int(b) + 1, slot=int(t))


SolvedRow = namedtuple("SolvedRow", "iterations max_dv converged")


@dataclass
class ReducedRows(SlotRecord):
    """The report quantities of each row of a solved batch, row-major, beside
    each row's SlotRecord outcome.

    voltage_pu  -- (rows, n_buses, 4) per-unit magnitudes, phases then neutral
    current_a   -- (rows, n_lines, 4) line current magnitudes, amperes
    loss_kw     -- (rows,) series losses
    slack_w     -- (rows,) active power supplied at the slack bus
    load_w      -- (rows,) active power delivered to the loads

    ``rows[t]`` is row t's SolvedRow, how the solver fared on it;
    ``powerflow.check_collapse(rows, t, topology)`` raises where it fell.
    """

    voltage_pu: np.ndarray
    current_a: np.ndarray
    loss_kw: np.ndarray
    slack_w: np.ndarray
    load_w: np.ndarray

    @classmethod
    def zeros(cls, n_rows: int, topology: NetworkTopology) -> "ReducedRows":
        n, m = topology.n_buses, topology.to_bus.size
        return super().zeros(n_rows, topology, voltage_pu=np.zeros((n_rows, n, 4)),
                             current_a=np.zeros((n_rows, m, 4)), loss_kw=np.zeros(n_rows),
                             slack_w=np.zeros(n_rows), load_w=np.zeros(n_rows))

    def __getitem__(self, t: int) -> SolvedRow:
        return SolvedRow(int(self.iterations[t]), float(self.max_dv[t]), bool(self.converged[t]))


def row_sink(topology: NetworkTopology) -> tuple:
    """The solver sink ``(ReducedRows, reduce)`` that reduces slots that left the solver.

    ``reduce`` replaces the slots' v, i_line and i_load by their ReducedRows
    quantities, and drops a collapsed slot's v, whose collapse point the
    solver has located. Slots wait for it while the solver's active set
    leaves bus-slots unused; a large feeder's uses them all, so there it
    runs every iteration. Slack and load powers are complex products summed
    row by row; the real parts kept.
    """
    r = topology.line_arrays[2].real
    slack_lines = np.flatnonzero(topology.line_arrays[0] == 0)

    def reduce(values: dict) -> dict:
        v = values.pop("v")
        if "i_line" not in values:  # collapsed, and located by the solver
            return values
        i_line, i_load = values.pop("i_line"), values.pop("i_load")
        # supplied through the slack's lines plus served at the slack bus
        slack_va = slot_sums(v[:, :1] * np.conj(i_line[:, slack_lines]))
        current_a = np.abs(i_line)
        del i_line
        loss_kw = slot_sums(np.square(current_a) * r) / 1e3
        u = phase_to_neutral(v)
        voltage_pu = np.empty_like(v, dtype=float)
        for p in range(3):  # a strided pass per phase, not a loop of 3 per row
            np.abs(u[..., p], out=voltage_pu[..., p])
        np.abs(v[..., 3], out=voltage_pu[..., 3])
        del v
        voltage_pu /= topology.v_base
        load_va = np.multiply(u, np.conj(i_load), out=u)
        del u, i_load
        slack_va += slot_sums(load_va[:, :1])
        values.update(voltage_pu=voltage_pu, current_a=current_a, slack_w=slack_va.real,
                      loss_kw=loss_kw, load_w=slot_sums(load_va).real)
        return values

    return ReducedRows, reduce


def reduce_horizon(scenario: str, rows: ReducedRows, slots: np.ndarray) -> ScenarioReport:
    """Build the full report for one day from its reduced rows.

    ``slots`` indexes the day's 96 slots in ``rows``, which may hold a whole
    trial's batch. The per-phase minima are independent per phase;
    ``phase_minima_at_worst_bus`` evaluates all three phases at the single
    overall worst bus, since the two conventions differ on unbalanced
    feeders. The slack and load energies integrate the slack supply and the
    delivered load slot by slot.
    """
    bad = np.flatnonzero(~rows.converged[slots]).tolist()
    if bad:
        raise ValueError(f"slots {bad} are not converged; refusing to reduce")
    if len(slots) != SLOTS_PER_DAY:
        raise ValueError(f"expected {SLOTS_PER_DAY} states, got {len(slots)}")
    voltage_pu = rows.voltage_pu[slots]
    loss_kw = rows.loss_kw[slots]
    # sequential sums: np.sum over the slots would pair them differently
    slack_wh = 0.0
    load_wh = 0.0
    for slack, load in zip(rows.slack_w[slots].tolist(), rows.load_w[slots].tolist()):
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
        current_a=rows.current_a[slots],
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
