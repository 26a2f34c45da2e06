"""Scenario orchestration: compose feeder, loads, fleet, strategy and solver.

A scenario is one charging strategy evaluated over the 96-slot day, possibly
for several Monte Carlo trials that resample household demand. A sweep runs
all five strategies against bitwise-identical household draws, so any
difference between the reports isolates the strategy. As the strategies differ
only where an EV charges, a trial solves its distinct demand rows once, as one
batch: the household row of every slot some strategy leaves without EV power,
and a strategy's own row where it charges. Each row is reduced to floats as it
leaves the solver, so no complex state is kept per trial, and each strategy
gathers its day from those rows through a (96,) row index. A trial's inputs
are whole arrays: the household draw, copied straight into the rows, and the
fleet and each schedule as columns, whose charging cells add the EV power; a
loaded fleet's schedules are built once per run. A run feeds its trials'
batches to one solver stream, which samples the next trial only when it has
room for its rows, so that one trial's slowest slots iterate alongside the
next ones'.

Every run writes plot-ready artifacts: ``summary.json``, ``voltages.csv``
(bus, wire, slot, |V| pu), ``currents.csv``, ``losses.csv`` (slot, kW) and a
``manifest.json`` that echoes the resolved configuration and the derived
per-trial seeds, enough to reproduce every output byte (wall-clock metadata
aside). The CSVs show trial 0's day of each strategy, written in one pass:
each distinct row of trial 0 is formatted once per run, one ``%.9g``
template per block, and every strategy reading the row takes its line.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import os
import time
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import charging, loads, metrics, powerflow
from .charging import ChargeSchedule, ZonePlan
from .loads import FleetSpec, Households
from .metrics import ReducedRows, ScenarioReport
from .network import PHASES, WIRES, NetworkTopology, load_topology, read_text, statements
from .powerflow import InfeasibleInjectionError, SlotRecord
from .slots import SLOTS_PER_DAY, slot_of

__version__ = "0.1.0"

STRATEGIES = ("baseline", "uncontrolled", "timer", "zoned", "semismart")
ORACLE_TOLERANCE_PU = 1e-8


class SimulationError(RuntimeError):
    """A trial could not be completed; carries slot and strategy attribution."""


def _data_path(*parts: str) -> Path:
    return Path(resources.files("evfeeder").joinpath("data", *parts))


def default_feeder_path() -> Path:
    return _data_path("feeders", "paper19.txt")


def default_fleet_path() -> Path:
    return _data_path("fleets", "ev34.txt")


def default_zones_path() -> Path:
    return _data_path("zones", "zones3.txt")


def default_curve_path() -> Path:
    return _data_path("curves", "residential.txt")


@dataclass
class ScenarioConfig:
    """Resolved inputs of one scenario run; all fields have usable defaults.

    A penetration samples the fleet instead of loading a roster, and cannot
    be combined with ``fleet_file``; with neither, the shipped roster is
    used. A run of only ``'baseline'`` neither loads nor samples a fleet.
    """

    strategy: str = "semismart"
    feeder: Path | str | None = None
    curve: Path | str | None = None
    fleet_file: Path | str | None = None
    penetration: float | None = None
    zones: Path | str | None = None
    timer_start: int = charging.TIMER_DEFAULT_START
    seed: int = 1
    trials: int = 1
    sigma_fraction: float = loads.DEFAULT_SIGMA_FRACTION
    power_factor: float = loads.DEFAULT_POWER_FACTOR
    leading_pf: bool = False
    charge_power_w: float = loads.DEFAULT_CHARGE_POWER_W
    tolerance: float | None = None
    max_iterations: int = powerflow.DEFAULT_MAX_ITERATIONS
    out_dir: Path | str | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, pick one of {STRATEGIES}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("trials", "max_iterations"):
            if not isinstance(value := getattr(self, name), numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.timer_start, numbers.Integral):
            raise ValueError(f"timer_start must be an integer slot, got {self.timer_start!r}")
        if not 0 <= self.sigma_fraction < math.inf:
            raise ValueError(f"sigma_fraction must be in [0, inf), got {self.sigma_fraction}")
        if not 0 < self.power_factor <= 1:
            raise ValueError(f"power_factor must be in (0, 1], got {self.power_factor}")
        for name in ("charge_power_w", "tolerance"):
            if (value := getattr(self, name)) is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.penetration is not None and not 0 <= self.penetration <= 1:
            raise ValueError("penetration must be in [0, 1]")
        if self.penetration is not None and self.fleet_file:
            raise ValueError("penetration samples a fleet and fleet_file loads one; give only one")

    def resolved(self) -> "ScenarioConfig":
        cfg = dataclasses.replace(self)
        cfg.feeder = Path(self.feeder) if self.feeder else default_feeder_path()
        cfg.curve = Path(self.curve) if self.curve else default_curve_path()
        cfg.zones = Path(self.zones) if self.zones else default_zones_path()
        if self.fleet_file:
            cfg.fleet_file = Path(self.fleet_file)
        elif self.penetration is None:
            cfg.fleet_file = default_fleet_path()
        return cfg


def consumers_of(topology: NetworkTopology) -> list[tuple[int, str]]:
    """One household per bus and phase, in canonical order."""
    return list(itertools.product(topology.buses, PHASES))


def trial_seeds(seed: int, trials: int) -> list[dict[str, int]]:
    """Derived (household, fleet) integer seeds per trial, reproducible."""
    state = np.random.SeedSequence(seed).generate_state(2 * trials, dtype=np.uint64)
    return [
        {"household": int(state[2 * i]), "fleet": int(state[2 * i + 1])}
        for i in range(trials)
    ]


def household_frame(households: Households, topology: NetworkTopology) -> np.ndarray:
    """Complex (96, n_buses, 3) household demand frame in volt-amperes.

    The households must be ``consumers_of(topology)``: one per bus and phase,
    bus-major, so that each slot's column of the draw is that slot's frame.
    """
    if list(households.consumers) != consumers_of(topology):
        raise ValueError("household demand needs one consumer per bus and phase, "
                         "in consumers_of order")
    return _household_rows(households, np.arange(SLOTS_PER_DAY), topology.n_buses)


def _household_rows(households: Households, slots: np.ndarray, n_buses: int) -> np.ndarray:
    """Complex (len(slots), n_buses, 3) demand of the bus-major draw's `slots`.

    A slot's column of the draw is its row. Rows are added onto zero, not
    copied: the sum turns the -0.0 a leading pf draws at zero power into +0.0.
    """
    rows = np.empty((len(slots), n_buses, 3), dtype=complex)
    flat = rows.reshape(len(slots), -1)
    for part, draw in ((flat.real, households.p), (flat.imag, households.q)):
        np.add(draw.T[slots], 0.0, out=part)
    return rows


def build_schedule(
    strategy: str,
    fleet: FleetSpec,
    *,
    timer_start: int = charging.TIMER_DEFAULT_START,
    zone_plan: ZonePlan | None = None,
) -> ChargeSchedule | None:
    """Schedule for one strategy; None for the no-EV baseline."""
    if strategy == "baseline":
        return None
    if strategy == "uncontrolled":
        return charging.schedule_uncontrolled(fleet)
    if strategy == "timer":
        return charging.schedule_timer(fleet, start=timer_start)
    if strategy == "zoned":
        if zone_plan is None:
            raise ValueError("zoned strategy needs a zone plan")
        return charging.schedule_zoned(fleet, zone_plan)
    if strategy == "semismart":
        return charging.schedule_semi_smart(fleet)
    raise ValueError(f"unknown strategy {strategy!r}")


def solve_horizon(
    topology: NetworkTopology,
    stream: Iterator[SlotRecord],
    days: dict[str, np.ndarray],
) -> SlotRecord:
    """Take a trial's solved (n_rows, n_buses, 3) demand rows, the next state of `stream`.

    ``days`` maps each strategy to the (96,) index of its slots' rows; it is
    read once the state is taken. A failed slot aborts the trial, naming the
    first one in (strategy, slot) order; an empty strategy name is left out
    of the message.
    """
    solved = next(stream)
    for strategy, index in days.items():
        failed = np.flatnonzero(~solved.converged[index])
        if not failed.size:
            continue
        t, row = int(failed[0]), int(index[failed[0]])
        label = f" under strategy {strategy!r}" if strategy else ""
        try:
            powerflow.check_collapse(solved, row, topology)
        except InfeasibleInjectionError as exc:
            raise SimulationError(f"slot {t}{label}: {exc}") from exc
        raise SimulationError(
            f"slot {t}{label}: no convergence after {solved.iterations[row]} iterations "
            f"(last voltage change {solved.max_dv[row]:.3e} V)"
        )
    return solved


class _Inputs:
    """Shared, immutable pieces loaded once per run; each file only by a run that reads it."""

    def __init__(self, cfg: ScenarioConfig, strategies: tuple[str, ...] = STRATEGIES):
        self.cfg = cfg
        self.strategies = strategies
        self.topology = load_topology(cfg.feeder)
        self.curve = loads.load_base_curve(cfg.curve)
        self.consumers = consumers_of(self.topology)
        self.zone_plan = None
        if "zoned" in strategies:
            self.zone_plan = plan = charging.load_zone_plan(cfg.zones)
            row = {zone: k for k, zone in enumerate(plan.start_times)}  # one statement per zone
            self._on_feeder(cfg.zones, list(plan.zones), [row[z] for z in plan.zones.values()], "bus")
        self.needs_fleet = any(s != "baseline" for s in strategies)
        self.file_fleet = self.file_schedules = None
        if self.needs_fleet and cfg.fleet_file is not None:
            self.file_fleet = loads.load_fleet(cfg.fleet_file, cfg.charge_power_w)
            bus = self.file_fleet.bus.tolist()  # each statement of a fleet file is one vehicle
            self._on_feeder(cfg.fleet_file, bus, range(len(bus)), "vehicle at bus")
            self.file_schedules = self.schedules_for_trial(None)  # the same every trial

    def _on_feeder(self, path: Path, buses: list[int], statement_of, what: str) -> None:
        """Raise at the `path:line` of the first bus off the feeder, buses[k] from statement_of[k]."""
        n = self.topology.n_buses
        outside = [k for k, bus in enumerate(buses) if not 1 <= bus <= n]
        if outside:
            lineno, _ = list(statements(read_text(path)))[statement_of[outside[0]]]
            raise ValueError(
                f"{path}:{lineno}: {what} {buses[outside[0]]} is outside the feeder's {n} buses")

    def fleet_for_trial(self, fleet_seed: int) -> FleetSpec | None:
        if self.file_fleet is not None or not self.needs_fleet:
            return self.file_fleet  # None when no strategy charges
        return loads.sample_fleet(
            self.consumers,
            self.cfg.penetration,
            charge_power_w=self.cfg.charge_power_w,
            seed=fleet_seed,
        )

    def schedules_for_trial(self, fleet_seed: int | None) -> dict[str, ChargeSchedule]:
        """The schedule of each strategy that charges; a loaded fleet's are built once."""
        if self.file_schedules is not None:
            return self.file_schedules
        fleet, cfg = self.fleet_for_trial(fleet_seed), self.cfg
        built = {s: build_schedule(s, fleet, timer_start=cfg.timer_start, zone_plan=self.zone_plan)
                 for s in self.strategies}
        return {s: schedule for s, schedule in built.items() if schedule is not None}

    def households_for_trial(self, household_seed: int) -> Households:
        return loads.sample_household_loads(
            self.curve,
            self.consumers,
            self.cfg.sigma_fraction,
            self.cfg.power_factor,
            seed=household_seed,
            leading=self.cfg.leading_pf,
        )


def _trial_rows(inputs: _Inputs, seeds: dict) -> tuple[np.ndarray, dict]:
    """A trial's demand rows to solve, and each strategy's (96,) index into them.

    A slot where a strategy draws no EV power reads the household row, kept once
    if some strategy reads it; a slot where the strategy charges has its own row.
    Each row is its slot's household draw, plus each charging cell's EV power.
    """
    households = inputs.households_for_trial(seeds["household"])
    schedules = inputs.schedules_for_trial(seeds["fleet"])
    cells = {s: schedule.cells() for s, schedule in schedules.items()}
    own = {s: np.zeros(SLOTS_PER_DAY, dtype=bool) for s in inputs.strategies}
    for strategy, (slot, _, _) in cells.items():
        own[strategy][slot] = True
    shared = ~np.logical_and.reduce(list(own.values()))
    slots = np.concatenate([np.flatnonzero(mask) for mask in [shared, *own.values()]])
    rows = _household_rows(households, slots, inputs.topology.n_buses)
    ends = np.cumsum([mask.sum() for mask in [shared, *own.values()]])
    days = {}
    for (strategy, mask), start, stop in zip(own.items(), ends, ends[1:]):
        days[strategy] = np.cumsum(shared) - 1
        days[strategy][mask] = np.arange(start, stop)
        if strategy in cells:
            slot, bus, phase = cells[strategy]
            rows.real[days[strategy][slot], bus, phase] += schedules[strategy].power_w
    return rows, days


def _aggregate(per_trial: list[dict]) -> dict:
    def stats(values):
        arr = np.asarray(values, dtype=float)
        return {"mean": float(arr.mean()), "std": float(arr.std())}

    return {
        "total_loss_kwh": stats([s["total_loss_kwh"] for s in per_trial]),
        "min_voltage_pu_overall": stats(
            [s["min_voltage_pu"]["overall"] for s in per_trial]
        ),
        "max_neutral_voltage_pu": stats(
            [s["max_neutral_voltage_pu"] for s in per_trial]
        ),
    }


def _run(config: ScenarioConfig, strategies: tuple[str, ...]) -> dict[str, ScenarioReport]:
    """The trial loop: every strategy sees the same household draw per trial.

    Returns each strategy's first-trial report, carrying the per-trial
    summaries and their aggregate in ``extra``.
    """
    cfg = config.resolved()
    inputs = _Inputs(cfg, strategies)
    topo = inputs.topology
    seeds = trial_seeds(cfg.seed, cfg.trials)
    # each trial's day index per strategy, filled in as the solver pulls the
    # trial's rows, which it does before it yields their states
    days_of = [{} for _ in seeds]

    def rows_of(sd: dict, days: dict) -> np.ndarray:
        rows, trial_days = _trial_rows(inputs, sd)
        days.update(trial_days)
        return rows

    # a map, unlike a generator, holds none of the rows it has returned
    stream = powerflow.solve_stream(
        topo, map(rows_of, seeds, days_of),
        tolerance=cfg.tolerance, max_iterations=cfg.max_iterations,
        sink=metrics.row_sink(topo),  # each slot's float rows, as it leaves
    )
    later: dict[str, list[dict]] = {s: [] for s in strategies}
    for i, days in enumerate(days_of):
        try:
            rows = solve_horizon(topo, stream, days)
        except SimulationError as exc:
            raise SimulationError(f"trial {i}: {exc}") from None
        if i:  # a later trial's reports are read for their summaries only
            for strategy, index in days.items():
                later[strategy].append(metrics.reduce_horizon(strategy, rows, index).summary())
        first = first if i else rows  # trial 0's distinct rows, which its reports and files read
        del rows  # a later trial's float rows are not held through the next solve
    reports = {s: metrics.reduce_horizon(s, first, index) for s, index in days_of[0].items()}
    for strategy, report in reports.items():
        report.extra["per_trial"] = [report.summary(), *later[strategy]]
        report.extra["aggregate"] = _aggregate(report.extra["per_trial"])
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        # one strategy writes into out_dir; several write a subdirectory each
        # plus a comparison table against the uncontrolled scenario
        single = len(strategies) == 1
        write_report_files(out, first, {"" if single else s: days_of[0][s] for s in reports}, topo)
        for strategy, report in reports.items():
            _write_json(out / ("" if single else strategy) / "summary.json", {
                "scenario": strategy,
                "trials": cfg.trials,
                "per_trial": report.extra["per_trial"],
                "aggregate": report.extra["aggregate"],
            })
        if not single:
            table = metrics.compare_scenarios(
                {s: r.summary() for s, r in reports.items()}, baseline="uncontrolled"
            )
            _write_comparison_csv(out / "comparison.csv", table)
            with _create(out / "comparison.txt") as f:
                f.write(metrics.format_comparison(table, "uncontrolled") + "\n")
        _write_json(out / "manifest.json", build_manifest(cfg, seeds))
    return reports


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run one strategy for the configured trials; write files if out_dir set.

    Returns the first trial's full report; multi-trial aggregates land in
    ``summary.json`` and in ``report.extra['aggregate']``.
    """
    return _run(config, (config.strategy,))[config.strategy]


def run_sweep(config: ScenarioConfig) -> dict[str, ScenarioReport]:
    """Run all five strategies with shared household draws per trial.

    Writes per-strategy subdirectories plus a comparison table against the
    uncontrolled scenario when out_dir is set.
    """
    return _run(config, STRATEGIES)


def validate(config: ScenarioConfig) -> dict:
    """Cross-check both solvers on the configured feeder at three snapshots.

    Uses noise-free household demand at the curve's valley, shoulder (08:00)
    and peak slots; reads only the feeder and the curve. Returns per-snapshot
    residuals plus an ``ok`` flag, and ``failures``: one line per snapshot
    and cause that clears ``ok``, a solver that stopped unconverged or a gap
    beyond ORACLE_TOLERANCE_PU. A snapshot the feeder cannot serve raises
    SimulationError naming the snapshot and slot.
    """
    cfg = config.resolved()
    topo = load_topology(cfg.feeder)
    curve = loads.load_base_curve(cfg.curve)
    snapshots = {
        "valley": int(np.argmin(curve.p_base)),
        "shoulder": slot_of("08:00"),
        "peak": int(np.argmax(curve.p_base)),
    }
    households = loads.sample_household_loads(
        curve, consumers_of(topo), 0.0, cfg.power_factor, seed=0, leading=cfg.leading_pf
    )
    demand = household_frame(households, topo)
    limits = {"tolerance": cfg.tolerance, "max_iterations": cfg.max_iterations}
    slots = list(snapshots.values())
    sweep = powerflow.solve_batch(topo, demand[slots], **limits)
    rows, failures = {}, []
    for i, (name, t) in enumerate(snapshots.items()):
        try:
            powerflow.check_collapse(sweep, i, topo)
            direct = powerflow.solve_direct(topo, demand[t], **limits)
        except InfeasibleInjectionError as exc:
            raise SimulationError(f"{name} snapshot, slot {t}: {exc}") from exc
        disagreement = float(np.max(np.abs(sweep.v[i] - direct.v))) / topo.v_base
        rows[name] = {
            "slot": t,
            "curve_w": float(curve.p_base[t]),
            "sweep_iterations": int(sweep.iterations[i]),
            "direct_iterations": direct.iterations,
            "disagreement_pu": disagreement,
            "min_voltage_pu": float(sweep[i].phase_voltage_pu(topo.v_base).min()),
        }
        ended = {"sweep": (sweep.iterations[i], sweep.converged[i]),
                 "direct": (direct.iterations, direct.converged)}
        causes = [f"the {solver} solver stopped unconverged after {k} iterations"
                  for solver, (k, converged) in ended.items() if not converged]
        if disagreement > ORACLE_TOLERANCE_PU:
            causes.append(f"the solvers disagree by {disagreement:.3e} pu, "
                          f"beyond {ORACLE_TOLERANCE_PU:.0e} pu")
        failures += [f"{name} snapshot, slot {t}: {cause}" for cause in causes]
    for row, kcl, p, q in zip(rows.values(), *powerflow.residuals(sweep, topo, demand[slots])):
        row.update(kcl_residual_a=float(kcl), power_balance_err=(float(p), float(q)))
    return {"ok": not failures, "failures": failures, "snapshots": rows,
            "tolerance_pu": ORACLE_TOLERANCE_PU}


# ---------------------------------------------------------------------------
# file output

def _create(path: Path):
    """Open ``path`` as a new file; truncating a just-written one waits on the disk."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return open(path, "w")


def _write_rows(paths: dict[Path, np.ndarray], header: str, keys: list[str],
               *columns: np.ndarray) -> None:
    """Write slot-indexed CSVs, key-outer and slot-inner, whose days share rows.

    Each column is an (n_rows, len(keys)) array; ``paths`` maps each file to
    the (96,) index of its slots' rows, and a row is read at one slot only.
    ``keys[j]`` (``""`` for none, no ``%`` or newline) opens key j's lines,
    ``<key><slot>,<value>[,<value>]``. One ``%.9g`` template, the same text as
    ``format(x, '.9g')``, formats whole keys in blocks of about 1024 rows, each
    row once, and every file reading the row takes its line.
    """
    slot = np.zeros(len(columns[0]), dtype=int)
    for index in paths.values():
        slot[index] = np.arange(SLOTS_PER_DAY)
    cells = ",%.9g" * len(columns)
    row_lines = [f"{t}{cells}\n" for t in slot.tolist()]  # each row's line minus its key
    per_block = max(1, 1024 // len(slot))
    firsts = np.arange(per_block)[:, None] * len(slot)  # each key's first line in a block
    with ExitStack() as stack:
        files = [(stack.enter_context(_create(path)), (firsts + index).ravel().tolist())
                 for path, index in paths.items()]
        for f, _ in files:
            f.write(header + "\n")
        for start in range(0, len(keys), per_block):
            block = keys[start:start + per_block]
            template = "".join(key + key.join(row_lines) for key in block)
            values = np.stack([column[:, start:start + per_block].T for column in columns], axis=2)
            lines = (template % tuple(values.ravel().tolist())).split("\n")
            for f, order in files:  # the file's lines of the block, key by key
                f.write("\n".join(itemgetter(*order[:len(block) * SLOTS_PER_DAY])(lines)))
                f.write("\n")


def write_report_files(out: Path, rows: ReducedRows, days: dict[str, np.ndarray],
                       topology: NetworkTopology) -> None:
    """Write each day's CSVs from the rows the days share; ``days`` maps a
    subdirectory of `out` (``""`` for `out`) to the (96,) index of its slots' rows."""
    bus_keys = [f"{b},{wire}," for b in topology.buses for wire in WIRES]
    line_keys = [f"{ln.from_bus},{ln.to_bus},{wire}," for ln in topology.lines for wire in WIRES]
    n = len(rows)
    for name, header, keys, column in (
        ("voltages.csv", "bus,wire,slot,v_pu", bus_keys, rows.voltage_pu.reshape(n, -1)),
        ("currents.csv", "from_bus,to_bus,wire,slot,i_a", line_keys, rows.current_a.reshape(n, -1)),
        ("losses.csv", "slot,loss_kw", [""], rows.loss_kw[:, None]),
    ):
        _write_rows({out / sub / name: index for sub, index in days.items()}, header, keys, column)


def build_manifest(cfg: ScenarioConfig, seeds: list[dict[str, int]]) -> dict:
    return {
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "trial_seeds": seeds,
        "wall_clock_unix": time.time(),
    }


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True, default=os.fspath) + "\n")


def _write_comparison_csv(path: Path, table: dict[str, dict[str, float]]) -> None:
    fields = ("total_loss_kwh", "loss_change_pct", "min_voltage_pu", "min_voltage_delta_pp")
    with _create(path) as f:
        f.write(",".join(("scenario",) + fields) + "\n")
        for name in STRATEGIES:
            if name in table:
                f.write("%s,%.9g,%.9g,%.9g,%.9g\n" % (name, *map(table[name].get, fields)))
