"""Scenario orchestration: compose feeder, loads, fleet, strategy and solver.

A scenario is one charging strategy evaluated over the 96-slot day, possibly
for several Monte Carlo trials that resample household demand. A sweep runs
all five strategies against bitwise-identical household draws so that any
difference between the reports isolates the strategy itself.

Every run writes plot-ready artifacts: ``summary.json``, ``voltages.csv``
(bus, wire, slot, |V| pu), ``currents.csv``, ``losses.csv`` (slot, kW) and a
``manifest.json`` that echoes the resolved configuration and the derived
per-trial seeds, enough to reproduce every output byte (wall-clock metadata
aside).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import charging, loads, metrics, powerflow
from .charging import ChargeSchedule, ZonePlan
from .loads import FleetSpec, HouseholdLoad
from .metrics import ScenarioReport
from .network import PHASES, WIRES, NetworkTopology, load_topology
from .powerflow import InfeasibleInjectionError, NetworkState
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

    ``fleet_file=None`` together with a penetration samples the fleet
    instead of loading the shipped roster. ``strategy='baseline'`` ignores
    the fleet entirely (zero EV frame).
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.penetration is not None and not 0 <= self.penetration <= 1:
            raise ValueError("penetration must be in [0, 1]")

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
    return [(bus, phase) for bus in topology.buses for phase in PHASES]


def trial_seeds(seed: int, trials: int) -> list[dict[str, int]]:
    """Derived (household, fleet) integer seeds per trial, reproducible."""
    state = np.random.SeedSequence(seed).generate_state(2 * trials, dtype=np.uint64)
    return [
        {"household": int(state[2 * i]), "fleet": int(state[2 * i + 1])}
        for i in range(trials)
    ]


def household_frame(
    households: list[HouseholdLoad], topology: NetworkTopology
) -> np.ndarray:
    """Complex (96, n_buses, 3) household demand frame in volt-amperes."""
    frame = np.zeros((SLOTS_PER_DAY, topology.n_buses, 3), dtype=complex)
    phase_index = {p: i for i, p in enumerate(PHASES)}
    for h in households:
        frame[:, h.bus - 1, phase_index[h.phase]] += h.p + 1j * h.q
    return frame


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
    demand: np.ndarray,
    *,
    tolerance: float | None = None,
    max_iterations: int = powerflow.DEFAULT_MAX_ITERATIONS,
    strategy: str = "",
) -> list[NetworkState]:
    """Solve all 96 slots; abort with attribution on any failed slot."""
    states = []
    label = f" under strategy {strategy!r}" if strategy else ""
    for t in range(SLOTS_PER_DAY):
        try:
            st = powerflow.solve_sweep(
                topology, demand[t], tolerance=tolerance, max_iterations=max_iterations
            )
        except InfeasibleInjectionError as exc:
            raise SimulationError(f"slot {t}{label}: {exc}") from exc
        if not st.converged:
            raise SimulationError(
                f"slot {t}{label}: no convergence after {st.iterations} iterations "
                f"(last voltage change {st.max_dv:.3e} V)"
            )
        states.append(st)
    return states


class _Inputs:
    """Shared, immutable pieces loaded once per run."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.topology = load_topology(cfg.feeder)
        self.curve = loads.load_base_curve(cfg.curve)
        self.consumers = consumers_of(self.topology)
        self.zone_plan = charging.load_zone_plan(cfg.zones) if cfg.zones else None
        self.file_fleet = None
        if cfg.fleet_file is not None:
            self.file_fleet = loads.load_fleet(cfg.fleet_file, cfg.charge_power_w)
            n = self.topology.n_buses
            for ev in self.file_fleet.vehicles:
                if not 1 <= ev.bus <= n:
                    raise ValueError(
                        f"{cfg.fleet_file}: vehicle at bus {ev.bus} is outside the "
                        f"feeder's {n} buses"
                    )

    def fleet_for_trial(self, fleet_seed: int) -> FleetSpec:
        if self.file_fleet is not None:
            return self.file_fleet
        return loads.sample_fleet(
            self.consumers,
            self.cfg.penetration,
            charge_power_w=self.cfg.charge_power_w,
            seed=fleet_seed,
        )

    def households_for_trial(self, household_seed: int) -> list[HouseholdLoad]:
        return loads.sample_household_loads(
            self.curve,
            self.consumers,
            self.cfg.sigma_fraction,
            self.cfg.power_factor,
            seed=household_seed,
            leading=self.cfg.leading_pf,
        )


def _run_one(
    inputs: _Inputs, strategy: str, frame: np.ndarray, fleet: FleetSpec
) -> ScenarioReport:
    """Solve and reduce one strategy's day on a trial's household frame."""
    cfg = inputs.cfg
    topo = inputs.topology
    demand = frame
    schedule = build_schedule(
        strategy, fleet, timer_start=cfg.timer_start, zone_plan=inputs.zone_plan
    )
    if schedule is not None:
        demand = frame + charging.ev_power_frame(schedule, topo)
    states = solve_horizon(
        topo,
        demand,
        tolerance=cfg.tolerance,
        max_iterations=cfg.max_iterations,
        strategy=strategy,
    )
    return metrics.reduce_horizon(strategy, states, topo, demand)


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
    inputs = _Inputs(cfg)
    seeds = trial_seeds(cfg.seed, cfg.trials)
    reports: dict[str, ScenarioReport] = {}
    per_trial: dict[str, list[dict]] = {s: [] for s in strategies}
    for i, sd in enumerate(seeds):
        frame = household_frame(
            inputs.households_for_trial(sd["household"]), inputs.topology
        )
        # shared by every strategy of the trial; the baseline solves it as is
        frame.flags.writeable = False
        fleet = inputs.fleet_for_trial(sd["fleet"])
        for strategy in strategies:
            try:
                report = _run_one(inputs, strategy, frame, fleet)
            except SimulationError as exc:
                raise SimulationError(f"trial {i}: {exc}") from None
            per_trial[strategy].append(report.summary())
            reports.setdefault(strategy, report)
    for strategy, report in reports.items():
        report.extra["per_trial"] = per_trial[strategy]
        report.extra["aggregate"] = _aggregate(per_trial[strategy])
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        # one strategy writes into out_dir; several write a subdirectory each
        # plus a comparison table against the uncontrolled scenario
        single = len(strategies) == 1
        for strategy, report in reports.items():
            sub = out if single else out / strategy
            write_report_files(sub, report, inputs.topology)
            _write_json(sub / "summary.json", {
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
            (out / "comparison.txt").write_text(
                metrics.format_comparison(table, "uncontrolled") + "\n"
            )
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
    residuals plus an ``ok`` flag that is False when the solvers disagree
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
    rows = {}
    ok = True
    for name, t in snapshots.items():
        try:
            sweep = powerflow.solve_sweep(topo, demand[t], **limits)
            direct = powerflow.solve_direct(topo, demand[t], **limits)
        except InfeasibleInjectionError as exc:
            raise SimulationError(f"{name} snapshot, slot {t}: {exc}") from exc
        disagreement = float(np.max(np.abs(sweep.v - direct.v))) / topo.v_base
        p_err, q_err = powerflow.power_balance_error(sweep, topo, demand[t])
        rows[name] = {
            "slot": t,
            "curve_w": float(curve.p_base[t]),
            "sweep_iterations": sweep.iterations,
            "direct_iterations": direct.iterations,
            "disagreement_pu": disagreement,
            "kcl_residual_a": powerflow.kcl_residual(sweep, topo, demand[t]),
            "power_balance_err": (p_err, q_err),
            "min_voltage_pu": float(sweep.phase_voltage_pu(topo.v_base).min()),
        }
        if disagreement > ORACLE_TOLERANCE_PU or not (sweep.converged and direct.converged):
            ok = False
    return {"ok": ok, "snapshots": rows, "tolerance_pu": ORACLE_TOLERANCE_PU}


# ---------------------------------------------------------------------------
# file output

def _fmt(x: float) -> str:
    """Decimal text at 9 significant digits; the stable on-disk format."""
    return format(float(x), ".9g")


def _write_csv(path: Path, header: str, keyed) -> None:
    """Stream a slot-indexed CSV, key-outer and slot-inner.

    ``keyed`` yields ``(key, columns)``: ``key`` is the text that opens each
    of the key's rows (``""`` for none) and ``columns`` holds one (96,)
    array per value column. Rows read ``<key><slot>,<value>[,<value>]``.
    """
    with open(path, "w") as f:
        f.write(header + "\n")
        for key, (first, *rest) in keyed:
            cells = map(_fmt, first.tolist())
            for column in rest:
                cells = map("{},{}".format, cells, map(_fmt, column.tolist()))
            f.writelines(f"{key}{t},{cell}\n" for t, cell in enumerate(cells))


def write_report_files(out: Path, report: ScenarioReport, topology: NetworkTopology) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "voltages.csv", "bus,wire,slot,v_pu", (
        (f"{b + 1},{wire},", (report.voltage_pu[:, b, w],))
        for b in range(topology.n_buses) for w, wire in enumerate(WIRES)
    ))
    _write_csv(out / "currents.csv", "from_bus,to_bus,wire,slot,i_a", (
        (f"{ln.from_bus},{ln.to_bus},{wire},", (report.current_a[:, k, w],))
        for k, ln in enumerate(topology.lines) for w, wire in enumerate(WIRES)
    ))
    _write_csv(out / "losses.csv", "slot,loss_kw", [("", (report.loss_kw,))])


def read_voltages_csv(path: Path, topology: NetworkTopology) -> np.ndarray:
    """Reconstruct the (96, n_buses, 4) per-unit voltage profile."""
    wire_index = {w: i for i, w in enumerate(WIRES)}
    out = np.full((SLOTS_PER_DAY, topology.n_buses, 4), np.nan)
    with open(path) as f:
        header = f.readline().strip()
        if header != "bus,wire,slot,v_pu":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for row in f:
            bus, wire, slot, v = row.rstrip("\n").split(",")
            out[int(slot), int(bus) - 1, wire_index[wire]] = float(v)
    if np.any(np.isnan(out)):
        raise ValueError(f"{path}: incomplete voltage profile")
    return out


def _config_echo(cfg: ScenarioConfig) -> dict:
    echo = dataclasses.asdict(cfg)
    for key, value in echo.items():
        if isinstance(value, Path):
            echo[key] = str(value)
    return echo


def build_manifest(cfg: ScenarioConfig, seeds: list[dict[str, int]]) -> dict:
    return {
        "version": __version__,
        "config": _config_echo(cfg),
        "trial_seeds": seeds,
        "wall_clock_unix": time.time(),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_comparison_csv(path: Path, table: dict[str, dict[str, float]]) -> None:
    with open(path, "w") as f:
        f.write("scenario,total_loss_kwh,loss_change_pct,min_voltage_pu,min_voltage_delta_pp\n")
        for name in STRATEGIES:
            if name not in table:
                continue
            row = table[name]
            f.write(
                f"{name},{_fmt(row['total_loss_kwh'])},{_fmt(row['loss_change_pct'])},"
                f"{_fmt(row['min_voltage_pu'])},{_fmt(row['min_voltage_delta_pp'])}\n"
            )
