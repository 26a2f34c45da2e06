"""One benchmark workload in one fresh process: set up, run a closed loop, check.

``run.py`` starts this file with ``src/`` on ``PYTHONPATH``. On stdout it
prints ``READY <monotonic seconds>`` once evfeeder is imported and the
workload's input files exist, then, unless ``--setup-only`` is given, one
JSON line with the raw measurements. One caller, no threads: each API call
starts only after the previous one has returned and been checked.

Call ``i`` of a workload uses ``ScenarioConfig.seed = call_seed(seed, i)``.
There is no warm-up call: a CLI user pays the first call's costs on every
run. Every timed phase starts again at call 0, so a traced phase sees the
same inputs as an untraced one and its counts repeat exactly for a given
workload seed. The oracle check runs on the first call's reports after the
timed phases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import numpy as np  # noqa: E402

import evfeeder  # noqa: E402
from evfeeder import charging, loads, network, powerflow, scenario  # noqa: E402
from evfeeder.slots import SLOTS_PER_DAY  # noqa: E402

from feeder import random_radial_feeder, tree_depth  # noqa: E402
from speed import SpeedProbe  # noqa: E402

DEFAULT_SEED = 1
ORACLE_TOLERANCE_PU = 1e-8
ENERGY_BALANCE_RTOL = 1e-9
RADIAL_MIN_VOLTAGE_PU = 0.9
RADIAL_BUSES = 2000
# The 2000-bus feeder is the same for every workload seed, which draws only
# the calls' fleets and households. Feeders drawn from different seeds need
# from about 530 to 760 sweep iterations for the same day, and that spread
# would swamp any change in the cost of one iteration.
RADIAL_FEEDER_SEED = 0
# Household noise on the 19-bus feeder. The feeder runs near its loadability
# limit, and at the default 20% a few draws in a hundred legitimately push
# bus 10 past the 0.5 pu collapse floor and abort the call (see README). At 2%
# the timer strategy's worst slot stays near 0.57 pu, far from that edge.
PAPER19_SIGMA = 0.02
GOLDEN_FILE = BENCH_DIR / "golden.json"
# The ROADMAP's byte-identity fixed point: `evfeeder sweep --seed 1 --out`.
FIXED_POINT_KEY = "paper19-files/sweep-seed1-out"


@dataclass
class Workload:
    name: str
    api: str                      # "run_sweep" or "run_scenario"
    trials: int
    strategies: tuple[str, ...]
    seed: int
    config_extra: dict
    out_dir: Path | None = None
    oracle: bool = True
    min_voltage_pu: float = 0.0   # a design property of the generated feeder


def call_seed(workload_seed: int, index: int) -> int:
    """ScenarioConfig.seed of call `index`; distinct calls get distinct seeds."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def make_workload(name: str, seed: int, work: Path) -> tuple[Workload, dict]:
    """Workload definition plus the facts about its inputs worth recording."""
    if name == "radial2000-run":
        topology = random_radial_feeder(np.random.default_rng(RADIAL_FEEDER_SEED), RADIAL_BUSES)
        feeder_path = work / "radial2000.txt"
        network.save_topology(topology, feeder_path)
        extra = {"strategy": "uncontrolled", "penetration": 0.6, "feeder": feeder_path}
        workload = Workload(
            name, "run_scenario", 1, ("uncontrolled",), seed, extra,
            oracle=False, min_voltage_pu=RADIAL_MIN_VOLTAGE_PU,
        )
        facts = {"n_buses": topology.n_buses, "depth": tree_depth(topology),
                 "feeder_seed": RADIAL_FEEDER_SEED}
        return workload, facts
    paper19 = network.load_topology(scenario.default_feeder_path())
    facts = {"n_buses": paper19.n_buses, "depth": tree_depth(paper19)}
    noise = {"sigma_fraction": PAPER19_SIGMA}
    if name == "paper19-mc":
        return Workload(name, "run_sweep", 10, scenario.STRATEGIES, seed, noise), facts
    if name == "paper19-files":
        out_dir = work / "out"
        return Workload(name, "run_sweep", 1, scenario.STRATEGIES, seed, noise, out_dir), facts
    raise SystemExit(f"unknown workload {name!r}")


def config_for(workload: Workload, index: int) -> scenario.ScenarioConfig:
    return scenario.ScenarioConfig(
        seed=call_seed(workload.seed, index),
        trials=workload.trials,
        out_dir=workload.out_dir,
        **workload.config_extra,
    )


# ---------------------------------------------------------------------------
# output checks

def _fmt9(value):
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, dict):
        return {k: _fmt9(v) for k, v in value.items()}
    return value


def output_digest(reports: dict, out_dir: Path | None) -> str:
    """SHA-256 of the 9-significant-digit per-trial summaries and output files.

    Files cover every byte under `out_dir` except ``manifest.json``, whose
    wall-clock stamp changes on every run.
    """
    h = hashlib.sha256()
    summaries = {s: [_fmt9(t) for t in r.extra["per_trial"]] for s, r in reports.items()}
    h.update(json.dumps(summaries, sort_keys=True).encode())
    if out_dir is not None:
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                h.update(str(path.relative_to(out_dir)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def check_reports(workload: Workload, reports: dict, n_buses: int, out_dir: Path | None) -> list[str]:
    """Problems with one call's outputs; empty when every check passes.

    A returned report implies every slot converged: ``solve_horizon`` raises
    SimulationError on any non-converged or collapsed slot.
    """
    problems = []
    if tuple(reports) != workload.strategies:
        return [f"strategies {tuple(reports)} != {workload.strategies}"]
    for strategy, report in reports.items():
        per_trial = report.extra.get("per_trial", [])
        if len(per_trial) != workload.trials:
            problems.append(f"{strategy}: {len(per_trial)} trial summaries, expected {workload.trials}")
        if report.voltage_pu.shape != (SLOTS_PER_DAY, n_buses, 4):
            problems.append(f"{strategy}: voltage_pu shape {report.voltage_pu.shape}")
        if not (np.all(np.isfinite(report.voltage_pu)) and np.all(np.isfinite(report.current_a))):
            problems.append(f"{strategy}: non-finite voltages or currents")
        for i, trial in enumerate(per_trial):
            slack = trial["slack_energy_kwh"]
            gap = slack - trial["load_energy_kwh"] - trial["total_loss_kwh"]
            if not abs(gap) <= ENERGY_BALANCE_RTOL * max(1.0, abs(slack)):
                problems.append(f"{strategy} trial {i}: slack - load - loss = {gap:.3e} kWh")
            v_min = trial["min_voltage_pu"]["overall"]
            if not v_min >= workload.min_voltage_pu:
                problems.append(
                    f"{strategy} trial {i}: min voltage {v_min:.4f} pu < {workload.min_voltage_pu}"
                )
    if out_dir is not None:
        rows = {"voltages.csv": 1 + 4 * n_buses * SLOTS_PER_DAY,
                "currents.csv": 1 + 4 * (n_buses - 1) * SLOTS_PER_DAY,
                "losses.csv": 1 + SLOTS_PER_DAY}
        for strategy in workload.strategies:
            for name, expected in rows.items():
                path = out_dir / strategy / name
                got = path.read_bytes().count(b"\n") if path.is_file() else 0
                if got != expected:
                    problems.append(f"{path.relative_to(out_dir)}: {got} rows, expected {expected}")
            if not (out_dir / strategy / "summary.json").is_file():
                problems.append(f"{strategy}/summary.json missing")
        for name in ("comparison.csv", "comparison.txt", "manifest.json"):
            if not (out_dir / name).is_file():
                problems.append(f"{name} missing")
    return problems


def oracle_check(cfg: scenario.ScenarioConfig, reports: dict) -> dict:
    """Largest |V| gap in pu between the reported voltages and solve_direct.

    Rebuilds trial 0's demand for two strategies and solves three slots of
    each with the dense nodal oracle: the worst-voltage slot, the heaviest
    slot and slot 0.
    """
    cfg = cfg.resolved()
    topo = network.load_topology(cfg.feeder)
    curve = loads.load_base_curve(cfg.curve)
    household_seed = scenario.trial_seeds(cfg.seed, 1)[0]["household"]
    households = loads.sample_household_loads(
        curve, scenario.consumers_of(topo), cfg.sigma_fraction, cfg.power_factor,
        seed=household_seed, leading=cfg.leading_pf,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", loads.FleetDataWarning)
        fleet = loads.load_fleet(cfg.fleet_file, cfg.charge_power_w)
    zone_plan = charging.load_zone_plan(cfg.zones)
    worst = 0.0
    checked = []
    for strategy in ("uncontrolled", "semismart"):
        report = reports[strategy]
        schedule = scenario.build_schedule(
            strategy, fleet, timer_start=cfg.timer_start, zone_plan=zone_plan
        )
        demand = scenario.household_frame(households, topo) + charging.ev_power_frame(schedule, topo)
        heaviest = int(np.argmax(demand.real.sum(axis=(1, 2))))
        for t in sorted({report.min_voltage["overall"].slot, heaviest, 0}):
            state = powerflow.solve_direct(topo, demand[t])
            if not state.converged:
                return {"ok": False, "max_gap_pu": float("inf"), "slots": checked}
            pu = np.concatenate(
                [state.phase_voltage_pu(topo.v_base), state.neutral_voltage_pu(topo.v_base)[:, None]],
                axis=1,
            )
            worst = max(worst, float(np.max(np.abs(pu - report.voltage_pu[t]))))
            checked.append([strategy, t])
    return {"ok": worst <= ORACLE_TOLERANCE_PU, "max_gap_pu": worst, "slots": checked}


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class CallResult:
    index: int
    config_seed: int
    wall_s: float
    corrected_s: float            # at reference machine speed, see speed.py
    slowdown: float
    inside_over_boundary: float   # see SpeedProbe.inside_over_boundary
    problems: list[str]
    digest: str | None
    slot_solves: int


class Runner:
    def __init__(self, workload: Workload, n_buses: int, golden: dict):
        self.workload = workload
        self.n_buses = n_buses
        self.golden = golden
        self.api = getattr(scenario, workload.api)
        self.results: list[CallResult] = []
        self.first_reports: tuple[scenario.ScenarioConfig, dict] | None = None

    def call_index(self, index: int, tracer=None) -> CallResult:
        """Call `index` of the workload, held to the committed digest at the default seed."""
        wl = self.workload
        expected = self.golden.get(f"{wl.name}/{index}") if wl.seed == DEFAULT_SEED else None
        return self.call(index, config_for(wl, index), expected, tracer)

    def call(
        self, index: int, cfg: scenario.ScenarioConfig, expected: str | None, tracer=None
    ) -> CallResult:
        """Make one checked API call; only the call itself is timed.

        A SpeedProbe measures the machine's speed around and during an
        untraced call, and around a traced one, whose spans it must not enter.
        """
        wl = self.workload
        if cfg.out_dir is not None:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
        result = error = None
        with SpeedProbe(sample_inside=tracer is None) as probe:
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = self.api(cfg)
                else:
                    with tracer.call(len(self.results), f"scenario.{wl.api}"):
                        result = self.api(cfg)
            except Exception as exc:  # a failed call is counted, and the loop goes on
                error = exc
            wall = time.perf_counter() - start
        reports = digest = None
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            reports = result if isinstance(result, dict) else {cfg.strategy: result}
            problems = check_reports(wl, reports, self.n_buses, cfg.out_dir)
            digest = output_digest(reports, cfg.out_dir)
            if expected is not None and digest != expected:
                problems.append(f"digest {digest[:12]} != committed {expected[:12]}")
        slots = 0 if problems else SLOTS_PER_DAY * len(wl.strategies) * wl.trials
        res = CallResult(
            index, cfg.seed, wall, probe.corrected(wall), probe.slowdown,
            probe.inside_over_boundary, problems, digest, slots,
        )
        self.results.append(res)
        if wl.oracle and self.first_reports is None and reports is not None:
            self.first_reports = (cfg, reports)
        if problems:
            print(f"call {index} (seed {cfg.seed}) failed: {'; '.join(problems)}", file=sys.stderr)
        return res

    def timed_phase(self, seconds: float, tracer=None) -> list[CallResult]:
        """Calls 0, 1, ... until the next call would end after `seconds`."""
        phase = []
        start = time.perf_counter()
        while True:
            phase.append(self.call_index(len(phase), tracer))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.wall_s for r in phase) > seconds:
                return phase


def run(args, workload: Workload, facts: dict) -> dict:
    golden = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.is_file() else {}
    runner = Runner(workload, facts["n_buses"], golden)
    out = {"feeder": facts, "checks": {}}
    if workload.name == "paper19-files":
        default_sweep = scenario.ScenarioConfig(seed=1, out_dir=workload.out_dir)
        fixed = runner.call(-1, default_sweep, golden.get(FIXED_POINT_KEY))
        out["checks"]["fixed_point"] = {"ok": not fixed.problems, "digest": fixed.digest}
        runner.first_reports = None

    if args.trace:
        from tracing import Tracer, layer_metrics, metric_units

        untraced = runner.timed_phase(args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.timed_phase(args.seconds * 2 / 3, tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(
            tracer,
            [r.corrected_s / r.wall_s for r in runner.results],
            [r.corrected_s for r in untraced],
            powerflow.DEFAULT_MAX_ITERATIONS,
        )
        values["probe.inside_over_boundary"] = statistics.median(
            r.inside_over_boundary for r in untraced
        )
        out["layers"] = {k: {"value": values[k], "unit": u} for k, u in metric_units().items()}
        timed = untraced
        out["traced_calls"] = len(traced)
    else:
        timed = runner.timed_phase(args.seconds)

    if not workload.oracle:
        out["checks"]["oracle"] = {"ok": True, "skipped": "dense 8000-node solve would dominate the run"}
    elif runner.first_reports is None:
        out["checks"]["oracle"] = {"ok": False, "reason": "no call returned reports"}
    else:
        out["checks"]["oracle"] = oracle_check(*runner.first_reports)
    runner.first_reports = None

    out["timed_walls_s"] = [r.wall_s for r in timed]
    out["timed_corrected_s"] = [r.corrected_s for r in timed]
    out["timed_slowdown"] = [r.slowdown for r in timed]
    out["timed_inside_over_boundary"] = [r.inside_over_boundary for r in timed]
    out["timed_slot_solves"] = sum(r.slot_solves for r in timed)
    out["attempted"] = len(runner.results)
    out["failed"] = sum(1 for r in runner.results if r.problems)
    out["calls"] = [
        {"index": r.index, "config_seed": r.config_seed, "wall_s": r.wall_s,
         "corrected_s": r.corrected_s, "slowdown": r.slowdown,
         "inside_over_boundary": r.inside_over_boundary,
         "digest": r.digest, "problems": r.problems}
        for r in runner.results
    ]
    out["checks"]["outputs"] = {"ok": out["failed"] == 0}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = np.__version__
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(evfeeder.__file__).resolve().parent != ROOT / "src" / "evfeeder":
        print(f"evfeeder imported from {evfeeder.__file__}, not from src/", file=sys.stderr)
        return 2
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        workload, facts = make_workload(args.workload, args.seed, work)
        print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        if not args.setup_only:
            print(json.dumps(run(args, workload, facts)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
