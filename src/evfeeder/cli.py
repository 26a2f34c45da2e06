"""Command line interface: run, sweep, validate and sample subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from . import loads, scenario
from .metrics import compare_scenarios, format_comparison
from .scenario import STRATEGIES, ScenarioConfig, SimulationError
from .slots import SLOTS_PER_DAY, slot_of


def _add_options(p: argparse.ArgumentParser, names: str) -> None:
    """Add the named options; one not given keeps its ScenarioConfig default."""
    specs = {
        "feeder": dict(type=Path, help="feeder description file"),
        "curve": dict(type=Path, help="96-value base load curve file"),
        "fleet": dict(type=Path, dest="fleet_file", help="EV fleet file"),
        "penetration": dict(type=float, help="sample the fleet at this EV take-up instead of a file"),
        "zones": dict(type=Path, help="zone plan file for zoned charging"),
        "timer-start": dict(metavar="HH:MM", help="start time for the timer strategy (24:00)"),
        "seed": dict(type=int),
        "trials": dict(type=int),
        "sigma": dict(type=float, dest="sigma_fraction",
                      help="household noise as a fraction of the curve value"),
        "tolerance": dict(type=float, help="solver convergence tolerance in volts"),
        "max-iter": dict(type=int, dest="max_iterations"),
        "out": dict(type=Path, dest="out_dir", help="output directory"),
    }
    for name in names.split():
        spec = {"metavar": name.upper().replace("-", "_"), **specs[name]}  # after the flag, not its dest
        p.add_argument(f"--{name}", default=argparse.SUPPRESS, **spec)


def _config(args) -> ScenarioConfig:
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ScenarioConfig) if f.name in args}
    if "timer_start" in given:
        given["timer_start"] = slot_of(given["timer_start"])
    return ScenarioConfig(**given)


def _cmd_run(args) -> int:
    cfg = _config(args)
    report = scenario.run_scenario(cfg)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if cfg.out_dir:
        print(f"wrote {cfg.out_dir}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    reports = scenario.run_sweep(cfg)
    table = compare_scenarios(
        {s: r.summary() for s, r in reports.items()}, baseline="uncontrolled"
    )
    print(format_comparison(table, "uncontrolled"))
    if cfg.out_dir:
        print(f"wrote {cfg.out_dir}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    result = scenario.validate(_config(args))
    for name, row in result["snapshots"].items():
        p_err, q_err = row["power_balance_err"]
        print(
            f"{name:<9} slot {row['slot']:>2} ({row['curve_w']:.0f} W): "
            f"solver gap {row['disagreement_pu']:.3e} pu, "
            f"kcl {row['kcl_residual_a']:.3e} A, "
            f"balance {p_err:.2e}/{q_err:.2e}, "
            f"min |V| {row['min_voltage_pu']:.4f} pu, "
            f"{row['sweep_iterations']}/{row['direct_iterations']} iterations"
        )
    if not result["ok"]:
        for failure in result["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_sample(args) -> int:
    cfg = _config(args).resolved()
    topology = scenario.load_topology(cfg.feeder)
    consumers = scenario.consumers_of(topology)
    penetration = cfg.penetration if cfg.penetration is not None else 0.6
    fleet = loads.sample_fleet(topology.n_buses, penetration, seed=cfg.seed)
    # every input is read before the first file is written
    curve = loads.load_base_curve(cfg.curve) if args.households else None
    out = cfg.out_dir or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    fleet_path = out / "fleet.txt"
    loads.save_fleet(fleet, fleet_path)
    print(f"sampled {fleet.bus.size} vehicles over {len(consumers)} consumers "
          f"-> {fleet_path}")
    if curve is not None:
        households = loads.sample_household_loads(
            curve, consumers, cfg.sigma_fraction, seed=cfg.seed
        )
        hh_path = out / "households.csv"
        scenario._write_rows(
            {hh_path: range(SLOTS_PER_DAY)}, "bus,phase,slot,p_w,q_var",
            [f"{bus},{phase}," for bus, phase in consumers],
            households.p.T, households.q.T,
        )
        print(f"wrote {hh_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evfeeder",
        description="Simulate EV charging strategies on an unbalanced "
                    "four-wire LV radial feeder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = "feeder curve fleet penetration zones timer-start seed trials sigma tolerance max-iter out"
    for name, func, options, about in (
        ("run", _cmd_run, every, "run one charging scenario"),
        ("sweep", _cmd_sweep, every, "run all five scenarios and compare"),
        ("validate", _cmd_validate, "feeder curve tolerance max-iter", "cross-check the two solvers"),
        ("sample", _cmd_sample, "feeder curve penetration seed sigma out",
         "draw a fleet (and optionally loads)"),
    ):
        sub.add_parser(name, help=about).set_defaults(func=func)
        _add_options(sub.choices[name], options)
    sub.choices["run"].add_argument("--strategy", choices=STRATEGIES, default=argparse.SUPPRESS)
    sub.choices["sample"].add_argument("--households", action="store_true",
                                       help="also write sampled household profiles")

    args = parser.parse_args(argv)
    # bad input (every parser error is a ValueError), unreadable files and
    # infeasible runs end with one line on stderr, not a traceback; a warning
    # prints as one line too
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (SimulationError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
