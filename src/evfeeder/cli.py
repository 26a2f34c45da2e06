"""Command line interface: run, sweep, validate and sample subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import loads, powerflow, scenario
from .metrics import compare_scenarios, format_comparison
from .scenario import STRATEGIES, ScenarioConfig, SimulationError
from .slots import slot_of


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feeder", type=Path, help="feeder description file")
    p.add_argument("--curve", type=Path, help="96-value base load curve file")
    p.add_argument("--fleet", type=Path, help="EV fleet file")
    p.add_argument("--penetration", type=float,
                   help="sample the fleet at this EV take-up instead of a file")
    p.add_argument("--zones", type=Path, help="zone plan file for zoned charging")
    p.add_argument("--timer-start", default="24:00", metavar="HH:MM",
                   help="start time for the timer strategy")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--sigma", type=float, default=loads.DEFAULT_SIGMA_FRACTION,
                   help="household noise as a fraction of the curve value")
    p.add_argument("--tolerance", type=float,
                   help="solver convergence tolerance in volts")
    p.add_argument("--max-iter", type=int, default=powerflow.DEFAULT_MAX_ITERATIONS)
    p.add_argument("--out", type=Path, help="output directory")


def _config(args, strategy: str | None = None) -> ScenarioConfig:
    return ScenarioConfig(
        strategy=strategy or getattr(args, "strategy", "semismart"),
        feeder=args.feeder,
        curve=args.curve,
        fleet_file=args.fleet,
        penetration=args.penetration,
        zones=args.zones,
        timer_start=slot_of(args.timer_start),
        seed=args.seed,
        trials=args.trials,
        sigma_fraction=args.sigma,
        tolerance=args.tolerance,
        max_iterations=args.max_iter,
        out_dir=args.out,
    )


def _cmd_run(args) -> int:
    report = scenario.run_scenario(_config(args))
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    reports = scenario.run_sweep(_config(args, strategy="semismart"))
    table = compare_scenarios(
        {s: r.summary() for s, r in reports.items()}, baseline="uncontrolled"
    )
    print(format_comparison(table, "uncontrolled"))
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    cfg = _config(args, strategy="baseline")
    result = scenario.validate(cfg)
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
        print(f"FAIL: solvers disagree beyond {result['tolerance_pu']:.0e} pu",
              file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_sample(args) -> int:
    cfg = _config(args, strategy="baseline")
    resolved = cfg.resolved()
    inputs_topo = scenario.load_topology(resolved.feeder)
    consumers = scenario.consumers_of(inputs_topo)
    penetration = args.penetration if args.penetration is not None else 0.6
    fleet = loads.sample_fleet(consumers, penetration, seed=args.seed)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    fleet_path = out / "fleet.txt"
    loads.save_fleet(fleet, fleet_path)
    print(f"sampled {len(fleet.vehicles)} vehicles over {len(consumers)} consumers "
          f"-> {fleet_path}")
    if args.households:
        curve = loads.load_base_curve(resolved.curve)
        households = loads.sample_household_loads(
            curve, consumers, args.sigma, seed=args.seed
        )
        hh_path = out / "households.csv"
        scenario._write_csv(hh_path, "bus,phase,slot,p_w,q_var", (
            (f"{h.bus},{h.phase},", (h.p, h.q)) for h in households
        ))
        print(f"wrote {hh_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evfeeder",
        description="Simulate EV charging strategies on an unbalanced "
                    "four-wire LV radial feeder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one charging scenario")
    p_run.add_argument("--strategy", choices=STRATEGIES, default="semismart")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run all five scenarios and compare")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="cross-check the two solvers")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_sample = sub.add_parser("sample", help="draw a fleet (and optionally loads)")
    _add_common(p_sample)
    p_sample.add_argument("--households", action="store_true",
                          help="also write sampled household profiles")
    p_sample.set_defaults(func=_cmd_sample)

    args = parser.parse_args(argv)
    # bad input (every parser error is a ValueError), unreadable files and
    # infeasible runs end with one line on stderr, not a traceback
    try:
        return args.func(args)
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
