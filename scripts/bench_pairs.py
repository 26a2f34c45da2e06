"""Alternating parent/change pairs of the benchmark, summarised as a BENCH_*.json.

Run from anywhere, with two source trees that each hold ``perfbench/`` and
``src/`` (a checkout or a ``git archive`` of a commit)::

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs 10 --seed 1 \\
        --out BENCH_9.json --claim radial2000-run.run_s_p50 --claim-ratio 0.9

Pair k runs ``python3 perfbench/run.py --seed S`` in both trees, the parent
first in odd pairs and the change first in even ones, and reads each run's
record from the tree's ``perfbench/results/``. For every end-to-end metric
of every workload the output holds each side's runs, median and quartiles,
the change-over-parent median, the pairs the change won (ties count for
neither side) and whether the change stays within the metric's bound from
``BENCHMARK.json``. It also holds the raw wall-time medians and each side's
correctness checks: failed calls, digests and the oracle gap.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_benchmark(tree: Path, seed: int, seconds: float | None, workloads: list[str]) -> dict:
    """One ``perfbench/run.py`` run in `tree`; its record per workload."""
    records = {}
    for workload in workloads:
        command = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--workload", workload]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree}: {' '.join(command[1:])} exited with code "
                               f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
        path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
        records[workload] = json.loads(path.read_text())
    return records


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def won(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarise(runs: dict, spec: dict, workloads: list[str]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, raw wall medians and checks over every pair's records."""
    end_to_end, raw_wall, checks = {}, {}, {}
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            values = {side: [r[workload]["end_to_end"][name]["value"] for r in runs[side]]
                      for side in SIDES}
            ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
            worse_by = ratio - 1 if better == "lower" else 1 - ratio
            end_to_end[f"{workload}.{name}"] = {
                "unit": metric["unit"],
                "better": better,
                "bound": bound,
                **{side: quartiles(values[side]) for side in SIDES},
                "change_over_parent_median": ratio,
                "pairs_won": sum(won(c, p, better) for c, p in zip(values["change"], values["parent"])),
                "within_bound": worse_by <= bound,
            }
            if name in runs["parent"][0][workload]["raw_wall"]:
                raw_wall[f"{workload}.{name}"] = {
                    side: statistics.median(r[workload]["raw_wall"][name] for r in runs[side])
                    for side in SIDES
                }
        checks[workload] = {side: side_checks([r[workload] for r in runs[side]]) for side in SIDES}
    return end_to_end, raw_wall, checks


def side_checks(records: list[dict]) -> dict:
    gaps = [r["checks"]["oracle"].get("max_gap_pu") for r in records]
    first_three = {json.dumps([c["digest"] for c in r["calls"] if c["index"] in (0, 1, 2)])
                   for r in records}
    fixed = {r["checks"]["fixed_point"]["digest"] for r in records if "fixed_point" in r["checks"]}
    return {
        "runs": len(records),
        "failed_calls": sum(r["failed"] for r in records),
        "attempted_calls": sum(r["attempted"] for r in records),
        "all_checks_ok": all(r["correct"] for r in records),
        "fixed_point_digests": sorted(fixed),
        "calls_0_2_digests": sorted(first_three),
        "oracle_max_gap_pu": max((g for g in gaps if g is not None), default=None),
    }


def claim_of(end_to_end: dict, metric: str, ratio: float, pairs: int) -> dict:
    m = end_to_end[metric]
    parent, change = m["parent"], m["change"]
    gap = abs(change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    held = m["change_over_parent_median"] <= ratio if m["better"] == "lower" else (
        m["change_over_parent_median"] >= ratio)
    return {
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "change_over_parent": m["change_over_parent_median"],
        ("required_ratio_at_most" if m["better"] == "lower" else "required_ratio_at_least"): ratio,
        "pairs_won": m["pairs_won"],
        "pairs": pairs,
        "median_gap": gap,
        "parent_quartile_distance": spread,
        "met": held and m["pairs_won"] >= 0.9 * pairs and gap > spread,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length; the benchmark's default when omitted")
    parser.add_argument("--workload", action="append", help="one workload (repeatable); all by default")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--parent-commit", help="commit the parent tree was taken from")
    parser.add_argument("--describe", help="one line on what the change does")
    parser.add_argument("--claim", help="claimed metric, as workload.metric")
    parser.add_argument("--claim-ratio", type=float, default=0.9,
                        help="change-over-parent median the claim must reach")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs = {side: [] for side in SIDES}
    for k in range(1, args.pairs + 1):
        for side in (SIDES if k % 2 else SIDES[::-1]):
            print(f"pair {k}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_benchmark(trees[side], args.seed, args.seconds, workloads))

    end_to_end, raw_wall, checks = summarise(runs, spec, workloads)
    ctx = runs["change"][0][workloads[0]]["context"]
    command = f"python3 perfbench/run.py --seed {args.seed}"
    if args.seconds is not None:
        command += f" --seconds {args.seconds:g}"
    out = {
        "benchmark": command,
        "parent_commit": args.parent_commit,
        "change": args.describe,
        "pairs": args.pairs,
        "pair_order": "odd pairs ran the parent first, even pairs the change first",
        "trees": "each side ran from its own source tree, one workload per run.py process",
        "context": {k: ctx[k] for k in ("nproc", "cpu_affinity", "cpu_model", "python",
                                        "numpy", "workload_seed")},
        "timings": "run_s_p50 and setup_s are corrected for machine speed by perfbench/speed.py",
        "end_to_end": end_to_end,
        "raw_wall_medians": raw_wall,
    }
    if args.claim:
        out["claim"] = claim_of(end_to_end, args.claim, args.claim_ratio, args.pairs)
    out["checks"] = checks
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for name, m in end_to_end.items():
        print(f"{name:<34} {m['parent']['median']:>12.6g} -> {m['change']['median']:<12.6g} "
              f"x{m['change_over_parent_median']:.3f}  won {m['pairs_won']}/{args.pairs}"
              f"{'' if m['within_bound'] else '  OUTSIDE BOUND'}")
    if args.claim:
        print(f"claim {args.claim}: {'met' if out['claim']['met'] else 'NOT met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
