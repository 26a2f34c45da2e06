"""evfeeder benchmark: three workloads, end-to-end timings and per-layer traces.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper19-mc --seed 1 --seconds 35 --trace 0

Without ``--workload`` every workload runs in turn. Each workload runs in its
own fresh Python process (``perfbench/worker.py``) with ``src/`` on
``PYTHONPATH``, driving ``scenario.run_sweep`` / ``scenario.run_scenario`` in
a closed loop with one caller. Call times are corrected for the machine's
speed (``perfbench/speed.py``). Set-up time runs from spawning a process
until it is ready, over several further processes that stop there. Process
start-up does not slow down with the calibration kernel, so each set-up
sample is instead scaled by ``REFERENCE_START_S`` over the mean start time
of a bare ``python3 -c "import numpy"`` run just before and just after it.
On a 2-CPU shared machine this cut the spread of medians of nine samples
from 24% to 3% (quartile distance over median).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a third of
the time untraced and the rest with spans around each module boundary, and
reports the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with context, sample counts and checks, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

WORKLOADS = ("paper19-mc", "paper19-files", "radial2000-run")
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "run_s_p50": "s",
    "slot_solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_TIMEOUT_S = 60
# Start of a bare interpreter that imports numpy, near an idle 2-CPU Xeon VM.
REFERENCE_START_S = 0.1
REFERENCE_COMMAND = [
    sys.executable, "-c",
    "import time, numpy; print('READY', repr(time.clock_gettime(time.CLOCK_MONOTONIC)))",
]
RUN_TIMEOUT_MARGIN_S = 100


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's READY stamp is comparable.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(args: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run worker.py to completion; return its set-up time and stdout lines."""
    return time_to_ready([sys.executable, str(BENCH_DIR / "worker.py"), *args], timeout)


def time_to_ready(command: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run `command` to completion; return the time to its READY line and the lines after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    label = " ".join(command[1:])
    spawned = _monotonic()
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{label} timed out after {timeout:.0f} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RuntimeError(f"{label} exited with code {proc.returncode}")
    return float(lines[0].split()[1]) - spawned, lines[1:]


def tail(values: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return {"value": None, "n": len(ordered),
                "note": f"needs at least {TAIL_BEYOND + 1} calls"}
    return {"value": ordered[k - 1], "percentile": 100.0 * k / len(ordered), "n": len(ordered)}


def context(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evfeeder").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    references = [time_to_ready(REFERENCE_COMMAND, SETUP_TIMEOUT_S)[0]]
    setup_raw, setup = [], []
    for _ in range(SETUP_SAMPLES):
        raw_s, _ = start_worker([*base, "--seconds", "0", "--setup-only"], SETUP_TIMEOUT_S)
        references.append(time_to_ready(REFERENCE_COMMAND, SETUP_TIMEOUT_S)[0])
        setup_raw.append(raw_s)
        setup.append(raw_s * REFERENCE_START_S / statistics.mean(references[-2:]))
    _, lines = start_worker(
        [*base, "--seconds", str(seconds), "--trace", str(trace)],
        seconds + RUN_TIMEOUT_MARGIN_S,
    )
    raw = json.loads(lines[-1])

    walls = raw["timed_walls_s"]
    times = raw["timed_corrected_s"]
    checks = raw["checks"]
    correct = raw["failed"] == 0 and all(c["ok"] for c in checks.values())
    end_to_end = {
        "run_s_p50": statistics.median(times),
        "slot_solves_per_s": raw["timed_slot_solves"] / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "context": context(seed, raw["numpy"]),
        "feeder": raw["feeder"],
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failed_frac": raw["failed"] / raw["attempted"],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "samples": {"run_s": len(times), "setup_s": len(setup), "traced_calls": raw.get("traced_calls", 0)},
        "run_s_tail": tail(times),
        "raw_wall": {
            "run_s_p50": statistics.median(walls),
            "slot_solves_per_s": raw["timed_slot_solves"] / sum(walls),
            "setup_s": statistics.median(setup_raw),
        },
        "machine_slowdown": statistics.median(raw["timed_slowdown"]),
        "probe_inside_over_boundary": statistics.median(raw["timed_inside_over_boundary"]),
        "setup_samples_s": setup_raw,
        "reference_starts_s": references,
        "checks": checks,
        "calls": raw["calls"],
    }
    if trace:
        record["per_layer"] = raw["layers"]
    return record


def print_record(record: dict) -> None:
    ctx = record["context"]
    print(f"workload {record['workload']}  seed {ctx['workload_seed']}  trace {record['trace']}  "
          f"buses {record['feeder']['n_buses']}  depth {record['feeder']['depth']}")
    n = record["samples"]
    counts = {"run_s_p50": f"median of {n['run_s']} calls",
              "slot_solves_per_s": f"over {n['run_s']} timed calls",
              "setup_s": f"median of {n['setup_s']} process starts",
              "peak_rss_mb": "ru_maxrss of the workload process"}
    for name, m in record["end_to_end"].items():
        raw = record["raw_wall"].get(name)
        raw = f", raw wall {raw:.6g}" if raw is not None else ""
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']:<6} ({counts[name]}{raw})")
    t = record["run_s_tail"]
    if t["value"] is None:
        print(f"  {'run_s_tail':<20} {'n/a':>14} {'s':<6} ({t['note']}, had {t['n']})")
    else:
        print(f"  {'run_s_tail':<20} {t['value']:>14.6g} {'s':<6} "
              f"(p{t['percentile']:.1f} of {t['n']} calls)")
    print(f"  {'failed_frac':<20} {record['failed_frac']:>14.6g} {'1':<6} "
          f"({record['failed']} of {record['attempted']} calls)")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, check in record["checks"].items():
        print(f"  check {name}: {'ok' if check['ok'] else 'FAILED'} "
              + json.dumps({k: v for k, v in check.items() if k != "ok"}))
    print(f"  machine slowdown {record['machine_slowdown']:.4g}, probe inside/boundary "
          f"{record['probe_inside_over_boundary']:.4g} "
          f"(see perfbench/speed.py; call timings above are corrected for it)")
    print(f"  context {json.dumps(ctx)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "evfeeder" / "__init__.py").is_file():
        print(f"error: no evfeeder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        RESULTS_DIR.mkdir(exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
        print_record(record)
        records.append(record)

    section = "per_layer" if args.trace else "end_to_end"
    if len(records) == 1:
        metrics = records[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
