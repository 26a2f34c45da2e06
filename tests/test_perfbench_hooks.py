"""The benchmark's in-process hooks on this checkout: its tracer, oracle check and tree depth.

perfbench/ is imported from its own directory, as its worker imports its
siblings, so that a change to what they read of evfeeder fails here and not
only under ``perfbench/run.py --trace 1``.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from evfeeder import scenario
from evfeeder.network import load_topology
from evfeeder.scenario import ScenarioConfig, default_feeder_path, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
pytestmark = pytest.mark.filterwarnings("ignore::evfeeder.loads.FleetDataWarning")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import feeder
        import tracing
        import worker
    finally:
        sys.path.remove(str(PERFBENCH))
    return feeder, tracing, worker


def test_traced_seed1_sweep_passes_the_oracle_check(perfbench):
    feeder, tracing, worker = perfbench
    cfg = ScenarioConfig(seed=1, sigma_fraction=worker.PAPER19_SIGMA)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.call(0, "scenario.run_sweep"):
            reports = run_sweep(cfg)
    finally:
        tracer.uninstall()
    assert len(tracer.iterations[0]) == 245  # one per distinct row of the trial
    assert worker.oracle_check(cfg, reports)["ok"]
    assert feeder.tree_depth(load_topology(default_feeder_path())) == 7


def test_traced_sweep_calls_the_writer_layer_and_writes_the_untraced_bytes(perfbench, tmp_path):
    _, tracing, worker = perfbench

    def sweep(out):
        run_sweep(ScenarioConfig(seed=1, sigma_fraction=worker.PAPER19_SIGMA, out_dir=out))
        return {path.relative_to(out): path.read_bytes() for path in out.rglob("*.csv")}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.call(0, "scenario.run_sweep"):
            traced = sweep(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("scenario.write_report_files") == 1
    assert len(traced) == 3 * 5 + 1  # each strategy's three CSVs and comparison.csv
    assert traced == sweep(tmp_path / "untraced")


@pytest.mark.parametrize("name", ["paper19-mc", "paper19-files", "radial2000-run"])
def test_workload_calls_write_their_committed_digests(perfbench, tmp_path, name):
    # the benchmark's calls 0-2 at its default seed, and on paper19-files
    # the seed-1 sweep fixed point, run untimed and checked as run.py checks them
    _, _, worker = perfbench
    golden = json.loads(worker.GOLDEN_FILE.read_text())
    workload, facts = worker.make_workload(name, worker.DEFAULT_SEED, tmp_path)
    assert facts["depth"] == (17 if name == "radial2000-run" else 7)
    calls = {f"{name}/{i}": worker.config_for(workload, i) for i in range(3)}
    if name == "paper19-files":
        calls[worker.FIXED_POINT_KEY] = ScenarioConfig(seed=1, out_dir=workload.out_dir)
    for key, cfg in calls.items():
        if cfg.out_dir is not None:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
        result = getattr(scenario, workload.api)(cfg)
        reports = result if isinstance(result, dict) else {cfg.strategy: result}
        assert worker.check_reports(workload, reports, facts["n_buses"], cfg.out_dir) == [], key
        assert worker.output_digest(reports, cfg.out_dir) == golden[key], key
