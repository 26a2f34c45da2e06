"""The benchmark's in-process hooks on this checkout: its tracer, oracle check and tree depth.

perfbench/ is imported from its own directory, as its worker imports its
siblings, so that a change to what they read of evfeeder fails here and not
only under ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import pytest

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
