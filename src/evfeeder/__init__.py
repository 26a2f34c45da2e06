"""evfeeder: unbalanced four-wire LV feeder simulation of EV charging strategies."""

from .network import load_topology
from .powerflow import solve_batch, solve_sweep
from .scenario import ScenarioConfig, __version__, run_sweep

__all__ = [
    "ScenarioConfig",
    "__version__",
    "load_topology",
    "run_sweep",
    "solve_batch",
    "solve_sweep",
]
