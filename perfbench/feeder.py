"""Seeded synthetic radial feeders for scaling runs.

Bus ``b`` (2..n) hangs off a parent drawn uniformly among buses 1..b-1, a
random recursive tree whose depth grows like e*ln(n). Phase and neutral
impedances are drawn independently from the ranges of the shipped 19-bus
feeder (``paper19.txt``) and multiplied by ``IMPEDANCE_SCALE``. The tree puts
about half of all buses behind the first line, so the scale is small enough
that an uncontrolled 0.6-penetration day on 2000 buses stays above 0.9 pu in
every slot.
"""

from __future__ import annotations

import numpy as np

from evfeeder.network import LineSegment, NetworkTopology

R_RANGE_OHM = (0.0005, 1.734)
X_RANGE_OHM = (0.0002, 0.1729)
IMPEDANCE_SCALE = 3e-4


def random_radial_feeder(rng: np.random.Generator, n_buses: int) -> NetworkTopology:
    """Random radial feeder with buses 1..n_buses, slack at bus 1."""
    if n_buses < 2:
        raise ValueError("a feeder needs at least two buses")
    children = np.arange(2, n_buses + 1)
    parents = rng.integers(1, children)
    r = rng.uniform(*R_RANGE_OHM, size=(n_buses - 1, 2)) * IMPEDANCE_SCALE
    x = rng.uniform(*X_RANGE_OHM, size=(n_buses - 1, 2)) * IMPEDANCE_SCALE
    lines = tuple(
        LineSegment(
            int(parents[k]),
            int(children[k]),
            complex(r[k, 0], x[k, 0]),
            complex(r[k, 1], x[k, 1]),
        )
        for k in range(n_buses - 1)
    )
    return NetworkTopology(lines=lines)


def tree_depth(topology: NetworkTopology) -> int:
    """Number of lines on the longest path from the slack bus to a leaf."""
    depth = {1: 0}
    for bus in topology.sweep_order[1:]:
        line = topology.lines[topology.parent_line_index[bus]]
        depth[bus] = depth[line.from_bus] + 1
    return max(depth.values())
