"""Four-wire radial feeder model and its plain-text description format.

A feeder is a tree of buses rooted at bus 1 (the slack bus, held at a fixed
balanced three-phase voltage with the neutral at zero volts). Every line
carries three phase conductors with one common impedance plus an explicit
neutral conductor with its own impedance.

File grammar (one statement per line, ``#`` starts a comment)::

    slack_voltage <volts>              # required, phase-to-neutral magnitude
    v_base <volts>                     # optional, defaults to slack_voltage
    transformer_reactance <ohms>       # optional, recorded but not solved
    neutral_scale <factor>             # optional, default 1.0 (z_n = z_phase)
    line <from> <to> <r_ph> <x_ph> [<r_n> <x_n>]

Per-line neutral columns override ``neutral_scale``. The upstream transformer
reactance is recorded only: the slack voltage is fixed at bus 1, so any
series impedance above it is unobservable downstream.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

PHASES = ("a", "b", "c")
WIRES = ("a", "b", "c", "n")
SLACK_BUS = 1


class FeederFormatError(ValueError):
    """A feeder file could not be parsed."""


class TopologyError(ValueError):
    """The described network is not a connected radial tree rooted at bus 1."""


@dataclass(frozen=True)
class LineSegment:
    """One feeder segment: three identical phase conductors plus a neutral."""

    from_bus: int
    to_bus: int
    z_phase: complex
    z_neutral: complex

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise TopologyError(f"line {self.from_bus}->{self.to_bus} is a self loop")
        if not (cmath.isfinite(self.z_phase) and cmath.isfinite(self.z_neutral)):
            raise TopologyError(
                f"line {self.from_bus}->{self.to_bus} has a non-finite impedance"
            )
        if self.z_phase.real < 0 or self.z_neutral.real < 0:
            raise TopologyError(
                f"line {self.from_bus}->{self.to_bus} has negative resistance"
            )


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable radial feeder: buses 1..N, N-1 lines, slack at bus 1.

    Derived lookups (bus count, parents, sweep order, line arrays, sweep
    schedule) are computed once, on first use, and cached; the cached arrays
    are read-only, so instances are safe to share across concurrent scenario
    evaluations.
    """

    lines: tuple[LineSegment, ...]
    slack_voltage_magnitude: float = 220.0
    v_base: float = 220.0
    transformer_reactance: float = 0.0

    def __post_init__(self):
        if not (0 < self.slack_voltage_magnitude < math.inf and 0 < self.v_base < math.inf):
            raise TopologyError("slack voltage and v_base must be positive and finite")
        n = self.n_buses
        seen: dict[tuple[int, int], int] = {}
        parent: dict[int, int] = {}
        for k, ln in enumerate(self.lines):
            if not (1 <= ln.from_bus <= n and 1 <= ln.to_bus <= n):
                raise TopologyError(f"line {ln.from_bus}->{ln.to_bus}: bus out of range 1..{n}")
            key = (ln.from_bus, ln.to_bus)
            if key in seen or (ln.to_bus, ln.from_bus) in seen:
                raise TopologyError(f"duplicate line {ln.from_bus}->{ln.to_bus}")
            seen[key] = k
            if ln.to_bus == SLACK_BUS:
                raise TopologyError(f"line {ln.from_bus}->{ln.to_bus} gives the slack bus a parent")
            if ln.to_bus in parent:
                raise TopologyError(
                    f"bus {ln.to_bus} has two parents ({parent[ln.to_bus]} and {ln.from_bus})"
                )
            parent[ln.to_bus] = ln.from_bus
        if len(self.lines) != n - 1:
            raise TopologyError(f"{n} buses need {n - 1} lines, found {len(self.lines)}")
        # reachability from the slack proves the tree is connected and acyclic
        if len(self.sweep_order) != n:
            missing = sorted(set(self.buses) - set(self.sweep_order))
            raise TopologyError(f"buses {missing} are not connected to bus {SLACK_BUS}")

    @cached_property
    def n_buses(self) -> int:
        if not self.lines:
            return 1
        return max(max(ln.from_bus, ln.to_bus) for ln in self.lines)

    @cached_property
    def buses(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_buses + 1))

    @cached_property
    def sweep_order(self) -> tuple[int, ...]:
        """Buses reachable from the slack, root-first depth-first; reversed for backward sweeps."""
        kids: dict[int, list[int]] = {b: [] for b in range(1, self.n_buses + 1)}
        for ln in self.lines:
            kids[ln.from_bus].append(ln.to_bus)
        order, stack = [], [SLACK_BUS]
        while stack:
            b = stack.pop()
            order.append(b)
            stack.extend(reversed(kids[b]))
        return tuple(order)

    @cached_property
    def parent_line_index(self) -> dict[int, int]:
        """Bus -> index into `lines` of the segment feeding it (slack absent)."""
        return {ln.to_bus: k for k, ln in enumerate(self.lines)}

    @cached_property
    def line_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(frm, to, z)`` rows following `lines`.

        frm, to -- 0-based bus indices of each segment's ends, shape (n_lines,)
        z       -- complex ohms per wire, shape (n_lines, 4), wire order a, b, c, n
        """
        frm = np.array([ln.from_bus - 1 for ln in self.lines], dtype=int)
        to = np.array([ln.to_bus - 1 for ln in self.lines], dtype=int)
        z = np.empty((len(self.lines), 4), dtype=complex)
        for k, ln in enumerate(self.lines):
            z[k, :3] = ln.z_phase
            z[k, 3] = ln.z_neutral
        for arr in (frm, to, z):
            arr.flags.writeable = False
        return frm, to, z

    @cached_property
    def sweep_schedule(self) -> tuple[np.ndarray, tuple, tuple]:
        """Read-only row order and slices of the level-scheduled backward-forward sweep.

        order    -- (n_buses,) 0-based bus in each row: the slack in row 0,
                    then the buses by depth, within a depth by (sibling rank)
                    group in ``backward``'s order, within a group by parent row
        forward  -- one ``(parent_rows, lo, hi)`` per depth level, root side
                    first: rows lo..hi-1 hold the level's buses and
                    parent_rows their parents' rows, all set by earlier levels
        backward -- one ``(parent_rows, lo, hi)`` per (depth level, sibling
                    rank) group, deepest level first and, within a level, each
                    parent's last child first

        Every non-slack bus sits in exactly one slice per pass. A group's
        parent rows are distinct and above its slice, and adding the groups
        in order sums every subtree in the order of a reversed depth-first
        walk: children before parents, last child first.
        """
        n = self.n_buses
        parent, rank, n_children = [0] * n, [0] * n, [0] * n
        for ln in reversed(self.lines):  # rank counts siblings from the last
            p, b = ln.from_bus - 1, ln.to_bus - 1
            parent[b], rank[b] = p, n_children[p]
            n_children[p] += 1
        depth = [0] * n
        groups: dict[tuple[int, int], list[int]] = defaultdict(list)
        for b in self.sweep_order[1:]:
            b -= 1
            depth[b] = depth[parent[b]] + 1
            groups[depth[b], rank[b]].append(b)
        row, order, spans = [0] * n, [0], {}
        for key in sorted(groups):  # a depth's parents have their rows first
            lo = len(order)
            for b in sorted(groups[key], key=lambda b: row[parent[b]]):
                row[b] = len(order)
                order.append(b)
            spans[key] = (lo, len(order))
        parent_rows = np.array([row[parent[b]] for b in order], dtype=int)
        order = np.array(order, dtype=int)
        for arr in (order, parent_rows):
            arr.flags.writeable = False
        starts = [lo for (_, r), (lo, _) in spans.items() if r == 0] + [n]  # a level per depth
        forward = tuple((parent_rows[lo:hi], lo, hi) for lo, hi in zip(starts, starts[1:]))
        backward = tuple(
            (parent_rows[lo:hi], lo, hi)
            for _, (lo, hi) in sorted(spans.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
        )
        return order, forward, backward


@dataclass
class _Header:
    slack_voltage: float | None = None
    v_base: float | None = None
    transformer_reactance: float = 0.0
    neutral_scale: float = 1.0


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise FeederFormatError(f"non-finite value {token!r}")
    return value


def _parse_feeder_text(text: str, source: str) -> NetworkTopology:
    hdr = _Header()
    raw_lines: list[tuple[int, tuple[int, int, complex, complex | None]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split()
        key = parts[0]
        try:
            if key == "slack_voltage":
                hdr.slack_voltage = _finite(parts[1])
            elif key == "v_base":
                hdr.v_base = _finite(parts[1])
            elif key == "transformer_reactance":
                hdr.transformer_reactance = _finite(parts[1])
            elif key == "neutral_scale":
                hdr.neutral_scale = _finite(parts[1])
            elif key == "line":
                if len(parts) not in (5, 7):
                    raise IndexError
                f, t = int(parts[1]), int(parts[2])
                zp = complex(float(parts[3]), float(parts[4]))
                zn = complex(float(parts[5]), float(parts[6])) if len(parts) == 7 else None
                raw_lines.append((lineno, (f, t, zp, zn)))
            else:
                raise FeederFormatError(f"unknown keyword {key!r}")
        except FeederFormatError as exc:
            raise FeederFormatError(f"{source}:{lineno}: {exc}") from None
        except (ValueError, IndexError) as exc:
            raise FeederFormatError(f"{source}:{lineno}: malformed row {stmt!r}") from exc
    if hdr.slack_voltage is None:
        raise FeederFormatError(f"{source}: missing slack_voltage header")
    v_base = hdr.v_base if hdr.v_base is not None else hdr.slack_voltage

    segments = []
    for lineno, (f, t, zp, zn) in raw_lines:
        if zn is None:
            zn = hdr.neutral_scale * zp
        try:
            segments.append(LineSegment(f, t, zp, zn))
        except TopologyError as exc:
            raise TopologyError(f"{source}:{lineno}: {exc}") from None
    return NetworkTopology(
        lines=tuple(segments),
        slack_voltage_magnitude=hdr.slack_voltage,
        v_base=v_base,
        transformer_reactance=hdr.transformer_reactance,
    )


def load_topology(feeder_file: str | Path) -> NetworkTopology:
    """Load and validate a feeder description file.

    Raises FeederFormatError for malformed rows (with file and line number)
    and TopologyError when the rows do not form a radial tree rooted at bus 1.
    """
    path = Path(feeder_file)
    return _parse_feeder_text(path.read_text(), str(path))


def format_topology(topology: NetworkTopology) -> str:
    """Serialize a topology; load_topology(format_topology(t)) == t."""
    out = [
        f"slack_voltage {topology.slack_voltage_magnitude!r}",
        f"v_base {topology.v_base!r}",
        f"transformer_reactance {topology.transformer_reactance!r}",
    ]
    for ln in topology.lines:
        out.append(
            f"line {ln.from_bus} {ln.to_bus} "
            f"{ln.z_phase.real!r} {ln.z_phase.imag!r} "
            f"{ln.z_neutral.real!r} {ln.z_neutral.imag!r}"
        )
    return "\n".join(out) + "\n"


def save_topology(topology: NetworkTopology, path: str | Path) -> None:
    Path(path).write_text(format_topology(topology))
