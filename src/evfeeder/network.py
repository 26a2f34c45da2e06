"""Four-wire radial feeder model and its plain-text description format.

A feeder is a tree of buses rooted at bus 1 (the slack bus, held at a fixed
balanced three-phase voltage with the neutral at zero volts). Every line
carries three phase conductors with one common impedance plus an explicit
neutral conductor with its own impedance.

File grammar (one statement per line, ``#`` starts a comment)::

    slack_voltage <volts>              # required, phase-to-neutral magnitude
    v_base <volts>                     # optional, defaults to slack_voltage
    transformer_reactance <ohms>       # optional, checked finite and ignored
    neutral_scale <factor>             # optional, default 1.0 (z_n = z_phase)
    line <from> <to> <r_ph> <x_ph> [<r_n> <x_n>]

Per-line neutral columns override ``neutral_scale``. The upstream transformer
reactance is accepted and dropped: the slack voltage is fixed at bus 1, so
any series impedance above it is unobservable downstream, and a topology
does not hold it.

The file is read in one pass, and its first malformed row raises at once.
`NetworkTopology` then checks the lines: of several faults it names the
header's first, else the first line at fault and the first check that line
fails. `read_text` and `statements` read every input file by this grammar.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

PHASES = ("a", "b", "c")
WIRES = ("a", "b", "c", "n")
SLACK_BUS = 1


class FeederFormatError(ValueError):
    """A feeder file could not be parsed."""


class TopologyError(ValueError):
    """The described network is not a connected radial tree rooted at bus 1.

    ``line`` is the index into ``lines`` of the segment at fault, if one is.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class LineSegment(NamedTuple):
    """One segment: three identical phase conductors plus a neutral; `NetworkTopology` checks it."""

    from_bus: int
    to_bus: int
    z_phase: complex
    z_neutral: complex


@dataclass(frozen=True, eq=False, init=False)
class NetworkTopology:
    """Immutable radial feeder: buses 1..N, N-1 lines, slack at bus 1.

    The lines are read-only columns in line order: ``from_bus`` and
    ``to_bus`` bus numbers and complex ``z_phase`` and ``z_neutral`` ohms.
    ``lines=`` gives them as rows of these four: `LineSegment` records or
    plain tuples.
    Derived lookups (bus count, records, sweep order, line arrays, sweep
    schedule) are computed once, on first use, and cached; the cached arrays
    are read-only, so instances are safe to share across concurrent scenario
    evaluations.
    """

    from_bus: np.ndarray
    to_bus: np.ndarray
    z_phase: np.ndarray
    z_neutral: np.ndarray
    slack_voltage_magnitude: float = 220.0
    v_base: float = 220.0

    def __init__(self, lines=(), slack_voltage_magnitude=220.0, v_base=220.0):
        frm, to, zp, zn = list(zip(*lines)) or [()] * 4
        # a bus number past 64 bits makes an object column; it fails a check
        frm, to = (np.array(c) if len(c) else np.zeros(0, dtype=int) for c in (frm, to))
        zp, zn = np.array(zp, dtype=complex), np.array(zn, dtype=complex)
        for arr in (frm, to, zp, zn):
            arr.flags.writeable = False
        vars(self).update(from_bus=frm, to_bus=to, z_phase=zp, z_neutral=zn, v_base=v_base,
                          slack_voltage_magnitude=slack_voltage_magnitude)
        if not (0 < slack_voltage_magnitude < math.inf and 0 < v_base < math.inf):
            raise TopologyError("slack voltage and v_base must be positive and finite")
        n, m = self.n_buses, frm.size
        lo, hi = np.minimum(frm, to), np.maximum(frm, to)
        failed = np.stack([
            frm == to,
            ~(np.isfinite(zp) & np.isfinite(zn)),
            (zp.real < 0) | (zn.real < 0),
            lo < 1,  # n is the largest bus, so only the lower end of the range can fail
            _repeats(lo, hi),  # in either direction
            to == SLACK_BUS,
            _repeats(to),
        ])
        bad = np.flatnonzero(failed.any(axis=0))
        if bad.size:  # the first line at fault, and the first check it fails
            k = int(bad[0])
            check, f, t = int(failed[:, k].argmax()), int(frm[k]), int(to[k])
            name = f"line {f}->{t}"
            texts = (f"{name} is a self loop", f"{name} has a non-finite impedance",
                     f"{name} has negative resistance", f"{name}: bus out of range 1..{n}",
                     f"duplicate {name}", f"{name} gives the slack bus a parent")
            raise TopologyError(texts[check] if check < len(texts) else
                                f"bus {t} has two parents ({frm[:k][to[:k] == t][0]} and {f})", k)
        if m != n - 1:
            raise TopologyError(f"{n} buses need {n - 1} lines, found {m}")
        # every bus but the slack now has one parent; a bus whose parent
        # pointers, followed, never reach the slack sits on a cycle
        parent = np.zeros(n, dtype=int)
        parent[to - 1] = frm - 1
        jump, depth = parent, np.minimum(np.arange(n), 1)  # depth: lines up to jump
        for _ in range(n.bit_length()):
            jump, depth = jump[jump], depth + depth[jump]
        if jump.any():
            missing = (np.flatnonzero(jump) + 1).tolist()
            raise TopologyError(f"buses {missing} are not connected to bus {SLACK_BUS}")
        vars(self).update(_parent=parent, _depth=depth)

    def __eq__(self, other):
        if not isinstance(other, NetworkTopology):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(self))

    @cached_property
    def lines(self) -> tuple[LineSegment, ...]:
        columns = (self.from_bus, self.to_bus, self.z_phase, self.z_neutral)
        return tuple(LineSegment(*ln) for ln in zip(*(c.tolist() for c in columns)))

    @cached_property
    def n_buses(self) -> int:
        return int(max(self.from_bus.max(), self.to_bus.max())) if self.from_bus.size else 1

    @cached_property
    def buses(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_buses + 1))

    @cached_property
    def sweep_order(self) -> tuple[int, ...]:
        """Bus numbers in `sweep_schedule` row order: the slack first, each bus after its parent."""
        return tuple((self.sweep_schedule[0] + 1).tolist())

    @cached_property
    def parent_line_index(self) -> dict[int, int]:
        """Bus -> index into `lines` of the segment feeding it (slack absent)."""
        return dict(zip(self.to_bus.tolist(), range(self.to_bus.size)))

    @cached_property
    def line_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(frm, to, z)`` rows following `lines`.

        frm, to -- 0-based bus indices of each segment's ends, shape (n_lines,)
        z       -- complex ohms per wire, shape (n_lines, 4), wire order a, b, c, n
        """
        z = np.column_stack([self.z_phase] * 3 + [self.z_neutral])
        arrays = (self.from_bus - 1, self.to_bus - 1, z)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @cached_property
    def sweep_schedule(self) -> tuple[np.ndarray, tuple, tuple]:
        """Read-only row order and groups of the level-scheduled backward-forward sweep.

        order    -- (n_buses,) 0-based bus in each row: the slack in row 0,
                    then the buses by depth, within a depth those with the
                    most children first, ties by bus
        forward  -- one ``(parent_rows, lo, hi)`` per depth level, root side
                    first: rows lo..hi-1 hold the level's buses and
                    parent_rows their parents' rows, all set by earlier levels
        backward -- one ``(child_rows, lo, hi)`` per (depth level, sibling
                    rank) group, deepest level first and, within a level,
                    each parent's last child first: rows lo..hi-1 are the
                    parents, the leading rows of the level above, and
                    child_rows the row of each one's child of that rank

        Every non-slack bus sits in exactly one slice per pass and is the
        child of exactly one backward group. Adding the groups in order sums
        every subtree in the order of a reversed depth-first walk: children
        before parents, last child first.
        """
        frm, to, _ = self.line_arrays
        parent, depth, n = self._parent, self._depth, self.n_buses
        # a bus's rank counts its parent's later lines: the last child's is 0
        by_parent = np.argsort(frm, kind="stable")
        key = frm[by_parent]
        rank = np.zeros(n, dtype=int)
        rank[to[by_parent]] = np.searchsorted(key, key, side="right") - 1 - np.arange(key.size)
        # a parent has a child of rank r if it has more than r children, so
        # each group's parents lead their level
        order = np.lexsort((-np.bincount(frm, minlength=n), depth))
        row = np.empty(n, dtype=int)
        row[order] = np.arange(n)
        parent_rows = row[parent[order]]
        depth, rank = depth[order], rank[order]
        kids = 1 + np.lexsort((parent_rows[1:], rank[1:], -depth[1:]))  # in group order
        for arr in (order, parent_rows, kids):
            arr.flags.writeable = False
        level = np.searchsorted(depth, np.arange(depth[-1] + 2)).tolist()
        forward = tuple((parent_rows[lo:hi], lo, hi) for lo, hi in zip(level[1:], level[2:]))
        starts = np.flatnonzero(np.diff(depth[kids], prepend=0) | np.diff(rank[kids], prepend=0))
        bounds, los = starts.tolist() + [n - 1], parent_rows[kids[starts]].tolist()
        backward = tuple((kids[a:b], lo, lo + b - a) for a, b, lo in zip(bounds, bounds[1:], los))
        return order, forward, backward


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Whether each entry's keys equal an earlier entry's."""
    order = np.lexsort(keys)  # stable: each key's first entry leads its repeats
    repeat = np.zeros(order.size, dtype=bool)
    repeat[order[1:]] = np.all([key[order[1:]] == key[order[:-1]] for key in keys], axis=0)
    return repeat


def read_text(path: str | Path) -> str:
    """A file's text, read as UTF-8; a byte that is not UTF-8 raises naming its `file:line`."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def statements(text: str) -> Iterator[tuple[int, str]]:
    """Each ``(line number, row)`` of an input file, without comments and blank rows."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0].strip()
        if row:
            yield lineno, row


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise FeederFormatError(f"non-finite value {token!r}")
    return value


def _parse_feeder_text(text: str, source: str) -> NetworkTopology:
    hdr = {"slack_voltage": None, "v_base": None, "transformer_reactance": 0.0, "neutral_scale": 1.0}
    rows, linenos, at = [], [], {}  # at: each header's last row
    for lineno, stmt in statements(text):
        key, *values = stmt.split()
        try:
            if key == "line":
                if len(values) not in (4, 6):
                    raise IndexError
                z = [float(v) for v in values[2:]]
                zn = complex(z[2], z[3]) if len(z) == 4 else None
                rows.append((int(values[0]), int(values[1]), complex(z[0], z[1]), zn))
                linenos.append(lineno)
            elif key not in hdr:
                raise FeederFormatError(f"unknown keyword {key!r}")
            elif len(values) != 1:
                raise IndexError
            else:
                hdr[key], at[key] = _finite(values[0]), lineno
        except (ValueError, IndexError) as exc:
            fault = exc if isinstance(exc, FeederFormatError) else f"malformed row {stmt!r}"
            raise FeederFormatError(f"{source}:{lineno}: {fault}") from None
    if hdr["slack_voltage"] is None:
        raise FeederFormatError(f"{source}: missing slack_voltage header")
    scale = hdr["neutral_scale"]  # the file's last, which may follow `line` rows
    try:
        return NetworkTopology(
            [(f, t, zp, scale * zp if zn is None else zn) for f, t, zp, zn in rows],
            slack_voltage_magnitude=hdr["slack_voltage"],
            v_base=hdr["slack_voltage"] if hdr["v_base"] is None else hdr["v_base"],
        )
    except TopologyError as exc:  # at a line, else at a header row whose value is not positive
        rows_at = [linenos[exc.line]] if exc.line is not None else [
            at[key] for key in ("slack_voltage", "v_base") if key in at and hdr[key] <= 0]
        where = f"{source}:{min(rows_at)}" if rows_at else source
        raise TopologyError(f"{where}: {exc}") from None


def load_topology(feeder_file: str | Path) -> NetworkTopology:
    """Load and validate a feeder description file.

    Raises FeederFormatError for malformed rows (with file and line number)
    and TopologyError when the rows do not form a radial tree rooted at bus 1.
    """
    path = Path(feeder_file)
    return _parse_feeder_text(read_text(path), str(path))


def format_topology(topology: NetworkTopology) -> str:
    """Serialize a topology; load_topology(format_topology(t)) == t."""
    out = [f"slack_voltage {topology.slack_voltage_magnitude!r}", f"v_base {topology.v_base!r}"]
    for ln in topology.lines:
        out.append(
            f"line {ln.from_bus} {ln.to_bus} "
            f"{ln.z_phase.real!r} {ln.z_phase.imag!r} "
            f"{ln.z_neutral.real!r} {ln.z_neutral.imag!r}"
        )
    return "\n".join(out) + "\n"


def save_topology(topology: NetworkTopology, path: str | Path) -> None:
    Path(path).write_text(format_topology(topology))
