"""Unbalanced four-wire load flow for batches of time slots.

One fixed-point loop, :func:`_fixed_point`, with two network steps. It
iterates many slots at once; every iteration draws the constant-PQ load
currents at the present voltages and hands them to a step that returns new
voltages and line currents. Each slot keeps its own floor check, iteration
count and convergence test, and leaves as soon as its largest voltage change
falls under the tolerance, so its arithmetic is the same as if it were solved
alone. The loop reads a stream of batches into one active set of slots: as
slots leave, the next ones in batch and slot order take their places, up to
``CHUNK_BUS_SLOTS`` bus-slots and the widest batch fed so far. Two batches
may always be in flight, a third or later one only while those in flight
hold at most ``CHUNK_BUS_SLOTS`` bus-slots in all. It iterates bus-major,
on (bus, slot, wire) arrays, and none of its arithmetic walks a short strided
last axis: numpy would run an inner loop of 3 or 4 elements per (bus, slot),
whose overhead exceeds the work (:func:`phase_to_neutral`, :func:`_sweep_step`).
Leaving slots pass, in bus and line order, through a sink into their
batches' states, each a :class:`SlotRecord`: complex and slot-major in a
:class:`HorizonState`, or, in a run, float report rows
(``metrics.row_sink``). They wait, as complex columns, for one sink call
when the oldest batch is yielded or when they would exceed the bus-slots
the set leaves unused: a few calls a trial on a small feeder, one per
iteration on a large one, whose set uses them all.
Each batch is yielded once complete. A slot that falls under the floor is
located as it leaves (:func:`collapse_points`), where :func:`check_collapse`
reads it. :func:`residuals` checks KCL and slack power balance per slot of
any solved state, a batch's or one slot's.

* :func:`solve_stream` -- the step is a backward-forward sweep over the
  feeder tree, scheduled by depth level (``NetworkTopology.sweep_schedule``,
  after Teng's BIBC/BCBV formulation) on buses renumbered into rows: by
  depth, and within a depth the buses with the most children first, so that
  every level is one slice of rows and the parents of every (depth level,
  sibling rank) group are the leading rows of theirs. The backward pass adds
  load currents leaf-to-root, deepest level first: a level's children are
  gathered once, unless each group's are a slice already, and each group
  adds ``acc[lo:hi] += kids[a:b]``; it leaves in each row the current of the
  line feeding it. The forward pass re-derives voltages root-to-leaf from
  the line drops, one slice per depth level. The loop puts injections in row
  order on entry and each slot's results back in bus and line order as it
  leaves. Every sum runs in the order of a sequential depth-first walk, so
  results do not depend on batch size or row order.
  :func:`solve_batch` is its stream of one batch, and :func:`solve_sweep`
  slot 0 of a one-slot batch.
* :func:`solve_direct` -- testing oracle, a stream of one slot. The step is
  a dense linear solve of the full complex nodal admittance system over all
  (bus, wire) nodes, sharing no code with the tree walk.

Loads are constant-PQ and connect each phase to the local neutral:
``i_load = conj((p + jq) / (v_phase - v_neutral))``. Each phase load current
returns on the neutral, so the neutral injection at a bus is minus the sum
of its phase load currents, and on every line the four wire currents sum
to zero.

Sign conventions: line currents are positive from parent to child; bus
injections are the power DRAWN at the bus in volt-amperes (watts + j vars),
one complex value per (bus, phase). The slack bus may carry injections;
they are served directly at its fixed voltage and never touch the network.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .network import WIRES, NetworkTopology

# Per-unit conventions: voltages are normalised by the topology v_base,
# currents by a 1 kVA single-phase base at v_base.
S_BASE_VA = 1000.0
DEFAULT_TOLERANCE_PU = 1e-12
DEFAULT_MAX_ITERATIONS = 100
VOLTAGE_FLOOR_PU = 0.5
# Most bus-slots (slots x buses) in the active set: 862 slots of a 19-bus
# feeder, above a five-strategy trial's ~245 distinct rows, which then bound the
# set; 8 slots of a 2000-bus one. Bus-major, with static chunks of this size,
# perfbench radial2000-run (2 CPUs) at 4096/8192/16384/32768 took 0.53/0.39/
# 0.32-0.34/0.32-0.33 s a call and peaked at 93/97/94/103 MB.
CHUNK_BUS_SLOTS = 16384

# slack phasors: phases at 0, -120, +120 degrees, neutral at zero
_SLACK_ROTATION = np.array(
    [1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3), 0.0], dtype=complex
)


class InfeasibleInjectionError(RuntimeError):
    """The injections drive a bus voltage under the collapse floor."""


def slack_voltages(topology: NetworkTopology) -> np.ndarray:
    """Fixed (a, b, c, n) phasors at the slack bus."""
    return topology.slack_voltage_magnitude * _SLACK_ROTATION


@dataclass
class SlotRecord:
    """How the solver fared on each slot of a batch, as (n_slots,) arrays.

    iterations -- iterations run per slot
    max_dv     -- last largest voltage change per slot, volts; inf if unsolved
    converged, collapsed -- bool; a collapsed slot fell under the floor at the
                  start of iteration ``iterations``, and is not solved
    collapse_at, collapse_v -- where it fell (see collapse_points) and its
                  |v_x - v_n| there, volts

    A subclass adds each slot's solved values, slot axis first.
    """

    iterations: np.ndarray
    max_dv: np.ndarray
    converged: np.ndarray
    collapsed: np.ndarray
    collapse_at: np.ndarray
    collapse_v: np.ndarray

    @classmethod
    def zeros(cls, n_slots: int, topology: NetworkTopology, **solved: np.ndarray):
        """n_slots unsolved slots, with the subclass's `solved` arrays."""
        record = cls(*(np.zeros(n_slots, d) for d in (int, float, bool, bool, int, float)), **solved)
        record.max_dv[:] = np.inf
        return record

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass
class HorizonState(SlotRecord):
    """Solved states of a batch of slots, stored slot-major by the bus-major loop.

    v      -- complex volts, (n_slots, n_buses, 4), wire order a, b, c, n; a
              collapsed slot's are those that fell under the floor
    i_line -- complex amperes, (n_slots, n_lines, 4), positive parent->child,
              rows follow topology.lines
    i_load -- complex amperes, (n_slots, n_buses, 3), load current per phase

    ``state[t]`` is slot t's state, a HorizonState of views of these arrays
    without the slot axis and of Python numbers; iterating yields each in turn.
    """

    v: np.ndarray
    i_line: np.ndarray
    i_load: np.ndarray

    @classmethod
    def zeros(cls, n_slots: int, topology: NetworkTopology) -> "HorizonState":
        n, m = topology.n_buses, topology.to_bus.size
        return super().zeros(n_slots, topology, v=np.zeros((n_slots, n, 4), complex),
                             i_line=np.zeros((n_slots, m, 4), complex),
                             i_load=np.zeros((n_slots, n, 3), complex))

    def __getitem__(self, t: int) -> "HorizonState":
        return HorizonState(*(f[t] if f.ndim > 1 else f[t].item() for f in vars(self).values()))

    def phase_voltage_pu(self, v_base: float) -> np.ndarray:
        """|v_phase - v_neutral| / v_base, the reported per-unit voltage, (..., n_buses, 3)."""
        return np.abs(phase_to_neutral(self.v)) / v_base

    def neutral_voltage_pu(self, v_base: float) -> np.ndarray:
        return np.abs(self.v[..., 3]) / v_base


def phase_to_neutral(v: np.ndarray) -> np.ndarray:
    """v_x - v_n of (..., 4) voltages, as ``v[..., :3] - v[..., 3:4]`` but a phase at a time."""
    u = np.empty(v.shape[:-1] + (3,), dtype=v.dtype)
    for p in range(3):
        np.subtract(v[..., p], v[..., 3], out=u[..., p])
    return u


def slot_sums(x: np.ndarray) -> np.ndarray:
    """Each slot's sum of (..., rows, wires) values, over its flattened block:
    bitwise np.sum of one slot's alone, which a reduction over two axes is not."""
    return np.add.reduce(x.reshape(x.shape[:-2] + (-1,)), axis=-1)


def collapse_points(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's first least |v_x - v_n| in (bus, phase) order: 3 * bus_index + phase, volts."""
    mag = np.abs(phase_to_neutral(v)).reshape(len(v), -1)
    at = mag.argmin(axis=1)
    return at, mag[np.arange(len(v)), at]


def check_collapse(state: SlotRecord, t: int, topology: NetworkTopology) -> None:
    """Raise InfeasibleInjectionError naming where slot t of any SlotRecord
    fell under the collapse floor, if it did."""
    if state.collapsed[t]:
        b, p = divmod(int(state.collapse_at[t]), 3)
        floor = VOLTAGE_FLOOR_PU * topology.v_base
        raise InfeasibleInjectionError(
            f"|v_{WIRES[p]} - v_n| at bus {b + 1} fell to {state.collapse_v[t]:.1f} V "
            f"(< {floor:.1f} V) in iteration {state.iterations[t]}; "
            "the injections exceed what the feeder can deliver"
        )


def _as_injection_array(topology: NetworkTopology, injections, batched=False) -> np.ndarray:
    s = np.asarray(injections, dtype=complex)
    shape = (topology.n_buses, 3)
    if s.ndim != len(shape) + batched or s.shape[-2:] != shape:
        expected = ("slots, " if batched else "") + f"{topology.n_buses}, 3"
        raise ValueError(f"injections must have shape ({expected}), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("injections must be finite")
    return s


def _injection_currents(s: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous (..., 3) load currents at phase-to-neutral voltages u, and those drawn per (bus, wire).

    The neutral's is minus the phase currents' sum, added in the order of
    numpy's sum over a short last axis, ((+0 + a) + b) + c: the same bytes
    as ``-i_load.sum(axis=-1)``, whose +0 start turns a sum of -0s into +0.
    """
    np.conjugate(i_load := np.divide(s, u), out=i_load)
    drawn = np.empty(u.shape[:-1] + (4,), dtype=complex)
    drawn[..., :3], neutral = i_load, drawn[..., 3]
    np.add(i_load[..., 0], 0.0, out=neutral)
    neutral += i_load[..., 1]
    neutral += i_load[..., 2]
    np.negative(neutral, out=neutral)
    return i_load, drawn


def _compress(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The slots of each array where `keep` is set: slot-indexed 1-d arrays
    and bus-major (rows, slots, wires) ones. np.compress copies a middle
    axis about three times as fast as a boolean index does."""
    return [np.compress(keep, a, axis=0 if a.ndim == 1 else 1) for a in arrays]


def _store(flight: list, waiting: list, reduce, rows: dict) -> None:
    """Reduce the `waiting` slots in one call, emptying it, and write them into their
    batches' states. Per iteration they left in, `waiting` holds their ``ids`` and
    values: 1-d, or bus-major (rows, slots, ·) ones that `rows` puts in bus or line order."""
    values = {}
    for name in waiting[0]:
        parts = [w[name] for w in waiting]
        value = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=int(name in rows))
        values[name] = value.swapaxes(0, 1)[:, rows[name]] if name in rows else value
    waiting.clear()
    ids = values.pop("ids")
    if "collapsed" in values:  # located once, before any reduce
        values["collapse_at"], values["collapse_v"] = collapse_points(values["v"])
    values = reduce(values)
    if len(flight) > 1:  # in id order, to split between the batches
        order = np.argsort(ids)
        ids = ids[order]
        values = {name: value[order] for name, value in values.items()}
    for state, first, end in flight:
        lo, hi = np.searchsorted(ids, (first, end)) if len(flight) > 1 else (0, len(ids))
        for name, value in values.items():
            getattr(state, name)[ids[lo:hi] - first] = value[lo:hi]


def _fixed_point(
    topology: NetworkTopology,
    batches: Iterable,
    tolerance: float | None,
    max_iterations: int,
    step,
    order: np.ndarray | None = None,
    sink: tuple | None = None,
) -> Iterator:
    """Iterate ``step(drawn, v) -> (v_new, i_line)`` on a stream of (slots, n, 3) arrays.

    Yields each batch's state, in feed order, once its last slot has left.
    Every slot starts from the slack phasors and iterates on its own:
    it leaves when its largest voltage change falls under the tolerance,
    when a phase-to-neutral voltage falls under the floor, or after
    `max_iterations`. One active set holds the slots being iterated,
    bus-major: the step's arrays are (rows, slots, 4). As slots leave it is
    refilled in batch and slot order, up to CHUNK_BUS_SLOTS bus-slots and
    the width of the widest batch fed so far. The next batch is pulled when
    the set has room and every row of the last one has entered; with two or
    more batches in flight, only while their rows hold at most
    CHUNK_BUS_SLOTS bus-slots, so that small feeders solve several batches
    ahead and large ones keep to two. Rows are buses and lines as numbered,
    or with `order` the bus in each row, and then row r of i_line is the
    line feeding the bus in row r + 1. A `sink` ``(record, reduce)`` names
    the SlotRecord class of each batch's state, made by ``record.zeros``, and
    turns leaving slots, in bus and line order, into what it stores per slot;
    by default HorizonStates. They wait for one
    ``reduce`` until the oldest batch is yielded or they exceed the slots
    the set cannot use, ``min(cap - min(cap, width), width)``: about a trial
    on a small feeder; none on a large one, which so stores each iteration's
    before the next, as it always did.
    """
    tol = DEFAULT_TOLERANCE_PU * topology.v_base if tolerance is None else tolerance
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not isinstance(max_iterations, numbers.Integral) or max_iterations < 1:
        raise ValueError(f"max_iterations must be a positive integer, got {max_iterations!r}")
    n = topology.n_buses
    floor = VOLTAGE_FLOOR_PU * topology.v_base
    slack = slack_voltages(topology)
    if order is None:
        order = bus_rows = line_rows = slice(None)
    else:
        bus_rows = np.argsort(order)  # the row of each bus
        line_rows = bus_rows[topology.line_arrays[1]] - 1
    rows = {"v": bus_rows, "i_line": line_rows, "i_load": bus_rows}
    cap = max(1, CHUNK_BUS_SLOTS // n)
    record, reduce = sink or (HorizonState, lambda values: values)
    batches = iter(batches)
    # (state, first slot id, id past its last) per batch pulled and not yet
    # yielded, slots numbered in feed order; `feeding` holds the rows of the
    # last batch yet to enter, `waiting` the slots that left, per iteration,
    # until _store. Per column of the active set, `ids` holds the slot's id and
    # `counts` its iterations; `free` lists the columns of slots that left last.
    flight, feeding, waiting, next_id, width = [], None, [], 0, 0
    ids = counts = free = np.empty(0, dtype=int)
    s_active = np.empty((n, 0, 3), dtype=complex)
    v = np.empty((n, 0, 4), dtype=complex)
    while True:
        # take rows while the set has room, pulling batches until one has rows
        new, k = [], 0
        while (room := min(cap, width) - len(ids) + len(free) - k) > 0 or not width:
            if feeding is None:
                full = len(flight) > 1 and (flight[-1][2] - flight[0][1]) * n > CHUNK_BUS_SLOTS
                if full or (batch := next(batches, None)) is None:
                    break
                feeding, batch = _as_injection_array(topology, batch, batched=True), None
                flight.append((record.zeros(len(feeding), topology), next_id + k,
                               next_id + k + len(feeding)))
                width = max(width, len(feeding))
                continue
            new.append(feeding[:room])
            k += len(new[-1])
            feeding = feeding[room:] if len(feeding) > room else None
        # entering slots take the columns of those that left, in place
        if k:
            s_new = np.concatenate(new).swapaxes(0, 1)[order]
            reuse = free[:k]
            s_active[:, reuse] = s_new[:, :len(reuse)]
            v[:, reuse] = slack
            counts[reuse] = 0
            ids[reuse] = np.arange(next_id, next_id + len(reuse))
        if k > len(free):  # the set widens
            s_active = np.concatenate([s_active, s_new[:, len(free):]], axis=1)
            v = np.concatenate([v, np.broadcast_to(slack, (n, k - len(free), 4))], axis=1)
            counts = np.concatenate([counts, np.zeros(k - len(free), dtype=int)])
            ids = np.concatenate([ids, np.arange(next_id + len(free), next_id + k)])
        elif k < len(free):  # no rows wait for the rest: the set narrows
            keep = np.ones(len(ids), dtype=bool)
            keep[free[k:]] = False
            ids, counts, s_active, v = _compress(keep, ids, counts, s_active, v)
        next_id, free = next_id + k, free[:0]
        new = s_new = None  # not held while suspended at a yield
        if flight and next_id >= (end := flight[0][2]) and not (len(ids) and ids.min() < end):
            if waiting:
                _store(flight, waiting, reduce, rows)
            yield flight.pop(0)[0]
            continue
        if not len(ids):
            return
        if sum(len(w["ids"]) for w in waiting) > min(cap - min(cap, width), width):
            _store(flight, waiting, reduce, rows)
        counts += 1
        u = phase_to_neutral(v)
        # over buses, then a column at a time: numpy loops per slot over a
        # short last axis, and one reduction over axes (0, 2) is slower still
        collapsed = functools.reduce(np.minimum, np.abs(u).min(axis=0).T) < floor
        if collapsed.any():
            gone = np.flatnonzero(collapsed)
            _store(flight, [{
                "ids": ids[gone],
                "v": np.take(v, gone, axis=1),
                "iterations": counts[gone],
                "collapsed": np.ones(len(gone), dtype=bool),
            }], reduce, rows)
            ids, counts, s_active, v, u = _compress(~collapsed, ids, counts, s_active, v, u)
            if not len(ids):
                continue
        i_load, drawn = _injection_currents(s_active, u)
        del u  # not held through the step
        v_new, i_line = step(drawn, v)  # may use drawn as its accumulator
        dv = np.abs(np.subtract(v_new, v, out=v)).max(axis=0)  # v is replaced
        dv = functools.reduce(np.maximum, dv.T)
        v = v_new
        done = (dv < tol) | (counts == max_iterations)
        if done.any():
            free = np.flatnonzero(done)
            waiting.append({
                "ids": ids[free],
                "v": np.take(v, free, axis=1),
                "i_line": np.take(i_line, free, axis=1),
                "i_load": np.take(i_load, free, axis=1),
                "iterations": counts[free],
                "max_dv": dv[free],
                "converged": dv[free] < tol,
            })
        del i_load, drawn, v_new, i_line  # not held through _store or while suspended at a yield


def _row_slice(rows: np.ndarray):
    """`rows` as a slice when consecutive, or of one row to broadcast when all equal."""
    lo = int(rows[0])
    if (np.diff(rows) == 1).all():
        return slice(lo, lo + len(rows))
    return slice(lo, lo + 1) if (rows == lo).all() else rows


def _sweep_step(topology: NetworkTopology):
    """The level-scheduled backward-forward sweep over a batch of slots, and its row order.

    The step sums the drawn currents `acc` in place. With z repeated over the set's slots,
    rows sliced where they can be and a level's scattered children gathered once, no
    call loops per (row, slot) over 4 wires.
    """
    order, forward, backward = topology.sweep_schedule
    _, to, z = topology.line_arrays
    line_of_bus = np.empty(topology.n_buses, dtype=int)
    line_of_bus[to] = np.arange(len(to))
    z_lines = z[line_of_bus[order[1:]], None]  # row r's feeds the bus in row r + 1
    z_lines = np.repeat(z_lines, max(1, CHUNK_BUS_SLOTS // topology.n_buses), axis=1)
    levels = []
    for _, groups in itertools.groupby(backward, key=lambda g: g[1]):  # a level's groups share lo
        kids, los, his = zip(*groups)
        rows, gather = [_row_slice(k) for k in kids], None
        if not all(isinstance(r, slice) for r in rows):  # gathered once, a slice per group
            at = np.cumsum([0] + [len(k) for k in kids]).tolist()
            gather, rows = np.concatenate(kids), [slice(a, b) for a, b in zip(at, at[1:])]
        levels.append((gather, [(slice(lo, hi), r) for lo, hi, r in zip(los, his, rows)]))
    forward = [(_row_slice(parent_rows), slice(lo, hi), z_lines[lo - 1:hi - 1])
               for parent_rows, lo, hi in forward]

    def step(acc, v):
        # backward: a level's children are complete, and each group adds them into
        # its distinct parents
        for gather, groups in levels:
            kids = acc if gather is None else acc[gather]
            for parents, rows in groups:
                acc[parents] += kids[rows]
        # forward: a level's parents are set before its children
        v_new = np.empty_like(v)
        v_new[0] = v[0]
        for parent_rows, rows, z_level in forward:
            np.subtract(v_new[parent_rows], z_level[:, :v.shape[1]] * acc[rows], out=v_new[rows])
        return v_new, acc[1:]  # a row's subtree current is its line's

    return step, order


def solve_stream(
    topology: NetworkTopology,
    batches: Iterable,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    sink: tuple | None = None,
) -> Iterator:
    """Backward-forward sweep solve of a stream of (slots, n_buses, 3) batches.

    Yields each batch's HorizonState in order, as solve_batch would return
    it, or with a `sink` (see _fixed_point) each batch's state of the sink.
    Batches are pulled from `batches` only as the solver makes room for
    their rows, after every row of the one before has entered, so that the
    slots of the next batch iterate with the last ones of this one.
    """
    step, order = _sweep_step(topology)
    return _fixed_point(topology, batches, tolerance, max_iterations, step, order, sink)


def solve_batch(
    topology: NetworkTopology,
    injections,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> HorizonState:
    """Backward-forward sweep solve of a (slots, n_buses, 3) batch of slots.

    Each slot converges, collapses or runs out of iterations on its own, as
    if solved alone by solve_sweep; nothing raises for a failed slot, whose
    outcome is read from ``converged``, ``collapsed`` and check_collapse.
    """
    return next(solve_stream(
        topology, [injections], tolerance=tolerance, max_iterations=max_iterations
    ))


def solve_sweep(
    topology: NetworkTopology,
    injections,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> HorizonState:
    """Backward-forward sweep solve of one time slot: slot 0 of a one-slot solve_batch.

    Returns that slot's HorizonState, (n_buses, ·) arrays and Python numbers.
    `tolerance` is the convergence threshold in volts on the largest
    componentwise voltage change between sweeps; defaults to
    DEFAULT_TOLERANCE_PU * v_base. Non-convergence returns a state with
    ``converged=False``; a voltage collapsing under the floor raises
    InfeasibleInjectionError.
    """
    s = _as_injection_array(topology, injections)
    batch = solve_batch(
        topology, s[None], tolerance=tolerance, max_iterations=max_iterations
    )
    check_collapse(batch, 0, topology)
    return batch[0]


# Wires of zero impedance (ideal conductors) are clamped to this value when
# building the nodal admittance matrix; the sweep handles them exactly.
_MIN_WIRE_OHMS = 1e-9


def solve_direct(
    topology: NetworkTopology,
    injections,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> HorizonState:
    """Direct nodal-system oracle; same contract as solve_sweep, slot 0 of a one-slot batch."""
    s = _as_injection_array(topology, injections)
    n = topology.n_buses
    frm, to, z = topology.line_arrays

    z_clamped = np.where(np.abs(z) < _MIN_WIRE_OHMS, _MIN_WIRE_OHMS, z)
    adm = 1.0 / z_clamped
    i, j = 4 * frm[:, None] + np.arange(4), 4 * to[:, None] + np.arange(4)
    y = np.zeros((4 * n, 4 * n), dtype=complex)
    # (line, wire) by (line, wire), its two self and two mutual entries
    np.add.at(y, (np.stack([i, j, i, j], -1), np.stack([i, j, j, i], -1)),
              np.stack([adm, adm, -adm, -adm], -1))
    free = np.arange(4, 4 * n)
    y_ff = y[np.ix_(free, free)]
    y_fs = y[:, :4][free]
    v_slack = slack_voltages(topology)

    def step(drawn, v):
        # one slot: (n, 1, 4) arrays, whose C order is that of the nodes
        inj = -drawn.ravel()  # current injected INTO the network
        v_new = np.empty(v.shape, dtype=complex)  # C order, so reshape is a view
        v_new[0] = v_slack
        v_new.reshape(-1)[free] = np.linalg.solve(y_ff, inj[free] - y_fs @ v_slack)
        return v_new, (v_new[frm] - v_new[to]) / z_clamped[:, None]

    batch = next(_fixed_point(topology, [s[None]], tolerance, max_iterations, step))
    check_collapse(batch, 0, topology)
    return batch[0]


def residuals(state: HorizonState, topology: NetworkTopology, injections) -> tuple:
    """Each slot's KCL residual in amperes and relative slack-power mismatch, real and imaginary.

    `state` is a batch's HorizonState or one slot's (``batch[t]``), solved for
    (..., n_buses, 3) `injections`. KCL: the largest current imbalance over
    non-slack buses, with the load currents re-derived from the injections at
    the solved voltages. Balance: slack supply (lines plus load served at the
    slack) minus delivered load and series losses, per part relative to
    max(|slack|, S_BASE_VA). Summed per slot (slot_sums), a batch's values
    equal each slot's alone, bit for bit.
    """
    s = _as_injection_array(topology, injections, batched=np.ndim(injections) == 3)
    frm, to, z = topology.line_arrays
    u = phase_to_neutral(state.v)
    balance = np.negative(_injection_currents(s, u)[1])
    np.add.at(balance, (..., to, slice(None)), state.i_line)  # incoming from parent
    np.subtract.at(balance, (..., frm, slice(None)), state.i_line)  # outgoing toward children
    kcl = np.max(np.abs(balance[..., 1:, :]), axis=(-2, -1), initial=0.0)
    load = slot_sums(u * np.conj(state.i_load))
    loss = slot_sums(np.abs(state.i_line) ** 2 * z)
    slack = slot_sums(state.v[..., :1, :] * np.conj(state.i_line[..., frm == 0, :]))
    slack = slack + slot_sums(u[..., :1, :] * np.conj(state.i_load[..., :1, :]))
    gap = slack - load - loss
    return (kcl, np.abs(gap.real) / np.maximum(np.abs(slack.real), S_BASE_VA),
            np.abs(gap.imag) / np.maximum(np.abs(slack.imag), S_BASE_VA))
