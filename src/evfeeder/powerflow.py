"""Unbalanced four-wire load flow for one time slot.

One fixed-point loop, :func:`_fixed_point`, with two network steps. Every
iteration draws the constant-PQ load currents at the present voltages and
hands them to a step that returns new voltages and line currents, until the
largest voltage change falls under the tolerance:

* :func:`solve_sweep` -- the step is a backward-forward sweep over the
  feeder tree. The backward pass aggregates load currents leaf-to-root into
  line currents, the forward pass re-derives voltages root-to-leaf from the
  line drops.
* :func:`solve_direct` -- testing oracle. The step is a dense linear solve
  of the full complex nodal admittance system over all (bus, wire) nodes,
  sharing no code with the tree walk.

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

from dataclasses import dataclass

import numpy as np

from .network import WIRES, NetworkTopology

# Per-unit conventions: voltages are normalised by the topology v_base,
# currents by a 1 kVA single-phase base at v_base.
S_BASE_VA = 1000.0
DEFAULT_TOLERANCE_PU = 1e-12
DEFAULT_MAX_ITERATIONS = 100
VOLTAGE_FLOOR_PU = 0.5

# slack phasors: phases at 0, -120, +120 degrees, neutral at zero
_SLACK_ROTATION = np.array(
    [1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3), 0.0], dtype=complex
)


class InfeasibleInjectionError(RuntimeError):
    """The injections drive a bus voltage under the collapse floor."""


def base_current(topology: NetworkTopology) -> float:
    """Per-unit current base in amperes (1 kVA single phase at v_base)."""
    return S_BASE_VA / topology.v_base


def slack_voltages(topology: NetworkTopology) -> np.ndarray:
    """Fixed (a, b, c, n) phasors at the slack bus."""
    return topology.slack_voltage_magnitude * _SLACK_ROTATION


@dataclass
class NetworkState:
    """Solved electrical state of one time slot.

    v        -- complex volts, shape (n_buses, 4), wire order a, b, c, n
    i_line   -- complex amperes, shape (n_lines, 4), positive parent->child,
                rows follow topology.lines
    i_load   -- complex amperes, shape (n_buses, 3), load current per phase
    """

    v: np.ndarray
    i_line: np.ndarray
    i_load: np.ndarray
    converged: bool
    iterations: int
    max_dv: float

    def phase_to_neutral(self) -> np.ndarray:
        """Phase-to-neutral voltages, shape (n_buses, 3)."""
        return self.v[:, :3] - self.v[:, 3:4]

    def phase_voltage_pu(self, v_base: float) -> np.ndarray:
        """|v_phase - v_neutral| / v_base, the reported per-unit voltage."""
        return np.abs(self.phase_to_neutral()) / v_base

    def neutral_voltage_pu(self, v_base: float) -> np.ndarray:
        return np.abs(self.v[:, 3]) / v_base


def _as_injection_array(topology: NetworkTopology, injections) -> np.ndarray:
    s = np.asarray(injections, dtype=complex)
    if s.shape != (topology.n_buses, 3):
        raise ValueError(
            f"injections must have shape ({topology.n_buses}, 3), got {s.shape}"
        )
    if not np.all(np.isfinite(s)):
        raise ValueError("injections must be finite")
    return s


def _check_floor(u: np.ndarray, topology: NetworkTopology, iteration: int) -> None:
    floor = VOLTAGE_FLOOR_PU * topology.v_base
    mag = np.abs(u)
    if np.min(mag) < floor:
        b, p = np.unravel_index(int(np.argmin(mag)), mag.shape)
        raise InfeasibleInjectionError(
            f"|v_{WIRES[p]} - v_n| at bus {b + 1} fell to "
            f"{mag[b, p]:.1f} V (< {floor:.1f} V) in iteration {iteration}; "
            "the injections exceed what the feeder can deliver"
        )


def _injection_currents(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Load currents drawn per (bus, wire) from the present voltages."""
    u = v[:, :3] - v[:, 3:4]
    i_load = np.conj(s / u)
    drawn = np.empty((s.shape[0], 4), dtype=complex)
    drawn[:, :3] = i_load
    drawn[:, 3] = -i_load.sum(axis=1)
    return drawn


def _fixed_point(
    topology: NetworkTopology,
    injections,
    tolerance: float | None,
    max_iterations: int,
    step,
) -> NetworkState:
    """Iterate ``step(drawn, v) -> (v_new, i_line)`` from the slack phasors
    until the largest voltage change falls under the tolerance."""
    s = _as_injection_array(topology, injections)
    tol = DEFAULT_TOLERANCE_PU * topology.v_base if tolerance is None else tolerance
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    v = np.tile(slack_voltages(topology), (topology.n_buses, 1))
    for iterations in range(1, max_iterations + 1):
        _check_floor(v[:, :3] - v[:, 3:4], topology, iterations)
        drawn = _injection_currents(s, v)
        v_new, i_line = step(drawn, v)
        dv = float(np.max(np.abs(v_new - v)))
        v = v_new
        if dv < tol:
            break
    return NetworkState(
        v=v,
        i_line=i_line,
        i_load=drawn[:, :3].copy(),
        converged=dv < tol,
        iterations=iterations,
        max_dv=dv,
    )


def solve_sweep(
    topology: NetworkTopology,
    injections,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> NetworkState:
    """Backward-forward sweep solve of one time slot.

    `tolerance` is the convergence threshold in volts on the largest
    componentwise voltage change between sweeps; defaults to
    DEFAULT_TOLERANCE_PU * v_base. Non-convergence returns a state with
    ``converged=False``; a voltage collapsing under the floor raises
    InfeasibleInjectionError.
    """
    _, _, z = topology.line_arrays
    # (line, parent bus, child bus), root first; plain ints index numpy rows
    # faster than elements of the line arrays do
    lines = topology.lines
    ks = [topology.parent_line_index[b] for b in topology.sweep_order[1:]]
    walk = [(k, lines[k].from_bus - 1, lines[k].to_bus - 1) for k in ks]
    i_line = np.zeros((len(topology.lines), 4), dtype=complex)

    def step(drawn, v):
        # backward: children before parents, so each bus already aggregates
        # its whole subtree when its feeding line is assigned
        acc = drawn.copy()
        for k, parent, child in reversed(walk):
            i_line[k] = acc[child]
            acc[parent] += acc[child]
        # forward: parents before children
        v_new = np.empty_like(v)
        v_new[0] = v[0]
        for k, parent, child in walk:
            v_new[child] = v_new[parent] - z[k] * i_line[k]
        return v_new, i_line

    return _fixed_point(topology, injections, tolerance, max_iterations, step)


# Wires of zero impedance (ideal conductors) are clamped to this value when
# building the nodal admittance matrix; the sweep handles them exactly.
_MIN_WIRE_OHMS = 1e-9


def solve_direct(
    topology: NetworkTopology,
    injections,
    *,
    tolerance: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> NetworkState:
    """Direct nodal-system oracle; same contract as solve_sweep."""
    n = topology.n_buses
    frm, to, z = topology.line_arrays

    nn = 4 * n
    y = np.zeros((nn, nn), dtype=complex)
    for k in range(len(topology.lines)):
        for w in range(4):
            zw = z[k, w]
            if abs(zw) < _MIN_WIRE_OHMS:
                zw = complex(_MIN_WIRE_OHMS)
            adm = 1.0 / zw
            i, j = 4 * frm[k] + w, 4 * to[k] + w
            y[i, i] += adm
            y[j, j] += adm
            y[i, j] -= adm
            y[j, i] -= adm
    slack_nodes = np.arange(4)
    free = np.arange(4, nn)
    y_ff = y[np.ix_(free, free)]
    y_fs = y[np.ix_(free, slack_nodes)]
    v_slack = slack_voltages(topology)
    z_clamped = np.where(np.abs(z) < _MIN_WIRE_OHMS, _MIN_WIRE_OHMS, z)

    def step(drawn, v):
        inj = -drawn.reshape(-1)  # current injected INTO the network
        rhs = inj[free] - y_fs @ v_slack
        v_new = np.empty_like(v)
        v_new[0] = v_slack
        v_new.reshape(-1)[free] = np.linalg.solve(y_ff, rhs)
        return v_new, (v_new[frm] - v_new[to]) / z_clamped

    return _fixed_point(topology, injections, tolerance, max_iterations, step)


def kcl_residual(state: NetworkState, topology: NetworkTopology, injections) -> float:
    """Largest current-balance violation in amperes over non-slack buses.

    The local injection current is re-derived from the requested injections
    and the state voltages, so the residual measures how well the state's
    line currents serve the specified loads at the solved voltages.
    """
    s = _as_injection_array(topology, injections)
    drawn = _injection_currents(s, state.v)
    frm, to, _ = topology.line_arrays
    balance = -drawn
    np.add.at(balance, to, state.i_line)     # incoming from parent
    np.subtract.at(balance, frm, state.i_line)  # outgoing toward children
    return float(np.max(np.abs(balance[1:]), initial=0.0))


def complex_power_balance(
    state: NetworkState, topology: NetworkTopology, injections
) -> dict[str, complex]:
    """Slack supply, delivered load and series losses, in volt-amperes.

    ``slack`` counts power leaving the slack bus through its lines plus any
    load served directly at the slack; it equals ``load + loss`` for a
    converged state.
    """
    s = _as_injection_array(topology, injections)
    frm, _, z = topology.line_arrays
    u = state.phase_to_neutral()
    load = np.sum(u * np.conj(state.i_load))
    loss = np.sum(np.abs(state.i_line) ** 2 * z)
    slack_lines = frm == 0
    slack = np.sum(state.v[0] * np.conj(state.i_line[slack_lines]))
    slack += np.sum(u[0] * np.conj(state.i_load[0]))
    return {"slack": complex(slack), "load": complex(load), "loss": complex(loss),
            "spec_load": complex(np.sum(s))}


def power_balance_error(
    state: NetworkState, topology: NetworkTopology, injections
) -> tuple[float, float]:
    """Relative slack-power mismatch, real and imaginary parts separately."""
    bal = complex_power_balance(state, topology, injections)
    gap = bal["slack"] - bal["load"] - bal["loss"]
    scale_p = max(abs(bal["slack"].real), S_BASE_VA)
    scale_q = max(abs(bal["slack"].imag), S_BASE_VA)
    return abs(gap.real) / scale_p, abs(gap.imag) / scale_q
