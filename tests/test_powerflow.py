import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfeeder import powerflow
from evfeeder.network import LineSegment, NetworkTopology, load_topology
from evfeeder.powerflow import (
    DEFAULT_TOLERANCE_PU,
    VOLTAGE_FLOOR_PU,
    HorizonState,
    InfeasibleInjectionError,
    check_collapse,
    phase_to_neutral,
    residuals,
    slack_voltages,
    solve_batch,
    solve_direct,
    solve_stream,
    solve_sweep,
)
from evfeeder.scenario import default_feeder_path

from test_network import ref_sweep_order

TANPHI = np.tan(np.arccos(0.91))


def two_bus(z_ph=0.1 + 0.05j, z_n=None):
    z_n = z_ph if z_n is None else z_n
    return NetworkTopology(lines=(LineSegment(1, 2, z_ph, z_n),))


def injections(topology, entries):
    s = np.zeros((topology.n_buses, 3), dtype=complex)
    for (bus, phase), val in entries.items():
        s[bus - 1, "abc".index(phase)] = val
    return s


def base_current(topology):
    """Per-unit current base in amperes (1 kVA single phase at v_base)."""
    return powerflow.S_BASE_VA / topology.v_base


@pytest.fixture(scope="module")
def feeder19():
    return load_topology(default_feeder_path())


def household_frame_19(feeder19, watts):
    s = np.full((feeder19.n_buses, 3), watts * (1 + 1j * TANPHI), dtype=complex)
    return s


# --- no-load identity ------------------------------------------------------

def test_zero_injection_gives_slack_everywhere():
    topo = two_bus()
    state = solve_sweep(topo, np.zeros((2, 3)))
    assert state.converged
    assert state.iterations == 1
    expected = slack_voltages(topo)
    assert np.array_equal(state.v[0], expected)
    assert np.array_equal(state.v[1], expected)
    assert np.all(state.i_line == 0)
    assert np.all(state.i_load == 0)


def test_zero_injection_direct():
    topo = two_bus()
    state = solve_direct(topo, np.zeros((2, 3)))
    assert state.converged
    assert np.allclose(state.v[1], slack_voltages(topo), rtol=0, atol=1e-12)


# --- balanced symmetry -----------------------------------------------------

def test_balanced_load_has_no_neutral_current():
    topo = two_bus(z_ph=0.1 + 0j, z_n=0.1 + 0j)
    state = solve_sweep(topo, injections(topo, {(2, "a"): 1000, (2, "b"): 1000, (2, "c"): 1000}))
    assert state.converged
    i_base = base_current(topo)
    assert abs(state.i_line[0, 3]) < 1e-10 * i_base
    assert abs(state.v[1, 3]) < 1e-10 * topo.v_base
    mags = np.abs(powerflow.phase_to_neutral(state.v)[1])
    assert np.ptp(mags) < 1e-9


def test_balanced_symmetry_holds_for_any_neutral_impedance():
    for z_n in (0.0 + 0j, 0.05 + 0.01j, 0.4 + 0.2j):
        topo = two_bus(z_ph=0.2 + 0.08j, z_n=z_n)
        s = injections(topo, {(2, p): 1500 + 400j for p in "abc"})
        state = solve_sweep(topo, s)
        assert state.converged
        assert abs(state.i_line[0, 3]) < 1e-10 * base_current(topo)
        assert abs(state.v[1, 3]) < 1e-10 * topo.v_base


# --- cross-method agreement ------------------------------------------------

def test_single_phase_load_matches_scalar_fixed_point():
    # independent oracle: collapse the 2-bus single-phase case to one complex
    # unknown u = v_a - v_n with loop impedance z_phase + z_neutral
    z = 0.1 + 0.05j
    s = 2000 + 900j
    u = 220 + 0j
    for _ in range(500):
        u = 220 - 2 * z * np.conj(s / u)
    topo = two_bus(z_ph=z, z_n=z)
    state = solve_sweep(topo, injections(topo, {(2, "a"): s}))
    assert state.converged
    got = powerflow.phase_to_neutral(state.v)[1, 0]
    assert got == pytest.approx(u, abs=1e-8)
    # frozen from the oracle above
    assert got == pytest.approx(217.74967162612234 - 0.09090909090909j, abs=1e-6)
    assert state.v[1, 0] == pytest.approx(218.87483581306117 - 0.045454545454545j, abs=1e-6)
    assert state.v[1, 3] == pytest.approx(1.1251641869388385 + 0.045454545454545j, abs=1e-6)


def test_sweep_agrees_with_direct_single_phase():
    topo = two_bus()
    s = injections(topo, {(2, "a"): 2000 + 900j})
    sweep = solve_sweep(topo, s)
    direct = solve_direct(topo, s)
    assert np.max(np.abs(sweep.v - direct.v)) / topo.v_base < 1e-8


def random_radial(rng, n_buses=None, max_buses=6):
    """Random radial network with Table-I-like impedances, shuffled labels."""
    n = n_buses or int(rng.integers(2, max_buses + 1))
    labels = np.concatenate(([1], rng.permutation(np.arange(2, n + 1))))
    lines = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        z_ph = complex(rng.uniform(0.0005, 1.734), rng.uniform(0.0002, 0.1729))
        z_n = complex(rng.uniform(0.0, 1.734), rng.uniform(0.0, 0.1729))
        lines.append(LineSegment(int(labels[parent]), int(labels[child]), z_ph, z_n))
    return NetworkTopology(lines=tuple(lines))


def random_injections(rng, topology, p_max=5000.0):
    p = rng.uniform(0, p_max, size=(topology.n_buses, 3))
    q = p * np.tan(np.arccos(rng.uniform(0.85, 1.0, size=p.shape)))
    s = p + 1j * q
    s[0] = 0
    return s


def test_randomized_oracle_equivalence():
    # solved at the default tolerance: the KCL residual scales with the last
    # voltage step, and at 1e-10 pu it reaches 2.5e-9 base currents here
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        topo = random_radial(rng)
        s = random_injections(rng, topo)
        try:
            sweep = solve_sweep(topo, s, max_iterations=400)
        except InfeasibleInjectionError:
            continue
        if not sweep.converged:
            continue
        direct = solve_direct(topo, s, max_iterations=400)
        assert direct.converged
        assert np.max(np.abs(sweep.v - direct.v)) / topo.v_base < 1e-8
        # currents must agree too, not just the voltages
        i_scale = max(1.0, float(np.max(np.abs(sweep.i_line))))
        assert np.max(np.abs(sweep.i_line - direct.i_line)) / i_scale < 1e-8
        assert np.max(np.abs(sweep.i_load - direct.i_load)) / i_scale < 1e-8
        for state in (sweep, direct):
            kcl, p_err, q_err = residuals(state, topo, s)
            assert kcl < 1e-9 * base_current(topo)
            assert p_err < 1e-6 and q_err < 1e-6
        checked += 1


def test_direct_handles_zero_impedance_neutral():
    topo = two_bus(z_ph=0.2 + 0.1j, z_n=0.0 + 0j)
    s = injections(topo, {(2, "b"): 3000 + 500j})
    sweep = solve_sweep(topo, s)
    direct = solve_direct(topo, s)
    assert np.max(np.abs(sweep.v - direct.v)) / topo.v_base < 1e-8
    assert abs(sweep.v[1, 3]) == 0.0  # ideal neutral pins v_n to the slack's zero


# --- KCL and power balance -------------------------------------------------

def test_kcl_residual_on_converged_19_bus(feeder19):
    s = household_frame_19(feeder19, 600.0)
    s[9, 1] += 3500.0
    state = solve_sweep(feeder19, s)
    assert state.converged
    assert residuals(state, feeder19, s)[0] < 1e-9 * base_current(feeder19)


def test_kcl_residual_zero_for_zero_load(feeder19):
    s = np.zeros((19, 3))
    state = solve_sweep(feeder19, s)
    assert residuals(state, feeder19, s)[0] == 0.0


def test_kcl_residual_detects_perturbation(feeder19):
    s = household_frame_19(feeder19, 600.0)
    state = solve_sweep(feeder19, s)
    state.i_line[0, 0] += 1.0
    assert residuals(state, feeder19, s)[0] >= 1.0 - 1e-9


def test_power_balance(feeder19):
    s = household_frame_19(feeder19, 650.0)
    s[11, 0] += 3500.0
    state = solve_sweep(feeder19, s)
    _, p_err, q_err = residuals(state, feeder19, s)
    assert p_err < 1e-6 and q_err < 1e-6
    # the power actually delivered matches the specified injections
    load = np.sum(phase_to_neutral(state.v) * np.conj(state.i_load))
    assert abs(load - np.sum(s)) / abs(np.sum(s)) < 1e-9


def test_power_balance_includes_slack_served_load():
    topo = two_bus()
    s = injections(topo, {(1, "a"): 1000 + 200j, (2, "b"): 500})
    state = solve_sweep(topo, s)
    # the slack supplies load plus losses only if it counts the load at bus 1
    assert residuals(state, topo, s)[1] < 1e-9
    load = np.sum(phase_to_neutral(state.v) * np.conj(state.i_load))
    assert abs(load - (1500 + 200j)) < 1e-6


# --- behaviour at the edges ------------------------------------------------

SOLVERS = pytest.mark.parametrize("solve", [solve_sweep, solve_direct])


@SOLVERS
def test_infeasible_injection_raises(solve):
    topo = two_bus(z_ph=5.0 + 0.5j, z_n=5.0 + 0.5j)
    with pytest.raises(InfeasibleInjectionError, match="bus 2"):
        solve(topo, injections(topo, {(2, "a"): 10000}))


@SOLVERS
def test_non_convergence_returns_state(solve):
    topo = two_bus()
    s = injections(topo, {(2, "a"): 4000 + 1000j})
    state = solve(topo, s, tolerance=1e-13, max_iterations=2)
    assert not state.converged
    assert state.iterations == 2
    assert state.max_dv > 1e-13


@SOLVERS
@pytest.mark.parametrize("name, value", [
    ("tolerance", 0.0),
    ("tolerance", -1.0),
    ("tolerance", math.nan),
    ("tolerance", math.inf),
    ("max_iterations", 0),
    ("max_iterations", 2.5),  # no count would ever equal it
])
def test_bad_limits_raise(solve, name, value):
    topo = two_bus()
    with pytest.raises(ValueError, match=name):
        solve(topo, injections(topo, {(2, "a"): 1000}), **{name: value})


def test_monotone_voltage_drop_in_load(feeder19):
    # loading one bus harder strictly lowers its own phase-to-neutral voltage
    base = household_frame_19(feeder19, 400.0)
    previous = np.inf
    for extra in (0.0, 500.0, 1000.0, 2000.0, 3000.0):
        s = base.copy()
        s[9, 0] += extra
        state = solve_sweep(feeder19, s)
        mag = abs(powerflow.phase_to_neutral(state.v)[9, 0])
        assert mag < previous or extra == 0.0
        previous = mag


def test_two_formula_loss_agreement(feeder19):
    s = household_frame_19(feeder19, 550.0)
    s[6, 2] += 2500.0
    state = solve_sweep(feeder19, s)
    frm = np.array([ln.from_bus - 1 for ln in feeder19.lines])
    to = np.array([ln.to_bus - 1 for ln in feeder19.lines])
    z = np.array([[ln.z_phase] * 3 + [ln.z_neutral] for ln in feeder19.lines])
    via_i2r = np.sum(np.abs(state.i_line) ** 2 * z.real)
    via_drop = np.sum((state.v[frm] - state.v[to]) * np.conj(state.i_line)).real
    assert via_drop == pytest.approx(via_i2r, rel=1e-9)


def test_iterations_reported(feeder19):
    s = household_frame_19(feeder19, 600.0)
    state = solve_sweep(feeder19, s)
    assert 1 < state.iterations <= 100
    loose = solve_sweep(feeder19, s, tolerance=1e-3)
    assert loose.iterations < state.iterations


def test_wire_currents_balance_on_every_line(feeder19):
    # the three phase currents and the neutral current of a line sum to zero
    rng = np.random.default_rng(3)
    s = rng.uniform(0, 1200, size=(19, 3)) * (1 + 1j * TANPHI)
    state = solve_sweep(feeder19, s)
    assert state.converged
    residual = np.abs(state.i_line.sum(axis=1))
    assert np.max(residual) < 1e-10 * base_current(feeder19)


def test_slack_injections_served_without_network_flow():
    topo = two_bus()
    only_slack = injections(topo, {(1, "b"): 2500 + 500j})
    state = solve_sweep(topo, only_slack)
    assert state.converged
    # nothing flows on the line; bus 2 keeps the slack phasors
    assert np.all(state.i_line == 0)
    assert np.array_equal(state.v[1], slack_voltages(topo))
    assert state.i_load[0, 1] != 0


# --- the batch against the per-bus walk ----------------------------------

def test_injection_currents_keep_the_bytes_of_a_numpy_sum():
    # The neutral current is added by hand in the order of numpy's sum over a
    # short axis. Zero-load buses and signed-zero parts check its +0 start:
    # -0 + -0 + -0 is -0, while numpy's sum of them is +0.
    rng = np.random.default_rng(13)
    shape = (40, 6, 3)
    s = rng.uniform(-3000, 3000, shape) + 1j * rng.uniform(-3000, 3000, shape)
    u = rng.uniform(110, 240, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    parts = s.view(float).reshape(shape + (2,))
    signed_zero = rng.integers(0, 3, parts.shape)
    parts[signed_zero == 0] = 0.0
    parts[signed_zero == 1] = -0.0
    s[:5] = rng.choice([0.0, -0.0], size=(5, 6, 3, 2)).view(complex)[..., 0]
    for s_, u_ in ((s, u), (s[:, 0], u[:, 0])):  # a bus-major batch and one slot
        i_load = np.conj(s_ / u_)
        want = np.concatenate([i_load, -i_load.sum(axis=-1, keepdims=True)], axis=-1)
        got_i_load, got = powerflow._injection_currents(s_, u_)
        assert got_i_load.flags.c_contiguous and got_i_load.tobytes() == i_load.tobytes()
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
        plain = -(i_load[..., 0] + i_load[..., 1] + i_load[..., 2])
        assert plain.tobytes() != want[..., 3].copy().tobytes()  # the case is covered


def test_phase_to_neutral_keeps_the_bytes_of_the_broadcast():
    # Per-phase subtraction against v[..., :3] - v[..., 3:4], on bus-major
    # and slot-major arrays and on strided views, with signed zeros: equal
    # parts give +0 and -0 - +0 gives -0.
    rng = np.random.default_rng(17)
    v = rng.uniform(-240, 240, (19, 30, 4)) + 1j * rng.uniform(-240, 240, (19, 30, 4))
    parts = v.view(float)
    pick = rng.integers(0, 4, parts.shape)
    parts[pick == 0] = 0.0
    parts[pick == 1] = -0.0
    v[:, :5, :3] = v[:, :5, 3:]  # u == 0 exactly
    views = (v, np.ascontiguousarray(v.swapaxes(0, 1)), v.swapaxes(0, 1), v[:, ::3], v[3], v[::-2, 1:])
    for x in views:
        got, want = powerflow.phase_to_neutral(x), x[..., :3] - x[..., 3:4]
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    parts = (v[..., :3] - v[..., 3:4]).view(float)
    assert len(set(np.signbit(parts[parts == 0]))) == 2  # both zeros are covered


def fancy_step(topology):
    """The sweep step with index-array parents, z broadcast over the slots and
    a copied accumulator: the reference the step of solve_stream must equal."""
    order, forward, backward = topology.sweep_schedule
    _, to, z = topology.line_arrays
    line_of_bus = np.empty(topology.n_buses, dtype=int)
    line_of_bus[to] = np.arange(len(to))
    z_lines = z[line_of_bus[order[1:]], None]

    def step(drawn, v):
        acc = drawn.copy()
        for parent_rows, lo, hi in backward:
            acc[parent_rows] += acc[lo:hi]
        v_new = np.empty_like(v)
        v_new[0] = v[0]
        for parent_rows, lo, hi in forward:
            np.subtract(v_new[parent_rows], z_lines[lo - 1:hi - 1] * acc[lo:hi], out=v_new[lo:hi])
        return v_new, acc[1:]

    return step


def sliced_groups(topology):
    """How many backward groups of depth two or more have parents that
    _parent_slice makes a slice, and how many such groups there are."""
    _, _, backward = topology.sweep_schedule
    deep = [rows for rows, _, _ in backward if rows.min() > 0]  # below the slack's children
    return sum(isinstance(powerflow._parent_slice(rows), slice) for rows in deep), len(deep)


def tree(parents):
    """Feeder whose bus k + 2 hangs off bus parents[k]."""
    return NetworkTopology(lines=tuple(
        LineSegment(p, b, complex(0.01 * b, 0.004 * p), complex(0.02 * p, 0.001 * b))
        for b, p in enumerate(parents, start=2)))


def assert_step_matches_the_fancy_step(topo, rng):
    step, _ = powerflow._sweep_step(topo)
    want_step = fancy_step(topo)
    for width in (1, 6, 3, 11, 2):  # one step, its repeated z sliced to each width
        shape = (topo.n_buses, width, 4)
        drawn = rng.normal(size=shape) * 20 + 1j * rng.normal(size=shape) * 20
        drawn.view(float)[rng.integers(0, 5, drawn.view(float).shape) == 0] = -0.0
        v = rng.normal(size=shape) * 230 + 1j * rng.normal(size=shape) * 230
        want_v, want_i = want_step(drawn, v)
        got_v, got_i = step(drawn.copy(), v)
        assert got_v.tobytes() == want_v.tobytes()
        assert got_i.tobytes() == want_i.tobytes()


def test_sliced_sweep_step_keeps_the_bytes_of_the_fancy_index_step(feeder19):
    rng = np.random.default_rng(19)
    complete = tree([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7])  # binary, four levels
    skipping = tree([1, 1, 1, 2, 2, 4, 4])  # children under the first and third bus
    assert sliced_groups(complete) == (4, 4)
    assert sliced_groups(skipping) == (0, 2)
    assert sliced_groups(feeder19) == (12, 13)
    for topo in (complete, skipping, feeder19, deep_wide_radial(rng, 120)):
        assert_step_matches_the_fancy_step(topo, rng)
    for _ in range(20):
        assert_step_matches_the_fancy_step(random_radial(rng, max_buses=30), rng)


def walk_sweep(topology, s, max_iterations=100):
    """One slot by the sequential per-bus depth-first sweep, the reference the
    level-scheduled batch must equal bit for bit. None when it collapses."""
    _, _, z = topology.line_arrays
    lines = topology.lines
    # the depth-first walk, whose reversed sums the level groups keep
    ks = [topology.parent_line_index[b] for b in ref_sweep_order(lines, topology.n_buses)[1:]]
    walk = [(k, lines[k].from_bus - 1, lines[k].to_bus - 1) for k in ks]
    tol = DEFAULT_TOLERANCE_PU * topology.v_base
    v = np.tile(slack_voltages(topology), (topology.n_buses, 1))
    i_line = np.zeros((len(lines), 4), dtype=complex)
    for iterations in range(1, max_iterations + 1):
        u = v[:, :3] - v[:, 3:4]
        if np.min(np.abs(u)) < VOLTAGE_FLOOR_PU * topology.v_base:
            return None
        i_load = np.conj(s / u)
        acc = np.empty((topology.n_buses, 4), dtype=complex)
        acc[:, :3] = i_load
        acc[:, 3] = -i_load.sum(axis=1)
        for k, parent, child in reversed(walk):
            i_line[k] = acc[child]
            acc[parent] += acc[child]
        v_new = np.empty_like(v)
        v_new[0] = v[0]
        for k, parent, child in walk:
            v_new[child] = v_new[parent] - z[k] * i_line[k]
        dv = float(np.max(np.abs(v_new - v)))
        v = v_new
        if dv < tol:
            break
    return HorizonState(v, i_line, i_load, iterations, dv, dv < tol, False, 0, 0.0)


def assert_same_state(got, want):
    """Bit-for-bit equal arrays, iteration counts and last voltage changes."""
    for name in ("v", "i_line", "i_load"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.converged, got.iterations, got.max_dv) == (
        want.converged, want.iterations, want.max_dv
    )


def test_batch_matches_the_per_bus_walk():
    rng = np.random.default_rng(11)
    for _ in range(20):
        topo = random_radial(rng, max_buses=12)
        s = np.stack([random_injections(rng, topo, p_max=1500.0) for _ in range(5)])
        batch = solve_batch(topo, s)
        for t, state in enumerate(batch):
            want = walk_sweep(topo, s[t])
            assert batch.collapsed[t] == (want is None)
            if want is not None:
                assert_same_state(state, want)


def tag_slots(s):
    """Number the slots of a batch by a phase-a load at the slack, 1, 2, ...,
    which the slack serves without touching the network."""
    s[:, 0, 0] = np.arange(1, len(s) + 1)
    return s


def spy_active_sets(monkeypatch):
    """The tags, less one, of the slots in the active set at each iteration."""
    sets = []
    draw = powerflow._injection_currents

    def spying(s, u):
        sets.append(s[0, :, 0].real.astype(int) - 1)  # the slack's row is row 0
        return draw(s, u)

    monkeypatch.setattr(powerflow, "_injection_currents", spying)
    return sets


def outcomes(state):
    return np.where(state.collapsed, "collapsed", np.where(state.converged, "converged", "out"))


def assert_chunks_match_the_walk(topo, scales, base, monkeypatch):
    """Solve `scales` times `base` through a four-slot active set, refilled as
    slots leave, where every slot but the last two shares the set with slots
    that converge, collapse and run out of iterations, so slots leave it at
    different iterations and their columns are refilled and dropped again
    and again; every slot must equal the per-bus walk."""
    monkeypatch.setattr(powerflow, "CHUNK_BUS_SLOTS", 4 * topo.n_buses)
    s = tag_slots(np.stack([k * base for k in scales]))
    limits = {"max_iterations": 12}
    active = spy_active_sets(monkeypatch)
    batch = solve_batch(topo, s, **limits)
    sets = active.copy()
    outcome = outcomes(batch)
    assert max(map(len, sets)) == 4
    mixed = {int(t) for slots in sets if len(set(outcome[slots])) == 3 for t in slots}
    assert mixed >= set(range(len(s) - 2))
    for t, state in enumerate(batch):
        want = walk_sweep(topo, s[t], **limits)
        assert batch.collapsed[t] == (want is None)
        if want is not None:
            assert_same_state(state, want)
            continue
        alone = solve_batch(topo, s[t:t + 1], **limits)
        assert alone.collapsed[0]
        assert_same_state(state, alone[0])
        with pytest.raises(InfeasibleInjectionError) as caught:
            check_collapse(batch, t, topo)
        with pytest.raises(InfeasibleInjectionError) as single:
            solve_sweep(topo, s[t], **limits)
        assert str(caught.value) == str(single.value)


def test_active_set_across_chunks_matches_the_per_bus_walk(monkeypatch):
    rng = np.random.default_rng(3)
    topo = random_radial(rng, n_buses=8)
    base = random_injections(rng, topo, p_max=1.0)
    scales = [10, 2000, 1000, 0, 3000, 300, 1000, 100, 1000, 5000, 10, 2000, 300, 1000]
    assert_chunks_match_the_walk(topo, scales, base, monkeypatch)


def deep_wide_radial(rng, n_buses):
    """Random radial feeder with a 12-line spine off the slack and a spine bus
    of at least six children; labels and line order shuffled, impedances 1/50
    of random_radial's."""
    parents = [0] + list(range(1, 12)) + [6] * 5
    parents += [int(rng.integers(0, c)) for c in range(len(parents) + 1, n_buses)]
    labels = np.concatenate(([1], rng.permutation(np.arange(2, n_buses + 1))))
    lines = []
    for child, parent in enumerate(parents, start=1):
        z_ph = complex(rng.uniform(0.0005, 1.734), rng.uniform(0.0002, 0.1729)) / 50
        z_n = complex(rng.uniform(0.0, 1.734), rng.uniform(0.0, 0.1729)) / 50
        lines.append(LineSegment(int(labels[parent]), int(labels[child]), z_ph, z_n))
    rng.shuffle(lines)
    return NetworkTopology(lines=tuple(lines))


def test_level_order_on_a_deep_wide_feeder_matches_the_per_bus_walk(monkeypatch):
    # Row order renumbers every bus of a 220-bus feeder at least 12 levels
    # deep with a parent of six or more children; shuffled lines vary the
    # sibling ranks.
    rng = np.random.default_rng(5)
    topo = deep_wide_radial(rng, 220)
    depth = {1: 0}
    for b in topo.sweep_order[1:]:
        depth[b] = depth[topo.lines[topo.parent_line_index[b]].from_bus] + 1
    n_children = np.bincount(topo.line_arrays[0])
    assert topo.n_buses >= 200 and max(depth.values()) >= 10 and n_children.max() >= 4
    base = random_injections(rng, topo, p_max=1.0)
    scales = [10, 1000, 300, 0, 2000, 500, 100, 1500, 700, 200, 3000, 300, 50, 1000]
    assert_chunks_match_the_walk(topo, scales, base, monkeypatch)


def test_stream_refills_one_active_set_across_batches(monkeypatch):
    # Batches of 0, 3, 9 and 5 slots through a four-slot active set. Slots
    # converge, collapse and run out of iterations on both sides of each
    # boundary, and the last batch is done before the slow last slot of the
    # batch before it.
    rng = np.random.default_rng(3)
    topo = random_radial(rng, n_buses=8)
    base = random_injections(rng, topo, p_max=1.0)
    scales = [1000, 10, 3000, 0, 5000, 10, 3000, 0, 2500, 10, 5000, 1500, 0, 10, 3000, 100, 5000]
    sizes = [0, 3, 9, 5]
    rows = tag_slots(np.stack([k * base for k in scales]))
    batches = np.split(rows, np.cumsum(sizes)[:-1])
    batch_of = np.repeat(np.arange(len(sizes)), sizes)
    monkeypatch.setattr(powerflow, "CHUNK_BUS_SLOTS", 4 * topo.n_buses)
    active = spy_active_sets(monkeypatch)
    events = []  # (what, batch, iterations run by then)

    def feed():
        for k, batch in enumerate(batches):
            events.append(("pull", k, len(active)))
            yield batch

    limits = {"max_iterations": 12}
    states = []
    for k, state in enumerate(solve_stream(topo, feed(), **limits)):
        events.append(("yield", k, len(active)))
        states.append(state)
    sets = active.copy()

    assert [len(state) for state in states] == sizes
    for batch, state in zip(batches, states):
        alone = solve_batch(topo, batch, **limits)
        for name in ("v", "i_line", "i_load", "iterations", "max_dv", "converged", "collapsed"):
            assert getattr(state, name).tobytes() == getattr(alone, name).tobytes(), name
    outcome = np.concatenate([outcomes(state) for state in states])
    for k in (1, 2):
        assert set(outcome[batch_of == k]) == {"collapsed", "converged", "out"}
    assert set(outcome[batch_of == 3]) == {"collapsed", "converged"}

    # one set of at most four slots, of at most two consecutive batches
    spans = [set(batch_of[slots].tolist()) for slots in sets]
    assert max(map(len, sets)) == 4
    assert {(1, 2), (2, 3)} <= {(min(b), max(b)) for b in spans if len(b) == 2}
    assert all(max(b) - min(b) <= 1 for b in spans)
    first_seen = {t: min(i for i, slots in enumerate(sets) if t in slots) for t in range(len(rows))}
    last_seen = {t: max(i for i, slots in enumerate(sets) if t in slots) for t in range(len(rows))}
    when = {(what, k): i for i, (what, k, _) in enumerate(events)}
    pulled_at = {k: at for what, k, at in events if what == "pull"}
    for k in range(1, len(sizes)):
        # every slot of batch k - 1 entered by the iteration after batch k was pulled
        assert all(first_seen[t] <= pulled_at[k] for t in np.flatnonzero(batch_of == k - 1))
    for k in range(len(sizes) - 2):
        assert when["yield", k] < when["pull", k + 2]
    # no wider than the widest batch fed so far
    assert max(map(len, sets[:pulled_at[2]])) == 3
    # batch 3 is done first, but batch 2 is yielded before it
    assert max(last_seen[t] for t in np.flatnonzero(batch_of == 3)) < max(
        last_seen[t] for t in np.flatnonzero(batch_of == 2))
    assert [k for what, k, _ in events if what == "yield"] == [0, 1, 2, 3]


def test_stream_solves_ahead_within_the_bus_slot_budget(monkeypatch):
    # Batches of one to three slots under a budget of six slots: a slow slot
    # of one batch lets the batches after it be pulled while their slots fit.
    rng = np.random.default_rng(3)
    topo = random_radial(rng, n_buses=8)
    base = random_injections(rng, topo, p_max=1.0)
    scales = [[10, 1000, 0], [10], [0, 5000], [100], [1500, 10], [3000], [0], [300, 2000, 10]]
    sizes = [len(k) for k in scales]
    rows = tag_slots(np.stack([k * base for k in sum(scales, [])]))
    batches = np.split(rows, np.cumsum(sizes)[:-1])
    batch_of = np.repeat(np.arange(len(sizes)), sizes)
    budget = 6 * topo.n_buses
    monkeypatch.setattr(powerflow, "CHUNK_BUS_SLOTS", budget)
    active = spy_active_sets(monkeypatch)
    in_flight, held = [], []  # the batches pulled and not yet yielded; their bus-slots

    def feed():
        for k, batch in enumerate(batches):
            if len(in_flight) > 1:
                held.append((len(in_flight), sum(sizes[j] for j in in_flight) * topo.n_buses))
            in_flight.append(k)
            yield batch

    limits = {"max_iterations": 12}
    states = []
    for k, state in enumerate(solve_stream(topo, feed(), **limits)):
        assert in_flight[0] == k  # yielded in feed order
        in_flight.pop(0)
        states.append(state)
    sets = active.copy()

    assert [len(state) for state in states] == sizes
    for batch, state in zip(batches, states):
        alone = solve_batch(topo, batch, **limits)
        for name in ("v", "i_line", "i_load", "iterations", "max_dv", "converged", "collapsed"):
            assert getattr(state, name).tobytes() == getattr(alone, name).tobytes(), name
    # a third or later batch is pulled only while those in flight fit the
    # budget, which they may fill exactly
    assert max(held, default=None) == (3, budget) and all(slots <= budget for _, slots in held)
    # so the slots of one set span batches whose rows before the last fit too
    spans = [(min(b), max(b)) for b in (batch_of[slots] for slots in sets) if len(b)]
    assert max(hi - lo for lo, hi in spans) == 3
    for lo, hi in spans:
        assert hi - lo < 2 or sum(sizes[lo:hi]) * topo.n_buses <= budget


def test_batch_state_views_its_arrays(feeder19):
    s = np.stack([household_frame_19(feeder19, w) for w in (0.0, 300.0, 700.0)])
    batch = solve_batch(feeder19, s)
    states = list(batch)
    assert len(batch) == len(states) == 3
    for t, state in enumerate(states):
        assert isinstance(state, HorizonState)
        assert type(state.iterations) is int and type(state.converged) is bool
        assert type(state.max_dv) is float
        assert np.shares_memory(state.v, batch.v)
        assert state.v.tobytes() == batch[t].v.tobytes()
        assert state.iterations == batch.iterations[t]
    assert states[0].iterations == 1 < states[1].iterations < states[2].iterations


def test_batch_rejects_bad_shapes(feeder19):
    with pytest.raises(ValueError, match=r"shape \(slots, 19, 3\)"):
        solve_batch(feeder19, np.zeros((19, 3)))
    with pytest.raises(ValueError, match=r"shape \(19, 3\)"):
        solve_sweep(feeder19, np.zeros((2, 19, 3)))


# --- properties on random radial feeders ----------------------------------

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_buses=st.integers(2, 10),
    n_slots=st.integers(1, 6),
    load=st.floats(0.05, 1.0),
)
def test_batched_slots_match_oracle_and_physics(seed, n_buses, n_slots, load):
    rng = np.random.default_rng(seed)
    topo = random_radial(rng, n_buses)
    s = np.stack([random_injections(rng, topo, p_max=5000.0 * load) for _ in range(n_slots)])
    batch = solve_batch(topo, s, max_iterations=400)
    assert np.all(np.isfinite(batch.v))
    kcl, p_err, q_err = residuals(batch, topo, s)
    for t, state in enumerate(batch):
        if batch.collapsed[t]:
            with pytest.raises(InfeasibleInjectionError):
                solve_sweep(topo, s[t], max_iterations=400)
            continue
        assert_same_state(state, solve_sweep(topo, s[t], max_iterations=400))
        if not state.converged:
            continue
        direct = solve_direct(topo, s[t], max_iterations=400)
        assert direct.converged
        assert np.max(np.abs(state.v - direct.v)) / topo.v_base < 1e-8
        # each slot's residuals, bit for bit, in the batch and alone
        alone = residuals(state, topo, s[t])
        assert [r.tobytes() for r in alone] == [r[t].tobytes() for r in (kcl, p_err, q_err)]
        assert kcl[t] < 1e-9 * base_current(topo)
        assert p_err[t] < 1e-6 and q_err[t] < 1e-6


def loop_resistance(topology):
    """Phase plus neutral series resistance from the slack to each bus."""
    frm, _, z = topology.line_arrays
    r = np.zeros(topology.n_buses)
    for b in topology.sweep_order[1:]:
        k = topology.parent_line_index[b]
        r[b - 1] = r[frm[k]] + z[k, 0].real + z[k, 3].real
    return r


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n_buses=st.integers(2, 10),
    n_slots=st.integers(1, 6),
    overload=st.floats(1.01, 100.0),
    pf=st.floats(0.85, 1.0),
)
def test_infeasible_slots_collapse(seed, n_buses, n_slots, overload, pf):
    # A lone phase load behind a loop of resistance R receives at most
    # V^2 / (2 R) from the slack at a lagging power factor, whatever the
    # reactances; past that bound no solution exists.
    rng = np.random.default_rng(seed)
    topo = random_radial(rng, n_buses)
    s = np.zeros((n_slots, topo.n_buses, 3), dtype=complex)
    slot = int(rng.integers(n_slots))
    bus = int(rng.integers(1, topo.n_buses))
    bound = topo.slack_voltage_magnitude ** 2 / (2 * loop_resistance(topo)[bus])
    s[slot, bus, int(rng.integers(3))] = overload * bound * (1 + 1j * math.tan(math.acos(pf)))
    batch = solve_batch(topo, s)
    assert np.all(np.isfinite(batch.v))
    assert batch.collapsed.tolist() == [t == slot for t in range(n_slots)]
    with pytest.raises(InfeasibleInjectionError, match="fell to") as caught:
        check_collapse(batch, slot, topo)
    with pytest.raises(InfeasibleInjectionError) as alone:
        solve_sweep(topo, s[slot])
    assert str(caught.value) == str(alone.value)
    assert batch.converged.tolist() == [t != slot for t in range(n_slots)]
