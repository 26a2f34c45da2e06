import numpy as np
import pytest

from evfeeder.network import (
    FeederFormatError,
    LineSegment,
    NetworkTopology,
    TopologyError,
    _parse_feeder_text,
    format_topology,
    load_topology,
)
from evfeeder.scenario import default_feeder_path


def loads_topology(text: str) -> NetworkTopology:
    """Parse a feeder description from a string."""
    return _parse_feeder_text(text, "<string>")


@pytest.fixture(scope="module")
def feeder19():
    return load_topology(default_feeder_path())


def test_shipped_feeder_shape(feeder19):
    assert feeder19.n_buses == 19
    assert len(feeder19.lines) == 18
    assert feeder19.slack_voltage_magnitude == 220.0
    assert feeder19.v_base == 220.0
    assert feeder19.transformer_reactance == 0.0654


def test_shipped_feeder_first_line_impedance(feeder19):
    ln = feeder19.lines[0]
    assert (ln.from_bus, ln.to_bus) == (1, 2)
    assert ln.z_phase == pytest.approx(0.0415 + 0.0145j)


def test_shipped_feeder_largest_branch(feeder19):
    by_pair = {(ln.from_bus, ln.to_bus): ln for ln in feeder19.lines}
    branch = by_pair[(7, 10)]
    assert branch.z_phase == pytest.approx(1.7340 + 0.1729j)
    assert abs(branch.z_phase) == max(abs(ln.z_phase) for ln in feeder19.lines)


def test_shipped_feeder_resistance_sum(feeder19):
    # guards against transcription drift in the shipped table
    assert sum(ln.z_phase.real for ln in feeder19.lines) == pytest.approx(5.8941)
    assert sum(ln.z_phase.imag for ln in feeder19.lines) == pytest.approx(0.7381)


def test_children(feeder19):
    parent = {b: feeder19.lines[k].from_bus for b, k in feeder19.parent_line_index.items()}

    def fed_from(bus):
        return sorted(b for b, p in parent.items() if p == bus)

    assert fed_from(7) == [8, 9, 10]
    assert fed_from(1) == [2, 16, 19]
    assert fed_from(10) == []


def test_line_arrays_follow_lines_and_are_read_only(feeder19):
    frm, to, z = feeder19.line_arrays
    assert feeder19.line_arrays is feeder19.line_arrays
    for k, ln in enumerate(feeder19.lines):
        assert (frm[k] + 1, to[k] + 1) == (ln.from_bus, ln.to_bus)
        assert list(z[k]) == [ln.z_phase] * 3 + [ln.z_neutral]
    for arr in (frm, to, z):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_sweep_schedule_is_cached_read_only_and_lazy():
    topo = load_topology(default_feeder_path())
    assert "sweep_schedule" not in vars(topo)  # built on first use, not at load
    order, forward, backward = topo.sweep_schedule
    assert topo.sweep_schedule is topo.sweep_schedule
    assert (len(forward), len(backward)) == (7, 16)
    frm, to, _ = topo.line_arrays
    # rows renumber the buses, slack first; each row's parent row is its parent's
    assert order[0] == 0 and sorted(order) == list(range(19))
    row = np.argsort(order)
    parent_row = {row[t]: row[f] for f, t in zip(frm, to)}
    depth = {0: 0}
    for r in range(1, 19):
        depth[r] = depth[parent_row[r]] + 1
    for name, schedule in (("forward", forward), ("backward", backward)):
        # every non-slack bus in exactly one slice per pass
        covered = np.concatenate([np.arange(lo, hi) for _, lo, hi in schedule])
        assert sorted(covered) == list(range(1, 19)), name
        for parent_rows, lo, hi in schedule:
            assert list(parent_rows) == [parent_row[r] for r in range(lo, hi)], name
            assert max(parent_rows) < lo, name  # parents sit above their slice
    # forward levels are whole depths, root side first
    assert [{depth[r] for r in range(lo, hi)} for _, lo, hi in forward] == [
        {d} for d in range(1, 8)
    ]
    # no parent twice in one backward group; groups run deepest first
    for parent_rows, _, _ in backward:
        assert len(set(parent_rows.tolist())) == len(parent_rows)
    group_depths = [{depth[r] for r in range(lo, hi)} for _, lo, hi in backward]
    assert all(len(d) == 1 for d in group_depths)
    depths = [d.pop() for d in group_depths]
    assert depths == sorted(depths, reverse=True) and depths[0] == 7
    # and each parent adds its children last first, as a reversed walk does
    added = {}
    for parent_rows, lo, hi in backward:
        for p, r in zip(parent_rows, range(lo, hi)):
            added.setdefault(p, []).append(r)
    for p, rows in added.items():
        assert rows == [row[t] for f, t in zip(frm, to) if row[f] == p][::-1]
    for arr in [order] + [g[0] for g in forward + backward]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_every_bus_has_single_path_to_slack(feeder19):
    parent = {ln.to_bus: ln.from_bus for ln in feeder19.lines}
    for bus in feeder19.buses:
        hops, b = 0, bus
        while b != 1:
            b = parent[b]
            hops += 1
            assert hops <= feeder19.n_buses
        assert hops >= 0


def test_round_trip(feeder19):
    again = loads_topology(format_topology(feeder19))
    assert again == feeder19


def test_cycle_rejected():
    text = "slack_voltage 220\nline 1 2 0.1 0.0\nline 2 1 0.1 0.0\n"
    with pytest.raises(TopologyError):
        loads_topology(text)


def test_two_parents_rejected():
    text = (
        "slack_voltage 220\n"
        "line 1 2 0.1 0.0\nline 1 3 0.1 0.0\nline 2 3 0.1 0.0\n"
    )
    with pytest.raises(TopologyError, match=r"^<string>:4: bus 3 has two parents \(1 and 2\)$"):
        loads_topology(text)


def test_disconnected_bus_rejected():
    text = "slack_voltage 220\nline 1 2 0.1 0.0\nline 3 4 0.1 0.0\n"
    with pytest.raises(TopologyError):
        loads_topology(text)


def test_duplicate_line_rejected():
    text = "slack_voltage 220\nline 1 2 0.1 0.0\nline 1 2 0.2 0.0\n"
    with pytest.raises(TopologyError, match=r"^<string>:3: (duplicate|two parents)"):
        loads_topology(text)


@pytest.mark.parametrize("text, message", [
    # a line's own faults are checked with its place in the tree, in file order
    ("slack_voltage 220\nline 1 2 0.1 0.0\nline 1 2 0.1 0.0\nline 3 3 0.1 0.0\n",
     r"^<string>:3: duplicate line 1->2$"),
    # a header fault beats every line's
    ("slack_voltage -5\nline 1 2 0.1 0.0\nline 2 2 0.1 0.0\n",
     r"^<string>: slack voltage and v_base must be positive and finite$"),
], ids=["duplicate-before-self-loop", "header-before-self-loop"])
def test_first_fault_is_reported(text, message):
    with pytest.raises(TopologyError, match=message):
        loads_topology(text)


def test_malformed_row_reports_line_number():
    text = "slack_voltage 220\nline 1 2 banana 0.0\n"
    with pytest.raises(FeederFormatError, match=":2:"):
        loads_topology(text)
    # a header row takes exactly one value
    for header in ("slack_voltage 220 230", "v_base 220 junk"):
        text = f"slack_voltage 220\n{header}\nline 1 2 0.1 0.0\n"
        with pytest.raises(FeederFormatError, match=rf"^<string>:2: malformed row '{header}'$"):
            loads_topology(text)


def test_unknown_keyword_rejected():
    with pytest.raises(FeederFormatError, match="unknown keyword"):
        loads_topology("slack_voltage 220\nfrobnicate 3\n")


def test_missing_slack_voltage_rejected():
    with pytest.raises(FeederFormatError, match="slack_voltage"):
        loads_topology("line 1 2 0.1 0.0\n")


def test_neutral_defaults_to_phase_impedance():
    topo = loads_topology("slack_voltage 220\nline 1 2 0.3 0.1\n")
    assert topo.lines[0].z_neutral == 0.3 + 0.1j


def test_neutral_scale_header():
    topo = loads_topology("slack_voltage 220\nneutral_scale 0.5\nline 1 2 0.3 0.1\n")
    assert topo.lines[0].z_neutral == pytest.approx(0.15 + 0.05j)


def test_per_line_neutral_overrides_scale():
    topo = loads_topology(
        "slack_voltage 220\nneutral_scale 0.5\nline 1 2 0.3 0.1 0.7 0.2\n"
    )
    assert topo.lines[0].z_neutral == 0.7 + 0.2j


def test_negative_resistance_rejected():
    with pytest.raises(TopologyError, match="negative resistance"):
        loads_topology("slack_voltage 220\nline 1 2 -0.1 0.0\n")


def test_non_finite_impedance_rejected_with_line_number():
    with pytest.raises(TopologyError, match=r"^<string>:3: line 2->3 has a non-finite impedance$"):
        loads_topology("slack_voltage 220\nline 1 2 0.1 0.0\nline 2 3 nan 0.1\n")


@pytest.mark.parametrize("header", [
    "slack_voltage nan", "v_base inf", "neutral_scale nan", "transformer_reactance -inf",
])
def test_non_finite_header_rejected_with_line_number(header):
    text = f"slack_voltage 220\n{header}\nline 1 2 0.1 0.0\n"
    with pytest.raises(FeederFormatError, match=r"^<string>:2: non-finite value '-?(nan|inf)'$"):
        loads_topology(text)


def test_bus_numbering_need_not_follow_tree_depth():
    # parent index above child index is fine; relations are explicit
    topo = loads_topology(
        "slack_voltage 220\nline 1 3 0.1 0.0\nline 3 2 0.1 0.0\n"
    )
    assert topo.sweep_order == (1, 3, 2)
    assert topo.lines[topo.parent_line_index[2]].from_bus == 3


def test_segments_validate_directly():
    with pytest.raises(TopologyError, match="self loop"):
        NetworkTopology(lines=(LineSegment(2, 2, 0.1 + 0j, 0.1 + 0j),))
    with pytest.raises(TopologyError):
        NetworkTopology(lines=(LineSegment(1, 2, 0.1, 0.1),), slack_voltage_magnitude=-1)
    with pytest.raises(TopologyError, match="non-finite impedance"):
        NetworkTopology(lines=(LineSegment(1, 2, 0.1 + 0j, complex("inf")),))
    with pytest.raises(TopologyError, match="finite"):
        NetworkTopology(lines=(LineSegment(1, 2, 0.1, 0.1),), v_base=float("nan"))
