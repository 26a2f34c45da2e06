import cmath
import math
import re
from collections import defaultdict

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
     r"^<string>:1: slack voltage and v_base must be positive and finite$"),
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


@pytest.mark.parametrize("row", ["line 1 2 0.1", "line 1 2 0.1 0.0 0.2"])
def test_line_row_takes_four_or_six_values(row):
    with pytest.raises(FeederFormatError, match=rf"^<string>:2: malformed row '{re.escape(row)}'$"):
        loads_topology(f"slack_voltage 220\n{row}\n")


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


def test_a_neutral_scale_after_the_line_rows_applies_to_them():
    topo = loads_topology("slack_voltage 220\nline 1 2 0.3 0.1\nneutral_scale 0.5\n")
    assert topo.lines[0].z_neutral == 0.5 * complex(0.3, 0.1)


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


# --- the array checks and schedule against the per-line references ----------

def ref_check(lines, slack_voltage=220.0, v_base=220.0):
    """The per-line check loop `NetworkTopology` ran on its segments: the first
    fault's (text, index into lines or None), or None for a radial tree."""
    if not (0 < slack_voltage < math.inf and 0 < v_base < math.inf):
        return "slack voltage and v_base must be positive and finite", None
    n = max((max(ln.from_bus, ln.to_bus) for ln in lines), default=1)
    seen, parent = set(), {}
    for k, ln in enumerate(lines):
        name = f"line {ln.from_bus}->{ln.to_bus}"
        if ln.from_bus == ln.to_bus:
            return f"{name} is a self loop", k
        if not (cmath.isfinite(ln.z_phase) and cmath.isfinite(ln.z_neutral)):
            return f"{name} has a non-finite impedance", k
        if ln.z_phase.real < 0 or ln.z_neutral.real < 0:
            return f"{name} has negative resistance", k
        if not (1 <= ln.from_bus <= n and 1 <= ln.to_bus <= n):
            return f"{name}: bus out of range 1..{n}", k
        if (ln.from_bus, ln.to_bus) in seen or (ln.to_bus, ln.from_bus) in seen:
            return f"duplicate {name}", k
        seen.add((ln.from_bus, ln.to_bus))
        if ln.to_bus == 1:
            return f"{name} gives the slack bus a parent", k
        if ln.to_bus in parent:
            return f"bus {ln.to_bus} has two parents ({parent[ln.to_bus]} and {ln.from_bus})", k
        parent[ln.to_bus] = ln.from_bus
    if len(lines) != n - 1:
        return f"{n} buses need {n - 1} lines, found {len(lines)}", None
    order = ref_sweep_order(lines, n)
    if len(order) != n:
        return f"buses {sorted(set(range(1, n + 1)) - set(order))} are not connected to bus 1", None
    return None


def ref_sweep_order(lines, n):
    """Buses reachable from the slack, root-first depth-first."""
    kids = {b: [] for b in range(1, n + 1)}
    for ln in lines:
        kids[ln.from_bus].append(ln.to_bus)
    order, stack = [], [1]
    while stack:
        b = stack.pop()
        order.append(b)
        stack.extend(reversed(kids[b]))
    return order


def ref_sweep_schedule(lines):
    """The sweep schedule built bus by bus, from a depth-first walk."""
    n = len(lines) + 1
    parent, rank, n_children = [0] * n, [0] * n, [0] * n
    for ln in reversed(lines):  # rank counts siblings from the last
        p, b = ln.from_bus - 1, ln.to_bus - 1
        parent[b], rank[b] = p, n_children[p]
        n_children[p] += 1
    depth = [0] * n
    groups = defaultdict(list)
    for b in ref_sweep_order(lines, n)[1:]:
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
    starts = [lo for (_, r), (lo, _) in spans.items() if r == 0] + [n]  # a level per depth
    forward = [(parent_rows[lo:hi], lo, hi) for lo, hi in zip(starts, starts[1:])]
    backward = [
        (parent_rows[lo:hi], lo, hi)
        for _, (lo, hi) in sorted(spans.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    ]
    return np.array(order, dtype=int), forward, backward


def random_lines(rng, n):
    """A random radial feeder's segments: shuffled bus labels and line order."""
    label = np.concatenate([[1], 2 + rng.permutation(n - 1)])
    parents = [int(rng.integers(0, b)) for b in range(1, n)]
    z = rng.uniform(0, 1, (n - 1, 4)).round(int(rng.integers(1, 6)))
    lines = [LineSegment(int(label[p]), int(label[b]), complex(*z[b - 1, :2]), complex(*z[b - 1, 2:]))
             for b, p in zip(range(1, n), parents)]
    return [lines[k] for k in rng.permutation(n - 1)]


def inject(rng, lines, kind):
    """`lines` with one fault of `kind` at a random line."""
    lines = list(lines)
    k = int(rng.integers(len(lines)))
    ln = lines[k]
    n = max(max(x.from_bus, x.to_bus) for x in lines)
    some_bus = int(rng.choice([x.to_bus for x in lines]))
    if kind == "self loop":
        lines[k] = LineSegment(ln.from_bus, ln.from_bus, ln.z_phase, ln.z_neutral)
    elif kind == "non-finite":
        zs, bad = [ln.z_phase, ln.z_neutral], float(rng.choice([math.nan, math.inf, -math.inf]))
        zs[rng.integers(2)] = complex(bad, 0.1) if rng.integers(2) else complex(0.1, bad)
        lines[k] = LineSegment(ln.from_bus, ln.to_bus, *zs)
    elif kind == "negative resistance":
        zs = [ln.z_phase, ln.z_neutral]
        zs[rng.integers(2)] = complex(-0.5, 0.1)
        lines[k] = LineSegment(ln.from_bus, ln.to_bus, *zs)
    elif kind == "out of range":
        low = int(rng.choice([0, -1, -7, -2**70]))
        ends = [ln.from_bus, ln.to_bus]
        ends[rng.integers(2)] = low
        lines[k] = LineSegment(*ends, ln.z_phase, ln.z_neutral)
    elif kind == "duplicate":
        ends = (ln.from_bus, ln.to_bus)[::int(rng.choice([1, -1]))]
        lines.insert(int(rng.integers(k + 1, len(lines) + 1)), LineSegment(*ends, 0.1, 0.1))
    elif kind == "slack parent":
        lines.insert(int(rng.integers(len(lines) + 1)), LineSegment(some_bus, 1, 0.1, 0.1))
    elif kind == "two parents":
        new = LineSegment(some_bus, ln.to_bus, 0.1, 0.1)
        lines.insert(int(rng.integers(len(lines) + 1)), new)
    elif kind == "line count":
        if len(lines) > 1 and rng.integers(2):
            del lines[k]
        else:  # a bus number past every other, or past 64 bits
            past = int(rng.choice([n + 3, 2**70]))
            lines[k] = LineSegment(ln.from_bus, past, ln.z_phase, ln.z_neutral)
    elif kind == "unreachable":  # hang a bus below one of its own descendants
        feeding = {x.to_bus: j for j, x in enumerate(lines)}
        below, b = [], ln.to_bus
        seen = {b}
        kids = defaultdict(list)
        for x in lines:
            kids[x.from_bus].append(x.to_bus)
        stack = list(kids[b])
        while stack:  # an earlier fault may have made a cycle
            if stack[-1] in seen:
                stack.pop()
                continue
            below.append(stack.pop())
            seen.add(below[-1])
            stack.extend(kids[below[-1]])
        if below:
            lines[k] = LineSegment(int(rng.choice(below)), b, ln.z_phase, ln.z_neutral)
        elif ln.from_bus in feeding:  # a leaf: a two-bus cycle with its parent instead
            lines[feeding[ln.from_bus]] = LineSegment(b, ln.from_bus, 0.1, 0.1)
    return lines


FAULTS = ("self loop", "non-finite", "negative resistance", "out of range", "duplicate",
          "slack parent", "two parents", "line count", "unreachable")


def outcome_of(build):
    try:
        build()
    except TopologyError as exc:
        return type(exc), str(exc), exc.line
    return None


def feeder_text(lines, header="slack_voltage 220\n", rng=None):
    """A feeder file of `lines`, with comment and blank rows here and there, and each line's row number."""
    out, linenos = [header], []
    for ln in lines:
        if rng is not None and rng.integers(4) == 0:
            out.append(rng.choice(["\n", "# a comment\n", "   \n"]))
        linenos.append(len(out) + header.count("\n"))
        out.append(f"line {ln.from_bus} {ln.to_bus} {ln.z_phase.real!r} {ln.z_phase.imag!r} "
                   f"{ln.z_neutral.real!r} {ln.z_neutral.imag!r}\n")
    return "".join(out), linenos


@pytest.mark.parametrize("seed", range(6))
def test_array_checks_and_schedule_match_the_per_line_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        n = int(rng.integers(2, 301))
        lines = random_lines(rng, n)
        assert ref_check(lines) is None
        topo = NetworkTopology(lines=tuple(lines))
        order, forward, backward = topo.sweep_schedule
        ref_order, ref_forward, ref_backward = ref_sweep_schedule(lines)
        assert order.tobytes() == ref_order.tobytes()
        for got, want in ((forward, ref_forward), (backward, ref_backward)):
            assert len(got) == len(want)
            for (rows, lo, hi), (ref_rows, ref_lo, ref_hi) in zip(got, want):
                assert (lo, hi) == (ref_lo, ref_hi) and rows.tobytes() == ref_rows.tobytes()
        assert list(topo.sweep_order) == (ref_order + 1).tolist()
        text, _ = feeder_text(lines, rng=rng)
        assert loads_topology(text) == topo
        # each kind of fault alone, then several at once
        for kinds in [[kind] for kind in FAULTS] + [
            list(rng.choice(FAULTS, size=int(rng.integers(2, 5)))) for _ in range(4)
        ]:
            faulty = lines
            for kind in kinds:
                faulty = inject(rng, faulty, kind)
            ref = ref_check(faulty)
            got = outcome_of(lambda: NetworkTopology(lines=tuple(faulty)))
            assert got == (None if ref is None else (TopologyError, *ref)), kinds
            if ref is None:
                continue
            text, linenos = feeder_text(faulty, rng=rng)
            where = "<string>" if ref[1] is None else f"<string>:{linenos[ref[1]]}"
            got = outcome_of(lambda: loads_topology(text))
            assert got[:2] == (TopologyError, f"{where}: {ref[0]}"), kinds


def test_a_header_fault_beats_every_line_fault():
    lines = inject(np.random.default_rng(5), random_lines(np.random.default_rng(4), 30), "self loop")
    for header in ({"slack_voltage_magnitude": -1.0}, {"v_base": math.inf}):
        got = outcome_of(lambda: NetworkTopology(lines=tuple(lines), **header))
        assert got == (TopologyError, "slack voltage and v_base must be positive and finite", None)


def test_first_malformed_row_is_named_before_later_faults():
    lines = random_lines(np.random.default_rng(2), 12)
    text, linenos = feeder_text(lines)
    rows = text.splitlines(keepends=True)
    rows[linenos[4] - 1] = "line 3 x 0.1 0.1\n"
    rows[linenos[7] - 1] = "line 3 4 0.1\n"
    message = rf"^<string>:{linenos[4]}: malformed row 'line 3 x 0.1 0.1'$"
    with pytest.raises(FeederFormatError, match=message):
        loads_topology("".join(rows))
    # a malformed line row before a bad header row is named first, and one after it is not
    rows.insert(linenos[5] - 1, "frobnicate 3\n")
    with pytest.raises(FeederFormatError, match=rf"^<string>:{linenos[4]}: malformed"):
        loads_topology("".join(rows))
    rows[linenos[4] - 1] = "line 3 4 0.1 0.1\n"
    message = rf"^<string>:{linenos[5]}: unknown keyword 'frobnicate'$"
    with pytest.raises(FeederFormatError, match=message):
        loads_topology("".join(rows))


@pytest.mark.parametrize("text, where", [
    ("slack_voltage -5\nline 1 2 0.1 0.1\nline 2 3 x 0.1\n", 3),
    ("slack_voltage 220\nline 2 2 0.1 0.1\nline 1 2 0.1 0.1\nline 2 3 x 0.1\n", 4),
], ids=["bad-slack-voltage", "self-loop"])
def test_a_malformed_row_beats_header_values_and_line_faults(text, where):
    with pytest.raises(FeederFormatError, match=rf"^<string>:{where}: malformed row 'line 2 3 x 0.1'$"):
        loads_topology(text)


def test_mixed_neutral_columns_keep_the_per_row_values():
    # 5- and 7-field rows in one file, and the signed zeros complex(float, float) keeps
    text = ("slack_voltage 220\nneutral_scale 0.37\nline 1 2 0.3 -0.1\n"
            "line 2 3 -0.0 0.2 0.5 -0.0\nline 2 4 0.3 0.25\n")
    topo = loads_topology(text)
    phase = [complex(0.3, -0.1), complex(-0.0, 0.2), complex(0.3, 0.25)]
    neutral = [0.37 * phase[0], complex(0.5, -0.0), 0.37 * phase[2]]
    assert topo.z_phase.tobytes() == np.array(phase).tobytes()
    assert topo.z_neutral.tobytes() == np.array(neutral).tobytes()
