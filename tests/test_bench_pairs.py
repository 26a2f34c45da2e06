"""scripts/bench_pairs.py on synthetic run records: medians, pairs won, bounds, claims."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "slot_solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def record(peak_rss_mb, slot_solves_per_s=100.0):
    """One workload's run record, as perfbench/run.py writes it."""
    return {"w": {
        "end_to_end": {"peak_rss_mb": {"value": peak_rss_mb},
                       "slot_solves_per_s": {"value": slot_solves_per_s}},
        "raw_wall": {"slot_solves_per_s": slot_solves_per_s},
        "failed": 0,
        "attempted": 5,
        "correct": True,
        "checks": {"oracle": {"max_gap_pu": 1e-15}, "fixed_point": {"digest": "f"}},
        "calls": [{"index": k, "digest": f"d{k}"} for k in range(4)],
    }}


def summary(parent, change, parent_rate=None, change_rate=None):
    """summarise() over pairs of peak_rss_mb (and slot_solves_per_s) values."""
    rates = [parent_rate or [100.0] * len(parent), change_rate or [100.0] * len(change)]
    runs = {side: [record(v, r) for v, r in zip(values, rate)]
            for side, values, rate in zip(bench_pairs.SIDES, (parent, change), rates)}
    return bench_pairs.summarise(runs, SPEC, ["w"])


PARENT = [89.4, 89.8, 89.6, 89.5, 89.7, 89.6, 89.9, 89.3, 89.6, 89.5]


def test_a_lower_claim_is_met():
    change = [v - 14.6 for v in PARENT]
    end_to_end, raw_wall, checks = summary(PARENT, change)
    m = end_to_end["w.peak_rss_mb"]
    assert m["parent"]["median"] == pytest.approx(89.6)
    assert m["change"]["median"] == pytest.approx(75.0)
    assert m["pairs_won"] == 10 and m["within_bound"]
    claim = bench_pairs.claim_of(end_to_end, "w.peak_rss_mb", 0.9, 10)
    assert claim["required_ratio_at_most"] == 0.9
    assert claim["change_over_parent"] == pytest.approx(75.0 / 89.6)
    assert claim["met"]
    assert raw_wall["w.slot_solves_per_s"] == {"parent": 100.0, "change": 100.0}
    for side in bench_pairs.SIDES:
        assert checks["w"][side]["runs"] == 10
        assert checks["w"][side]["failed_calls"] == 0
        assert checks["w"][side]["calls_0_2_digests"] == ['["d0", "d1", "d2"]']


def test_a_lower_claim_needs_nine_pairs_in_ten():
    # the median falls past the ratio, but two pairs are lost
    change = [v - 14.6 for v in PARENT[:8]] + [95.0, 95.0]
    end_to_end, _, _ = summary(PARENT, change)
    claim = bench_pairs.claim_of(end_to_end, "w.peak_rss_mb", 0.9, 10)
    assert claim["change_over_parent"] <= 0.9
    assert claim["median_gap"] > claim["parent_quartile_distance"]
    assert claim["pairs_won"] == 8
    assert not claim["met"]


def test_a_lower_claim_needs_a_gap_beyond_the_parents_quartiles():
    # every pair is won, but the parent's runs spread wider than the gain
    parent = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]
    change = [v - 9.0 for v in parent]
    end_to_end, _, _ = summary(parent, change)
    claim = bench_pairs.claim_of(end_to_end, "w.peak_rss_mb", 0.95, 10)
    assert claim["pairs_won"] == 10
    assert claim["change_over_parent"] <= 0.95
    assert claim["median_gap"] == pytest.approx(9.0)
    assert claim["parent_quartile_distance"] == pytest.approx(45.0)
    assert not claim["met"]


@pytest.mark.parametrize("rate, within", [(80.0, True), (75.0, True), (70.0, False), (130.0, True)])
def test_within_bound_of_a_higher_metric(rate, within):
    # slot_solves_per_s may fall by its bound, a quarter, and no further
    end_to_end, _, _ = summary(PARENT, PARENT, [100.0] * 10, [rate] * 10)
    m = end_to_end["w.slot_solves_per_s"]
    assert m["better"] == "higher"
    assert m["change_over_parent_median"] == pytest.approx(rate / 100.0)
    assert m["pairs_won"] == (10 if rate > 100.0 else 0)
    assert m["within_bound"] is within
    claim = bench_pairs.claim_of(end_to_end, "w.slot_solves_per_s", 1.1, 10)
    assert "required_ratio_at_least" in claim
    assert claim["met"] is (rate >= 110.0)
