import numpy as np
import pytest

from evfeeder.slots import slot_of, slot_of_hours, time_of


def window_slots(start, length):
    """Slot indices covered by a window of `length` slots starting at `start`."""
    return [(start + k) % 96 for k in range(length)]


def test_slot_of_parses_times():
    assert slot_of("00:00") == 0
    assert slot_of("17:00") == 68
    assert slot_of("05:30") == 22
    assert slot_of("23:45") == 95
    assert slot_of("24:00") == 0  # wraps


def test_slot_of_rejects_bad_input():
    for bad in ("25:00", "12:07", "noon", "12", "-1:00", "24:15", "24:30", "24:45"):
        with pytest.raises(ValueError):
            slot_of(bad)


def test_time_of_inverts_slot_of():
    for s in range(96):
        assert slot_of(time_of(s)) == s


def test_slot_of_hours_rounds_and_wraps():
    assert slot_of_hours(19.0) == 76
    assert slot_of_hours(24.9) == 4   # 00:54 -> nearest 01:00
    assert slot_of_hours(25.0) == 4
    assert slot_of_hours(7.13) == 29  # 07:08 -> nearest 07:15
    assert slot_of_hours(np.array([19.0, 24.9, 25.0, 7.13])).tolist() == [76, 4, 4, 29]


def test_window_slots_wraps():
    assert window_slots(94, 4) == [94, 95, 0, 1]
    assert window_slots(10, 0) == []
