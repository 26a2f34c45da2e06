"""Quarter-hour time slots on a wrap-around study day.

The horizon is a single day of 96 slots of 15 minutes; slot 0 starts at
00:00 and all slot arithmetic is modulo 96.
"""

from __future__ import annotations

import re

import numpy as np

SLOTS_PER_DAY = 96
SLOT_HOURS = 0.25


def slot_of(text: str) -> int:
    """Parse "H:MM" or "HH:MM", ASCII digits only, into a slot index. "24:00" wraps to slot 0.

    Minutes must be a multiple of 15, and no other time may start with 24.
    """
    match = re.fullmatch(r"([0-9]{1,2}):([0-9]{2})", text.strip())
    if match is None:
        raise ValueError(f"bad time {text!r}, expected HH:MM")
    hours, minutes = int(match[1]), int(match[2])
    if not ((0 <= hours < 24 and 0 <= minutes < 60) or (hours, minutes) == (24, 0)):
        raise ValueError(f"bad time {text!r}")
    if minutes % 15 != 0:
        raise ValueError(f"bad time {text!r}: minutes must be a multiple of 15")
    return (hours * 4 + minutes // 15) % SLOTS_PER_DAY


def time_of(slot: int) -> str:
    """Format a slot index as "HH:MM"."""
    slot = slot % SLOTS_PER_DAY
    return f"{slot // 4:02d}:{(slot % 4) * 15:02d}"


def slot_of_hours(hours):
    """Round clock times in hours to the nearest slot, modulo one day; arrays too."""
    return (np.asarray(hours) * 4 + 0.5).astype(int) % SLOTS_PER_DAY
