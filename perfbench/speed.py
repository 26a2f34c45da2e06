"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared machine the same call can take 40% longer for minutes at
a time while neighbours are busy, which no number of repeats inside one run
averages away. The benchmark therefore measures the machine's speed with a
fixed kernel while it times evfeeder, and divides each timing by the
kernel's slowdown against a fixed reference: the result is the time the
interval would have taken at reference speed. Raw wall times are recorded
beside every corrected one.

The kernel is a frozen backward-forward sweep on a fixed 19-bus random
tree, so it slows down the way evfeeder's own interpreted loops over small
complex numpy arrays do; a 2000-bus kernel tracked the 2000-bus workload no
better. It belongs to the benchmark: changes to evfeeder never change it. A
:class:`SpeedProbe` runs the kernel before and after an interval and,
through a SIGALRM timer, once every ``SAMPLE_PERIOD_S`` inside it; the time
spent in those inside samples is taken out of the interval. Samples taken
only before and after a call of several seconds miss how the machine's
speed moves within it, and correct little.

The program under test cannot slow an inside sample down the way it can
slow itself. Its one thread is paused while the signal handler runs, so it
uses no memory bandwidth then and its numpy calls have returned. What it
leaves behind in the caches is refilled by an untimed warm-up unit before
every timed one. :attr:`SpeedProbe.inside_over_boundary` compares the inside
samples with the boundary ones, which the program cannot touch at all, so
a change that does disturb the probe shows there.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# Kernel time per bus per sweep iteration that counts as slowdown 1.0, near
# what an idle 2-CPU Xeon VM gives.
BUS_ITERATION_REFERENCE_S = 3.3e-6
KERNEL_BUSES = 19
UNIT_ITERATIONS = 20
UNIT_REFERENCE_S = UNIT_ITERATIONS * KERNEL_BUSES * BUS_ITERATION_REFERENCE_S
SAMPLE_PERIOD_S = 0.1
BOUNDARY_UNITS = 12
_SLACK = 220.0 * np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3), 0.0])


def _kernel_tree() -> tuple[list[int], np.ndarray, np.ndarray]:
    """Parents, loads (n, 3) and impedances (n, 4) of the fixed kernel tree."""
    rng = np.random.default_rng(0)
    parent = [0] + [int(p) for p in rng.integers(0, np.arange(1, KERNEL_BUSES))]
    s = rng.uniform(500.0, 3000.0, (KERNEL_BUSES, 3)) * (1 + 0.45j)
    s[0] = 0
    # small enough that every bus stays near 1 pu
    z = np.empty((KERNEL_BUSES, 4), dtype=complex)
    z[:, :3] = (rng.uniform(0.02, 0.3, KERNEL_BUSES) * 0.5 / KERNEL_BUSES * (1 + 0.3j))[:, None]
    z[:, 3] = z[:, 0]
    return parent, s, z


_PARENT, _S, _Z = _kernel_tree()


def _kernel_unit() -> None:
    """UNIT_ITERATIONS sweeps from a flat start; UNIT_REFERENCE_S on an idle machine."""
    n = KERNEL_BUSES
    v = np.tile(_SLACK, (n, 1))
    i_line = np.zeros((n, 4), dtype=complex)
    for _ in range(UNIT_ITERATIONS):
        i_load = np.conj(_S / (v[:, :3] - v[:, 3:4]))
        acc = np.empty((n, 4), dtype=complex)
        acc[:, :3] = i_load
        acc[:, 3] = -i_load.sum(axis=1)
        for b in range(n - 1, 0, -1):
            i_line[b] = acc[b]
            acc[_PARENT[b]] += acc[b]
        v_new = np.empty_like(v)
        v_new[0] = v[0]
        for b in range(1, n):
            v_new[b] = v_new[_PARENT[b]] - _Z[b] * i_line[b]
        np.max(np.abs(v_new - v))
        v = v_new


class SpeedProbe:
    """Machine speed around, and optionally during, one timed interval.

    Use as a context manager around the interval; time the interval inside
    the ``with`` block and pass that wall time to :meth:`corrected`.
    """

    def __init__(self, sample_inside: bool):
        self.sample_inside = sample_inside
        self.kernel_s = {"boundary": 0.0, "inside": 0.0}
        self.units = {"boundary": 0, "inside": 0}
        self.inside_s = 0.0
        self._previous_handler = None

    def _run(self, where: str, units: int) -> None:
        # the collector would scan the caller's heap, which the program under test sets
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel_unit()  # warm-up: refill what the program evicted
            start = time.perf_counter()
            for _ in range(units):
                _kernel_unit()
            self.kernel_s[where] += time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        self.units[where] += units

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._run("inside", 1)
        self.inside_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._run("boundary", BOUNDARY_UNITS)
        if self.sample_inside:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._run("boundary", BOUNDARY_UNITS)

    def _per_unit(self, where: str) -> float:
        return self.kernel_s[where] / self.units[where]

    @property
    def slowdown(self) -> float:
        """Kernel time per unit over its reference; about 1.0 on an idle machine."""
        units = sum(self.units.values())
        return sum(self.kernel_s.values()) / (units * UNIT_REFERENCE_S)

    @property
    def inside_over_boundary(self) -> float:
        """Kernel time per unit inside the interval over that around it.

        1.0 when nothing was sampled inside: then the program could not
        disturb the probe.
        """
        if not self.units["inside"]:
            return 1.0
        return self._per_unit("inside") / self._per_unit("boundary")

    def corrected(self, wall_s: float) -> float:
        """`wall_s` without the inside samples, at reference speed."""
        return (wall_s - self.inside_s) / self.slowdown
