"""Host-speed probe, thread guard and the timing correction built on them.

The benchmark host shares its CPUs, and its speed for pure-Python work
drifts by tens of percent within seconds.  A fixed routine timed between
requests follows that drift; multiplying a timing by
``reference_ms / probe_ms`` expresses it in the speed of the host on which
``reference_ms`` was recorded.  The probe imports nothing from ``repro``,
so no change to the program under test can change the probe itself.
"""

from __future__ import annotations

import signal
import statistics
import sys
import threading
import time
from typing import List, Tuple

#: routine timings per probe; the probe reports their median
_PROBE_REPEATS = 3


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left = None
        self.right = None


def _insert(root: _Node, key: int) -> None:
    node = root
    while True:
        if key < node.key:
            if node.left is None:
                node.left = _Node(key)
                return
            node = node.left
        else:
            if node.right is None:
                node.right = _Node(key)
                return
            node = node.right


def _probe_routine() -> int:
    """A little of what the program does: small allocations, attribute
    access, calls, dict lookups on string keys, list appends, a sort and
    string building.  A mix tracks the program's speed across processes
    far better than one tight loop, whose speed depends on memory layout."""
    root = _Node(500)
    for i in range(600):
        _insert(root, (i * 7919) % 1000)
    counts = {}
    for i in range(400):
        key = "w%d" % (i % 97)
        counts[key] = counts.get(key, 0) + 1
    pairs = []
    for key, value in counts.items():
        pairs.append((value, key))
    pairs.sort(reverse=True)
    return len(",".join(key for _, key in pairs[:50]))


def probe_ms() -> float:
    """One probe: the median time of the fixed routine, in milliseconds."""
    timings = []
    for _ in range(_PROBE_REPEATS):
        started = time.perf_counter()
        _probe_routine()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings) * 1e3


class ThreadGuard:
    """Names the live threads that the benchmark did not start.

    A probe only measures the host if nothing else in the process competes
    for the interpreter while it runs; a program that left a thread busy
    during a probe would slow the probe and so flatter its own corrected
    timings.  Threads are listed through ``sys._current_frames``, which
    takes no ``threading`` lock and so is safe in a signal handler.
    """

    def __init__(self) -> None:
        self._main = threading.main_thread().ident

    def foreign_threads(self) -> List[str]:
        return sorted("thread-%d" % ident for ident in sys._current_frames()
                      if ident != self._main)


def correction_factor(reference_ms: float, before_ms: float, after_ms: float) -> float:
    """Scale for a timing taken between two probes: reference over their mean."""
    return reference_ms / ((before_ms + after_ms) / 2.0)


class HostClock:
    """Guarded probes, taken on demand or every ``interval_s`` by a timer,
    and the corrected timings computed from them."""

    def __init__(self, reference_ms: float, guard: ThreadGuard, interval_s: float = 0.1):
        self.reference_ms = reference_ms
        self.guard = guard
        self.interval_s = interval_s
        #: ``(start, end, probe_ms)`` of every probe, on the perf_counter clock
        self.samples: List[Tuple[float, float, float]] = []
        #: threads seen alive during a probe; any entry fails the run
        self.violations: List[str] = []
        self._probing = False
        self._previous_handler = None

    def probe(self) -> float:
        self._probing = True
        try:
            self.violations.extend(self.guard.foreign_threads())
            started = time.perf_counter()
            value = probe_ms()
            self.samples.append((started, time.perf_counter(), value))
        finally:
            self._probing = False
        return value

    def _on_timer(self, signum, frame) -> None:
        if not self._probing:
            self.probe()

    def start_sampling(self) -> None:
        """Probe every ``interval_s`` from a SIGALRM timer.  The handler runs
        in the main thread between bytecodes, so a request or set-up that
        lasts seconds is probed while it runs, not only around it."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @property
    def probes(self) -> List[float]:
        return [value for _, _, value in self.samples]

    def latest_factor(self) -> float:
        return self.reference_ms / self.samples[-1][2]

    def factor(self, before_ms: float, after_ms: float) -> float:
        return correction_factor(self.reference_ms, before_ms, after_ms)

    def correct(self, start: float, end: float) -> Tuple[float, float]:
        """``(raw, corrected)`` seconds of a timing from ``start`` to ``end``.

        Probes that ran inside it are taken out of the raw time; the rest
        is scaled by the reference over the median probe from one sampling
        interval before the timing to one after it.  The window is kept
        that narrow because on a shared host speed drifts more within a
        second than one probe jitters; a wider window corrects worse
        (measurements in README.md).
        """
        inside = 0.0
        values = []
        for probe_start, probe_end, value in self.samples:
            if probe_start >= start and probe_end <= end:
                inside += probe_end - probe_start
            if start - self.interval_s <= probe_end and probe_start <= end + self.interval_s:
                values.append(value)
        if not values:
            middle = (start + end) / 2
            values = [min(self.samples, key=lambda sample: abs(sample[1] - middle))[2]]
        raw = end - start - inside
        return raw, raw * self.reference_ms / statistics.median(values)

    def median_probe_ms(self) -> float:
        probes = self.probes
        return statistics.median(probes) if probes else 0.0


def wait_for_other_threads(timeout: float = 5.0) -> None:
    """Give threads that are shutting down up to ``timeout`` seconds to end."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
