"""Host-speed probe and the step clock of untraced runs.

A shared two-vCPU Xeon host (2.1 GHz) changes speed by up to 1.6x within
seconds: a fixed pure-Python loop takes 0.22 ms in one second and 0.36 ms
in the next, and training steps slow down with it. Over ten 30-second runs
the median step time then spread by up to 0.3 of itself. So every timed
interval is paired with a probe of that loop taken just before it, and
reported in reference-speed time: the raw time divided by the probe's
slowness, the probe's time over ``PROBE_REF_S``. A change to the program
moves the raw time and not the probe, so it moves the reported time by the
same factor. Raw times are kept beside the reference-speed ones.
"""

from __future__ import annotations

import statistics
import time

from adapterlab import training

from tracing import BATCH_BUILDERS, patched

PROBE_LOOPS = 3000
PROBE_REF_S = 2.0e-4  # the probe's fastest time on that host
SMOOTHING = 5  # a step's slowness is the median of this many neighbouring probes


def slowness() -> float:
    """Time of the fixed probe loop over its reference time."""
    start = time.perf_counter()
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k * k
    return (time.perf_counter() - start) / PROBE_REF_S


def smoothed(values: list[float], width: int = SMOOTHING) -> list[float]:
    """Running median: each value replaced by the median of its neighbourhood."""
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


class StepClock:
    """Times each training step at its batch builder; nothing else.

    This is the only hook an untraced run carries: a probe, one clock read
    and one mask sum per step. A step runs from its batch-builder call to
    the next step's probe; the last one ends when training returns. Without
    ``probe`` (traced runs, whose times are not end-to-end metrics) no probe
    runs, so none shows up inside the traced phase.
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.step_s: list[float] = []
        self.step_ref_s: list[float] = []
        self.tokens: list[int] = []
        self.slowness: list[float] = []
        self.probe_s = 0.0

    def run(self, train):
        probes: list[float] = []
        starts: list[float] = []
        slow: list[float] = []

        def clocked(fn):
            def builder(*args, **kwargs):
                probes.append(time.perf_counter())
                slow.append(slowness() if self.probe else 1.0)
                starts.append(time.perf_counter())
                out = fn(*args, **kwargs)
                self.tokens.append(int(out[1].sum()))
                return out
            return builder
        with patched([(training, name, clocked(getattr(training, name)))
                      for name in BATCH_BUILDERS]):
            out = train()
            probes.append(time.perf_counter())
        steps = [end - start for start, end in zip(starts, probes[1:])]
        factors = smoothed(slow)
        self.step_s += steps
        self.step_ref_s += [s / f for s, f in zip(steps, factors)]
        self.slowness += slow
        self.probe_s += sum(s - p for p, s in zip(probes, starts)) if self.probe else 0.0
        return out
