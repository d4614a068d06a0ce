"""Host-speed sampling, so timings from a shared machine can be compared.

On a machine whose cores are shared with other tenants the same work can
take half as long again during a busy spell, and spells last seconds to
minutes.  A :class:`HostSpeed` sampler runs a fixed pure-Python probe
every ``interval_s`` while a timed region executes (from a ``SIGALRM``
handler, so the probe interleaves with the program on the same core)
and reports how much slower the probe ran than on a quiet host.
Dividing the region's wall time by that factor gives its time at the
quiet host's speed.

The probe touches no program state and costs well under 1% of the
region, so simulated results are unaffected and both sides of a
comparison pay the same.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["HostSpeed", "probe", "REFERENCE_PROBE_S"]

#: Probe duration on a quiet host (the 2-vCPU x86_64 machine, Python
#: 3.11, the baseline in ``perfbench/baseline.json`` was recorded on).
REFERENCE_PROBE_S = 2.0e-4

_PROBE_LOOPS = 3000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Samples :func:`probe` on a timer while its ``with`` block runs."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostSpeed":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median probe time over the quiet-host reference.

        A region too short to be sampled is probed a few times at exit.
        """
        samples = self.samples or [probe() for _ in range(5)]
        return statistics.median(samples) / REFERENCE_PROBE_S
