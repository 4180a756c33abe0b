"""Host speed probe, sampled while the program runs.

The host shares its cores with other machines, and its speed drifts by up
to 1.7x in phases from under a second to minutes long.  A time measured
while the host is slow says little about the program, so the workload
child samples the host's speed during every timed invocation and reports
the invocation in host-normalised seconds: its time scaled to a host on
which one probe takes ``REF_PROBE_NS``.

The probe is a fixed piece of scalar float code of the kind the program
runs (calls to ``math.exp``/``log1p``, division, a Python-level function
call per term).  It is the benchmark's own code, so a change to the program
never changes it, and it allocates nothing that outlives it.  A SIGALRM
handler (no thread) runs it every ``SAMPLE_EVERY_S``; the handler runs
between the program's bytecodes, and the time it takes is cut out of the
invocation's time.
"""

from __future__ import annotations

import math
import signal
import time

PROBE_TERMS = 2000          # one probe: about 1 ms
SAMPLE_EVERY_S = 0.025      # probe interval while an invocation runs
REF_PROBE_NS = 0.75e6       # about the median probe on a 2-vCPU Xeon


def _term(x: float, a: float, b: float) -> float:
    return math.exp(-a * x) / (1.0 - math.exp(-b * x)) + math.log1p(a * x)


def probe_ns() -> int:
    """Wall ns of ``PROBE_TERMS`` terms of a fixed scalar sum."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for k in range(1, PROBE_TERMS + 1):
        acc += _term(k * 1e-3, 0.3, 0.7)
    return time.perf_counter_ns() - t0


def factor(probes: list[int]) -> float:
    """How much slower than the reference host the probes ran, on average:
    divide a time taken while they ran by this."""
    return sum(probes) / len(probes) / REF_PROBE_NS


class Sampler:
    """Times calls while probing the host every ``SAMPLE_EVERY_S``."""

    def __init__(self) -> None:
        self._samples: list[tuple[int, int]] = []   # (start ns, probe ns)
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append((time.perf_counter_ns(), probe_ns()))

    def timed(self, call):
        """``(call(), busy ns, probes ns)``: busy is the call's wall time
        less the probes run inside it; the probes are one right before the
        call, those inside it and one right after."""
        self._samples = []
        before = probe_ns()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter_ns()
            result = call()
            t1 = time.perf_counter_ns()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [ns for start, ns in self._samples if t0 <= start < t1]
        return result, t1 - t0 - sum(inside), [before, *inside, probe_ns()]
