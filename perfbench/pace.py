"""Calibrated timing: operation times corrected for the host's speed at that moment.

On a shared 2-vCPU VM the interpreter's speed moves by 20-40% in phases
of ten seconds or more, so the same operation timed a minute apart differs
by more than any useful regression bound. A probe process on the other
vCPU does not see these phases, so the pace is taken in the timed thread
itself.

``Pace.time(call)`` runs ``call`` with a SIGALRM interval timer. Every
``PERIOD`` seconds the handler runs a fixed pure-Python reference chunk
(``REF_ROUNDS`` rounds of loop, dict and integer work that never touches
the package) and records how long it took; one more chunk runs right after the
call. The call's own time is its wall time minus the handler time, and the
calibrated time is that own time scaled by ``REF_NOMINAL_S`` over the mean
reference time seen during the call:

    calibrated = (wall - handler time) * REF_NOMINAL_S / mean(reference times)

So the calibrated value is the call's time at the pace where one reference
chunk takes ``REF_NOMINAL_S`` (close to its median on a 2-vCPU Xeon VM with
Python 3.11), and a slower program reads slower whatever the host's phase.
The reference is interpreter work, so it tracks pure-Python operations
closely and numpy-bound ones (the full scan) only in part. The handler runs
in the main thread between bytecodes, so the library sees no extra thread;
it costs about 2% of the timed time, which is subtracted.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.25
REF_ROUNDS = 150
REF_NOMINAL_S = 0.005

_DATA = tuple((i * 37) % 211 for i in range(211))
_RANK = {v: i for i, v in enumerate(_DATA)}


def reference_chunk(rounds: int = REF_ROUNDS) -> int:
    """Fixed pure-Python work, independent of the package under test.

    Loops, dict lookups and integer arithmetic on prebuilt data; it builds
    no containers, so running it inside a timed call leaves that call's
    memory use unchanged.
    """
    data, rank = _DATA, _RANK
    acc = 0
    for r in range(rounds):
        for v in data:
            acc = (acc + rank[v] * v + r) % 65521
    return acc


class Pace:
    """Times calls in calibrated seconds; one instance per process."""

    def __init__(self):
        self._ref_total = 0.0
        self._ref_count = 0
        self._spent = 0.0
        self._busy = False
        reference_chunk()  # warm the reference before any timing

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that fires inside a slow tick is dropped
            return
        self._busy = True
        t0 = perf_counter()
        reference_chunk()
        t1 = perf_counter()
        self._ref_total += t1 - t0
        self._ref_count += 1
        self._spent += perf_counter() - t0
        self._busy = False

    def time(self, call) -> tuple:
        """Run call once; returns (result, raw wall seconds, calibrated seconds)."""
        self._ref_total, self._ref_count, self._spent = 0.0, 0, 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
            start = perf_counter()
            try:
                result = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                wall = perf_counter() - start
                inside = self._spent
        finally:
            signal.signal(signal.SIGALRM, previous)
        self._tick()
        own = max(wall - inside, 0.0)
        return result, wall, own * REF_NOMINAL_S * self._ref_count / self._ref_total
