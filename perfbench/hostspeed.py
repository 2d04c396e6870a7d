"""Host-speed probe: timings scaled to a fixed reference speed.

The shared hosts this benchmark runs on change CPU speed by themselves:
a fixed pure-Python loop swings by 20-40 % within seconds, and medians
taken minutes apart drift by as much.  A raw wall time would then move
as much between two runs of the same code as a real regression does.

So every gated timing is bracketed by short probes of the host's
current speed, and reported as the time it would have taken at the
reference speed::

    scaled = wall * REFERENCE_S / sqrt(probe_before * probe_after)

A probe is the geometric mean of three small fixed tasks of different
kinds (bytecode, C library code, interpreter start-up).  None of them
touches ``repro``, so a change to the program moves a scaled time by its
full effect, while a change in host speed moves the wall time and the
probe together.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import zlib
from time import perf_counter
from typing import List

#: What :func:`probe` takes at the reference host speed.  Fixed for good:
#: changing it rescales every timing the benchmark reports.
REFERENCE_S = 0.01

#: A probe is taken before an operation when the last one is older.
PROBE_EVERY_S = 0.5

_BLOB = bytes(range(256)) * 4096


def _bytecode() -> float:
    t0 = perf_counter()
    d: dict = {}
    for j in range(60_000):
        d[j & 1023] = d.get(j & 1023, 0) + j * j
    return perf_counter() - t0


def _library() -> float:
    t0 = perf_counter()
    hashlib.sha256(_BLOB).digest()
    zlib.compress(_BLOB, 1)
    return perf_counter() - t0


def _startup() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


def probe() -> float:
    """The host's current speed, as the seconds a fixed task mix takes."""
    parts = (
        min(_bytecode() for _ in range(3)),
        min(_library() for _ in range(3)),
        min(_startup() for _ in range(2)),
    )
    return math.prod(parts) ** (1 / len(parts))


class Scaler:
    """Probes taken during one run, and timings scaled by them.

    Call :meth:`tick` right before each timed span and keep the index it
    returns with the span's wall time; call ``tick(force=True)`` after
    the last span so that every span has a probe on both sides.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Probe if the last probe is stale; the index of the latest one."""
        if force or perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._last = perf_counter()
        return len(self.probes) - 1

    def extend(self, probes: List[float]) -> int:
        """Append probes taken in a child; the offset of their indices."""
        offset = len(self.probes)
        self.probes.extend(probes)
        self._last = -math.inf
        return offset

    def scale(self, wall: float, index: int) -> float:
        before = self.probes[index]
        after = self.probes[min(index + 1, len(self.probes) - 1)]
        return wall * REFERENCE_S / math.sqrt(before * after)
