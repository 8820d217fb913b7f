"""Speed references: make times taken at different moments comparable.

The machine the benchmark was defined on is a shared two-vCPU virtual
machine whose speed is not constant: a fixed pure-Python loop takes 18 ms or
37 ms depending on the second, and the mix of fast and slow seconds drifts
over minutes, so the raw times of identical runs a few minutes apart
differed by up to 30%.  Each run therefore also times, after every op and
outside the op's timer, a reference task that does not involve symclone, and
every time metric is divided by the run's speed factor::

    factor = mean(reference time) / nominal reference time

Reported times are thus seconds at the speed where the reference takes its
nominal time.  CLI ops are mostly process start and imports, so their
reference is a fresh interpreter importing a fixed set of standard-library
modules; warm ops are pure-Python and NumPy compute, so theirs is an
in-process Fraction and dict loop.  Measured on the machine above, over
blocks of 10 ops: the spread of raw CLI import times fell from 0.18 to 0.03
of the median with the process reference, and that of a dim-24 exact op from
0.27 to 0.08 with the loop reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROCESS_NOMINAL_S = 0.2
PROCESS_SOURCE = "import decimal, email.message, http.client, xml.dom.minidom, unittest, logging"
LOOP_NOMINAL_S = 0.03


def loop_reference() -> float:
    """Seconds for a fixed Fraction and dict loop, in units of its nominal time."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 4000):
        s += Fraction(i % 7 + 1, i % 11 + 1)
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    return (time.perf_counter() - t0) / LOOP_NOMINAL_S


def factor(records: list[dict]) -> float:
    """The speed factor of a run: mean of the per-op reference samples."""
    return sum(r["speed"] for r in records) / len(records)
