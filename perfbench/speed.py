"""The machine's speed, measured next to each timed request.

The benchmark is meant to run on shared machines whose CPUs have slow phases
of seconds to minutes, in which the same code takes 1.3 to 2 times longer.
Such a phase moves every time of a run alike.  So the client times a fixed
piece of work that does not call qsymq (a *probe*) on the CPU the run uses,
after every request and set-up (and, for requests that last seconds, while
they run), and a time is reported *scaled to the reference speed*:

    scaled = measured * reference probe time / (median of the probes around it)

A change of the program cannot move a probe; a change of the machine's speed
moves both alike and cancels.  The unscaled times are printed in the report
as well.

Work of different kinds slows down by different amounts, so there are three
probes.  ``fraction_probe`` (small ``Fraction`` arithmetic and dict stores)
follows reduction inside the client; ``rows_probe`` (whole-row integer
arithmetic, like the oracle's elimination) follows the oracle; and
``spawn_probe`` (starting a bare interpreter) follows short-lived CLI
processes.  The in-process probes run with the garbage collector off, so the
client's heap does not enter them.  NOTES.md gives the measurements behind
the choice.
"""

import gc
import random
import statistics
import subprocess
import sys
from fractions import Fraction

from tracing import clock

def _timed(loop):
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        loop()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def _fractions():
    stored = {}
    x = Fraction(1, 3)
    for i in range(350):
        x = x * Fraction(i % 7 + 1, 5) + Fraction(1, i % 11 + 1)
        stored[i % 97, i % 13] = x
        if x.denominator > 10 ** 30:
            x = Fraction(1, 3)


ROWS = 24  # of 300 integers each: about 200 KB
_ROWS = []


def _rows():
    rng = random.Random(1)
    for _ in range(50):
        a, b = _ROWS[rng.randrange(ROWS)], _ROWS[rng.randrange(ROWS)]
        row = [3 * x - 5 * y for x, y in zip(a, b)]
        row = [x * y for x, y in zip(row, a)]


def fraction_probe() -> float:
    """Seconds taken by about 2.5 ms of small Fraction arithmetic."""
    return _timed(_fractions)


def rows_probe() -> float:
    """Seconds taken by about 2.5 ms of arithmetic on rows of integers."""
    if not _ROWS:  # built on first use, outside the time
        rng = random.Random(0)
        _ROWS.extend([rng.randint(-10 ** 6, 10 ** 6) for _ in range(300)] for _ in range(ROWS))
    return _timed(_rows)


def spawn_probe() -> float:
    """Seconds taken to start and end a bare interpreter, about 10 ms."""
    start = clock()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return clock() - start


# The usual time of each probe, the faster of two, on the machine the
# benchmark was tuned on (2 shared vCPUs, Python 3.11).  Only a unit: a
# scaled time reads as the time at that speed.  Comparisons between runs do
# not depend on it.
REFERENCE_S = {fraction_probe: 0.0023, rows_probe: 0.0023, spawn_probe: 0.009}


class Speedometer:
    """The times of one probe on the CPU the run uses."""

    def __init__(self, probe, window=5):
        self.probe = probe
        self.window = window
        self.times = []

    def start(self):
        """Probe ``window`` times before the first timed run."""
        for _ in range(self.window):
            self.measure()

    def measure(self) -> float:
        """Probe the CPU this process runs on now: the faster of two probes,
        so that neither the caches a long request left cold nor an
        interruption of one probe count."""
        seconds = min(self.probe(), self.probe())
        self.times.append(seconds)
        return seconds

    def factor(self, since: int) -> float:
        """What a time measured since probe number ``since`` is multiplied
        by: the reference time over the median of the probes taken since
        then (during and after the request), or of the latest ``window``
        probes if there are fewer.  A median, so that one probe that was
        disturbed does not move it."""
        recent = self.times[since:]
        if len(recent) < self.window:
            recent = self.times[-self.window:]
        return REFERENCE_S[self.probe] / statistics.median(recent)

    def mean_probe(self) -> float | None:
        return statistics.fmean(self.times) if self.times else None
