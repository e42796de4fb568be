"""Wall time converted to a fixed reference CPU speed.

On a shared host the cores slow down and speed up by as much as 60 %
within seconds, as neighbours load the sibling hardware threads; process
CPU time swings with wall time, so neither compares two runs.  While it
runs, `SpeedProbe` times a fixed kernel from a timer signal every `TICK`
seconds.  The kernel does Fraction products and sums, the work abmod's
time goes to, so it slows down and speeds up with the program.
`seconds(a, b)` removes the probe's own time from the wall interval
[a, b] and scales each stretch between two samples by ``REF_KERNEL_S /
kernel time`` there (a median over five samples): the result is the
interval's length at the speed at which the kernel takes ``REF_KERNEL_S``.
The probe costs about 2 % of the run, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

TICK = 0.01
# The kernel's time on a 2-core Xeon host when its cores run fast; it only
# fixes the unit, so that reference seconds read close to wall seconds there.
REF_KERNEL_S = 1.5e-4


def kernel():
    """Exact rational arithmetic, the work abmod spends its time on."""
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    return acc


class SpeedProbe:
    def __init__(self):
        self.ends = array("d")      # when each kernel sample finished
        self.costs = array("d")     # how long it took
        self._smooth = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        n = len(self.costs)
        if not n:
            raise RuntimeError("the speed probe took no sample")
        self._smooth = [statistics.median(self.costs[max(0, i - 2):i + 3])
                        for i in range(n)]

    def seconds(self, a, b):
        """Reference seconds of the wall interval [a, b]; call after stop."""
        i, j = bisect_right(self.ends, a), bisect_left(self.ends, b)
        cuts = [a, *self.ends[i:j], b]
        last = len(self._smooth) - 1
        total = 0.0
        for k in range(len(cuts) - 1):
            work = cuts[k + 1] - cuts[k]
            if i + k < j:                 # a sample ran inside this stretch
                work -= self.costs[i + k]
            total += max(work, 0.0) / self._smooth[min(i + k, last)]
        return total * REF_KERNEL_S

    def summary(self):
        """(median kernel time, total kernel time) so far."""
        return statistics.median(self.costs), sum(self.costs)
