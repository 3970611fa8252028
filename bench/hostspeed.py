"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host the speed available to one process swings by tens of
percent, between two levels about 1.7x apart that alternate within a
second or last for minutes (other tenants, CPU steal).  run.py samples
probe() during every pass and scales each pass's times by REFERENCE_S
over the pass's probe level (mean_level): times are reported as seconds
on a host where the probe takes REFERENCE_S.  The probe is the
benchmark's own code and imports nothing from toricsym, so a change to
the library moves the reported times and leaves the probe alone.

In-process passes are sampled by a Sampler, every SAMPLE_EVERY_S seconds
of this process's CPU time, so the samples spread evenly over long and
short jobs alike; the time spent in probes is taken out of the jobs'
times.  A pass of CLI jobs, whose work runs in child processes, is
probed before every job instead.

The three parts follow the library's kinds of work: integer loops,
exact Fraction elimination, and a nested lattice-point enumeration with
Fraction bounds.  On the shared 2-vCPU sandbox where the benchmark was
written (Python 3.11), one probe took 1.5 to 2.8 ms, median 2.4 ms.  The
kernel is kept apart from workloads.py, on purpose, because changing it or
REFERENCE_S changes every reported time.
"""

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.1
_MATRIX = ((3, -7, 2, 9, -1), (4, 0, -5, 1, 8), (-6, 2, 7, -3, 5), (1, 9, -2, -8, 4),
           (7, -4, 6, 2, -9))


def _integers():
    s = 0
    for i in range(8000):
        s += i * i % 7
    return s


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _lattice_sum():
    """Points (x, y, z) >= 0 with x + y + 2z <= 37/3, and their coordinate sum."""
    bound = Fraction(37, 3)
    total = [0, 0, 0]
    count = 0
    for x in range(int(bound) + 1):
        for y in range(int(bound - x) + 1):
            for z in range(int((bound - x - y) / 2) + 1):
                total[0] += x
                total[1] += y
                total[2] += z
                count += 1
    return count, total


def probe():
    """(wall, cpu) seconds of one run of the reference kernel."""
    cpu = time.thread_time()
    wall = time.perf_counter()
    _integers()
    _rank(_MATRIX)
    _rank(_MATRIX)
    _lattice_sum()
    return time.perf_counter() - wall, time.thread_time() - cpu


def mean_level(times):
    """Mean of probe times, each capped at twice their median.

    The mean follows the mix of the two speed levels; the cap keeps one
    probe that was preempted for a whole time slice from moving it.
    """
    cap = 2 * statistics.median(times)
    return statistics.mean(min(t, cap) for t in times)


class Sampler:
    """Probes taken during one pass, and the time they took.

    take() runs one probe; inside a `with` block a SIGPROF timer also
    calls it every `every` seconds of this process's CPU time, so samples
    land inside the jobs at an even rate.  `samples` holds (wall, cpu) of
    each probe; `spent` is the (wall, cpu) seconds all probes took, which
    the caller subtracts from its timings.  CPU times are read from the
    thread's clock: while a process-wide CPU timer is armed, Linux serves
    the process clock (time.process_time) from a total that only moves at
    scheduler ticks, several milliseconds apart.
    """

    def __init__(self, every=SAMPLE_EVERY_S):
        self.every = every
        self.samples = []
        self.spent = (0.0, 0.0)

    def take(self, *signal_args):
        cpu = time.thread_time()
        wall = time.perf_counter()
        self.samples.append(probe())
        self.spent = (self.spent[0] + time.perf_counter() - wall,
                      self.spent[1] + time.thread_time() - cpu)

    def scale(self):
        """(wall, cpu) factors from this pass's times to the reference host speed."""
        return tuple(REFERENCE_S / mean_level([x[i] for x in self.samples]) for i in (0, 1))

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self.take)
        signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)
        return False
