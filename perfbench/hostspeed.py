"""Host-speed correction for the end-to-end times.

The benchmark runs on shared hosts whose speed swings by 20-40% within
fractions of a second, for every program alike.  While a run measures,
:class:`HostSpeed` interrupts it every ``SAMPLE_PERIOD_S`` (``SIGALRM``)
to time a fixed pure-Python probe.  Each sample gives the host's speed at
that moment relative to a nominal host, ``NOMINAL_PROBE_S`` over the
probe's time.  An interval's *nominal seconds* are its host seconds times
the mean speed sampled during it: the time the same work would have
taken on a host where the probe always runs in ``NOMINAL_PROBE_S``.  The
probes' own time is left out of every interval.

The probe imports nothing from the simulator, so a change to the program
cannot speed it up or slow it down, and it runs with the cyclic garbage
collector paused, so it does not pay for the program's heap.  It mimics
the simulator's host work (a heap-ordered queue, dict traffic).  Measured
on one process repeating the same eight cache-mode design points: per
pass of about 6 s, host time spread by 12% (standard deviation over mean)
and nominal time by 2.5%.  Sampling costs about 2% of the host time.
"""

import gc
import heapq
import signal
import statistics
import time

#: Seconds between samples.
SAMPLE_PERIOD_S = 0.02

#: Probe seconds on the nominal host: about what one probe takes on a
#: 2 GHz x86-64 container core with Python 3.11.
NOMINAL_PROBE_S = 0.0003

#: Items the probe pushes through its queue.
PROBE_EVENTS = 300


def _probe_work(events=PROBE_EVENTS):
    """A fixed miniature event queue: deterministic, pure Python."""
    queue = []
    counts = {}
    state = 12345
    for seq in range(events):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, (state % 1000, seq))
        if len(queue) > 32:
            _when, done = heapq.heappop(queue)
            counts[done % 61] = counts.get(done % 61, 0) + 1
    return len(counts)


def probe():
    """Host seconds of one probe, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Speed samples of one run, and the nominal seconds they give.

    Used as a context manager, it samples every ``SAMPLE_PERIOD_S`` from
    the main thread's signal handler; otherwise it holds the one sample
    taken when it was made.  ``mark()`` opens an interval and
    ``since(mark)`` closes it.
    """

    def __init__(self):
        self.speeds = []
        self.spent = 0.0  # host seconds spent sampling
        self._previous = None
        self._sample()

    def _sample(self, _signum=None, _frame=None):
        start = time.perf_counter()
        self.speeds.append(NOMINAL_PROBE_S / probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return time.perf_counter(), len(self.speeds), self.spent

    def since(self, mark):
        """``(host_s, nominal_s)`` of the interval opened by ``mark``,
        sampling time left out.  An interval too short to hold a sample
        takes the latest one."""
        start, first, spent = mark
        host = time.perf_counter() - start - (self.spent - spent)
        speeds = self.speeds[first:] or self.speeds[-1:]
        return host, host * statistics.fmean(speeds)
