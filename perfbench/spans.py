"""Traced-run instrumentation, applied from outside the simulator.

A :class:`Tracer` records one span per call the benchmark makes into a
layer's public function (name, start, end, parent span, and the id of the
design point or request it served), attributes event-loop host time to
simulated components with an :class:`~repro.sim.profiling.EventProfiler`,
and sums model counters read from a :class:`~repro.obs.stats.StatRegistry`
attached to every simulated SoC.  Everything stays in memory until
:meth:`Tracer.write` dumps it once at the end of the run.

Known blind spot: the profiler bills each event to the callback that the
event queue invoked.  Cache, TLB and prefetcher work that the datapath
calls synchronously inside its issue pass is therefore billed to
``DatapathScheduler._issue_pass`` (about 79% of a cache-mode stencil2d
run).  Splitting that cost needs spans inside the program itself.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager

from repro.core.executors import RemoteExecutor
from repro.core.soc import SoC, run_design
from repro.obs.stats import StatRegistry
from repro.sim.profiling import EventProfiler

#: EventProfiler labels read ``<Class>.<method>``; the class names the
#: simulated component.  Unlisted classes (offload-flow glue in ``SoC``,
#: closures) land in ``other``.
COMPONENT_BUCKET = {
    "DatapathScheduler": "datapath",
    "SpadInterface": "spad",
    "ReadyBits": "spad",
    "CacheInterface": "cache",
    "Cache": "cache",
    "MSHRFile": "cache",
    "StridePrefetcher": "cache",
    "_ForwardResponder": "cache",
    "CoherenceDomain": "cache",
    "AcceleratorTLB": "tlb",
    "DMAEngine": "dma",
    "DescriptorGate": "dma",
    "SystemBus": "bus",
    "MemRequest": "bus",
    "TrafficGenerator": "bus",
    "DRAM": "dram",
    "CPUDriver": "driver",
}
LOOP_BUCKETS = ("datapath", "spad", "cache", "tlb", "dma", "bus", "dram",
                "driver", "other")

#: Model counter -> the registry stat summed into it over every point.
MODEL_STATS = {
    "cache_hits": "accel0.cache.hits",
    "cache_misses": "accel0.cache.misses",
    "dma_bytes": "accel0.dma.bytes_moved",
    "bus_queue_ticks": "soc.bus.queue_ticks",
    "ii_sum": "accel0.sched.ii",
    "spad_conflicts": "accel0.spad.conflicts",
    "reservation_conflicts": "accel0.sched.reservation_conflicts",
    "sched_completed": "accel0.sched.completed",
}


def bucket_of(label):
    """The ``loop.*`` bucket of one EventProfiler component label."""
    return COMPONENT_BUCKET.get(label.split(".", 1)[0], "other")


class Tracer:
    """Spans, event-loop attribution and model counters for one run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, tag)
        self.profiler = EventProfiler()
        self.model = dict.fromkeys(("accel_cycles",) + tuple(MODEL_STATS), 0)
        self.points = []  # (workload, design, cfg, traced seconds)
        self.pairs = []   # (traced, untraced) host seconds of one point
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name, tag=None):
        """Time the enclosed call as one span under the current one."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, tag))

    def durations(self, name):
        """Host seconds of every span called ``name``."""
        return [end - start for _i, n, start, end, _p, _t in self.spans
                if n == name]

    def seconds(self, name):
        return sum(self.durations(name))

    # -- one traced design point ---------------------------------------------

    def run_point(self, workload, design, cfg=None):
        """``run_design`` split into its layers: SoC build, event loop
        (``launch`` + ``sim.run``) and result collection."""
        start = time.perf_counter()
        with self.span("point", tag=f"{workload}|{design.key()}"):
            with self.span("soc.build"):
                soc = SoC(workload, design, cfg)
            soc.sim.queue.set_profiler(self.profiler)
            registry = soc.reg_stats(StatRegistry())
            with self.span("loop"):
                soc.launch()
                soc.sim.run()
            with self.span("soc.collect"):
                result = soc.collect()
        self.points.append((workload, design, cfg,
                            time.perf_counter() - start))
        for key, stat in MODEL_STATS.items():
            if stat in registry:
                self.model[key] += registry.value(stat)
        self.model["accel_cycles"] += result.accel_cycles
        return result

    def executor(self):
        """A sweep executor that evaluates every point through
        :meth:`run_point`, in this process."""
        return RemoteExecutor(transport=self.run_point, label="traced")

    # -- results ---------------------------------------------------------------

    def loop_buckets(self):
        """``{bucket: [events, seconds]}`` over every profiled event."""
        out = {name: [0, 0.0] for name in LOOP_BUCKETS}
        for label, (count, secs) in self.profiler.records.items():
            record = out[bucket_of(label)]
            record[0] += count
            record[1] += secs
        return out

    def issue_passes(self):
        return self.profiler.records.get(
            "DatapathScheduler._issue_pass", (0, 0.0))[0]

    def time_untraced(self, index):
        """Re-run traced point ``index`` untraced (its trace, DDDG and plan
        must still be cached) and pair the two host times."""
        workload, design, cfg, traced = self.points[index]
        start = time.perf_counter()
        run_design(workload, design, cfg)
        self.pairs.append((traced, time.perf_counter() - start))

    def sample_untraced(self, sample=12):
        """:meth:`time_untraced` on up to ``sample`` points spread evenly
        over the run."""
        step = max(1, len(self.points) // sample)
        for index in range(0, len(self.points), step)[:sample]:
            self.time_untraced(index)

    def overhead_frac(self):
        """Traced over untraced host time of the paired points, minus one."""
        traced = sum(t for t, _u in self.pairs)
        untraced = sum(u for _t, u in self.pairs)
        return traced / untraced - 1.0 if untraced else 0.0

    def state(self):
        """What :meth:`absorb` needs, as JSON-ready data."""
        return {"spans": self.spans, "profile": self.profiler.records,
                "model": self.model, "pairs": self.pairs}

    def absorb(self, state):
        """Merge a :meth:`state` recorded in another process (the
        ``cold-modulo`` children), renumbering its spans."""
        ids = {span[0]: next(self._ids) for span in state["spans"]}
        for span_id, name, start, end, parent, tag in state["spans"]:
            self.spans.append((ids[span_id], name, start, end,
                               ids.get(parent), tag))
        for label, (count, secs) in state["profile"].items():
            record = self.profiler.records.setdefault(label, [0, 0.0])
            record[0] += count
            record[1] += secs
        for key, value in state["model"].items():
            self.model[key] += value
        self.pairs.extend(tuple(pair) for pair in state["pairs"])

    def write(self, path, extra=None):
        """Dump spans, the profile and the model counters as JSON."""
        doc = {
            "spans": [{"id": i, "name": n, "start": s, "end": e,
                       "parent": p, "tag": t}
                      for i, n, s, e, p, t in self.spans],
            "profile": self.profiler.as_dict(),
            "model": self.model,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)
