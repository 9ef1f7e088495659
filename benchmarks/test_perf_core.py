"""Perf-regression microbenchmarks for the simulation core.

Two layers, both emitted to ``BENCH_core.json`` (override the path with
``REPRO_BENCH_OUT``):

* **Event-loop throughput** — events/second through a bare
  :class:`~repro.sim.kernel.EventQueue`, one chain per scheduling path
  (heap-ordered future events, and same-tick FIFO fan-out).
* **End-to-end ``run_design``** — wall seconds for one full offload of the
  three reference workloads at the default design point, plus the speedup
  against the pre-optimization seconds recorded in
  ``BENCH_core_baseline.json``.  One cache-mode row (md-knn, 16 lanes on
  a single cache port: the datapath, cache, MSHR and TLB path) is
  reported without a gate.

Wall-clock numbers are machine-dependent, so the committed baseline also
records a pure-Python *calibration* rate measured on the baseline machine;
regression checks compare calibration-normalized ratios, which transfer
across hosts.  The >20% events/sec regression check always reports, but
only fails the suite when ``REPRO_PERF_ENFORCE=1`` (set in CI's perf-smoke
job) — unguarded wall-clock assertions on developer laptops cause more
noise than they catch.

Run directly with ``python -m pytest benchmarks/test_perf_core.py -s``.
"""

import json
import os
import time

import pytest

from repro.core.config import DesignPoint
from repro.core.soc import run_design
from repro.sim.kernel import EventQueue
from repro.workloads import cached_ddg, cached_trace

WORKLOADS = ("gemm-ncubed", "stencil-stencil2d", "fft-transpose")
#: Report-only cache-mode row: a port-starved design, so most shared
#: accesses contend for the one cache port.
CACHE_ROW = ("md-knn", "16l-1p",
             DesignPoint(lanes=16, mem_interface="cache", cache_ports=1))
OUT_PATH = os.environ.get("REPRO_BENCH_OUT", "BENCH_core.json")
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_core_baseline.json")
ENFORCE = os.environ.get("REPRO_PERF_ENFORCE") == "1"
REPS = max(1, int(os.environ.get("REPRO_BENCH_REPS", "3")))

# Shared accumulator: the final test serializes everything measured by the
# earlier ones (pytest runs a file's tests in definition order).
_results = {}


def _best(fn, reps=REPS):
    """Minimum wall seconds over ``reps`` runs (min rejects noise best)."""
    return min(fn() for _ in range(reps))


def calibration_rate(loops=200_000):
    """Machine-speed yardstick: pure-Python iterations/second.

    Used to normalize wall-clock numbers recorded on different hosts; the
    loop mirrors the interpreter-bound character of the simulator core.
    """

    def once():
        t0 = time.perf_counter()
        x = 0
        for i in range(loops):
            x += i & 7
        return time.perf_counter() - t0

    return loops / _best(once)


def test_event_queue_heap_throughput():
    """events/sec through the heap path: a self-rescheduling event chain."""
    n = 200_000

    def once():
        queue = EventQueue()
        state = [0]

        def tick():
            state[0] += 1
            if state[0] < n:
                queue.schedule(1, tick)

        queue.schedule(1, tick)
        t0 = time.perf_counter()
        while queue.step():
            pass
        elapsed = time.perf_counter() - t0
        assert state[0] == n
        return elapsed

    rate = n / _best(once)
    _results["heap_events_per_sec"] = rate
    print(f"\nheap events/sec: {rate:,.0f}")
    assert rate > 0


def test_event_queue_fifo_throughput():
    """events/sec through the same-tick FIFO path (zero-delay fan-out)."""
    n = 200_000

    def once():
        queue = EventQueue()
        state = [0]

        def tick():
            state[0] += 1
            if state[0] < n:
                queue.schedule(0, tick)

        queue.schedule(0, tick)
        t0 = time.perf_counter()
        while queue.step():
            pass
        elapsed = time.perf_counter() - t0
        assert state[0] == n
        return elapsed

    rate = n / _best(once)
    _results["fifo_events_per_sec"] = rate
    print(f"fifo events/sec: {rate:,.0f}")
    assert rate > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_design_end_to_end(workload):
    """Wall seconds for one full offload at the default design point."""
    # Warm the shared caches (trace, ddg, scheduler plans) so the number
    # reflects the steady-state cost a sweep pays per design point.
    cached_trace(workload)
    cached_ddg(workload)
    result = run_design(workload)
    assert result.accel_cycles > 0

    def once():
        t0 = time.perf_counter()
        run_design(workload)
        return time.perf_counter() - t0

    secs = _best(once)
    _results.setdefault("run_design_seconds", {})[workload] = secs
    print(f"\n{workload}: {secs:.4f} s/run")


def test_run_design_cache_mode():
    """Warm wall seconds for one cache-mode offload (reported, not gated)."""
    workload, label, design = CACHE_ROW
    result = run_design(workload, design)  # warm the shared caches
    assert result.accel_cycles > 0

    def once():
        t0 = time.perf_counter()
        run_design(workload, design)
        return time.perf_counter() - t0

    secs = _best(once)
    _results.setdefault("run_design_cache_seconds", {})[
        f"{workload}/{label}"] = secs
    print(f"\n{workload} cache {label}: {secs:.4f} s/run")


def test_emit_bench_json_and_check_regression():
    """Serialize everything measured above; flag events/sec regressions.

    Compares calibration-normalized events/sec against the committed
    baseline; a drop of more than 20% fails when ``REPRO_PERF_ENFORCE=1``.
    """
    calibration = calibration_rate()
    _results["calibration_ops_per_sec"] = calibration

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)

    # Speedup vs the recorded pre-optimization run_design seconds,
    # adjusted for machine speed via the calibration ratio.
    machine_scale = calibration / baseline["calibration_ops_per_sec"]
    speedups = {}
    for workload, secs in _results.get("run_design_seconds", {}).items():
        pre = baseline["pre_change_run_design_seconds"].get(workload)
        if pre:
            speedups[workload] = (pre / machine_scale) / secs
    _results["run_design_speedup_vs_pre_change"] = speedups

    ratios = {}
    for key in ("heap_events_per_sec", "fifo_events_per_sec"):
        if key in _results and baseline.get(key):
            now_norm = _results[key] / calibration
            base_norm = baseline[key] / baseline["calibration_ops_per_sec"]
            ratios[key] = now_norm / base_norm
    _results["events_per_sec_vs_baseline"] = ratios

    with open(OUT_PATH, "w") as fh:
        json.dump(_results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {OUT_PATH}")
    for key, ratio in ratios.items():
        print(f"{key}: {ratio:.2f}x of baseline")
    for workload, speedup in speedups.items():
        print(f"{workload}: {speedup:.2f}x vs pre-change")

    regressed = {k: r for k, r in ratios.items() if r < 0.8}
    if regressed:
        msg = (f"event throughput regressed >20% vs committed baseline: "
               + ", ".join(f"{k}={r:.2f}x" for k, r in regressed.items()))
        if ENFORCE:
            pytest.fail(msg)
        else:
            print(f"WARNING: {msg} (set REPRO_PERF_ENFORCE=1 to fail)")
