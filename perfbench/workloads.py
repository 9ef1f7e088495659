"""The benchmark's four workloads.

Each workload function takes ``seed``, ``seconds``, an optional
:class:`~perfbench.spans.Tracer` and the correctness
:class:`~perfbench.reference.Reference`, and returns a :class:`Run`
holding what it measured.  The seed drives only the order of design
points and the interleave of service requests; kernel inputs are the
repository's fixed, name-seeded MachSuite data.  Every offload starts from
the paper's state: the CPU cache holds dirty inputs and the accelerator
cache starts empty.  Everything runs in this process (``jobs=1``), but
``cold-modulo`` starts each kernel in a child interpreter of its own.
End-to-end times are nominal seconds (:mod:`perfbench.hostspeed`): host
seconds corrected for the host's speed, sampled while they ran.

Why these four:

* ``dse-dma`` and ``dse-cache`` are the two halves of the Fig 8 sweep.
  The datapath drives the scratchpad, DMA and flush driver in the first
  and the cache, MSHRs, TLB and coherence in the second, so a change to
  one memory interface moves one workload and leaves the other flat.
* ``cold-modulo`` is the only workload where trace capture, DDDG build,
  lane assignment and II planning dominate; the sweeps run with warm
  traces and no modulo planning.
* ``serve-mixed`` covers the result store, the dispatcher and the fast
  tier, and shows whether warm reads slow down beside cold writes.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext

from repro import ALL_WORKLOADS, DesignPoint, cached_ddg, cached_trace
from repro.aladdin.ddg import DDDG
from repro.aladdin.modulo import plan_ii
from repro.aladdin.transforms import assign_lanes
from repro.core.calibrate import calibrate_workload
from repro.core.export import result_record
from repro.core.pareto import edp_optimal, pareto_frontier
from repro.core.soc import run_design
from repro.core.sweep import cache_design_space, dma_design_space, run_sweep
from repro.core.sweeppool import SweepMetrics, key_payload, sweep_key
from repro.obs.stats import percentile
from repro.serve.service import SweepService
from repro.workloads import get_workload

from perfbench.hostspeed import HostSpeed
from perfbench.reference import entry_key

#: Where runs keep scratch state (the service's result store, traced-run
#: dumps); inside the checkout, removed from git by ``.gitignore``.
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".perfbench-out")

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 11

DSE_KERNELS = {
    "dse-dma": ("stencil-stencil2d", "md-knn", "spmv-crs"),
    "dse-cache": ("md-knn", "spmv-crs", "fft-transpose"),
}

SERVE_KERNEL = "aes-aes"        # the reader's warm Fig-8 grid
FAST_KERNEL = "bfs-bulk"        # calibrated; answered by the fast tier
WRITER_KERNELS = ("kmp", "spmv-crs", "backprop")
FAST_REPS = 15
THREAD_TIMEOUT_S = 150.0


def dma_grid(density="quick"):
    """The DMA half of Fig 8: lanes x partitions under all four transfer
    classes (pipelined x triggered), with barrier pipelining."""
    return [d
            for pipelined in (False, True)
            for triggered in (False, True)
            for d in dma_design_space(density, pipelined=pipelined,
                                      triggered=triggered)]


def cache_grid():
    """The cache half of Fig 8: lanes x size x ports, 4-way, 64 B lines,
    stride prefetcher."""
    return cache_design_space("quick")


def fig8_grid():
    """The standard 100-point Fig-8 grid (60 DMA + 40 cache points)."""
    return dma_grid("standard") + cache_design_space("standard")


def writer_pool():
    """Cold single-point submits: the quick DMA grid of each writer kernel
    (108 distinct points, so ten or more lie beyond their p90)."""
    return [(kernel, d) for kernel in WRITER_KERNELS for d in dma_grid()]


def sweep_order(seed, kernels, grid):
    """``[(kernel, designs)]`` with both orders shuffled by ``seed``."""
    rng = random.Random(seed)
    order = list(kernels)
    rng.shuffle(order)
    plan = []
    for kernel in order:
        designs = list(grid)
        rng.shuffle(designs)
        plan.append((kernel, designs))
    return plan


def kernel_order(seed, kernels=ALL_WORKLOADS):
    order = list(kernels)
    random.Random(seed).shuffle(order)
    return order


def writer_order(seed):
    """The writer's request interleave over both kernels."""
    pool = writer_pool()
    random.Random(seed).shuffle(pool)
    return pool


class Run:
    """What one workload run measured, and its correctness tally."""

    def __init__(self, workload, tracer=None, reference=None, speed=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.speed = speed if speed is not None else HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = 0.0
        self.setup_reps = 1
        self.points = 0        # exact design points in the measured phase
        self.phase_s = 0.0     # nominal seconds of the measured phase
        self.host_phase_s = 0.0  # the same in host seconds
        self.requests = []     # nominal seconds of each user-visible request
        self.layers = {}       # per-layer values only this workload gives

    def span(self, name, tag=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, tag)

    def executor(self):
        return self.tracer.executor() if self.tracer is not None else None

    def evaluate(self, workload, design):
        if self.tracer is not None:
            return self.tracer.run_point(workload, design)
        return run_design(workload, design)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def check_result(self, result):
        self.check(self.reference.matches(result),
                   f"result differs from reference: {entry_key(result)}")


def _setup_traces(run, kernels):
    """Cold trace capture + DDDG build of ``kernels``, repeated
    :data:`SETUP_REPS` times; returns the median nominal seconds of one
    set-up and leaves the process-wide trace/DDDG caches warm for the
    SoCs."""
    times = []
    nodes = 0
    for _rep in range(SETUP_REPS):
        mark = run.speed.mark()
        nodes = 0
        for kernel in kernels:
            with run.span("trace", tag=kernel):
                trace = get_workload(kernel).build()
            with run.span("ddg", tag=kernel):
                DDDG(trace)
            nodes += trace.num_nodes
        times.append(run.speed.since(mark)[1])
    for kernel in kernels:
        cached_ddg(kernel)
    run.setup_reps = SETUP_REPS
    run.layers["trace.nodes"] = nodes
    return statistics.median(times)


def _dse(name, seed, seconds, tracer, reference, speed, grid):
    """Exact serial ``run_sweep`` passes over ``grid`` for the workload's
    kernels until ``seconds`` have been measured (one pass when traced).

    A request is one kernel's sweep, as ``repro sweep <kernel>`` asks for
    it."""
    run = Run(name, tracer, reference, speed)
    kernels = DSE_KERNELS[name]
    run.setup_s = _setup_traces(run, kernels)
    plan = sweep_order(seed, kernels, grid)
    engine_s = 0.0
    while True:
        for kernel, designs in plan:
            metrics = SweepMetrics()
            mark = run.speed.mark()
            start = time.perf_counter()
            with run.span("sweep", tag=kernel):
                results = run_sweep(kernel, designs, metrics=metrics,
                                    executor=run.executor())
            wall = time.perf_counter() - start
            host, nominal = run.speed.since(mark)
            run.host_phase_s += host
            run.phase_s += nominal
            # Both include the host-speed samples taken during the sweep.
            engine_s += wall - sum(metrics.point_seconds)
            run.points += len(designs)
            run.requests.append(nominal)
            for result in results:
                run.check_result(result)
        if tracer is not None or run.host_phase_s >= seconds:
            break
    run.layers["sweep.engine_s"] = engine_s
    if tracer is not None:
        tracer.sample_untraced()
    return run


def dse_dma(seed, seconds, tracer=None, reference=None, speed=None):
    return _dse("dse-dma", seed, seconds, tracer, reference, speed,
                dma_grid())


def dse_cache(seed, seconds, tracer=None, reference=None, speed=None):
    return _dse("dse-cache", seed, seconds, tracer, reference, speed,
                cache_grid())


#: Runs one :func:`cold_start` in a fresh interpreter.
COLD_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "cold.py")
COLD_TIMEOUT_S = 150.0


def cold_start(run, kernel):
    """``kernel`` from nothing cached to its first modulo-scheduled result:
    trace capture, DDDG, lane assignment, II planning, one offload.

    ``plan_ii`` is called with the arguments the ``SoC`` constructor uses
    for a DMA design, so the constructor hits the plan memo.  Returns the
    result; the nominal seconds go to ``run.requests``."""
    design = DesignPoint(pipelining="modulo", ii="auto")
    mem_slots = design.partitions * design.spad_ports
    mark = run.speed.mark()
    with run.span("kernel", tag=kernel):
        with run.span("trace", tag=kernel):
            trace = cached_trace(kernel)
        with run.span("ddg", tag=kernel):
            ddg = cached_ddg(kernel)
        with run.span("assign", tag=kernel):
            assignment = assign_lanes(trace, design.lanes)
        with run.span("modulo.plan", tag=kernel):
            plan = plan_ii(ddg, assignment, mem_slots_per_cycle=mem_slots,
                           ii=design.ii)
        result = run.evaluate(kernel, design)
    host, nominal = run.speed.since(mark)
    run.host_phase_s += host
    run.requests.append(nominal)
    run.points += 1
    run.layers["trace.nodes"] = trace.num_nodes
    run.check(result.stats.get("ii") == plan.ii,
              f"{kernel}: SoC ran ii={result.stats.get('ii')} but "
              f"plan_ii planned ii={plan.ii}")
    return result


def cold_modulo(seed, seconds, tracer=None, reference=None, speed=None,
                kernels=ALL_WORKLOADS):
    """Every kernel started cold, one after another, each in a fresh
    interpreter (``perfbench/cold.py`` runs :func:`cold_start`).

    In one shared process a kernel's cold time and the peak RSS depended
    on which kernels the seed had ordered before it (their leftovers on
    the heap); a fresh process per kernel is also what a user starting a
    kernel cold gets.  The interpreter's start and imports are not timed.
    A cold start happens once per kernel, so ``seconds`` does not repeat
    the pass; the whole pass is both the set-up and the measured phase.
    """
    del seconds
    run = Run("cold-modulo", tracer, reference, speed)
    nodes = 0
    for kernel in kernel_order(seed, kernels):
        argv = [sys.executable, COLD_SCRIPT, kernel,
                "--trace", "0" if tracer is None else "1"]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=COLD_TIMEOUT_S)
        if proc.returncode != 0:
            run.check(False, f"{kernel}: cold start exited with "
                             f"{proc.returncode}: {proc.stderr[-500:]}")
            continue
        child = json.loads(proc.stdout.splitlines()[-1])
        run.requests.append(child["request_s"])
        run.host_phase_s += child["host_s"]
        run.points += 1
        nodes += child["nodes"]
        run.attempted += child["attempted"]
        run.failed += child["failed"]
        run.problems.extend(child["problems"])
        key, value = child["entry"]
        run.check(run.reference.matches_entry(key, value),
                  f"result differs from reference: {key}")
        if tracer is not None:
            tracer.absorb(child["trace"])
    run.phase_s = sum(run.requests)
    run.setup_s = run.phase_s
    run.layers["trace.nodes"] = nodes
    return run


def _record(result):
    record = result_record(result)
    record["fidelity"] = getattr(result, "fidelity", "exact")
    return record


def expected_pareto(results):
    """The ``pareto`` reduction computed directly from ``results``, by the
    service's rule: only exact results count when there are any."""
    exact = [r for r in results if getattr(r, "fidelity", "exact") == "exact"]
    pool = exact or list(results)
    return {"frontier": [_record(r) for r in pareto_frontier(pool)],
            "edp_optimal": _record(edp_optimal(pool))}


def _same_reduction(response, expected):
    return (response["missing"] == 0
            and response["frontier"] == expected["frontier"]
            and response["edp_optimal"] == expected["edp_optimal"])


def _closed_loop(run, service, grid, pool):
    """Two client threads against one service until the writer finishes:
    a reader issuing warm Pareto queries back to back, and a writer
    issuing one cold single-point submit at a time."""
    done = threading.Event()
    queries, submits, errors = [], [], []

    def reader():
        try:
            while not done.is_set():
                start = time.perf_counter()
                with run.span("serve.query", tag=f"query-{len(queries)}"):
                    response = service.query("pareto", SERVE_KERNEL,
                                             designs=grid, evaluate=False)
                queries.append((time.perf_counter() - start, response))
        except Exception as exc:  # reported as a failed operation
            errors.append(f"reader: {exc!r}")

    def writer():
        try:
            for i, (kernel, design) in enumerate(pool):
                start = time.perf_counter()
                with run.span("serve.submit", tag=f"submit-{i}"):
                    results, report = service.submit(kernel, [design])
                submits.append((time.perf_counter() - start, results[0],
                                report))
        except Exception as exc:  # reported as a failed operation
            errors.append(f"writer: {exc!r}")
        finally:
            done.set()

    threads = [threading.Thread(target=reader, name="perfbench-reader"),
               threading.Thread(target=writer, name="perfbench-writer")]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    done.wait(THREAD_TIMEOUT_S)
    window = time.perf_counter() - start
    done.set()
    for thread in threads:
        thread.join(THREAD_TIMEOUT_S)
        run.check(not thread.is_alive(), f"{thread.name} did not finish")
    for error in errors:
        run.check(False, error)
    return window, queries, submits


def serve_mixed(seed, seconds, tracer=None, reference=None, speed=None):
    """An in-process ``SweepService(jobs=1)`` on a fresh store.

    Set-up calibrates the fast tier on ``bfs-bulk`` and warms the store
    with the 100-point Fig-8 grid of ``aes-aes``.  The measured phase is
    one writer pass over :func:`writer_pool` beside a reader of warm
    Pareto queries; a fixed pool keeps the work of every run the same, so
    ``seconds`` does not extend it.  Afterwards a ``fidelity="fast"``
    Pareto query on ``bfs-bulk`` is timed :data:`FAST_REPS` times.

    Host speed is sampled in the main thread only, so every request of
    the closed loop is scaled by the mean speed over the whole loop.  The
    dispatcher sleeps through its batch window once per batch (once per
    cold submit); sleeping is not host work, so that part is not scaled.
    """
    del seconds
    run = Run("serve-mixed", tracer, reference, speed)
    grid = fig8_grid()
    os.makedirs(WORK_DIR, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
    try:
        traces_s = _setup_traces(
            run, (SERVE_KERNEL, FAST_KERNEL) + WRITER_KERNELS)
        with SweepService(store, jobs=1, executor=run.executor()) as service:
            mark = run.speed.mark()
            with run.span("calibrate.fit", tag=FAST_KERNEL):
                calibration = calibrate_workload(
                    FAST_KERNEL, designs=grid, cache_dir=store,
                    executor=run.executor())
            fit_s, fit_nominal = run.speed.since(mark)
            mark = run.speed.mark()
            with run.span("serve.warm", tag=SERVE_KERNEL):
                warm, report = service.submit(SERVE_KERNEL, grid)
            run.setup_s = traces_s + fit_nominal + run.speed.since(mark)[1]
            for result in warm:
                run.check_result(result)
            run.check(report["dispatches"] == len(grid),
                      f"warm-up dispatched {report['dispatches']} of "
                      f"{len(grid)} cold points")
            expected = expected_pareto(warm)

            pool = writer_order(seed)
            before = service.metrics.snapshot()
            mark = run.speed.mark()
            window, queries, submits = _closed_loop(run, service, grid, pool)
            host, nominal = run.speed.since(mark)
            scale = nominal / host
            after = service.metrics.snapshot()
            dispatched = after["dispatches"] - before["dispatches"]
            idle = service.batch_window
            slept = idle * (after["batches"] - before["batches"])
            unique = {sweep_key(k, d) for k, d in pool}
            run.check(dispatched == len(unique),
                      f"{dispatched} dispatches for {len(unique)} unique "
                      f"cold points")
            for _lat, response in queries:
                run.check(_same_reduction(response, expected),
                          "warm pareto query differs from the direct "
                          "reduction of the same results")
            for _lat, result, report in submits:
                run.check_result(result)
                run.check(report["dispatches"] == 1,
                          f"cold submit was not dispatched: {report}")
            run.host_phase_s = window
            run.phase_s = slept + (window - slept) * scale
            run.points = len(submits)
            # The writer's cold submits are the requests: their latency
            # spreads smoothly.  Warm queries split into an idle mode (the
            # dispatcher sleeps through its batch window) and a contended
            # one, so their median jumps between modes from run to run;
            # they are reported per layer.
            run.requests = [idle + (lat - idle) * scale
                            for lat, _result, _report in submits]

            fast_times = []
            for rep in range(FAST_REPS):
                start = time.perf_counter()
                with run.span("serve.fast_query", tag=f"fast-{rep}"):
                    response = service.query("pareto", FAST_KERNEL,
                                             designs=grid, fidelity="fast")
                fast_times.append(time.perf_counter() - start)
            fast, _report = service.submit(FAST_KERNEL, grid, fidelity="fast")
            for result in fast:
                run.check_result(result)
            run.check(_same_reduction(response, expected_pareto(fast)),
                      "fast pareto query differs from the direct reduction "
                      "of the same results")

            warm_reads = [lat for lat, _response in queries]
            snap = service.metrics.snapshot()
            run.layers.update({
                "calibrate.fit_s": fit_s,
                "serve.query_s_p50": percentile(warm_reads, 50),
                "serve.query_s_p90": percentile(warm_reads, 90),
                "serve.fast_points_per_s":
                    len(grid) / statistics.median(fast_times),
                "serve.hit_frac": snap["hits"] / max(snap["points"], 1),
                "serve.batches": snap["batches"],
                "serve.dispatches": snap["dispatches"],
                "serve.joins": snap["joins"],
            })
            if tracer is not None:
                run.layers.update(_store_probes(service, calibration, grid))
                tracer.sample_untraced()
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return run


def _store_probes(service, calibration, grid, reps=10):
    """Direct timings of the store's batch read and the fast model."""
    keys = [sweep_key(SERVE_KERNEL, d) for d in grid]
    payloads = {k: key_payload(SERVE_KERNEL, d) for k, d in zip(keys, grid)}
    get_many, predict = [], []
    for _rep in range(reps):
        start = time.perf_counter()
        service.cache.get_many(keys, payloads)
        get_many.append(time.perf_counter() - start)
        start = time.perf_counter()
        for design in grid:
            calibration.predict(design)
        predict.append((time.perf_counter() - start) / len(grid))
    return {"store.get_many_s": statistics.median(get_many),
            "calibrate.predict_us": 1e6 * statistics.median(predict)}


WORKLOADS = {
    "dse-dma": dse_dma,
    "dse-cache": dse_cache,
    "cold-modulo": cold_modulo,
    "serve-mixed": serve_mixed,
}
