"""Design-space sweeps (the engine behind Figures 1, 8, 9, 10).

Generators produce the DMA-side and cache-side design spaces of Figure 3;
:func:`run_sweep` evaluates each point end to end.  Traces are cached per
workload (see :mod:`repro.workloads.registry`), so a sweep pays the trace
capture once and the scheduling per point.

``density`` trades sweep resolution for runtime: ``"full"`` is the paper's
complete cross-product, ``"standard"`` a representative subset (default),
``"quick"`` a coarse grid for tests.

Sweeps can run in parallel and/or memoized on disk — pass ``parallel=`` /
``cache_dir=`` to :func:`run_sweep` (engine: :mod:`repro.core.sweeppool`).
"""

import json
import os
import time

from repro.core.config import DesignPoint, PARAMETER_TABLE
from repro.core.soc import run_design

_LANES = PARAMETER_TABLE["datapath_lanes"]
_PARTS = PARAMETER_TABLE["scratchpad_partitions"]
_SIZES = PARAMETER_TABLE["cache_size_kb"]
_PORTS = PARAMETER_TABLE["cache_ports"]
_ASSOC = PARAMETER_TABLE["cache_assoc"]

_DENSITIES = {
    "quick": dict(lanes=(1, 4, 16), parts=(1, 4, 16), sizes=(4, 16),
                  ports=(1, 4), assoc=(4,)),
    "standard": dict(lanes=_LANES, parts=(1, 4, 16), sizes=(2, 8, 16, 32),
                     ports=(1, 4), assoc=(4,)),
    "full": dict(lanes=_LANES, parts=_PARTS, sizes=_SIZES, ports=_PORTS,
                 assoc=_ASSOC),
}


def _grid(density):
    try:
        return _DENSITIES[density]
    except KeyError:
        raise ValueError(
            f"density must be one of {sorted(_DENSITIES)}, got {density!r}")


def dma_design_space(density="standard", pipelined=True, triggered=True):
    """DMA/scratchpad design points: lanes x partitions."""
    g = _grid(density)
    return [
        DesignPoint(lanes=lanes, partitions=parts, mem_interface="dma",
                    pipelined_dma=pipelined, dma_triggered_compute=triggered)
        for lanes in g["lanes"]
        for parts in g["parts"]
    ]


def ii_design_space(base_design=None, iis=("auto", 1, 2, 4, 8, 16)):
    """Modulo-pipelining II axis around one base design.

    One barrier-mode anchor, one free-overlap ("off") anchor, then the
    base design under modulo scheduling at each requested initiation
    interval (``"auto"`` = the searched minimum).  This is the sweep
    behind the II-vs-EDP Pareto study: the anchors bound the axis (ii ->
    round length degenerates to barriers; unconstrained overlap is the
    throughput ceiling) and the forced IIs trace the trade-off between
    them.
    """
    base = base_design or DesignPoint()
    points = [base.replace(pipelining="barriers"),
              base.replace(pipelining="off")]
    seen = {p.key() for p in points}
    for ii in iis:
        d = base.replace(pipelining="modulo", ii=ii)
        if d.key() not in seen:
            seen.add(d.key())
            points.append(d)
    return points


def cache_design_space(density="standard"):
    """Cache design points: lanes x size x ports x assoc."""
    g = _grid(density)
    return [
        DesignPoint(lanes=lanes, partitions=min(lanes, 4),
                    mem_interface="cache", cache_size_kb=size,
                    cache_ports=ports, cache_assoc=assoc)
        for lanes in g["lanes"]
        for size in g["sizes"]
        for ports in g["ports"]
        for assoc in g["assoc"]
    ]


def run_sweep(workload, designs, cfg=None, progress=None, parallel=None,
              cache_dir=None, metrics=None, profiler=None, dump_stats=None,
              check=None, on_error="raise", retries=0, retry_backoff=0.0,
              timeout=None, resume=False, fault=None, fidelity="exact",
              calibration=None, guard_band=None, executor=None,
              write_manifest=True):
    """Evaluate every design point; returns the list of RunResults.

    ``parallel`` fans the evaluations out over a worker pool (``N`` workers;
    ``0`` means one per CPU), ``cache_dir`` memoizes results on disk, and
    ``metrics`` (a :class:`repro.core.sweeppool.SweepMetrics`) collects
    evaluated/cached counts and wall times — see :mod:`repro.core.sweeppool`.
    Results are always in the order of ``designs``, and the parallel/cached
    paths produce results identical to the serial one.

    Robustness (see :func:`repro.core.sweeppool.run_sweep_pool` for the
    full semantics): ``on_error="collect"`` turns a failing point into a
    :class:`~repro.core.sweeppool.FailedPoint` result instead of aborting
    the sweep, ``retries``/``retry_backoff`` re-issue transient failures,
    ``timeout`` bounds each point's wall-clock seconds (worker-process
    engines only), and ``resume`` re-evaluates only the missing/failed
    points of a previously interrupted cached sweep.  ``fault`` is the
    deterministic fault-injection spec (default ``$REPRO_SWEEP_FAULT``).

    ``profiler`` (an :class:`repro.sim.profiling.EventProfiler`) accumulates
    per-component event costs over every design point.  ``dump_stats``
    names a directory that receives one full stats-registry JSON per
    design point (``<workload>-NNNN.json``; see :mod:`repro.obs.stats`).
    Either option runs inline and uncached, through an
    :class:`~repro.core.executors.InlineExecutor` whose evaluator reports
    into the caller's profiler and registries: worker processes could
    not, and cached points run no events at all.  Such a sweep still
    fills ``metrics`` and honours ``on_error``/``retries``; a ``timeout``
    warns and runs unbounded.

    ``check`` enables runtime correctness checking per point (see
    :mod:`repro.check`).  An explicit checker likewise runs inline — its
    accumulated counters live in this process.  ``None`` defers to
    ``$REPRO_CHECK``, which worker processes inherit, so the parallel
    engine still checks every point when the variable is set.

    ``fidelity`` selects the simulation tier (see
    :mod:`repro.core.calibrate`): ``"exact"`` (default) is the
    event-driven co-simulation for every point; ``"fast"`` predicts every
    point with the calibrated analytic model and runs no simulation;
    ``"auto"`` triages — fast predictions prune the space and only the
    candidate Pareto frontier is confirmed exactly.  The fast tiers need
    a :class:`~repro.core.calibrate.Calibration` — pass ``calibration=``
    or a ``cache_dir`` holding a persisted one (``repro calibrate``).
    ``guard_band`` overrides the calibration's validated error bound in
    ``auto`` pruning.

    ``executor`` overrides *where* pending points evaluate (any
    :class:`repro.core.executors.Executor`); sweeps route through the
    executor interface by default (see
    :func:`repro.core.executors.resolve_executor`), except the
    profiled / stats-dumping / checked paths, which run inline in this
    process and therefore reject an explicit executor.
    ``write_manifest=False`` skips the per-sweep checkpoint manifest
    (results still flush through the cache; see
    :func:`repro.core.sweeppool.run_sweep_pool`).
    """
    if fidelity not in ("exact", "fast", "auto"):
        raise ValueError(f'fidelity must be "exact", "fast" or "auto", '
                         f'got {fidelity!r}')
    diagnostic = profiler is not None or dump_stats is not None or check
    if diagnostic and executor is not None:
        raise ValueError(
            "profiler/dump_stats/check sweeps run in-process (their "
            "accumulators live in this interpreter) and cannot be "
            "dispatched through an executor")
    if fidelity != "exact":
        if diagnostic:
            raise ValueError(
                "profiler/dump_stats/check require fidelity='exact': the "
                "fast tier runs no events to profile, dump or check")
        from repro.core.calibrate import run_sweep_tiered
        return run_sweep_tiered(workload, designs, cfg, fidelity=fidelity,
                                calibration=calibration,
                                guard_band=guard_band, progress=progress,
                                parallel=parallel, cache_dir=cache_dir,
                                metrics=metrics, on_error=on_error,
                                retries=retries,
                                retry_backoff=retry_backoff,
                                timeout=timeout, resume=resume, fault=fault,
                                executor=executor,
                                write_manifest=write_manifest)
    from repro.core.sweeppool import run_sweep_pool
    if diagnostic:
        from repro.core.executors import InlineExecutor
        executor = InlineExecutor(
            evaluate=_diagnostic_evaluator(profiler, dump_stats, check))
        cache_dir, resume = None, False
    return run_sweep_pool(workload, designs, cfg,
                          jobs=1 if parallel is None else parallel,
                          cache_dir=cache_dir, progress=progress,
                          metrics=metrics, on_error=on_error,
                          retries=retries, retry_backoff=retry_backoff,
                          timeout=timeout, resume=resume, fault=fault,
                          executor=executor, write_manifest=write_manifest)


def _diagnostic_evaluator(profiler, dump_stats, check):
    """The in-process task runner of profiled / stats-dumping / checked
    sweeps: :func:`repro.core.sweeppool._evaluate_task` plus the caller's
    profiler and checker, and one stats JSON per successful point."""
    from repro.core.sweeppool import inject_fault
    from repro.obs.stats import StatRegistry
    if dump_stats is not None:
        os.makedirs(dump_stats, exist_ok=True)

    def evaluate(task):
        index, workload, design, cfg, attempt, faults = task
        if faults:
            inject_fault(faults, index, attempt)
        registry = StatRegistry() if dump_stats is not None else None
        start = time.perf_counter()
        result = run_design(workload, design, cfg, profiler=profiler,
                            registry=registry, check=check)
        elapsed = time.perf_counter() - start
        if registry is not None:
            payload = registry.to_json()
            payload["design"] = repr(design)
            path = os.path.join(dump_stats, f"{workload}-{index:04d}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return index, result, elapsed

    return evaluate
