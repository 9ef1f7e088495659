"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dse-dma --seed 1 --seconds 10 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, whose times are nominal
seconds (host seconds corrected for the host's speed, sampled while they
ran; see ``perfbench/hostspeed.py``).  ``--trace 1`` makes one traced
pass, prints the per-layer metrics in host seconds (with the tracing
overhead, measured by re-running a sample of the traced points untraced)
and dumps every span to ``.perfbench-out/``.  Simulated results are only
checked against ``perfbench/reference.json``, never timed.
"""

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "request_s_p50": "s",
    "request_s_p90": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  Layers a workload does
#: not exercise read 0.
PER_LAYER = {
    "trace.s": "s",
    "trace.nodes": "count",
    "ddg.s": "s",
    "assign.s": "s",
    "modulo.plan_s": "s",
    "modulo.plan_s_max": "s",
    "modulo.plans": "count",
    "soc.build_s": "s",
    "loop.s": "s",
    "loop.events": "count",
    "loop.us_per_event": "us",
    "loop.datapath_s": "s",
    "loop.datapath_events": "count",
    "sched.nodes_per_pass": "ratio",
    "loop.spad_s": "s",
    "loop.cache_s": "s",
    "loop.tlb_s": "s",
    "loop.dma_s": "s",
    "loop.bus_s": "s",
    "loop.dram_s": "s",
    "loop.driver_s": "s",
    "loop.other_s": "s",
    "soc.collect_s": "s",
    "sweep.engine_s": "s",
    "calibrate.fit_s": "s",
    "calibrate.predict_us": "us",
    "serve.hit_frac": "ratio",
    "serve.batches": "count",
    "serve.dispatches": "count",
    "serve.joins": "count",
    "serve.query_s_p50": "s",
    "serve.query_s_p90": "s",
    "serve.fast_points_per_s": "points/s",
    "store.get_many_s": "s",
    "model.accel_cycles": "cycles",
    "model.cache_hits": "count",
    "model.cache_misses": "count",
    "model.dma_bytes": "bytes",
    "model.bus_queue_ticks": "ticks",
    "model.ii_sum": "cycles",
    "model.spad_conflicts": "count",
    "model.reservation_conflicts": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def peak_rss_mb():
    """Peak RSS of this process or of its largest child (``cold-modulo``
    starts each kernel in a child)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def pin_to_one_cpu():
    """Run this process, its threads and its children on one CPU.

    The simulator is pure Python, so its threads take turns on the
    interpreter lock anyway.  Spread over two CPUs of a shared host, each
    hand-over of the lock waited for the other CPU to be scheduled, and
    ``serve-mixed``'s latencies spread by up to 48% between runs of the
    same work; on one CPU, by 2-5%."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end(run):
    from repro.obs.stats import percentile
    return {
        "setup_s": run.setup_s,
        "points_per_s": run.points / run.phase_s,
        "request_s_p50": percentile(run.requests, 50),
        "request_s_p90": percentile(run.requests, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run, tracer):
    values = dict.fromkeys(PER_LAYER, 0)
    reps = run.setup_reps
    plans = tracer.durations("modulo.plan")
    buckets = tracer.loop_buckets()
    events = sum(count for count, _secs in buckets.values())
    loop_s = tracer.seconds("loop")
    values.update({
        "trace.s": tracer.seconds("trace") / reps,
        "ddg.s": tracer.seconds("ddg") / reps,
        "assign.s": tracer.seconds("assign"),
        "modulo.plan_s": sum(plans),
        "modulo.plan_s_max": max(plans, default=0.0),
        "modulo.plans": len(plans),
        "soc.build_s": tracer.seconds("soc.build"),
        "loop.s": loop_s,
        "loop.events": events,
        "loop.us_per_event": 1e6 * loop_s / events if events else 0.0,
        "loop.datapath_events": buckets["datapath"][0],
        "soc.collect_s": tracer.seconds("soc.collect"),
    })
    for name, (_count, secs) in buckets.items():
        values[f"loop.{name}_s"] = secs
    passes = tracer.issue_passes()
    if passes:
        values["sched.nodes_per_pass"] = \
            tracer.model["sched_completed"] / passes
    for name in ("accel_cycles", "cache_hits", "cache_misses", "dma_bytes",
                 "bus_queue_ticks", "ii_sum", "spad_conflicts",
                 "reservation_conflicts"):
        values[f"model.{name}"] = tracer.model[name]
    values.update(run.layers)
    values["trace.overhead_frac"] = tracer.overhead_frac()
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.hostspeed import HostSpeed
    from perfbench.reference import Reference
    from perfbench.spans import Tracer
    from perfbench.workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    reference = Reference.load()
    tracer = Tracer() if args.trace else None
    with HostSpeed() as speed:
        run = WORKLOADS[args.workload](args.seed, args.seconds,
                                       tracer=tracer, reference=reference,
                                       speed=speed)
    if args.trace:
        values = per_layer(run, tracer)
        units = PER_LAYER
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(
            WORK_DIR, f"trace-{args.workload}-{args.seed}.json"),
            extra={"per_layer": values})
    else:
        values = end_to_end(run)
        units = END_TO_END
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload}: {run.points} exact points in "
          f"{run.phase_s:.3f} nominal s ({run.host_phase_s:.3f} host s), "
          f"{len(run.requests)} request samples, "
          f"{run.attempted} checks, {run.failed} failed")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
