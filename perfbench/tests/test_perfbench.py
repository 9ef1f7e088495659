"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import ast
import json
import os
import shutil
import subprocess
import sys
import time

import repro.aladdin.modulo as modulo
import repro.workloads.registry as registry
from repro.core.soc import run_design
from repro.core.sweeppool import FailedPoint

from perfbench import hostspeed
from perfbench import run as bench
from perfbench import workloads
from perfbench.reference import Reference, digest, moved
from perfbench.spans import LOOP_BUCKETS, Tracer, bucket_of

ROOT = bench.ROOT


def _keys(plan):
    return [(kernel, [d.key() for d in designs]) for kernel, designs in plan]


def test_same_seed_gives_same_design_order_and_interleave():
    kernels = workloads.DSE_KERNELS["dse-dma"]
    grid = workloads.dma_grid()
    assert _keys(workloads.sweep_order(7, kernels, grid)) == \
        _keys(workloads.sweep_order(7, kernels, grid))
    assert _keys(workloads.sweep_order(7, kernels, grid)) != \
        _keys(workloads.sweep_order(8, kernels, grid))
    first = [(k, d.key()) for k, d in workloads.writer_order(7)]
    assert first == [(k, d.key()) for k, d in workloads.writer_order(7)]
    assert first != [(k, d.key()) for k, d in workloads.writer_order(8)]
    assert workloads.kernel_order(7) == workloads.kernel_order(7)
    # The seed only reorders: every run covers the same work.
    assert sorted(first) == sorted(
        (k, d.key()) for k, d in workloads.writer_order(8))


def test_writer_pool_points_are_distinct():
    pool = workloads.writer_pool()
    assert len({(k, d.key()) for k, d in pool}) == len(pool) == 108


def test_perturbed_result_is_reported_as_failed():
    design = workloads.dma_grid()[0]
    result = run_design("kmp", design)
    run = workloads.Run("t", reference=Reference.load())
    run.check_result(result)
    assert (run.attempted, run.failed) == (1, 0)
    result.accel_cycles += 1
    run.check_result(result)
    assert (run.attempted, run.failed) == (2, 1)
    run.check_result(FailedPoint("kmp", design, "RuntimeError()"))
    assert run.failed == 2


def test_digest_ignores_scan_order_conflict_counters():
    result = run_design("kmp", workloads.dma_grid()[0])
    before = digest(result)
    result.stats["spad_conflicts"] = -1
    assert digest(result) == before
    result.breakdown = dict(result.breakdown, other=-1)
    assert digest(result) != before


def test_regenerate_names_moved_entries():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert moved(old, new) == [("changed", "b"), ("removed", "c"),
                               ("added", "d")]


def test_printed_metric_names_are_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    # A real (one-point) traced and untraced sweep prints exactly them.
    grid = workloads.dma_grid()[:1]
    tracer = Tracer()
    run = workloads._dse("dse-dma", 1, 0.0, tracer, Reference.load(), None,
                         grid)
    assert run.failed == 0 and run.points == 3
    layers = bench.per_layer(run, tracer)
    assert set(layers) == set(bench.PER_LAYER)
    assert layers["loop.events"] > 0 and layers["soc.build_s"] > 0
    assert layers["model.dma_bytes"] > 0 and layers["loop.cache_s"] == 0
    run = workloads._dse("dse-dma", 1, 0.0, None, Reference.load(), None,
                         grid)
    assert set(bench.end_to_end(run)) == set(bench.END_TO_END)


def test_nominal_seconds_scale_by_the_speed_sampled_in_the_interval(
        monkeypatch):
    probes = iter([1.0, 0.5, 2.0])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "NOMINAL_PROBE_S", 1.0)
    speed = hostspeed.HostSpeed()        # speed 1.0
    mark = speed.mark()
    speed._sample()                      # speed 2.0
    speed._sample()                      # speed 0.5
    host, nominal = speed.since(mark)
    assert nominal == host * 1.25
    mark = speed.mark()
    host, nominal = speed.since(mark)    # no sample: the latest, 0.5
    assert nominal == host * 0.5


def test_sampling_runs_while_the_workload_does():
    with hostspeed.HostSpeed() as speed:
        mark = speed.mark()
        deadline = time.perf_counter() + 10 * hostspeed.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
        host, nominal = speed.since(mark)
    assert len(speed.speeds) > 3 and speed.spent > 0
    assert 0 < host < 10 * hostspeed.SAMPLE_PERIOD_S and nominal > 0


def test_probe_imports_nothing_from_the_simulator():
    with open(hostspeed.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules == {"gc", "heapq", "signal", "statistics", "time"}
    assert hostspeed.probe() > 0


def test_profiler_labels_map_to_buckets():
    assert bucket_of("DatapathScheduler._issue_pass") == "datapath"
    assert bucket_of(
        "CacheInterface._translated_access.<locals>.<lambda>") == "cache"
    assert bucket_of("AcceleratorTLB._finish_walk") == "tlb"
    assert bucket_of("SoC._after_fence") == "other"
    assert set(LOOP_BUCKETS) >= {"datapath", "cache", "tlb", "dma", "bus",
                                 "dram", "driver"}


def test_cold_start_starts_with_nothing_cached(monkeypatch):
    builds, graphs, plans = [], [], []
    real_get, real_ddg, real_plan = (registry.get_workload, registry.DDDG,
                                     modulo.IIPlan)

    def get_workload(name):
        builds.append(name)
        return real_get(name)

    def ddg(trace):
        graphs.append(trace)
        return real_ddg(trace)

    class CountingPlan(real_plan):
        def __init__(self, *args):
            plans.append(args)
            super().__init__(*args)

    # What a fresh interpreter starts with: no trace, graph or plan.
    monkeypatch.setattr(registry, "_TRACE_CACHE", {})
    monkeypatch.setattr(registry, "_DDG_CACHE", {})
    monkeypatch.setattr(registry, "get_workload", get_workload)
    monkeypatch.setattr(registry, "DDDG", ddg)
    monkeypatch.setattr(modulo, "IIPlan", CountingPlan)
    reference = Reference.load()
    run = workloads.Run("cold-modulo", reference=reference)
    for kernel in ("kmp", "spmv-crs"):
        run.check_result(workloads.cold_start(run, kernel))
    assert run.failed == 0 and run.points == 2
    # One trace, one graph and one II search per kernel: the SoC reused
    # the plan the benchmark timed.
    assert builds == ["kmp", "spmv-crs"]
    assert len(graphs) == len(plans) == 2


def test_cold_modulo_starts_each_kernel_in_its_own_process():
    tracer = Tracer()
    run = workloads.cold_modulo(3, 0.0, tracer=tracer,
                                reference=Reference.load(),
                                kernels=("kmp", "spmv-crs"))
    assert (run.failed, run.points, len(run.requests)) == (0, 2, 2)
    assert run.attempted == 4  # the II check and the digest, per kernel
    assert len(tracer.durations("modulo.plan")) == 2
    assert len(tracer.pairs) == 2 and tracer.loop_buckets()["datapath"][0]
    assert bench.peak_rss_mb() > 0


def test_reduction_check_catches_a_differing_response():
    results = [run_design("kmp", d) for d in workloads.dma_grid()[:4]]
    expected = workloads.expected_pareto(results)
    response = dict(expected, missing=0)
    assert workloads._same_reduction(response, expected)
    bad = json.loads(json.dumps(response))
    bad["edp_optimal"]["accel_cycles"] += 1
    assert not workloads._same_reduction(bad, expected)


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-dma",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
