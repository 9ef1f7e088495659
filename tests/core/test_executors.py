"""The pluggable executor seam behind the sweep engine."""

import os
import subprocess
import sys
import warnings

import pytest

from repro.core.config import DesignPoint
from repro.core.executors import (
    ExecutionPlan,
    InlineExecutor,
    LocalPoolExecutor,
    RemoteExecutor,
    resolve_executor,
)
from repro.core.export import results_to_json
from repro.core.soc import run_design
from repro.core.sweep import dma_design_space, run_sweep
from repro.core.sweeppool import SweepMetrics, run_sweep_pool
from repro.errors import SweepError

WORKLOAD = "aes-aes"


def quick_designs(n=3):
    return dma_design_space("quick")[:n]


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its ``args`` on unpickling."""

    def __init__(self, head, tail):
        super().__init__(head + tail)


def _collecting_plan(designs, **kwargs):
    """A plan whose finish/fail callbacks record into plain lists."""
    finished = {}
    failed = {}
    plan = ExecutionPlan(
        WORKLOAD, designs,
        finish=lambda i, result, elapsed: finished.__setitem__(i, result),
        fail=lambda i, attempts, kind, error, tb:
            failed.__setitem__(i, (kind, error)),
        **kwargs)
    return plan, finished, failed


class TestExecutionPlan:
    def test_defaults_cover_every_index(self):
        designs = quick_designs(3)
        plan = ExecutionPlan(WORKLOAD, designs)
        assert plan.pending == [(0, 1), (1, 1), (2, 1)]

    def test_task_tuple_shape(self):
        designs = quick_designs(2)
        plan = ExecutionPlan(WORKLOAD, designs, faults={"x": 1})
        index, wl, design, cfg, attempt, faults = plan.task(1, 3)
        assert (index, wl, design, attempt) == (1, WORKLOAD, designs[1], 3)
        assert faults == {"x": 1}


class TestInlineExecutor:
    def test_matches_run_design(self):
        designs = quick_designs(2)
        plan, finished, failed = _collecting_plan(designs)
        leftover = InlineExecutor().execute(plan)
        assert leftover == []
        assert not failed
        expected = [run_design(WORKLOAD, d) for d in designs]
        got = [finished[i] for i in range(len(designs))]
        assert results_to_json(got) == results_to_json(expected)

    def test_custom_evaluate_callable(self):
        designs = quick_designs(2)
        calls = []

        def evaluate(task):
            index = task[0]
            calls.append(index)
            return index, f"result-{index}", 0.0

        plan, finished, _failed = _collecting_plan(designs)
        InlineExecutor(evaluate=evaluate).execute(plan)
        assert calls == [0, 1]
        assert finished == {0: "result-0", 1: "result-1"}

    def test_nonrobust_error_propagates_raw(self):
        designs = quick_designs(1)

        def evaluate(task):
            raise RuntimeError("boom")

        plan, _finished, failed = _collecting_plan(designs)
        with pytest.raises(RuntimeError, match="boom"):
            InlineExecutor(evaluate=evaluate).execute(plan)
        assert not failed

    def test_robust_error_goes_through_fail(self):
        designs = quick_designs(1)

        def evaluate(task):
            raise RuntimeError("boom")

        plan, _finished, failed = _collecting_plan(designs, robust=True)
        InlineExecutor(evaluate=evaluate).execute(plan)
        assert failed[0][0] == "error"
        assert "boom" in failed[0][1]

    def test_robust_retries_then_succeeds(self):
        designs = quick_designs(1)
        attempts = []

        def evaluate(task):
            attempts.append(task[4])
            if len(attempts) < 3:
                raise RuntimeError("flaky")
            return task[0], "ok", 0.0

        metrics = SweepMetrics()
        plan, finished, failed = _collecting_plan(
            designs, robust=True, retries=2, metrics=metrics)
        InlineExecutor(evaluate=evaluate).execute(plan)
        assert attempts == [1, 2, 3]
        assert finished == {0: "ok"}
        assert not failed
        assert metrics.retries == 2

    def test_robust_timeout_warns_unenforced(self):
        designs = quick_designs(1)
        plan, finished, _failed = _collecting_plan(
            designs, robust=True, timeout=60.0)
        with pytest.warns(RuntimeWarning, match="without timeout"):
            InlineExecutor().execute(plan)
        assert 0 in finished

    def test_resumes_from_first_attempt_offset(self):
        designs = quick_designs(1)
        seen = []

        def evaluate(task):
            seen.append(task[4])
            return task[0], "ok", 0.0

        plan, _finished, _failed = _collecting_plan(designs)
        plan.pending = [(0, 5)]  # e.g. handed back by a collapsed pool
        InlineExecutor(evaluate=evaluate).execute(plan)
        assert seen == [5]


class TestLocalPoolExecutor:
    def test_matches_inline(self):
        designs = quick_designs(3)
        plan, finished, _failed = _collecting_plan(designs)
        LocalPoolExecutor(jobs=2).execute(plan)
        serial = run_sweep(WORKLOAD, designs)
        got = [finished[i] for i in range(len(designs))]
        assert results_to_json(got) == results_to_json(serial)

    def test_fail_fast_reraises_the_point_exception(self):
        # Same as inline fail-fast: the raising point's own exception.
        with pytest.raises(RuntimeError, match="injected fault"):
            run_sweep_pool(WORKLOAD, quick_designs(), jobs=2,
                           mp_context="fork", fault="raise@1")

    def test_fail_fast_unpicklable_exception_is_sweep_error(
            self, monkeypatch):
        import repro.core.sweeppool as sweeppool

        def evaluate(task):
            raise TwoArgError("no way", " home")

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(sweeppool, "_evaluate_task", evaluate)
        with pytest.raises(SweepError, match="no way home") as excinfo:
            run_sweep_pool(WORKLOAD, quick_designs(1), jobs=2,
                           mp_context="fork")
        assert excinfo.value.failure.kind == "error"

    def test_fail_fast_dead_worker_is_worker_lost(self):
        # A worker that dies under a fail-fast sweep once hung the sweep
        # forever; run it in a child interpreter so a regression fails
        # on the timeout instead of hanging the suite.
        code = (
            "from repro.core.sweep import dma_design_space\n"
            "from repro.core.sweeppool import run_sweep_pool\n"
            "from repro.errors import SweepError\n"
            "try:\n"
            "    run_sweep_pool('aes-aes', dma_design_space('quick')[:3],\n"
            "                   jobs=2, mp_context='fork', fault='exit@0')\n"
            "except SweepError as exc:\n"
            "    print('kind=' + exc.failure.kind)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "kind=worker-lost"

    def test_effective_jobs_clamped_by_pending(self):
        pool = LocalPoolExecutor(jobs=8)
        assert pool.effective_jobs(3) == 3
        assert pool.effective_jobs(100) == 8
        assert pool.effective_jobs(0) == 1

    def test_availability_tracks_spawn_guard(self, monkeypatch):
        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "_spawn_can_reimport_main",
                            lambda: False)
        assert not LocalPoolExecutor(jobs=2, mp_context="spawn").available()
        assert LocalPoolExecutor(jobs=2, mp_context="fork").available()

    def test_empty_pending_is_a_noop(self):
        plan, finished, _failed = _collecting_plan(quick_designs(2))
        plan.pending = []
        assert LocalPoolExecutor(jobs=2).execute(plan) == []
        assert finished == {}


class TestRemoteExecutor:
    def test_stub_refuses_without_transport(self):
        plan, _finished, _failed = _collecting_plan(quick_designs(1))
        with pytest.raises(NotImplementedError, match="transport"):
            RemoteExecutor().execute(plan)

    def test_transport_callable_evaluates(self):
        designs = quick_designs(2)
        shipped = []

        def transport(workload, design, cfg):
            shipped.append(design)
            return run_design(workload, design, cfg)

        plan, finished, _failed = _collecting_plan(designs)
        RemoteExecutor(transport=transport).execute(plan)
        assert shipped == designs
        expected = [run_design(WORKLOAD, d) for d in designs]
        got = [finished[i] for i in range(len(designs))]
        assert results_to_json(got) == results_to_json(expected)

    def test_transport_failures_use_plan_semantics(self):
        designs = quick_designs(1)

        def transport(workload, design, cfg):
            raise ConnectionError("far end down")

        plan, _finished, failed = _collecting_plan(designs, robust=True)
        RemoteExecutor(transport=transport).execute(plan)
        assert failed[0][0] == "error"
        assert "far end down" in failed[0][1]


class TestResolveExecutor:
    def test_single_job_is_inline(self):
        assert isinstance(resolve_executor(jobs=1, npending=5),
                          InlineExecutor)

    def test_multi_job_is_pool(self):
        assert isinstance(resolve_executor(jobs=4, npending=5),
                          LocalPoolExecutor)

    def test_no_pending_is_inline(self):
        assert isinstance(resolve_executor(jobs=4, npending=0),
                          InlineExecutor)

    def test_robust_timeout_forces_pool_even_serial(self):
        # timeout needs a worker process to kill, so jobs=1 still pools.
        ex = resolve_executor(jobs=1, robust=True, timeout=5.0, npending=2)
        assert isinstance(ex, LocalPoolExecutor)

    def test_spawn_unsafe_falls_back_inline(self, monkeypatch):
        import repro.core.sweeppool as sweeppool
        monkeypatch.setattr(sweeppool, "_spawn_can_reimport_main",
                            lambda: False)
        assert isinstance(resolve_executor(jobs=4, npending=5),
                          InlineExecutor)


class TestSweepIntegration:
    def test_run_sweep_pool_accepts_explicit_executor(self):
        metrics = SweepMetrics()
        results = run_sweep_pool(WORKLOAD, quick_designs(2),
                                 executor=InlineExecutor(), metrics=metrics)
        serial = run_sweep(WORKLOAD, quick_designs(2))
        assert results_to_json(results) == results_to_json(serial)
        assert metrics.evaluated == 2

    def test_run_sweep_threads_executor_through(self):
        calls = []

        class SpyExecutor(InlineExecutor):
            def execute(self, plan):
                calls.append(len(plan.pending))
                return super().execute(plan)

        results = run_sweep(WORKLOAD, quick_designs(2),
                            executor=SpyExecutor())
        assert len(results) == 2
        assert calls == [2]

    def test_sweep_pareto_threads_executor_through(self):
        from repro.core.pareto import sweep_pareto
        calls = []

        class SpyExecutor(InlineExecutor):
            def execute(self, plan):
                calls.append(len(plan.pending))
                return super().execute(plan)

        frontier, best, results = sweep_pareto(
            WORKLOAD, quick_designs(3), executor=SpyExecutor())
        assert calls == [3]
        assert frontier and best in results

    def test_diagnostic_paths_reject_executor(self):
        from repro.sim.profiling import EventProfiler
        with pytest.raises(ValueError, match="executor"):
            run_sweep(WORKLOAD, quick_designs(1),
                      profiler=EventProfiler(), executor=InlineExecutor())

    def test_plain_run_sweep_uses_resolved_executor(self):
        # No knobs at all must still route through the executor seam and
        # stay bit-identical to the historical serial engine.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_sweep(WORKLOAD, quick_designs(2))
        assert len(results) == 2
        assert all(r.workload == WORKLOAD for r in results)


class TestDiagnosticSweeps:
    """Profiled, stats-dumping and checked sweeps run inline through the
    same seam and match a plain sweep."""

    def test_profiled_matches_plain(self):
        from repro.sim.profiling import EventProfiler
        profiler = EventProfiler()
        plain = run_sweep(WORKLOAD, quick_designs())
        profiled = run_sweep(WORKLOAD, quick_designs(), profiler=profiler)
        assert results_to_json(profiled) == results_to_json(plain)
        assert profiler.records

    def test_dump_stats_matches_plain_one_file_per_design(self, tmp_path):
        designs = quick_designs()
        plain = run_sweep(WORKLOAD, designs)
        dumped = run_sweep(WORKLOAD, designs, dump_stats=str(tmp_path))
        assert results_to_json(dumped) == results_to_json(plain)
        assert sorted(os.listdir(tmp_path)) == [
            f"{WORKLOAD}-{i:04d}.json" for i in range(len(designs))]

    def test_checked_matches_plain(self):
        plain = run_sweep(WORKLOAD, quick_designs())
        checked = run_sweep(WORKLOAD, quick_designs(), check=True)
        assert results_to_json(checked) == results_to_json(plain)

    def test_timeout_warns_unenforced(self):
        from repro.sim.profiling import EventProfiler
        with pytest.warns(RuntimeWarning, match="without timeout"):
            results = run_sweep(WORKLOAD, quick_designs(1),
                                profiler=EventProfiler(), timeout=60.0)
        assert len(results) == 1

    def test_runs_uncached(self, tmp_path):
        from repro.sim.profiling import EventProfiler
        metrics = SweepMetrics()
        run_sweep(WORKLOAD, quick_designs(1), profiler=EventProfiler(),
                  cache_dir=str(tmp_path), metrics=metrics)
        assert metrics.evaluated == 1
        assert os.listdir(tmp_path) == []
