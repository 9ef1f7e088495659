"""Modulo-scheduled loop pipelining: II planning and dynamic enforcement."""

import pytest

from repro.aladdin.accelerator import Accelerator
from repro.aladdin.ddg import DDDG
from repro.aladdin.modulo import (
    _has_positive_cycle, _rec_mii, _recurrence_components, plan_ii)
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes
from repro.core.config import DesignPoint
from repro.core.soc import run_design

from tests.conftest import make_linear_trace, make_serial_trace


def _plan(tb, lanes, mem_slots=None, ii="auto", fu_per_lane=None):
    return plan_ii(DDDG(tb), assign_lanes(tb, lanes),
                   fu_per_lane=fu_per_lane,
                   mem_slots_per_cycle=mem_slots, ii=ii)


class TestRecMII:
    """Recurrence bound: max cycle ratio over folded cross-round edges."""

    def test_no_cross_round_cycle_means_one(self):
        assert _rec_mii(2, {(0, 1, 0): 3}) == 1

    def test_simple_recurrence(self):
        # 0 ->(lat 3) 1 ->(lat 3, distance 1) 0: 6 cycles per round trip.
        assert _rec_mii(2, {(0, 1, 0): 3, (1, 0, 1): 3}) == 6

    def test_distance_two_halves_the_bound(self):
        assert _rec_mii(2, {(0, 1, 0): 4, (1, 0, 2): 4}) == 4

    def test_positive_cycle_detection(self):
        components = _recurrence_components(
            2, {(0, 1, 0): 3, (1, 0, 1): 3})
        assert _has_positive_cycle(components, 5)
        assert not _has_positive_cycle(components, 6)

    def test_accumulator_trace(self):
        # 8 iterations on 4 lanes: each round chains 4 fadds (latency 3)
        # into the next round's accumulator -> RecMII = 12.
        plan = _plan(make_serial_trace(8), 4)
        assert plan.rec_mii == 12
        assert plan.ii >= 12


class TestResMII:
    def test_memory_slots_bound(self):
        # 4 lanes x (1 load + 1 store) = 8 memory ops per round; each
        # lane's own mem-issue port (width 1, 2 ops) floors ResMII at 2.
        tb = make_linear_trace(64)
        assert _plan(tb, 4, mem_slots=4).res_mii == 2
        assert _plan(tb, 4, mem_slots=1).res_mii == 8
        # Widening the per-lane port exposes the aggregate-slot bound.
        assert _plan(tb, 4, mem_slots=8,
                     fu_per_lane={"mem": 2}).res_mii == 1
        assert _plan(tb, 4, mem_slots=4,
                     fu_per_lane={"mem": 2}).res_mii == 2

    def test_fu_class_bound(self):
        # Two dependent fmuls per iteration on every lane: the per-lane
        # FP-multiplier row (width 1) forces II >= 2.
        tb = TraceBuilder("twomul")
        tb.array("a", 8, 4, kind="input", init=[1.0] * 8)
        tb.array("out", 8, 4, kind="output")
        for i in range(8):
            with tb.iteration(i):
                x = tb.load("a", i)
                y = tb.fmul(x, 2.0)
                z = tb.fmul(y, 3.0)
                tb.store("out", i, z)
        plan = _plan(tb, 2, mem_slots=16)
        assert plan.res_mii >= 2

    def test_wider_fu_relaxes_bound(self):
        tb = TraceBuilder("twomul2")
        tb.array("a", 8, 4, kind="input", init=[1.0] * 8)
        tb.array("out", 8, 4, kind="output")
        for i in range(8):
            with tb.iteration(i):
                x = tb.load("a", i)
                y = tb.fmul(x, 2.0)
                z = tb.fmul(y, 3.0)
                tb.store("out", i, z)
        narrow = _plan(tb, 2, mem_slots=16)
        wide = _plan(tb, 2, mem_slots=16,
                     fu_per_lane={"fmul": 2, "mem": 2})
        assert wide.res_mii < narrow.res_mii


class TestPlanII:
    def test_auto_at_least_lower_bounds(self):
        plan = _plan(make_linear_trace(64), 4, mem_slots=4)
        assert plan.ii >= max(plan.rec_mii, plan.res_mii)
        assert plan.ii <= plan.round_length

    def test_forced_ii_verbatim_with_bounds_reported(self):
        plan = _plan(make_linear_trace(64), 4, mem_slots=4, ii=5)
        assert plan.ii == 5
        assert plan.rec_mii >= 1
        assert plan.res_mii >= 1

    def test_forced_ii_below_one_rejected(self):
        with pytest.raises(ValueError, match="ii must be >= 1"):
            _plan(make_linear_trace(64), 4, mem_slots=4, ii=0)

    def test_single_round_degenerates_to_no_gating(self):
        plan = _plan(make_linear_trace(4), 4)
        assert plan.num_rounds == 1
        assert plan.ii == 0

    def test_lanes_exceed_iterations(self):
        plan = _plan(make_linear_trace(4), 16)
        assert plan.num_rounds == 1
        assert plan.ii == 0

    def test_all_serial_trace_has_no_rounds(self):
        tb = TraceBuilder("flat")
        tb.array("a", 4, 4, kind="input", init=[0.0] * 4)
        v = tb.load("a", 0)
        tb.fadd(v, 1.0)
        plan = _plan(tb, 4)
        assert plan.num_rounds == 0
        assert plan.ii == 0

    def test_memoized_per_parameters(self):
        tb = make_linear_trace(64)
        ddg = DDDG(tb)
        a = assign_lanes(tb, 4)
        p1 = plan_ii(ddg, a, mem_slots_per_cycle=4)
        p2 = plan_ii(ddg, a, mem_slots_per_cycle=4)
        p3 = plan_ii(ddg, a, mem_slots_per_cycle=8)
        assert p1 is p2
        assert p3 is not p1


class TestIsolatedModulo:
    """Dynamic enforcement in Accelerator.run_isolated."""

    def test_ii_at_round_length_reproduces_barriers_bitwise(self):
        tb = make_linear_trace(64)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        plan = _plan(tb, 4, mem_slots=4)
        forced = Accelerator(tb, 4, 4, pipelining="modulo",
                             ii=plan.round_length).run_isolated()
        assert forced.ticks == barrier.ticks
        assert forced.cycles == barrier.cycles

    def test_auto_between_off_and_barriers(self):
        tb = make_linear_trace(64)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        off = Accelerator(tb, 4, 4, pipelining="off").run_isolated()
        modulo = Accelerator(tb, 4, 4, pipelining="modulo").run_isolated()
        assert off.cycles <= modulo.cycles <= barrier.cycles
        assert modulo.cycles < barrier.cycles  # overlap actually happens

    def test_cycles_monotone_in_ii(self):
        tb = make_linear_trace(64)
        cycles = [Accelerator(tb, 4, 4, pipelining="modulo",
                              ii=ii).run_isolated().cycles
                  for ii in (1, 2, 4, 6)]
        assert cycles == sorted(cycles)

    def test_dependences_respected_under_aggressive_ii(self):
        # Forcing II far below RecMII must not break the loop-carried
        # chain: the gate releases rounds early, but dataflow still
        # serializes the accumulator.
        tb = make_serial_trace(16)
        res = Accelerator(tb, 4, 4, pipelining="modulo",
                          ii=1).run_isolated()
        assert res.cycles >= 16 * 3  # 16 fadds of latency 3

    def test_reservation_conflicts_counted(self):
        # II=1 releases rounds every cycle; each lane's FP multiplier
        # (latency 4, width 1) is still busy, so issue passes must
        # requeue and count the conflicts.  Barrier mode never overlaps
        # rounds, so it records none.
        tb = make_linear_trace(64)
        contended = Accelerator(tb, 4, 4, pipelining="modulo",
                                ii=1).run_isolated()
        barrier = Accelerator(tb, 4, 4).run_isolated()
        assert contended.scheduler.reservation_conflicts > 0
        assert barrier.scheduler.reservation_conflicts == 0

    def test_single_round_modulo_matches_barriers(self):
        tb = make_linear_trace(4)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        modulo = Accelerator(tb, 4, 4, pipelining="modulo").run_isolated()
        assert modulo.ticks == barrier.ticks

    def test_stats_registered(self):
        from repro.obs.stats import StatRegistry
        tb = make_linear_trace(64)
        accel = Accelerator(tb, 4, 4, pipelining="modulo")
        res = accel.run_isolated()
        registry = StatRegistry()
        res.scheduler.reg_stats(registry, "accel0.sched")
        doc = registry.to_json()
        assert doc["accel0.sched.ii"] == accel.ii_plan.ii
        assert doc["accel0.sched.rec_mii"] == accel.ii_plan.rec_mii
        assert doc["accel0.sched.res_mii"] == accel.ii_plan.res_mii
        assert doc["accel0.sched.reservation_conflicts"] >= 0

    def test_completes_on_real_workloads(self):
        from repro.workloads import cached_trace
        # RecMII sets the II of backprop, bfs-queue and sort-radix at 4
        # lanes.
        for name in ("aes-aes", "gemm-ncubed", "backprop", "bfs-queue",
                     "sort-radix"):
            accel = Accelerator(cached_trace(name), 4, 4,
                                pipelining="modulo")
            res = accel.run_isolated()
            assert res.cycles > 0, name
            assert accel.ii_plan.ii >= accel.ii_plan.rec_mii, name


class TestInSoC:
    def test_modulo_design_reports_ii_stats(self):
        design = DesignPoint(lanes=4, partitions=4, pipelining="modulo")
        result = run_design("gemm-ncubed", design)
        assert result.stats["ii"] >= max(result.stats["rec_mii"],
                                         result.stats["res_mii"])
        assert result.stats["reservation_conflicts"] >= 0

    def test_modulo_no_slower_than_barriers(self):
        base = DesignPoint(lanes=4, partitions=4)
        modulo = base.replace(pipelining="modulo")
        r_base = run_design("gemm-ncubed", base)
        r_mod = run_design("gemm-ncubed", modulo)
        assert r_mod.total_ticks <= r_base.total_ticks

    def test_barrier_design_reports_no_ii_stats(self):
        result = run_design("gemm-ncubed", DesignPoint(lanes=4))
        assert "ii" not in result.stats

    def test_works_with_cache_interface(self):
        design = DesignPoint(lanes=4, mem_interface="cache",
                             pipelining="modulo")
        result = run_design("spmv-crs", design)
        assert result.total_ticks > 0
        assert result.stats["ii"] >= 0

    def test_forced_ii_wired_through(self):
        fast = run_design("gemm-ncubed",
                          DesignPoint(pipelining="modulo", ii=1))
        slow = run_design("gemm-ncubed",
                          DesignPoint(pipelining="modulo", ii=64))
        assert fast.stats["ii"] == 1
        assert slow.stats["ii"] == 64
        assert fast.total_ticks <= slow.total_ticks
