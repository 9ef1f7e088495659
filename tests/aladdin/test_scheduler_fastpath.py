"""Hot-path machinery of the scheduler: memoized construction tables,
completion batching and the invariant it rests on, and the cache-port
refund on blocked accesses."""

import pytest

from repro.aladdin.accelerator import make_scratchpad
from repro.aladdin.ddg import DDDG
from repro.aladdin.ir import OP_INFO
from repro.aladdin.scheduler import (
    CacheInterface,
    DatapathScheduler,
    SpadInterface,
)
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes
from repro.errors import ConfigError, SimulationError
from repro.memory.bus import SystemBus
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDomain
from repro.memory.dram import DRAM
from repro.memory.fullempty import ReadyBits
from repro.memory.tlb import AcceleratorTLB
from repro.sim.clock import ACCEL_CLOCK_MHZ, ClockDomain
from repro.sim.kernel import Simulator

from tests.conftest import make_linear_trace


def build_spad_sched(trace, lanes=4, partitions=4, ready_bits=None):
    sim = Simulator()
    clock = ClockDomain(100)
    spad = make_scratchpad(trace, partitions)
    mem_if = SpadInterface(sim, clock, spad, ready_bits=ready_bits)
    sched = DatapathScheduler(sim, clock, DDDG(trace),
                              assign_lanes(trace, lanes), mem_if)
    sim.add_done_dependency(lambda: sched.done)
    return sim, sched, mem_if, spad


class TestConstructionMemoization:
    def test_spad_plans_shared_across_runs(self):
        trace = make_linear_trace(16)
        _sim1, _sched1, if1, _ = build_spad_sched(trace)
        _sim2, _sched2, if2, _ = build_spad_sched(trace)
        # Same trace + same design shape: the static plan list is the
        # very same object (memoized), while the per-run slot tables are
        # rebuilt against each run's scratchpad.
        assert if1._node_plan is if2._node_plan
        assert if1._plan_slots is not if2._plan_slots

    def test_different_partitions_do_not_share_plans(self):
        trace = make_linear_trace(16)
        _s1, _d1, if1, _ = build_spad_sched(trace, partitions=2)
        _s2, _d2, if2, _ = build_spad_sched(trace, partitions=8)
        assert if1._node_plan is not if2._node_plan

    def test_scheduler_node_arrays_shared_and_read_only(self):
        trace = make_linear_trace(16)
        ddg = DDDG(trace)
        sim = Simulator()
        clock = ClockDomain(100)
        spad = make_scratchpad(trace, 4)
        sched1 = DatapathScheduler(sim, clock, ddg, assign_lanes(trace, 4),
                                   SpadInterface(sim, clock, spad))
        sched2 = DatapathScheduler(sim, clock, ddg, assign_lanes(trace, 4),
                                   SpadInterface(sim, clock, spad))
        assert sched1._node_fu is sched2._node_fu
        assert sched1._node_ticks is sched2._node_ticks
        # Mutable countdowns are per-scheduler copies.
        assert sched1._round_remaining is not sched2._round_remaining
        assert sched1._indegree is not sched2._indegree

    def test_assign_lanes_memoized_per_lane_count(self):
        trace = make_linear_trace(16)
        assert assign_lanes(trace, 4) is assign_lanes(trace, 4)
        assert assign_lanes(trace, 4) is not assign_lanes(trace, 2)

    def test_repeated_runs_identical_cycles_and_stats(self):
        trace = make_linear_trace(32)
        outcomes = []
        for _ in range(2):
            sim, sched, _mem, spad = build_spad_sched(trace)
            sched.start()
            sim.run()
            outcomes.append((sched.compute_ticks, spad.accesses,
                             spad.conflicts, dict(spad.access_by_array)))
        assert outcomes[0] == outcomes[1]

    def test_ready_bit_stall_behavior_survives_memoization(self):
        trace = make_linear_trace(8)
        outcomes = []
        for _ in range(2):
            bits = ReadyBits("a", 8 * 4, granularity=16)
            sim, sched, _mem, _spad = build_spad_sched(
                trace, ready_bits={"a": bits})
            sched.start()
            sim.queue.run(until=10_000_000)
            bits.set_all()
            sim.run()
            outcomes.append((sched.done, bits.stalls, sched.compute_ticks))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is True
        assert outcomes[0][1] > 0


class TestSpadErrorPaths:
    def test_unknown_array_raises_config_error(self):
        trace = make_linear_trace(8)
        sim = Simulator()
        clock = ClockDomain(100)
        # Scratchpad holding none of the trace's arrays.
        empty = make_scratchpad(make_linear_trace(8), 4, kinds=())
        mem_if = SpadInterface(sim, clock, empty)
        sched = DatapathScheduler(sim, clock, DDDG(trace),
                                  assign_lanes(trace, 4), mem_if)
        sim.add_done_dependency(lambda: sched.done)
        sched.start()
        with pytest.raises(ConfigError, match="unknown scratchpad array"):
            sim.run()

    def test_out_of_range_ready_offset_raises_at_issue(self):
        trace = make_linear_trace(8)
        # Bits sized for half the array: the later loads fall outside.
        bits = ReadyBits("a", 4 * 4, granularity=16)
        bits.set_all()
        sim, sched, _mem, _spad = build_spad_sched(
            trace, ready_bits={"a": bits})
        sched.start()
        with pytest.raises(SimulationError, match="outside array"):
            sim.run()


class TestCompletionBatching:
    def test_same_cycle_same_latency_completions_all_land(self):
        # 8 independent iterations on 8 lanes: every load issues in the
        # same cycle with the same latency and shares one batch event.
        trace = make_linear_trace(8)
        sim, sched, _mem, spad = build_spad_sched(trace, lanes=8,
                                                  partitions=8)
        sched.start()
        sim.run()
        assert sched.done
        assert sched._completed == trace.num_nodes
        assert spad.accesses == 16  # 8 loads + 8 stores
        assert sched.issued_loads == 8
        assert sched.issued_stores == 8

    def test_mixed_latency_ops_complete_in_order(self):
        tb = TraceBuilder("mixed")
        tb.array("a", 8, 4, kind="input", init=[2.0] * 8)
        tb.array("out", 8, 4, kind="output")
        for i in range(8):
            with tb.iteration(i):
                x = tb.load("a", i)
                slow = tb.fdiv(x, 2.0)     # multi-cycle
                fast = tb.add(x, 1)        # single-cycle
                y = tb.fadd(slow, fast)
                tb.store("out", i, y)
        sim, sched, _mem, _spad = build_spad_sched(tb, lanes=4)
        sched.start()
        sim.run()
        assert sched.done
        assert sched._completed == tb.num_nodes
        assert sched._in_flight == 0

    def test_busy_interval_closes_after_batched_completions(self):
        trace = make_linear_trace(8)
        sim, sched, _mem, _spad = build_spad_sched(trace, lanes=8,
                                                   partitions=8)
        sched.start()
        sim.run()
        assert sched.busy.total_busy() > 0
        assert not sched.busy.busy  # every begin() was matched by an end()


class TestCachePortRefund:
    def _iface(self, mshrs):
        # 32 iterations: loads of "a" span two cache lines (word 16 is at
        # byte 64), so two loads can be genuinely independent misses.
        trace = make_linear_trace(32)
        sim = Simulator()
        clock = ClockDomain(100)
        dram = DRAM(sim)
        bus = SystemBus(sim, clock, 32, downstream=dram)
        domain = CoherenceDomain(sim, bus)
        cache = Cache(sim, clock, "accel", 4096, 64, 4, mshrs=mshrs)
        domain.register(cache)
        tlb = AcceleratorTLB(sim)
        addr_map = {name: 0x10_0000 + i * 4096
                    for i, name in enumerate(trace.arrays)}
        mem_if = CacheInterface(sim, clock, cache, tlb, addr_map,
                                phys_offset=0x1000_0000, ports=4)
        sched = DatapathScheduler(sim, clock, DDDG(trace),
                                  assign_lanes(trace, 4), mem_if)
        return sim, sched, mem_if, cache, tlb

    def test_blocked_access_refunds_port(self):
        sim, sched, mem_if, cache, tlb = self._iface(mshrs=1)
        # Warm the TLB so issue reaches the cache instead of parking.
        for node in range(len(mem_if._node_vaddr)):
            if mem_if._node_vaddr[node]:
                tlb.translate(mem_if._node_vaddr[node], mem_if.phys_offset,
                              lambda paddr: None)
        sim.run()
        mem_if.new_cycle(0)
        # Loads of array "a" sit at word stride 4; words 0 and 16 map to
        # different cache lines, so the second is a fresh miss that needs
        # the (single, occupied) MSHR and must be rejected.
        first = mem_if.issue(sched, 0, 0)     # load word 0: miss, takes MSHR
        assert first == "issued"
        assert mem_if._ports_used == 1
        blocked = mem_if.issue(sched, 48, 0)  # load word 16: MSHRs full
        assert blocked == "retry"
        assert cache.blocked == 1
        # The port consumed by the rejected attempt was handed back.
        assert mem_if._ports_used == 1

    def test_ports_still_capped_without_blocking(self):
        sim, sched, mem_if, cache, _tlb = self._iface(mshrs=16)
        mem_if.new_cycle(0)
        mem_if.perfect = True
        statuses = [mem_if.issue(sched, node, 0) for node in (0, 3, 6, 9, 12)]
        assert statuses[:4] == [mem_if._period_ticks] * 4
        assert statuses[4] == "retry"
        assert mem_if._ports_used == 4


class TestCompletionDelayInvariant:
    """Completion batching guards on event sequence numbers, and only
    events at least one tick away get one: the issue pass relies on every
    completion delay being positive."""

    def test_every_op_takes_at_least_one_cycle(self):
        short = {op: info.latency for op, info in OP_INFO.items()
                 if info.latency < 1}
        assert not short

    def test_one_accelerator_cycle_is_positive_ticks(self):
        assert ClockDomain(ACCEL_CLOCK_MHZ).cycles_to_ticks(1) > 0
