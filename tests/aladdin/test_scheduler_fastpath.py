"""Hot-path machinery of the scheduler: memoized construction tables,
completion batching and the invariant it rests on, the cache-port refund
on blocked accesses, and cache-port saturation in the issue pass."""

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

    def test_ready_column_tables_allocate_nothing_per_run(self):
        # DMA mode: the column table is the memoized FU table itself.
        trace = make_linear_trace(16)
        _sim, sched, _mem, _spad = build_spad_sched(trace)
        assert sched._node_col is sched._node_fu
        # Cache mode: one table per trace and cache shape, shared by runs.
        tb = TestCachePortSaturation.two_mem_slots_trace()
        _s1, sched1, _m1 = build_cache_sched(tb, lanes=2, ports=1)
        _s2, sched2, _m2 = build_cache_sched(tb, lanes=4, ports=2)
        assert sched1._node_col is sched2._node_col
        assert sched1._node_col is not sched1._node_fu

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
        hits = tlb.hits
        # Loads of array "a" sit at word stride 4; words 0 and 16 map to
        # different cache lines, so the second is a fresh miss that needs
        # the (single, occupied) MSHR and must be rejected.
        first = mem_if.issue(sched, 0, 0)     # load word 0: miss, takes MSHR
        assert first == "issued"
        assert mem_if._ports_used == 1
        assert tlb.hits == hits + 1
        blocked = mem_if.issue(sched, 48, 0)  # load word 16: MSHRs full
        assert blocked == "retry"
        assert cache.blocked == 1
        # The rejected attempt holds no port.
        assert mem_if._ports_used == 1
        # The rejected attempt still translated: TLB energy and the TLB
        # miss rate count it.
        assert tlb.hits == hits + 2

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


def build_cache_sched(tb, lanes, ports, fu_per_lane=None, internal=()):
    """A cache-mode scheduler over ``tb`` whose shared accesses all hit:
    the TLB is warm and every shared line is resident, so issue timing
    depends only on FU, cache-port and bank arbitration."""
    sim = Simulator()
    clock = ClockDomain(100)
    dram = DRAM(sim)
    bus = SystemBus(sim, clock, 32, downstream=dram)
    domain = CoherenceDomain(sim, bus)
    cache = Cache(sim, clock, "accel", 4096, 64, 4, mshrs=16)
    domain.register(cache)
    tlb = AcceleratorTLB(sim)
    shared = [name for name in tb.arrays if name not in internal]
    addr_map = {name: 0x10_0000 + i * 4096 for i, name in enumerate(shared)}
    phys_offset = 0x1000_0000
    spad = make_scratchpad(tb, 2, kinds=("internal",)) if internal else None
    mem_if = CacheInterface(sim, clock, cache, tlb, addr_map, phys_offset,
                            ports=ports, spad=spad, internal_arrays=internal)
    sched = DatapathScheduler(sim, clock, DDDG(tb), assign_lanes(tb, lanes),
                              mem_if, fu_per_lane=fu_per_lane,
                              pipelining="off")
    for name in shared:
        vaddr = addr_map[name]
        tlb.translate(vaddr, phys_offset, lambda paddr: None)
        cache.preload(vaddr + phys_offset, tb.arrays[name].size_bytes)
    sim.run()
    sim.add_done_dependency(lambda: sched.done)
    return sim, sched, mem_if


def run_recording(sim, sched, mem_if):
    """Run to completion; return ``{node: last issue tick}`` and the
    ``(node, ports spent)`` of every ``CacheInterface.issue`` call."""
    issued = {}
    calls = []
    issue_pass = sched._issue_pass
    mem_issue = mem_if.issue

    def recording_pass():
        before = {n for queue in sched._ready for n in queue}
        issue_pass()
        after = {n for queue in sched._ready for n in queue}
        for node in before - after:
            issued[node] = sim.now

    def recording_issue(s, node, cycle):
        calls.append((node, mem_if._ports_used >= mem_if.ports))
        return mem_issue(s, node, cycle)

    sched._issue_pass = recording_pass
    mem_if.issue = recording_issue
    sched.start()
    sim.run()
    assert sched.done
    return issued, calls


def issue_cycles(sched, issued):
    """Per-node issue cycle, counted from the scheduler's start."""
    return [(issued[node] - sched.start_tick) // sched.clock.period
            for node in sorted(issued)]


# Per-node issue cycles and reservation conflicts of the corner cases
# below, captured from the full-scan issue pass.
TWO_SLOTS_CYCLES = [
    0, 1, 2, 3, 0, 2, 4, 5, 6, 8, 9, 8, 10, 11, 13, 0, 2, 12, 15, 16,
    18, 19, 4, 5, 6, 7, 1, 3, 7, 9, 10, 11, 12, 14, 15, 16, 17, 1, 3,
    17, 19, 20, 21, 22,
]
TWO_SLOTS_CONFLICTS = 7
MIXED_CYCLES = [
    0, 1, 2, 3, 2, 4, 5, 8, 1, 0, 3, 2, 3, 5, 6, 9, 4, 5, 6, 7, 6, 8, 9,
    10, 5, 4, 7, 6, 7, 9, 10, 11,
]
MIXED_CONFLICTS = 17
SATURATES_CYCLES = [
    0, 0, 1, 1, 0, 2, 2, 3, 7, 8, 12, 6, 14, 4, 16, 17, 8, 0, 9, 1, 0,
    10, 2, 11, 11, 13, 14, 6, 16, 4, 18, 19, 4, 3, 5, 4, 1, 6, 5, 7, 10,
    11, 13, 9, 15, 6, 17, 18, 12, 3, 13, 4, 1, 14, 5, 15, 15, 17, 19, 7,
    20, 6, 21, 22,
]
SATURATES_CONFLICTS = 50


class TestCachePortSaturation:
    """The issue pass stops scanning shared-array nodes once the cycle's
    cache ports are spent.  Issue ticks and ``reservation_conflicts`` were
    captured from the full scan, which called ``CacheInterface.issue`` for
    every such node and got ``"retry"`` back."""

    @staticmethod
    def two_mem_slots_trace():
        # Each iteration: four independent shared loads and two ALU roots.
        tb = TraceBuilder("two-slots")
        tb.array("a", 16, 4, kind="input", init=list(range(16)))
        tb.array("out", 4, 4, kind="output")
        for i in range(4):
            with tb.iteration(i):
                xs = [tb.load("a", 4 * i + k) for k in range(4)]
                c = tb.add(tb.add(i, 1), 2)
                s = tb.add(tb.add(xs[0], xs[1]), tb.add(xs[2], xs[3]))
                tb.store("out", i, tb.add(s, c))
        return tb

    @staticmethod
    def mixed_memory_trace():
        # Shared loads interleaved with loads of an internal array, which
        # stay in a scratchpad and issue after the cache ports run out.
        tb = TraceBuilder("mixed-mem")
        tb.array("a", 8, 4, kind="input", init=list(range(8)))
        tb.array("tmp", 8, 4, kind="internal", init=list(range(8)))
        tb.array("out", 4, 4, kind="output")
        for i in range(4):
            with tb.iteration(i):
                x = tb.load("a", 2 * i)
                t = tb.load("tmp", 2 * i)
                y = tb.load("a", 2 * i + 1)
                u = tb.load("tmp", 2 * i + 1)
                tb.store("out", i, tb.add(tb.add(x, t), tb.add(y, u)))
        return tb

    @staticmethod
    def compute_saturates_trace():
        # Lane queues interleave shared loads with ALU and FMUL roots: the
        # compute classes saturate mid-scan while MEM waits on the port.
        tb = TraceBuilder("compute-saturates")
        tb.array("a", 16, 4, kind="input", init=list(range(16)))
        tb.array("out", 4, 4, kind="output")
        for i in range(4):
            with tb.iteration(i):
                x = tb.load("a", 4 * i)
                p = tb.add(i, 1)
                y = tb.load("a", 4 * i + 1)
                q = tb.add(i, 2)
                m = tb.fmul(float(i), 3.0)
                z = tb.load("a", 4 * i + 2)
                r = tb.add(i, 3)
                w = tb.load("a", 4 * i + 3)
                v = tb.add(tb.add(x, y), tb.add(z, w))
                tb.store("out", i, tb.add(tb.add(v, tb.add(p, q)),
                                          tb.fadd(m, r)))
        return tb

    def test_two_mem_slots_one_port(self):
        # fu_per_lane={mem: 2} is unreachable from a DesignPoint: a lane
        # that spends the only port keeps a free MEM slot.
        tb = self.two_mem_slots_trace()
        sim, sched, mem_if = build_cache_sched(
            tb, lanes=2, ports=1, fu_per_lane={"mem": 2})
        issued, _calls = run_recording(sim, sched, mem_if)
        assert issue_cycles(sched, issued) == TWO_SLOTS_CYCLES
        assert sched.reservation_conflicts == TWO_SLOTS_CONFLICTS

    def test_internal_memory_issues_after_ports_spent(self):
        tb = self.mixed_memory_trace()
        sim, sched, mem_if = build_cache_sched(tb, lanes=2, ports=1,
                                               internal=("tmp",))
        issued, _calls = run_recording(sim, sched, mem_if)
        assert issue_cycles(sched, issued) == MIXED_CYCLES
        assert sched.reservation_conflicts == MIXED_CONFLICTS

    def test_compute_saturates_while_mem_port_blocked(self):
        tb = self.compute_saturates_trace()
        sim, sched, mem_if = build_cache_sched(tb, lanes=2, ports=1)
        issued, _calls = run_recording(sim, sched, mem_if)
        assert issue_cycles(sched, issued) == SATURATES_CYCLES
        assert sched.reservation_conflicts == SATURATES_CONFLICTS

    @pytest.mark.parametrize("case", ["two_mem_slots", "mixed_memory",
                                      "compute_saturates"])
    def test_no_issue_call_for_shared_node_once_ports_spent(self, case):
        tb = getattr(self, f"{case}_trace")()
        internal = ("tmp",) if "tmp" in tb.arrays else ()
        fu_per_lane = {"mem": 2} if case == "two_mem_slots" else None
        sim, sched, mem_if = build_cache_sched(
            tb, lanes=2, ports=1, fu_per_lane=fu_per_lane, internal=internal)
        _issued, calls = run_recording(sim, sched, mem_if)
        shared_spent = [node for node, spent in calls
                        if spent and tb.node_array[node] not in internal]
        assert not shared_spent
        # Internal arrays still reach the interface after the ports run out.
        if internal:
            assert any(spent for _node, spent in calls)
