"""Loop pipelining (``pipelining="off"``: round barriers off)."""

import pytest

from repro.aladdin.accelerator import Accelerator
from repro.core.config import DesignPoint
from repro.core.soc import run_design
from repro.workloads import cached_trace

from tests.conftest import make_linear_trace


class TestIsolated:
    def test_pipelining_never_slower(self):
        tb = make_linear_trace(64)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        piped = Accelerator(tb, 4, 4, pipelining="off").run_isolated()
        assert piped.cycles <= barrier.cycles

    def test_pipelining_overlaps_rounds(self):
        """With barriers, 64 iterations on 4 lanes take 16 rounds of 6
        cycles; pipelined, consecutive rounds overlap in the lanes."""
        tb = make_linear_trace(64)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        piped = Accelerator(tb, 4, 4, pipelining="off").run_isolated()
        assert barrier.cycles == 16 * 6
        assert piped.cycles < barrier.cycles * 0.6

    def test_dependences_still_respected(self):
        """Pipelining must not break loop-carried chains: a serial
        accumulator runs at the same speed either way."""
        from tests.conftest import make_serial_trace
        tb = make_serial_trace(16)
        barrier = Accelerator(tb, 4, 4).run_isolated()
        piped = Accelerator(tb, 4, 4, pipelining="off").run_isolated()
        chain = 16 * 3  # 16 fadds of latency 3
        assert piped.cycles >= chain
        assert piped.cycles <= barrier.cycles

    def test_completes_on_every_workload(self):
        for name in ("aes-aes", "nw-nw", "sort-radix"):
            trace = cached_trace(name)
            res = Accelerator(trace, 4, 4,
                              pipelining="off").run_isolated()
            assert res.cycles > 0


class TestInSoC:
    def test_design_flag_wired_through(self):
        base = DesignPoint(lanes=4, partitions=4)
        piped = base.replace(pipelining="off")
        r_base = run_design("gemm-ncubed", base)
        r_piped = run_design("gemm-ncubed", piped)
        assert r_piped.total_ticks <= r_base.total_ticks

    def test_key_distinguishes(self):
        assert DesignPoint().key() != \
            DesignPoint(pipelining="off").key()

    def test_works_with_cache_interface(self):
        d = DesignPoint(lanes=4, mem_interface="cache",
                        pipelining="off")
        r = run_design("spmv-crs", d)
        assert r.total_ticks > 0
