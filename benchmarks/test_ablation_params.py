"""Ablations over the Figure 3 parameter table.

DESIGN.md calls out several modeled mechanisms whose contribution should be
measurable: cache line size, MSHR count (hit-under-miss), the strided
prefetcher, DMA burst pipelining depth, and double buffering.  Each
ablation runs a focused comparison and prints the series; these are the
"design-choice" experiments that complement the paper's headline figures.
"""

import pytest

from repro.core.config import DesignPoint, SoCConfig
from repro.core.reporting import format_table
from repro.core.soc import run_design

from conftest import run_once


def test_ablation_cache_line_size(benchmark):
    """Figure 3 sweeps 16/32/64 B lines: long lines amortize fills for
    streaming kernels; short lines waste less bandwidth on sparse ones."""
    def run():
        out = {}
        for workload in ("stencil-stencil2d", "spmv-crs"):
            rows = []
            for line in (16, 32, 64):
                d = DesignPoint(lanes=4, mem_interface="cache",
                                cache_size_kb=8, cache_line=line)
                r = run_design(workload, d)
                rows.append((line, r))
            out[workload] = rows
        return out

    data = run_once(benchmark, run)
    print()
    for workload, rows in data.items():
        print(format_table(
            ["line_B", "time_us", "fills", "bus_bytes"],
            [[line, r.time_us, r.stats["cache_misses"],
              r.stats["bus_bytes"]] for line, r in rows]))
        print(f"   ^ {workload}\n")
    # Streaming stencil: larger lines reduce fill count dramatically.
    stencil = data["stencil-stencil2d"]
    assert stencil[-1][1].stats["cache_misses"] < \
        stencil[0][1].stats["cache_misses"] / 2


def test_ablation_mshrs(benchmark):
    """Hit-under-miss: starving the cache of MSHRs serializes misses."""
    def run():
        rows = []
        for mshrs in (1, 4, 16):
            cfg = SoCConfig(mshrs=mshrs)
            d = DesignPoint(lanes=8, mem_interface="cache", cache_size_kb=8,
                            cache_ports=4)
            rows.append((mshrs, run_design("md-knn", d, cfg)))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(["mshrs", "time_us"],
                       [[m, r.time_us] for m, r in rows]))
    times = [r.total_ticks for _m, r in rows]
    assert times[0] > times[-1]  # 1 MSHR is clearly worse than 16


def test_ablation_prefetcher(benchmark):
    """The strided prefetcher helps regular streams, not indirect ones."""
    def run():
        out = {}
        for workload in ("stencil-stencil2d", "spmv-crs"):
            res = {}
            for pf in ("none", "stride"):
                d = DesignPoint(lanes=4, mem_interface="cache",
                                cache_size_kb=8, prefetcher=pf)
                res[pf] = run_design(workload, d)
            out[workload] = res
        return out

    data = run_once(benchmark, run)
    print()
    rows = []
    for workload, res in data.items():
        speedup = res["none"].total_ticks / res["stride"].total_ticks
        rows.append([workload, res["none"].time_us, res["stride"].time_us,
                     f"{speedup:.3f}x"])
    print(format_table(["workload", "no_pf_us", "stride_pf_us", "speedup"],
                       rows))
    stencil_gain = (data["stencil-stencil2d"]["none"].total_ticks
                    / data["stencil-stencil2d"]["stride"].total_ticks)
    spmv_gain = (data["spmv-crs"]["none"].total_ticks
                 / data["spmv-crs"]["stride"].total_ticks)
    # The regular stream must benefit at least as much as the indirect one.
    assert stencil_gain >= spmv_gain * 0.95


def test_ablation_dma_outstanding(benchmark):
    """DMA burst pipelining depth: one burst in flight exposes every DRAM
    round trip; a few hide it behind the bus stream."""
    def run():
        rows = []
        for outstanding in (1, 2, 4, 8):
            cfg = SoCConfig(dma_max_outstanding=outstanding)
            d = DesignPoint(lanes=4, partitions=4)
            rows.append((outstanding, run_design("fft-transpose", d, cfg)))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(["outstanding", "time_us"],
                       [[o, r.time_us] for o, r in rows]))
    assert rows[0][1].total_ticks > rows[-1][1].total_ticks


def test_ablation_double_buffer(benchmark):
    """Section IV-B2's double-buffering variant of full/empty bits."""
    def run():
        out = {}
        for workload in ("stencil-stencil2d", "md-knn"):
            base = DesignPoint(lanes=4, partitions=4, pipelined_dma=True,
                               dma_triggered_compute=True)
            out[workload] = {
                "line_bits": run_design(workload, base),
                "double_buffer": run_design(
                    workload, base.replace(double_buffer=True)),
                "no_trigger": run_design(
                    workload, base.replace(dma_triggered_compute=False)),
            }
        return out

    data = run_once(benchmark, run)
    print()
    rows = [[w, res["no_trigger"].time_us, res["double_buffer"].time_us,
             res["line_bits"].time_us] for w, res in data.items()]
    print(format_table(
        ["workload", "no_trigger_us", "double_buffer_us", "line_bits_us"],
        rows))
    for workload, res in data.items():
        # Any triggered variant beats waiting for the whole transfer.
        assert res["line_bits"].total_ticks <= \
            res["no_trigger"].total_ticks, workload


def test_ablation_loop_pipelining(benchmark):
    """Round barriers (Section IV-D's lane synchronization) vs classic
    Aladdin loop pipelining.  Notable result: nw gains *more* than gemm —
    its wavefront parallelism lies across iteration rounds (cell (i, j+1)
    waits on (i, j), but (i+1, j-1) is independent), exactly what round
    barriers forbid and pipelining recovers."""
    def run():
        out = {}
        for workload in ("gemm-ncubed", "nw-nw"):
            base = DesignPoint(lanes=4, partitions=4)
            out[workload] = {
                "barriers": run_design(workload, base),
                "pipelined": run_design(
                    workload, base.replace(pipelining="off")),
            }
        return out

    data = run_once(benchmark, run)
    print()
    rows = [[w, res["barriers"].time_us, res["pipelined"].time_us,
             f"{res['barriers'].total_ticks / res['pipelined'].total_ticks:.2f}x"]
            for w, res in data.items()]
    print(format_table(["workload", "barriers_us", "pipelined_us",
                        "speedup"], rows))
    for w, res in data.items():
        assert res["pipelined"].total_ticks <= res["barriers"].total_ticks
    nw_gain = (data["nw-nw"]["barriers"].total_ticks
               / data["nw-nw"]["pipelined"].total_ticks)
    # nw's cross-round wavefront parallelism makes it the big winner.
    assert nw_gain > 1.5


def test_ablation_multi_accelerator_contention(benchmark):
    """Direct shared-resource contention: two accelerators, one bus."""
    from repro.core.multi import MultiAcceleratorSoC

    def run():
        soc = MultiAcceleratorSoC([
            ("md-knn", DesignPoint(lanes=4, partitions=4)),
            ("fft-transpose", DesignPoint(lanes=4, partitions=4)),
        ])
        soc.run()
        return soc

    soc = run_once(benchmark, run)
    slowdowns = soc.contention_slowdowns()
    print()
    print(format_table(
        ["workload", "slowdown_vs_alone"],
        [[w, f"{s:.2f}x"] for (w, _d), s in zip(soc.jobs, slowdowns)]))
    print(f"shared-bus utilization: {100 * soc.bus_utilization():.0f}%")
    assert any(s > 1.02 for s in slowdowns)
