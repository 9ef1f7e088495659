"""Plan-table snapshot: the modulo planner's output on every workload.

One row per (workload, lanes) pair holds ``ii``, ``rec_mii``,
``res_mii``, ``round_length`` and ``uniform`` from :func:`plan_ii` with
``ii="auto"`` at the default DMA design's memory slots
(``partitions * spad_ports``).  ``test_ii_plan_table.py`` asserts the
planner reproduces every row, so a faster RecMII or placement search
cannot move a plan unnoticed.

Regenerate (only when a *modeling* change legitimately moves a plan):

    PYTHONPATH=src python -m tests.aladdin._ii_plans
"""

import json
import os
import sys
import time

from repro.aladdin.modulo import plan_ii
from repro.aladdin.transforms import assign_lanes
from repro.core.config import DesignPoint
from repro.workloads import ALL_WORKLOADS, cached_ddg, cached_trace

TABLE_PATH = os.path.join(os.path.dirname(__file__), "ii_plans.json")

LANES = (1, 4, 16)

FIELDS = ("ii", "rec_mii", "res_mii", "round_length", "uniform")


def mem_slots():
    """Memory issue slots per cycle of the default DMA design."""
    design = DesignPoint()
    return design.partitions * design.spad_ports


def plan_row(workload, lanes):
    """``(row, seconds)``: one workload's plan at ``lanes`` and the host
    time ``plan_ii`` took (trace capture and DDDG build excluded)."""
    ddg = cached_ddg(workload)
    assignment = assign_lanes(cached_trace(workload), lanes)
    start = time.perf_counter()
    plan = plan_ii(ddg, assignment, mem_slots_per_cycle=mem_slots())
    seconds = time.perf_counter() - start
    return {field: getattr(plan, field) for field in FIELDS}, seconds


def row_key(workload, lanes):
    return f"{workload}@{lanes}"


def capture_all(log=None):
    """Plan every workload at every lane count in :data:`LANES`."""
    table = {}
    for workload in ALL_WORKLOADS:
        for lanes in LANES:
            row, seconds = plan_row(workload, lanes)
            table[row_key(workload, lanes)] = row
            if log is not None:
                log(f"{workload:20s} lanes {lanes:2d}  {seconds:8.3f} s  "
                    f"{row}")
    return table


def load():
    with open(TABLE_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    table = capture_all(log=lambda line: print(line, file=sys.stderr,
                                               flush=True))
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} plans to {TABLE_PATH}")
