"""The modulo planner reproduces the committed plan table row for row.

``ii_plans.json`` (see :mod:`tests.aladdin._ii_plans`) pins ``ii``,
``rec_mii``, ``res_mii``, ``round_length`` and ``uniform`` for all 19
workloads at 1, 4 and 16 lanes, so a faster recurrence check or
placement search has to land on exactly the same plans.
"""

import pytest

from repro.workloads import ALL_WORKLOADS

from tests.aladdin._ii_plans import LANES, load, plan_row, row_key

TABLE = load()


def test_table_covers_every_workload_and_lane_count():
    assert sorted(TABLE) == sorted(row_key(w, lanes)
                                   for w in ALL_WORKLOADS for lanes in LANES)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_plans_match_table(workload):
    for lanes in LANES:
        row, _seconds = plan_row(workload, lanes)
        assert row == TABLE[row_key(workload, lanes)], (workload, lanes)
