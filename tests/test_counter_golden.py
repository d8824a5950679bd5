"""Every deterministic counter of the published designs holds.

The machine-independent yardstick: a change that keeps the router's
work must keep ``tests/golden/counters.json`` exact, and a change that
alters it on purpose regenerates the file (see ``counter_golden.py``)
and reports the drift table this test prints.
"""

import pytest

from counter_golden import PUBLISHED, counters, drift_table, load_golden


def test_golden_covers_the_published_designs():
    assert sorted(load_golden()) == sorted(PUBLISHED)


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_counters_match_golden(name):
    golden, now = load_golden()[name], counters(name)
    if now != golden:
        pytest.fail(
            f"{name}: counters drifted from tests/golden/counters.json\n"
            + drift_table(golden, now),
            pytrace=False,
        )
