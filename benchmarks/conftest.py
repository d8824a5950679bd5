"""Shared fixtures for the benchmark harness.

Each paper experiment regenerates from a session-scoped run of the
three flows on the three synthetic suites.  Flow runs are cached so the
whole harness costs one pass per (suite, flow) pair; the ``benchmark``
fixture then times the interesting kernel of each experiment.
"""

from __future__ import annotations


import pytest

from repro.bench_suite import SUITES
from repro.flow import FLOWS, FlowResult

SUITE_NAMES = ("ami33", "xerox", "ex3")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "time-budget mode: scale benchmarks run only the quick "
            "tier (used by the CI scale job)"
        ),
    )


@pytest.fixture(scope="session")
def flow_results() -> dict[tuple[str, str], FlowResult]:
    """All (suite, flow) results, computed once per session.

    Each flow gets its own freshly generated design: flows mutate cell
    placement, so sharing one Design across flows would let the last
    ``realize`` corrupt earlier results' pin-position bookkeeping.
    """
    results: dict[tuple[str, str], FlowResult] = {}
    for suite in SUITE_NAMES:
        for flow_name, flow in FLOWS.items():
            design = SUITES[suite]()
            results[(suite, flow_name)] = flow(design)
    return results


@pytest.fixture(scope="session")
def designs():
    return {name: SUITES[name]() for name in SUITE_NAMES}


def print_experiment(title: str, body: str) -> None:
    """Uniform experiment banner in benchmark output."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
