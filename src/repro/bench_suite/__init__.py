"""Deterministic synthetic versions of the paper's three examples.

The paper evaluates on two MCNC macro-cell benchmarks (ami33 and Xerox,
from Preas' DAC'87 benchmark set) and an industrial chip (ex3).  The
original placement/netlist data is not redistributable, so this package
generates layouts matching each example's *published statistics* - cell
count, net count, and the exact level A partition the paper reports
(ami33: 4 nets averaging 44.25 pins; Xerox: 21 @ 9.19; ex3: 56 @ 3.23).
The routers only see geometry and netlist structure, so matching those
statistics exercises identical code paths; see DESIGN.md section 2.
"""

from repro.bench_suite.generator import (
    DENSE_TIERS,
    SCALE_TIERS,
    WIDE_TIERS,
    SuiteProfile,
    ami33_like,
    dense_design,
    dense_profile,
    design_seed,
    ex3_like,
    make_design,
    random_corpus,
    random_design,
    scale_design,
    scale_profile,
    section3_workload,
    wide_design,
    wide_profile,
    xerox_like,
)

SUITES = {
    "ami33": ami33_like,
    "xerox": xerox_like,
    "ex3": ex3_like,
}

__all__ = [
    "SuiteProfile",
    "design_seed",
    "make_design",
    "random_corpus",
    "random_design",
    "section3_workload",
    "ami33_like",
    "xerox_like",
    "ex3_like",
    "SUITES",
    "SCALE_TIERS",
    "scale_design",
    "scale_profile",
    "DENSE_TIERS",
    "dense_design",
    "dense_profile",
    "WIDE_TIERS",
    "wide_design",
    "wide_profile",
]
