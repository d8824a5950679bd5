"""Output oracle: every routed result is checked outside the timed region.

Three independent checks, each returning a list of problem strings (an
empty list means the output is correct):

* every flow result must be CLEAN under :func:`repro.check.check_flow`;
* a published design must reproduce its recorded geometry digest and
  its recorded wire length / via count / completion triple;
* a served payload must agree with the flow run of the same design.

The digest is the order-independent sha256 over the committed level B
geometry that the repository's parity tests pin; it is re-implemented
here so the benchmark depends on no test module.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import repro.check

#: Published design -> (geometry digest, wire length, via count,
#: completion), recorded from the default flow parameters of each
#: workload.  The three paper suites carry the seed digests of the
#: repository's single-plane parity tests.
RECORDED: dict[str, tuple[str, int, int, float]] = {
    "ami33": (
        "f846dfe7cff7b201a499ff3ec0d642dcd75ccdb2d367cb5ce8335d383bc8a41c",
        106396, 940, 1.0,
    ),
    "xerox": (
        "e65856e1e874e43bfa738b52225d95d61ebe5f857f4f84993d4738f2aa1ba61d",
        395652, 1835, 1.0,
    ),
    "ex3": (
        "89b756c1d7e708a6cc86f41654dab50034fa47c5855bda483394d1847b929b19",
        364152, 1895, 1.0,
    ),
    "dense-quick": (
        "56be7125d8921562f0ef5dc0d1c6d5db003446003215ecc185eed8a2c14908c2",
        67268, 689, 1.0,
    ),
    "dense-full": (
        "d7a78e03948bfc7198f331cba5cff5e084c9b4adb8c0c1c496df7f2887eaa873",
        75208, 712, 1.0,
    ),
    "wide-quick": (
        "c68a4633b9b93698114163e496d014100c5d7325a763a78a03b111d18f70bd08",
        44716, 418, 1.0,
    ),
    "wide-full": (
        "00080eaf91eb27f2e33a138e48a68c00129ba7fdf7de0bffbe107fd814cdd9c5",
        134808, 1106, 0.9191176470588235,
    ),
}


def geometry_digest(result: Any) -> str:
    """sha256 over a flow's committed level B geometry, net-order free."""
    payload = []
    for r in sorted(result.levelb.routed, key=lambda r: r.net.name):
        payload.append(
            {
                "net": r.net.name,
                "complete": r.complete,
                "fail": r.failed_terminals,
                "conns": [
                    {
                        "w": [[p.x, p.y] for p in c.path.waypoints()],
                        "k": sorted(c.corners),
                    }
                    for c in r.connections
                ],
            }
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def triple(result: Any) -> tuple[int, int, float]:
    return result.wire_length, result.via_count, result.completion


def verify_flow(name: str, result: Any, published: bool) -> list[str]:
    """Problems with one flow result; ``published`` adds the exact checks."""
    problems = []
    report = repro.check.check_flow(result)
    if report.violations:
        problems.append(
            f"{name}: not CLEAN ({len(report.violations)} violations, "
            f"first: {report.violations[0]})"
        )
    if published and name in RECORDED:
        digest, *expected = RECORDED[name]
        if geometry_digest(result) != digest:
            problems.append(f"{name}: geometry digest drifted")
        if list(triple(result)) != expected:
            problems.append(
                f"{name}: wl/vias/completion {triple(result)} != {tuple(expected)}"
            )
    return problems


def verify_payload(
    name: str, payload: dict[str, Any], expected: tuple[int, int, float]
) -> list[str]:
    """Problems with one served payload against its flow run's triple."""
    got = (payload.get("wire_length"), payload.get("via_count"),
           payload.get("completion"))
    if got != tuple(expected):
        return [f"served {name}: wl/vias/completion {got} != {tuple(expected)}"]
    if payload.get("check_clean") is False:
        return [f"served {name}: checked run reported violations"]
    return []
