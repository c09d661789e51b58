"""The serve benchmark's request population.

:func:`serve_request_points` is the deterministic mix of recurring
(collective, machine) plan requests that the plan-service benchmarks
draw from: ``perfbench``'s serve-zipf workload, the ``serve`` scenario
of ``benchmarks/harness.py`` and the golden plan digests all read it,
so it lives in the library they share.
"""

from __future__ import annotations

from typing import Any

__all__ = ["serve_request_points"]


def serve_request_points(limit: int | None = None) -> list[dict[str, Any]]:
    """The serve bench's request population: recurring (collective,
    machine) points across six collectives — the workload shape the
    cache is built for (a service sees a few thousand distinct points,
    most traffic concentrated on a few).  Deterministic; ``limit``
    truncates for quick runs.
    """
    machines = ((4, 1, 2), (6, 2, 4), (3, 0, 1))
    points: list[dict[str, Any]] = []
    for L, o, g in machines:
        for P in range(2, 514):
            points.append(
                {"collective": "broadcast", "P": P, "L": L, "o": o, "g": g}
            )
        for P in range(2, 130):
            points.append(
                {"collective": "reduction", "P": P, "L": L, "o": o, "g": g}
            )
    for P in range(2, 34):
        points.append({"collective": "all-to-all", "P": P, "L": 4})
    for P in (4, 8, 16):
        for n in (16, 32, 64, 79, 128):
            points.append(
                {"collective": "summation", "P": P, "L": 5, "o": 2, "g": 4, "n": n}
            )
    for P in (5, 10, 15):
        for k in (2, 4, 8):
            points.append({"collective": "kitem", "P": P, "L": 3, "k": k})
    for P in range(3, 30):
        for L in (2, 3, 4):
            points.append({"collective": "allreduce", "P": P, "L": L})
    return points[:limit] if limit is not None else points
