"""Long-message broadcast under the LogGP extension.

The paper's k-item machinery answers the practical question the LogP
authors' follow-up model (LogGP: LogP + a per-byte Gap ``G``) poses: how
should a *large* message be segmented for broadcast?

Model mapping.  Sending an ``s``-byte segment occupies the sender for
``o + (s-1)G`` cycles; consecutive segment injections are spaced
``delta(s) = max(g, o + (s-1)G)``; a segment's end-to-end latency is
``Lambda(s) = L + 2o + (s-1)G``.  Measuring time in units of ``delta``
turns segmented broadcast into exactly the postal k-item problem with

* ``k = ceil(M / s)`` items and
* latency ``Lhat = ceil(Lambda / delta)`` steps,

so the optimal pipelined schedule finishes in about
``(B(P-1) + Lhat + k - 1) * delta`` cycles (the single-sending bound,
which the library's scheduler typically achieves).  :func:`plan_broadcast`
searches the segment size minimizing the *exact* scheduled completion —
reproducing the classic LogGP trade-off: small segments pipeline better
but pay per-segment overhead; large segments amortize overhead but
serialize the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.kitem.single_sending import completion, single_sending_schedule
from repro.params import LogPParams
from repro.schedule.ops import Schedule
from repro.sim.validate import replay

__all__ = ["LogGPParams", "SegmentedPlan", "plan_broadcast", "segment_sweep"]


@dataclass(frozen=True, slots=True)
class LogGPParams:
    """LogGP machine: LogP plus the per-byte gap ``G``.

    All fields in cycles (``G`` = cycles per additional byte).
    """

    P: int
    L: int
    o: int
    g: int
    G: int

    def __post_init__(self) -> None:
        base = LogPParams(P=self.P, L=self.L, o=self.o, g=max(self.g, self.o))
        if self.G < 0:
            raise ValueError(f"G must be >= 0, got {self.G}")

    def segment_spacing(self, s: int) -> int:
        """``delta(s)``: cycles between consecutive segment injections."""
        return max(self.g, self.o + (s - 1) * self.G, 1)

    def segment_latency(self, s: int) -> int:
        """``Lambda(s)``: end-to-end cycles for one ``s``-byte segment."""
        return self.L + 2 * self.o + (s - 1) * self.G


@dataclass
class SegmentedPlan:
    """A segmentation decision plus its exact (scaled) schedule."""

    machine: LogGPParams
    message_bytes: int
    segment_bytes: int
    segments: int
    postal_latency: int  # Lhat, in delta units
    spacing: int  # delta, cycles
    schedule: Schedule  # postal-model schedule in delta units
    completion_cycles: int

    def describe(self) -> str:
        return (
            f"{self.message_bytes}B in {self.segments} segments of "
            f"{self.segment_bytes}B: {self.completion_cycles} cycles "
            f"(delta={self.spacing}, Lhat={self.postal_latency})"
        )


def _plan_for_segment(machine: LogGPParams, M: int, s: int) -> SegmentedPlan:
    k = math.ceil(M / s)
    delta = machine.segment_spacing(s)
    lam = machine.segment_latency(s)
    lhat = max(1, math.ceil(lam / delta))
    schedule = single_sending_schedule(k, machine.P, lhat)
    steps = completion(schedule) if schedule.sends else 0
    # the scaled makespan: steps in delta units, except the final segment's
    # tail latency is the true Lambda rather than Lhat*delta
    cycles = max(0, steps - lhat) * delta + lam if steps else 0
    return SegmentedPlan(
        machine=machine,
        message_bytes=M,
        segment_bytes=s,
        segments=k,
        postal_latency=lhat,
        spacing=delta,
        schedule=schedule,
        completion_cycles=cycles,
    )


def plan_broadcast(
    machine: LogGPParams, message_bytes: int, max_segments: int = 64
) -> SegmentedPlan:
    """Find the segment size minimizing the scheduled completion.

    Candidate sizes are those producing 1..``max_segments`` segments
    (equal-split sizes); the underlying k-item schedule for the winner is
    validated on the LogP simulator.
    """
    if message_bytes < 1:
        raise ValueError("message must have at least 1 byte")
    best: SegmentedPlan | None = None
    seen_sizes: set[int] = set()
    for k in range(1, max_segments + 1):
        s = math.ceil(message_bytes / k)
        if s in seen_sizes:
            continue
        seen_sizes.add(s)
        plan = _plan_for_segment(machine, message_bytes, s)
        if best is None or plan.completion_cycles < best.completion_cycles:
            best = plan
    assert best is not None
    if best.schedule.sends:
        replay(best.schedule)
    return best


def segment_sweep(
    machine: LogGPParams, message_bytes: int, max_segments: int = 32
) -> list[dict]:
    """Completion for every candidate segment count (for the benchmarks)."""
    rows = []
    seen: set[int] = set()
    for k in range(1, max_segments + 1):
        s = math.ceil(message_bytes / k)
        if s in seen:
            continue
        seen.add(s)
        plan = _plan_for_segment(machine, message_bytes, s)
        rows.append(
            {
                "segments": plan.segments,
                "segment_bytes": s,
                "spacing": plan.spacing,
                "Lhat": plan.postal_latency,
                "cycles": plan.completion_cycles,
            }
        )
    return rows
