"""LogP validators and execution traces."""

from repro.sim.trace import Activity, Trace, trace_from_schedule
from repro.sim.validate import (
    assert_valid,
    is_single_sending,
    replay,
    single_reception_violations,
    violations,
)

__all__ = [
    "replay",
    "Trace", "Activity", "trace_from_schedule",
    "violations", "assert_valid",
    "single_reception_violations", "is_single_sending",
]
