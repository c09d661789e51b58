"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import multiprocessing

import pytest

from repro.params import LogPParams, postal
from repro.schedule.analysis import broadcast_delay_per_proc, item_completion_times
from repro.schedule.ops import Schedule
from repro.sim.validate import replay
from repro.sim.validate import single_reception_violations


@pytest.fixture(scope="session", autouse=True)
def no_mp_worker_outlives_the_suite():
    """Fail the suite if any mp transport worker is still running."""
    yield
    gc.collect()
    leaked = multiprocessing.active_children()
    assert not leaked, f"mp workers outlived the test session: {leaked}"


@pytest.fixture
def fig1_params() -> LogPParams:
    """The machine of the paper's Figure 1: P=8, L=6, g=4, o=2."""
    return LogPParams(P=8, L=6, o=2, g=4)


@pytest.fixture
def fig2_postal() -> LogPParams:
    """The postal machine of Figure 2: P=10, L=3."""
    return postal(P=10, L=3)


def assert_broadcast_complete(
    schedule: Schedule, P: int, item: object = 0
) -> dict[int, int]:
    """Replay a single-item broadcast and check every processor got it.

    Returns proc -> first-available time.
    """
    replay(schedule)
    delays = broadcast_delay_per_proc(schedule, item)
    assert set(delays) == set(range(P)), f"missing processors: {set(range(P)) - set(delays)}"
    return delays


def assert_kitem_complete(schedule: Schedule, P: int, k: int) -> int:
    """Replay a k-item broadcast; every proc must receive every item once.

    Returns the completion time.
    """
    replay(schedule)
    assert not single_reception_violations(schedule)
    done = item_completion_times(schedule, procs=set(range(P)))
    assert set(done) == set(range(k))
    return max(done.values())
