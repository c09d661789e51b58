"""Per-delay scan oracle for :class:`repro.schedule.implicit.OptimalTreeFamily`.

The family answers every rank query from one run table (one row per
``(delay, gap)`` block of the universal tree).  These functions are the
formulas it replaced, in its labeling (ranks at one delay ordered by
parent rank): locate each rank's delay by a ``searchsorted`` over the
census prefix sums, then, delay by delay, locate its parent's delay by
a ``searchsorted`` over that delay's per-parent-delay sums, earliest
parent delay first.  Slow (one mask per distinct delay) but written
straight from Definition 2.3.
"""

from __future__ import annotations

import numpy as np

from repro.core.fib import broadcast_time, node_census
from repro.params import LogPParams


def _census(params: LogPParams) -> tuple[np.ndarray, np.ndarray]:
    census = np.asarray(
        node_census(broadcast_time(params.P, params), params), dtype=np.int64
    )
    cum_excl = np.concatenate(([0], np.cumsum(census)))
    return census, cum_excl


def optimal_delays(params: LogPParams, ranks: np.ndarray) -> np.ndarray:
    """Inform delay (== inform time) of each rank."""
    _, cum_excl = _census(params)
    found = np.searchsorted(cum_excl, ranks, side="right") - 1
    return found.astype(np.int64)


def optimal_parents(params: LogPParams, ranks: np.ndarray) -> np.ndarray:
    """Parent rank of each rank (all inputs must be >= 1)."""
    cost = params.send_cost
    g = params.g
    census, cum_excl = _census(params)
    delays = optimal_delays(params, ranks)
    offsets = ranks - cum_excl[delays]
    out = np.empty(len(ranks), dtype=np.int64)
    for delay in np.unique(delays).tolist():
        group = delays == delay
        # nodes at this delay, grouped by the parent's delay, earliest
        # first: parent delays first, first + g, ..., delay - cost hold
        # N(parent delay) of them each
        first = (delay - cost) % g
        gap_sums = np.cumsum(census[first : delay - cost + 1 : g])
        k = np.searchsorted(gap_sums, offsets[group], side="right")
        before = np.where(k > 0, gap_sums[np.maximum(k - 1, 0)], 0)
        parent_delay = first + k * g
        out[group] = cum_excl[parent_delay] + offsets[group] - before
    return out


def optimal_edge_facts(
    params: LogPParams, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(informs, parents, parent_informs)`` for ranks ``lo+1..hi``."""
    ranks = np.arange(lo + 1, hi + 1, dtype=np.int64)
    parents = optimal_parents(params, ranks)
    return (
        optimal_delays(params, ranks),
        parents,
        optimal_delays(params, parents),
    )
