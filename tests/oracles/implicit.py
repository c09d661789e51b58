"""Per-delay scan oracle for :class:`repro.schedule.implicit.OptimalTreeFamily`.

The family answers every rank query from one run table (one row per
``(delay, gap)`` block of the universal tree).  These functions are the
formulas it replaced, in its labeling (ranks at one delay ordered by
parent rank): locate each rank's delay by a ``searchsorted`` over the
census prefix sums, then, delay by delay, locate its parent's delay by
a ``searchsorted`` over that delay's per-parent-delay sums, earliest
parent delay first.  Slow (one mask per distinct delay) but written
straight from Definition 2.3.

:class:`PerPOptimalTreeFamily` builds the family's run table for
exactly ``P`` ranks from that ``P``'s own census, with no cache and no
slicing; the family's slice of the cached universal table must answer
every query exactly as it does.
"""

from __future__ import annotations

import numpy as np

from repro.core.fib import broadcast_census, broadcast_time, node_census
from repro.params import LogPParams
from repro.schedule.implicit import OptimalTreeFamily


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


class PerPOptimalTreeFamily(OptimalTreeFamily):
    """:class:`OptimalTreeFamily` with its run table rebuilt for this
    ``P`` alone (the census grown to ``B(P)``, no cache, no slicing)."""

    def __init__(self, params: LogPParams):
        self.params = params
        self.P = params.P
        cost = params.send_cost
        g = params.g
        census = np.array(broadcast_census(self.P, params), dtype=np.int64)
        t = len(census) - 1
        cum_excl = np.concatenate(([0], census.cumsum()))
        senders = np.flatnonzero(census)
        gaps = np.maximum((t - cost - senders) // g + 1, 0)
        parent_delay = senders.repeat(gaps)
        j = np.arange(len(parent_delay), dtype=np.int64) - (
            gaps.cumsum() - gaps
        ).repeat(gaps)
        run_delay = parent_delay + cost + j * g
        order = run_delay.argsort(kind="stable")
        run_delay = run_delay[order]
        parent_delay = parent_delay[order]
        sizes = census[parent_delay]
        ahead = sizes.cumsum() - sizes
        block = run_delay.searchsorted(run_delay)
        start = cum_excl[run_delay] + ahead - ahead[block]
        n = int(np.count_nonzero(start < self.P))
        table = np.zeros((5, n + 1), dtype=np.int64)
        table[:3, 1:] = start[:n], run_delay[:n], parent_delay[:n]
        table[2, 0] = -1
        table[3, 1:] = start[:n] - cum_excl[parent_delay[:n]]
        table[4] = np.diff(table[0], append=self.P)
        self._run_start, self._run_delay, self._run_parent_delay = table[:3]
        self._run_shift, self._run_length = table[3:]
