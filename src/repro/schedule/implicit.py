"""Implicit O(log P)-state schedules: closed-form plans, no send columns.

Every other builder in this repo materializes O(#sends) columns, which
caps "large P" at whatever fits in memory (the P=1024 all-to-all is
already ~1M sends).  Träff (arXiv:2407.18004) shows the useful queries —
who is my parent, when do I send, how long does the whole thing take —
have closed forms computable in O(log P) time per rank for the classic
broadcast trees.  This module is that representation:

* a :class:`TreeFamily` answers ``parents`` / ``inform_times`` /
  ``children`` / ``makespan`` from closed forms alone.  Two families are
  provided: :class:`BinomialTreeFamily` (Träff's binomial tree, one new
  rank per set bit) and :class:`OptimalTreeFamily` (the paper's
  universal broadcast tree of Definition 2.3, reaching ``P`` ranks in
  exactly ``B(P)`` cycles via the :func:`~repro.core.fib.node_census`
  recurrence);
* an :class:`ImplicitSchedule` wraps a family as a broadcast or (by
  exact time reversal, the paper's Section 4.2/5 correspondence) an
  all-to-one reduction, carries ``shift``/``remap`` as O(1) query
  rewrites, and *streams* materialization: :meth:`ImplicitSchedule.iter_chunks`
  yields fixed-size :class:`~repro.schedule.columnar.ScheduleColumns`
  blocks whose concatenation is byte-identical (canonical JSON) to the
  full :meth:`ImplicitSchedule.materialize` build.

Edges are enumerated in *destination-rank order*: edge ``i`` delivers to
rank ``i + 1`` (broadcast) or is the single upward send of rank
``i + 1`` (reduction).  That order is the chunking contract every
streaming consumer relies on — each non-root rank owns exactly one edge,
so chunks partition the edge set deterministically and per-chunk
closed-form facts (:meth:`ImplicitSchedule.chunk_with_facts`) let the
chunked lint engine (:mod:`repro.analyze.chunked`) and the chunked
validator (:func:`repro.sim.validate_np.violations_np_implicit`) verify
a P=10^6 plan in memory bounded by the chunk size, never by ``P``.

Registry access: ``plan("broadcast", params, storage="implicit")``;
CLI: ``repro lint --builder bcast --implicit -P 1000000``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Hashable, Iterator, Mapping

import numpy as np

from repro.core.fib import broadcast_census
from repro.params import LogPParams
from repro.schedule.columnar import ItemTable, ScheduleColumns
from repro.schedule.ops import Schedule

__all__ = [
    "DEFAULT_CHUNK_SENDS",
    "TreeFamily",
    "BinomialTreeFamily",
    "OptimalTreeFamily",
    "ChunkFacts",
    "ImplicitSchedule",
    "implicit_broadcast",
    "implicit_reduction",
    "implicit_families",
]

Item = Hashable

#: Default streaming block size: large enough that per-chunk numpy
#: overhead vanishes, small enough that five int64 columns stay ~2.5 MB.
DEFAULT_CHUNK_SENDS = 65536

#: Kept textually identical to the guard in ``repro.passes.kernels`` /
#: ``repro.schedule.transform`` (pinned by a test) so implicit and
#: materialized shifts fail the same way.
_SHIFT_ERROR = "shift would move a send or item creation before cycle 0"


def _msb_index(values: np.ndarray) -> np.ndarray:
    """Index of the highest set bit, elementwise (values must be >= 1)."""
    result = np.zeros_like(values)
    work = values.copy()
    for step in (32, 16, 8, 4, 2, 1):
        high = work >= (1 << step)
        result[high] += step
        work[high] >>= step
    return result


class TreeFamily:
    """A broadcast tree over ranks ``0..P-1``, rooted at rank 0, defined
    entirely by closed forms.

    The contract (relied on by :class:`ImplicitSchedule`):

    * every rank ``r >= 1`` has exactly one parent ``parents(r) < r``
      holding the item strictly earlier;
    * ``inform_times(r)`` is the cycle rank ``r`` first holds the item
      (``0`` for the root); the edge into ``r`` is sent at
      ``inform_times(r) - send_cost``;
    * the root's first send leaves at cycle 0, so the tree's earliest
      send time is 0 and :attr:`makespan` is the last inform time.
    """

    #: Registry key (``implicit_broadcast(family=...)``).
    name: str = ""

    def __init__(self, params: LogPParams):
        self.params = params
        self.P = params.P

    def parents(self, ranks: np.ndarray) -> np.ndarray:
        """Parent rank of each rank (all inputs must be >= 1)."""
        raise NotImplementedError

    def inform_times(self, ranks: np.ndarray) -> np.ndarray:
        """Cycle each rank first holds the item (0 for the root)."""
        raise NotImplementedError

    def edge_facts(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(informs, parents, parent_informs)`` for ranks ``lo+1..hi``.

        The facts of edges ``[lo, hi)`` in destination-rank order, i.e.
        one chunk of :class:`ImplicitSchedule`.  Composed here from
        :meth:`inform_times` / :meth:`parents`; a family whose ranks come
        in runs overrides it with a gather over the runs.
        """
        ranks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        parents = self.parents(ranks)
        return self.inform_times(ranks), parents, self.inform_times(parents)

    def children(self, rank: int) -> np.ndarray:
        """Child ranks of ``rank`` in increasing send-time order."""
        raise NotImplementedError

    @property
    def makespan(self) -> int:
        """Last inform time (0 when ``P == 1``)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} P={self.P}>"


class BinomialTreeFamily(TreeFamily):
    """Träff-style binomial broadcast tree with closed-form bit queries.

    Rank ``r``'s parent is ``r`` with its highest set bit cleared; a
    parent ``p`` sends its bit-``b`` child ``p + 2**b`` every ``g``
    cycles starting right after its own inform time.  Writing ``pc`` for
    popcount and ``m`` for the highest-bit index, the inform time is::

        T(0) = 0
        T(r) = pc(r) * (L + 2o) + g * (m(r) - pc(r) + 1)

    (each of the ``pc`` tree hops costs ``L + 2o``; the remaining factor
    counts the ``g``-paced queueing before each hop).  Out-of-range
    children (``>= P``) are a suffix of each parent's send sequence, so
    dropping them keeps the remaining sends ``g``-paced and legal.  The
    makespan is **not** monotone in ``r`` — it is maximized over a
    ``(popcount, msb)`` candidate set of at most ~128 ranks.
    """

    name = "binomial"

    def parents(self, ranks: np.ndarray) -> np.ndarray:
        return ranks - (np.int64(1) << _msb_index(ranks))

    def inform_times(self, ranks: np.ndarray) -> np.ndarray:
        cost = self.params.send_cost
        g = self.params.g
        positive = np.maximum(ranks, 1)
        pc = np.bitwise_count(positive).astype(np.int64)
        msb = _msb_index(positive)
        informs = pc * cost + g * (msb - pc + 1)
        return np.where(ranks == 0, 0, informs)

    def children(self, rank: int) -> np.ndarray:
        first_bit = rank.bit_length() if rank else 0
        kids = []
        bit = first_bit
        while rank + (1 << bit) < self.P:
            kids.append(rank + (1 << bit))
            bit += 1
        return np.asarray(kids, dtype=np.int64)

    @property
    def makespan(self) -> int:
        top = self.P - 1
        if top <= 0:
            return 0
        cost = self.params.send_cost
        g = self.params.g
        highest = top.bit_length() - 1
        best = 0
        for msb in range(highest + 1):
            if msb < highest:
                max_pc = msb + 1
            else:
                # max popcount of a value <= top with this msb: top
                # itself, or clear one set bit and set everything below
                max_pc = bin(top).count("1")
                above = 1
                for bit in range(highest - 1, -1, -1):
                    if top >> bit & 1:
                        max_pc = max(max_pc, above + bit)
                        above += 1
            # T is linear in popcount, so the endpoints suffice
            for pc in (1, max_pc):
                best = max(best, pc * cost + g * (msb - pc + 1))
        return best


#: Smallest rank capacity of a cached run table; capacities double from here.
_MIN_CAPACITY = 64


# One entry per (send cost, g, capacity): 35 KB at capacity 2**20 for
# L=6 o=2 g=4, 26 MB for the degenerate postal L=1000 (one run per ~1.6
# ranks), so the bound caps what a long-running service can pin.
# Exposed via repro.serve's /stats endpoint (core_cache_stats).
@lru_cache(maxsize=64)
def _universal_runs(send_cost: int, g: int, capacity: int) -> np.ndarray:
    """The universal tree's run table over ranks ``0..capacity-1``.

    Rows: run start rank, delay, parent delay and parent shift; column
    0 is the root's run ``[0, 1)`` with no parent (parent delay
    ``-1``).  The array is read-only, so every view and thread shares
    it unlocked.
    """
    # the census reads only send_cost and g: L = send_cost, o = 0 has it
    stand_in = LogPParams(P=capacity, L=send_cost, o=0, g=g)
    census = np.array(broadcast_census(capacity, stand_in), dtype=np.int64)
    t = len(census) - 1
    cum_excl = np.concatenate(([0], census.cumsum()))
    # one run per (parent delay p with N(p) > 0, gap j) with child
    # delay d = p + cost + j*g <= t: the N(p) ranks informed at p send
    # their j-th children there.  Generated in p order, so a stable sort
    # by d puts the runs in rank order (d, p).
    senders = np.flatnonzero(census)
    gaps = np.maximum((t - send_cost - senders) // g + 1, 0)
    parent_delay = senders.repeat(gaps)
    j = np.arange(len(parent_delay), dtype=np.int64) - (
        gaps.cumsum() - gaps
    ).repeat(gaps)
    run_delay = parent_delay + send_cost + j * g
    order = run_delay.argsort(kind="stable")
    run_delay = run_delay[order]
    parent_delay = parent_delay[order]
    sizes = census[parent_delay]
    ahead = sizes.cumsum() - sizes
    block = run_delay.searchsorted(run_delay)
    start = cum_excl[run_delay] + ahead - ahead[block]
    # keep the n runs that start below the capacity (starts rise in
    # rank order)
    n = int(np.count_nonzero(start < capacity))
    table = np.zeros((4, n + 1), dtype=np.int64)
    table[:3, 1:] = start[:n], run_delay[:n], parent_delay[:n]
    table[2, 0] = -1
    table[3, 1:] = start[:n] - cum_excl[parent_delay[:n]]
    table.flags.writeable = False
    return table


class OptimalTreeFamily(TreeFamily):
    """The paper's universal broadcast tree (Definition 2.3), rank-coded.

    The one owner of the tree's labeling (the broadcast builder and
    :func:`~repro.core.tree.optimal_tree` read it too).  Ranks are
    assigned in inform-time order using the census counts ``N(d)``: the
    ranks informed exactly at delay ``d`` occupy one contiguous block,
    ordered within it by parent rank, so each ``B(P)`` is a prefix of
    the universal tree (Definition 2.4).  The block's ``(d, p)`` runs,
    earliest parent delay ``p = d - cost - j*g`` first, hold the
    ``j``-th children of the ``N(p)`` ranks at delay ``p`` in their
    order, so inside a run a rank's parent is the rank minus a constant.

    The state is a view of one run table per machine: one row per
    non-empty run (start rank, delay, parent delay, parent shift),
    O(B(P)^2/g) rows — 875 at P=1,000,123, L=6, o=2, g=4.  Because the
    tree is universal, the table for ``P`` is the first rows of the
    table for any larger rank count, so the table is built once per
    ``(send_cost, g)`` and power-of-two capacity (a bounded LRU of
    read-only arrays) and this family keeps the rows whose runs start
    below ``P``: one ``searchsorted`` and a slice, the last run cut at
    ``P``.  Every query reads those rows: rank arrays by one
    ``searchsorted`` over the run starts, contiguous rank ranges
    (:meth:`edge_facts`) by ``np.repeat`` over the runs they cross.
    The makespan is the last run's delay, exactly ``B(P)``
    (Theorem 2.1), which is what makes a lint of this family report a
    zero SCHED008 optimality gap.
    """

    name = "optimal"

    def __init__(self, params: LogPParams):
        super().__init__(params)
        capacity = max(_MIN_CAPACITY, 1 << (self.P - 1).bit_length())
        table = _universal_runs(params.send_cost, params.g, capacity)
        rows = table[:, : int(table[0].searchsorted(self.P))]
        self._run_start, self._run_delay, self._run_parent_delay = rows[:3]
        self._run_shift = rows[3]
        self._run_length = np.diff(self._run_start, append=self.P)

    @property
    def num_runs(self) -> int:
        """Rows of the run table (the root's run included)."""
        return len(self._run_start)

    def _runs(self, ranks: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._run_start, ranks, side="right") - 1

    def inform_times(self, ranks: np.ndarray) -> np.ndarray:
        """Inform delay of each rank (== inform time; labels are cycles)."""
        return self._run_delay[self._runs(ranks)]

    def parents(self, ranks: np.ndarray) -> np.ndarray:
        return ranks - self._run_shift[self._runs(ranks)]

    def edge_facts(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if hi <= lo:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        first, last = self._runs(np.asarray([lo + 1, hi], dtype=np.int64))
        runs = slice(first, last + 1)
        bounds = np.concatenate(
            ([lo + 1], self._run_start[first + 1 : last + 1], [hi + 1])
        )
        lengths = np.diff(bounds)
        ranks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        return (
            np.repeat(self._run_delay[runs], lengths),
            ranks - np.repeat(self._run_shift[runs], lengths),
            np.repeat(self._run_parent_delay[runs], lengths),
        )

    def rank_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(delays, parents)`` of ranks ``0..P-1``; the root is its own parent."""
        ranks = np.arange(self.P, dtype=np.int64)
        return (
            self._run_delay.repeat(self._run_length),
            ranks - self._run_shift.repeat(self._run_length),
        )

    def children(self, rank: int) -> np.ndarray:
        run = int(self._runs(np.asarray([rank], dtype=np.int64))[0])
        delay = self._run_delay[run]
        # offset within the delay block: child j sits at the same offset
        # in the run of gap j whose parents are at this delay
        block = np.searchsorted(self._run_delay, delay, side="left")
        offset = rank - int(self._run_start[block])
        kids = self._run_start[self._run_parent_delay == delay] + offset
        return kids[kids < self.P]

    @property
    def makespan(self) -> int:
        return int(self._run_delay[-1])


def _validated_mapping(
    mapping: Mapping[int, int] | None, num_ranks: int
) -> dict[int, int] | None:
    if not mapping:
        return None
    cleaned = {
        int(old): int(new) for old, new in mapping.items() if int(old) != int(new)
    }
    if not cleaned:
        return None
    for old, new in cleaned.items():
        if old < 0 or old >= num_ranks:
            raise ValueError(
                f"remap key {old} is not a rank in [0, {num_ranks})"
            )
        if new < 0:
            raise ValueError("processor ids must be non-negative")
    targets = list(cleaned.values())
    if len(set(targets)) != len(targets):
        raise ValueError("processor mapping is not injective on used processors")
    for new in targets:
        if new < num_ranks and new not in cleaned:
            raise ValueError(
                "processor mapping is not injective on used processors"
            )
    return cleaned


@dataclass(frozen=True)
class ChunkFacts:
    """One streamed block plus the closed-form facts chunked checkers need.

    ``send_avail[i]`` / ``dst_avail[i]`` are the cycles the edge's sender
    / destination first hold the transported item — by *closed form*, not
    by scanning other chunks, which is exactly what makes SCHED001-005
    (and the causality half of the validator) chunk-local.  This is the
    per-chunk :class:`repro.analyze.rules.SendFacts` view.
    """

    lo: int
    hi: int
    cols: ScheduleColumns
    send_avail: np.ndarray
    dst_avail: np.ndarray

    @property
    def send_found(self) -> np.ndarray:
        """Every sender holds its item: the closed forms always find it."""
        return np.ones(len(self.cols), dtype=bool)


class ImplicitSchedule:
    """A broadcast/reduction plan held as closed forms, not columns.

    Construct via :func:`implicit_broadcast` / :func:`implicit_reduction`
    (or ``plan(name, params, storage="implicit")``).  Supports the
    per-rank queries of the materialized IR (:meth:`sends_of`,
    :meth:`parent`, :attr:`num_sends`, :attr:`makespan`), O(1)
    ``shift``/``remap`` rewrites (:meth:`shifted`, :meth:`remapped` — the
    pass framework routes :class:`~repro.passes.library.ShiftPass` /
    ``RemapPass`` here via ``run_implicit``), and streaming
    materialization (:meth:`iter_chunks`).  Reduction mode is the exact
    time reversal of the family's broadcast: rank ``r`` forwards its
    partial ``("rev", r)`` to its tree parent at ``makespan -
    inform_times(r)``, mirroring the ``reverse`` pass's item convention.
    """

    def __init__(
        self,
        family: TreeFamily,
        *,
        reduction: bool = False,
        offset: int = 0,
        mapping: Mapping[int, int] | None = None,
    ):
        self.family = family
        self.params = family.params
        self.is_reduction = reduction
        self.offset = int(offset)
        self.mapping = _validated_mapping(mapping, family.P)

    # -- closed-form scalars ---------------------------------------------

    @property
    def num_sends(self) -> int:
        """``P - 1``: one edge per non-root rank, in dst-rank order."""
        return max(self.family.P - 1, 0)

    @property
    def num_procs(self) -> int:
        procs = self.family.P
        if self.mapping:
            procs = max(procs, max(self.mapping.values()) + 1)
        return procs

    @property
    def num_participants(self) -> int:
        """Distinct processors taking part (count, not max label)."""
        return self.family.P

    @property
    def makespan(self) -> int:
        """Completion minus start time; shift- and remap-invariant."""
        return self.family.makespan if self.num_sends else 0

    @property
    def start_time(self) -> int:
        """Earliest send time (the family contract pins the base at 0)."""
        return self.offset

    @property
    def completion_time(self) -> int:
        return self.start_time + self.makespan

    @property
    def workload(self) -> str:
        """The detected-workload constant the lint engine would assign."""
        return "scattered" if self.is_reduction else "broadcast"

    @property
    def n_items(self) -> int:
        return self.num_sends if self.is_reduction else 1

    @property
    def source(self) -> int | None:
        """Broadcast root's (post-remap) label; ``None`` in reduction mode."""
        if self.is_reduction:
            return None
        return self._map_scalar(0)

    def __len__(self) -> int:
        return self.num_sends

    def __repr__(self) -> str:
        kind = "reduction" if self.is_reduction else "broadcast"
        return (
            f"<ImplicitSchedule {kind} family={self.family.name} "
            f"P={self.family.P} sends={self.num_sends}>"
        )

    # -- rank relabelling -------------------------------------------------

    def _map_scalar(self, rank: int) -> int:
        if self.mapping is None:
            return rank
        return self.mapping.get(rank, rank)

    def _map_array(self, ranks: np.ndarray) -> np.ndarray:
        if self.mapping is None:
            return ranks
        out = ranks.copy()
        for old, new in self.mapping.items():
            out[ranks == old] = new
        return out

    def _preimage(self, proc: int) -> int | None:
        """The family rank labelled ``proc``, or ``None`` if no rank is."""
        if self.mapping is not None:
            inverse = {new: old for old, new in self.mapping.items()}
            if proc in inverse:
                return inverse[proc]
            if proc in self.mapping:
                return None  # label vacated by the remap
        return proc if 0 <= proc < self.family.P else None

    # -- edge enumeration -------------------------------------------------

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.num_sends:
            raise ValueError(
                f"chunk range [{lo}, {hi}) outside [0, {self.num_sends}]"
            )

    def _edge_arrays(
        self, lo: int, hi: int
    ) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """``(dst_ranks, informs, parent_informs, times, srcs, dsts)`` for
        edges [lo, hi), from one :meth:`TreeFamily.edge_facts` call.

        ``dst_ranks``/``informs``/``parent_informs`` are pre-remap family
        facts; ``times`` carry the shift offset and ``srcs``/``dsts`` the
        remap.
        """
        ranks = np.arange(lo + 1, hi + 1, dtype=np.int64)
        informs, parents, parent_informs = self.family.edge_facts(lo, hi)
        if self.is_reduction:
            times = (self.family.makespan - informs) + self.offset
            srcs, dsts = ranks, parents
        else:
            times = (informs - self.params.send_cost) + self.offset
            srcs, dsts = parents, ranks
        return (
            ranks,
            informs,
            parent_informs,
            times,
            self._map_array(srcs),
            self._map_array(dsts),
        )

    def _columns(
        self,
        ranks: np.ndarray,
        times: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
    ) -> ScheduleColumns:
        if self.is_reduction:
            table = ItemTable.distinct(zip(repeat("rev"), ranks.tolist()))
            codes = np.arange(len(ranks), dtype=np.int64)
        else:
            table = ItemTable([0])
            codes = np.zeros(len(ranks), dtype=np.int64)
        return ScheduleColumns(
            times=times,
            srcs=srcs,
            dsts=dsts,
            items=codes,
            arrivals=times + self.params.send_cost,
            table=table,
            num_procs=self.num_procs,
        )

    def chunk(self, lo: int, hi: int) -> ScheduleColumns:
        """Materialize edges ``[lo, hi)`` of the canonical enumeration.

        Reduction chunks carry their own per-chunk :class:`ItemTable`
        (codes are chunk-local); broadcast chunks share the single-item
        convention (all codes 0).
        """
        self._check_range(lo, hi)
        ranks, _, _, times, srcs, dsts = self._edge_arrays(lo, hi)
        return self._columns(ranks, times, srcs, dsts)

    def chunk_with_facts(self, lo: int, hi: int) -> ChunkFacts:
        """:meth:`chunk` plus closed-form availability facts (see
        :class:`ChunkFacts`)."""
        self._check_range(lo, hi)
        ranks, informs, parent_informs, times, srcs, dsts = self._edge_arrays(
            lo, hi
        )
        cols = self._columns(ranks, times, srcs, dsts)
        if self.is_reduction:
            # each partial is created at its (single) send; it reaches
            # the parent exactly at this edge's arrival
            send_avail = times
            dst_avail = cols.arrivals
        else:
            send_avail = parent_informs + self.offset
            dst_avail = informs + self.offset
        return ChunkFacts(
            lo=lo, hi=hi, cols=cols, send_avail=send_avail, dst_avail=dst_avail
        )

    def iter_chunks(
        self, max_sends: int = DEFAULT_CHUNK_SENDS
    ) -> Iterator[ScheduleColumns]:
        """Stream the whole plan as blocks of at most ``max_sends`` edges.

        Concatenating the blocks reproduces :meth:`materialize` exactly
        (same storage order — the property suite pins byte-identical
        canonical JSON).
        """
        if max_sends < 1:
            raise ValueError(f"max_sends must be >= 1, got {max_sends}")
        for lo in range(0, self.num_sends, max_sends):
            yield self.chunk(lo, min(lo + max_sends, self.num_sends))

    # -- per-rank queries -------------------------------------------------

    def sends_of(self, proc: int) -> ScheduleColumns:
        """Every send ``proc`` performs, in increasing time order."""
        rank = self._preimage(int(proc))
        empty = np.zeros(0, dtype=np.int64)
        if self.is_reduction:
            if rank is None or rank == 0:
                return self._columns(empty, empty, empty, empty)
            arr = np.asarray([rank], dtype=np.int64)
            informs = self.family.inform_times(arr)
            times = (self.family.makespan - informs) + self.offset
            dsts = self._map_array(self.family.parents(arr))
            srcs = np.asarray([proc], dtype=np.int64)
            return self._columns(arr, times, srcs, dsts)
        if rank is None:
            return self._columns(empty, empty, empty, empty)
        kids = self.family.children(rank)
        times = (
            self.family.inform_times(kids) - self.params.send_cost + self.offset
        )
        srcs = np.full(len(kids), proc, dtype=np.int64)
        return self._columns(kids, times, srcs, self._map_array(kids))

    def parent(self, proc: int, item: Item | None = None) -> int | None:
        """The (post-remap) rank ``proc`` receives the item from in a
        broadcast / forwards its partial to in a reduction; ``None`` for
        the root.  ``item`` (optional) must be the item ``proc`` handles.
        """
        rank = self._preimage(int(proc))
        if rank is None:
            raise ValueError(f"proc {proc} is not a rank of this schedule")
        if item is not None:
            expected: Item = ("rev", rank) if self.is_reduction else 0
            if item != expected:
                raise ValueError(
                    f"proc {proc} handles item {expected!r}, not {item!r}"
                )
        if rank == 0:
            return None
        arr = np.asarray([rank], dtype=np.int64)
        return self._map_scalar(int(self.family.parents(arr)[0]))

    # -- materialization ---------------------------------------------------

    def initial_placement(self) -> dict[int, set[Item]]:
        """Initial item placement; O(P) in reduction mode, so this is for
        :meth:`materialize` — chunked consumers use closed forms."""
        if not self.is_reduction:
            return {self._map_scalar(0): {0}}
        return {
            self._map_scalar(rank): {("rev", rank)}
            for rank in range(1, self.family.P)
        }

    def source_items(self) -> dict[Item, int]:
        """``item -> creation time`` (reduction partials are created at
        their send; broadcast item 0 is initial).  O(P) in reduction
        mode, for :meth:`materialize` only."""
        if not self.is_reduction or not self.num_sends:
            return {}
        ranks, _, _, times, _, _ = self._edge_arrays(0, self.num_sends)
        return {
            ("rev", int(rank)): int(when)
            for rank, when in zip(ranks.tolist(), times.tolist())
        }

    def materialize(self) -> Schedule:
        """Expand to an array-backed :class:`~repro.schedule.ops.Schedule`.

        O(num_sends) memory — the whole point of the implicit IR is that
        large-P consumers never call this; it exists for small-P twins,
        materializing passes, and the simulator.
        """
        if not self.num_sends:
            return Schedule(
                params=self.params,
                sends=[],
                initial=self.initial_placement(),
                source_items=self.source_items(),
            )
        cols = self.chunk(0, self.num_sends)
        codes = cols.items if self.is_reduction else None
        table = cols.table if self.is_reduction else None
        return Schedule.from_arrays(
            self.params,
            cols.times,
            cols.srcs,
            cols.dsts,
            codes,
            table,
            initial=self.initial_placement(),
            source_items=self.source_items(),
        )

    # -- O(1) rewrites -----------------------------------------------------

    def shifted(self, offset: int) -> ImplicitSchedule:
        """Time-translate by ``offset`` as a query rewrite (no columns).

        Raises the same ``ValueError`` as the materialized ``shift`` pass
        when the result would start before cycle 0.
        """
        offset = int(offset)
        if self.num_sends and self.start_time + offset < 0:
            raise ValueError(_SHIFT_ERROR)
        return ImplicitSchedule(
            self.family,
            reduction=self.is_reduction,
            offset=self.offset + offset,
            mapping=self.mapping,
        )

    def remapped(self, mapping: Mapping[int, int]) -> ImplicitSchedule:
        """Relabel processors as a query rewrite (no columns).

        ``mapping`` is over *current* labels (composition with an earlier
        remap is handled here); like the materialized ``remap`` pass it
        must be injective on the ranks in use.
        """
        incoming = {int(old): int(new) for old, new in mapping.items()}
        base = self.mapping or {}
        inverse = {new: old for old, new in base.items()}
        candidates = set(base)
        for label in incoming:
            if label in inverse:
                candidates.add(inverse[label])
            elif label not in base and 0 <= label < self.family.P:
                candidates.add(label)
        composed: dict[int, int] = {}
        for rank in candidates:
            current = base.get(rank, rank)
            composed[rank] = incoming.get(current, current)
        return ImplicitSchedule(
            self.family,
            reduction=self.is_reduction,
            offset=self.offset,
            mapping=composed,
        )


_FAMILY_TYPES: dict[str, type[TreeFamily]] = {
    BinomialTreeFamily.name: BinomialTreeFamily,
    OptimalTreeFamily.name: OptimalTreeFamily,
}


def implicit_families() -> tuple[str, ...]:
    """Names accepted by ``implicit_broadcast(family=...)``, sorted."""
    return tuple(sorted(_FAMILY_TYPES))


def _make_family(params: LogPParams, family: str) -> TreeFamily:
    cls = _FAMILY_TYPES.get(family)
    if cls is None:
        known = ", ".join(implicit_families())
        raise ValueError(f"unknown implicit family {family!r} (known: {known})")
    return cls(params)


def implicit_broadcast(
    params: LogPParams, family: str = "optimal"
) -> ImplicitSchedule:
    """An implicit single-item broadcast plan (root rank 0).

    ``family="optimal"`` (default) is the paper's universal tree — its
    makespan is exactly ``B(P)``; ``family="binomial"`` is the Träff
    binomial tree (legal, generally a few cycles above ``B(P)``).
    """
    return ImplicitSchedule(_make_family(params, family))


def implicit_reduction(
    params: LogPParams, family: str = "optimal"
) -> ImplicitSchedule:
    """An implicit all-to-one reduction: the family's exact time reversal
    (Section 4.2/5 correspondence), partials labelled ``("rev", rank)``."""
    return ImplicitSchedule(_make_family(params, family), reduction=True)
