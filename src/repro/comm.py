"""High-level collectives API: plan like MPI, execute on the simulator.

Two layers:

* :class:`Communicator` — an MPI-style view over :func:`repro.registry.plan`.
  ``bcast``, ``kitem_bcast``, ``reduce`` and, at ``P = P(T)``,
  ``allreduce`` are registry plans, a rooted variant rotated by
  :func:`~repro.schedule.transform.remap`.  Any other ``allreduce`` is
  the registry reduction followed by the registry broadcast, whose item
  the root creates when the reduction completes.  ``scatter`` is built
  here, ``gather`` is its time reversal, and ``allgather`` and
  ``alltoall`` are the core Section 4.1 schedules.  Every plan is checked
  legal when it is built.

* :class:`VirtualCluster` — executes those plans on actual Python values
  through the :mod:`repro.exec` stack (lowered to per-rank programs and
  run on a real transport, ``inproc`` by default), returning both the
  per-processor results and the cycle-accurate elapsed time.  This is
  the "does it really work" layer: the data movement follows the
  schedule exactly, so a wrong schedule produces wrong data, not just a
  wrong time.

Example::

    from repro.comm import VirtualCluster
    from repro.params import LogPParams

    cluster = VirtualCluster(LogPParams(P=8, L=6, o=2, g=4))
    values, cycles = cluster.bcast("hello", root=3)
    assert values == ["hello"] * 8 and cycles == 24
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import registry
from repro.core.all_to_all import (
    all_to_all_personalized_schedule,
    all_to_all_schedule,
)
from repro.core.fib import broadcast_time_postal, fib
from repro.params import LogPParams
from repro.passes.library import ReversePass
from repro.schedule.ops import Schedule
from repro.schedule.transform import remap, shift
from repro.sim.validate import assert_valid

if TYPE_CHECKING:
    from repro.exec.run import ExecResult

__all__ = ["Plan", "Communicator", "VirtualCluster"]


@dataclass
class Plan:
    """A validated collective plan."""

    kind: str
    params: LogPParams
    schedule: Schedule
    cycles: int
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        assert_valid(self.schedule)


class Communicator:
    """Plans collectives for one machine through :func:`repro.registry.plan`.

    Plans are deterministic and cached per (kind, arguments).
    """

    def __init__(self, params: LogPParams):
        self.params = params
        self._cache: dict[tuple, Plan] = {}

    def _cached(self, key: tuple, build: Callable[[], Plan]) -> Plan:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _plan(self, kind: str, schedule: Schedule, **meta: Any) -> Plan:
        return Plan(
            kind=kind,
            params=self.params,
            schedule=schedule,
            cycles=registry.completion(schedule),
            meta=meta,
        )

    def _rooted(self, kind: str, spec: str, root: int, **extra: Any) -> Plan:
        """The registry's root-0 ``spec`` plan rotated so ``root`` is the root."""
        self._check_root(root)

        def build() -> Plan:
            P = self.params.P
            schedule = registry.plan(spec, self.params, **extra)
            rotated = remap(schedule, {p: (p + root) % P for p in range(P)})
            return self._plan(kind, rotated, root=root, **extra)

        return self._cached((kind, *extra.values(), root), build)

    # -- one-to-all -------------------------------------------------------

    def bcast(self, root: int = 0) -> Plan:
        """Optimal single-item broadcast from ``root`` (Theorem 2.1)."""
        return self._rooted("bcast", "broadcast", root)

    def kitem_bcast(self, k: int, root: int = 0) -> Plan:
        """Pipelined k-item broadcast (Theorems 3.6/Cor 3.1, postal model)."""
        return self._rooted("kitem_bcast", "kitem", root, k=k)

    def scatter(self, root: int = 0) -> Plan:
        """Personalized one-to-all: the root streams one item per rank.

        The root is the bottleneck — ``P - 1`` sends at gap ``g`` — so the
        flat schedule is optimal: ``L + 2o + (P-2) g``.
        """
        self._check_root(root)

        def build() -> Plan:
            dsts = [dst for dst in range(self.params.P) if dst != root]
            schedule = Schedule(
                params=self.params,
                initial={root: {("scatter", dst) for dst in dsts}},
            )
            for slot, dst in enumerate(dsts):
                schedule.add(
                    time=slot * self.params.g,
                    src=root,
                    dst=dst,
                    item=("scatter", dst),
                )
            return self._plan("scatter", schedule, root=root)

        return self._cached(("scatter", root), build)

    # -- all-to-one -------------------------------------------------------

    def gather(self, root: int = 0) -> Plan:
        """All-to-one personalized: the reverse of scatter, same cost."""
        self._check_root(root)

        return self._cached(
            ("gather", root),
            lambda: self._plan(
                "gather",
                ReversePass(tag="gather").run(self.scatter(root).schedule),
                root=root,
            ),
        )

    def reduce(self, root: int = 0) -> Plan:
        """All-to-one reduction: the time reversal of optimal broadcast."""
        return self._rooted("reduce", "reduction", root)

    # -- all-to-all -------------------------------------------------------

    def allreduce(self) -> Plan:
        """Combining broadcast (Theorem 4.1): all-reduce in reduce time.

        Requires the postal model and ``P = P(T)`` for some ``T`` (the
        algorithm's natural sizes); other sizes fall back to
        reduce-then-broadcast on exactly ``P`` ranks.
        """
        def build() -> Plan:
            P, L = self.params.P, self.params.L
            if self.params.is_postal:
                T = broadcast_time_postal(P, L)
                if fib(L, T) == P and T >= L:
                    return self._plan(
                        "allreduce",
                        registry.plan("allreduce", self.params),
                        algorithm="combining",
                        T=T,
                    )
            reduction = registry.plan("reduction", self.params)
            # the root creates the broadcast item when the reduction ends
            bcast = shift(
                registry.plan("broadcast", self.params),
                registry.completion(reduction),
            )
            initial = dict(reduction.initial)
            initial[0] = initial[0] | bcast.initial[0]
            schedule = Schedule(
                params=self.params,
                sends=[*reduction.sends, *bcast.sends],
                initial=initial,
                source_items={**reduction.source_items, **bcast.source_items},
            )
            return self._plan("allreduce", schedule, algorithm="reduce+bcast")

        return self._cached(("allreduce",), build)

    def allgather(self) -> Plan:
        """All-to-all broadcast: the Section 4.1 cyclic schedule."""
        return self._cached(
            ("allgather",),
            lambda: self._plan("allgather", all_to_all_schedule(self.params)),
        )

    def alltoall(self) -> Plan:
        """All-to-all personalized communication (same cyclic timing)."""
        return self._cached(
            ("alltoall",),
            lambda: self._plan(
                "alltoall", all_to_all_personalized_schedule(self.params)
            ),
        )

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.params.P:
            raise ValueError(f"root {root} out of range for P={self.params.P}")

    # -- sub-communicators --------------------------------------------------

    def subset(self, ranks: Sequence[int]) -> tuple["Communicator", dict[int, int]]:
        """A communicator over a subset of ranks (MPI_Comm_split style).

        Returns the sub-communicator (its ranks renumbered ``0..n-1``) and
        the map from sub-rank to this communicator's physical rank; use
        :func:`embed_plan` to lift a sub-plan back to physical ranks.
        """
        ranks = list(dict.fromkeys(ranks))
        if not ranks:
            raise ValueError("a sub-communicator needs at least one rank")
        for r in ranks:
            self._check_root(r)
        sub = Communicator(self.params.with_processors(len(ranks)))
        return sub, {i: r for i, r in enumerate(ranks)}


def embed_plan(
    plan: Plan, mapping: dict[int, int], params: LogPParams | None = None
) -> Schedule:
    """Lift a sub-communicator plan onto the parent's physical ranks.

    ``mapping`` is the sub-rank -> physical-rank map from
    :meth:`Communicator.subset`; ``params`` (optional) re-tags the result
    with the parent machine's parameters.  The lifted schedule is
    re-validated.
    """
    lifted = remap(plan.schedule, mapping)
    if params is not None:
        lifted = Schedule(
            params=params,
            sends=lifted.sends,
            initial=lifted.initial,
            source_items=lifted.source_items,
        )
    assert_valid(lifted)
    return lifted


class VirtualCluster:
    """Executes collective plans on real Python values.

    A thin front end over :mod:`repro.exec`: every collective lowers
    its plan's schedule to per-rank programs and runs them on a real
    transport (``backend="inproc"`` by default — one in-process scheduler,
    deterministic).  The backend is resolved once, at construction, so
    an unknown name fails there and an ``mp`` cluster reuses one worker
    pool across its collectives.  Data strictly follows the plan's
    messages: each send moves the value it names, matched receives
    deliver it, and reductions fold with the user's operator in arrival
    order — so a wrong schedule produces wrong data, not just a wrong
    time.

    The reported cycle counts still come from the *model* (the plan's
    analysis), never from wall clocks.
    """

    def __init__(
        self,
        params: LogPParams,
        backend: str = "inproc",
        timeout: float = 30.0,
    ):
        from repro.exec import get_transport

        self.params = params
        self.comm = Communicator(params)
        self.backend = backend
        self.transport = get_transport(backend)
        self.timeout = timeout

    def _execute(
        self,
        plan: Plan,
        *,
        payloads: dict[int, dict[Any, Any]] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
        accumulators: dict[int, Any] | None = None,
    ) -> "ExecResult":
        from repro.exec import execute

        return execute(
            plan.schedule,
            transport=self.transport,
            payloads=payloads,
            combine=combine,
            accumulators=accumulators,
            timeout=self.timeout,
        )

    # -- data-movement collectives ----------------------------------------

    def bcast(self, value: Any, root: int = 0) -> tuple[list[Any], int]:
        plan = self.comm.bcast(root)
        (item,) = plan.schedule.initial[root]
        result = self._execute(plan, payloads={root: {item: value}})
        results = [result.values[p][item] for p in range(self.params.P)]
        return results, plan.cycles

    def kitem_bcast(
        self, values: Sequence[Any], root: int = 0
    ) -> tuple[list[list[Any]], int]:
        plan = self.comm.kitem_bcast(len(values), root)
        items = sorted(plan.schedule.initial[root])
        result = self._execute(plan, payloads={root: dict(zip(items, values))})
        ordered = [
            [result.values[p][item] for item in items]
            for p in range(self.params.P)
        ]
        return ordered, plan.cycles

    def scatter(self, values: Sequence[Any], root: int = 0) -> tuple[list[Any], int]:
        if len(values) != self.params.P:
            raise ValueError(f"scatter needs P={self.params.P} values")
        plan = self.comm.scatter(root)
        result = self._execute(
            plan,
            payloads={
                root: {
                    ("scatter", dst): values[dst]
                    for dst in range(self.params.P)
                    if dst != root
                }
            },
        )
        return [
            values[root] if p == root else result.values[p][("scatter", p)]
            for p in range(self.params.P)
        ], plan.cycles

    def gather(self, values: Sequence[Any], root: int = 0) -> tuple[list[Any], int]:
        if len(values) != self.params.P:
            raise ValueError(f"gather needs P={self.params.P} values")
        plan = self.comm.gather(root)
        result = self._execute(
            plan,
            payloads={
                p: {item: values[p] for item in items}
                for p, items in plan.schedule.initial.items()
            },
        )
        root_store = result.values[root]
        return [
            values[p] if p == root else root_store[("gather", p)]
            for p in range(self.params.P)
        ], plan.cycles

    def allgather(self, values: Sequence[Any]) -> tuple[list[list[Any]], int]:
        if len(values) != self.params.P:
            raise ValueError(f"allgather needs P={self.params.P} values")
        plan = self.comm.allgather()
        result = self._execute(
            plan,
            payloads={
                p: {("a2a", p): values[p]} for p in range(self.params.P)
            },
        )
        ordered = [
            [result.values[p][("a2a", q)] for q in range(self.params.P)]
            for p in range(self.params.P)
        ]
        return ordered, plan.cycles

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> tuple[list[list[Any]], int]:
        P = self.params.P
        if len(matrix) != P or any(len(row) != P for row in matrix):
            raise ValueError(f"alltoall needs a {P}x{P} matrix")
        plan = self.comm.alltoall()
        result = self._execute(
            plan,
            payloads={
                i: {
                    ("p2p", i, j): matrix[i][j] for j in range(P) if j != i
                }
                for i in range(P)
            },
        )
        ordered = [
            [
                matrix[p][p] if q == p else result.values[p][("p2p", q, p)]
                for q in range(P)
            ]
            for p in range(P)
        ]
        return ordered, plan.cycles

    # -- reductions ----------------------------------------------------------

    def reduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
    ) -> tuple[Any, int]:
        if len(values) != self.params.P:
            raise ValueError(f"reduce needs P={self.params.P} values")
        plan = self.comm.reduce(root)
        # combine mode: every delivery folds into the receiver's running
        # accumulator in arrival order, every send ships the current
        # value — the execution-side meaning of the reversal schedule
        result = self._execute(
            plan,
            combine=op,
            accumulators={p: values[p] for p in range(self.params.P)},
        )
        return result.values[root], plan.cycles

    def allreduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> tuple[list[Any], int]:
        P = self.params.P
        if len(values) != P:
            raise ValueError(f"allreduce needs P={P} values")
        plan = self.comm.allreduce()
        if plan.meta.get("algorithm") == "combining":
            # the combining schedule on real data: each message carries
            # the sender's running value at send time, which is exactly
            # combine mode's send-the-accumulator semantics
            result = self._execute(
                plan,
                combine=op,
                accumulators={p: values[p] for p in range(P)},
            )
            return [result.values[p] for p in range(P)], plan.cycles
        total, _ = self.reduce(values, op, root=0)
        results, _ = self.bcast(total, root=0)
        return results, plan.cycles
