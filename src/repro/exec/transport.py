"""Transports: move envelopes between ranks, nothing more.

Three implementations of the one-method-deep :class:`Transport`
protocol:

* ``inproc`` — one thread + one queue per rank, always available,
  deterministic results (payload folds happen in program order, so
  thread scheduling cannot change any outcome).
* ``mp`` — real OS processes.  Ranks are multiplexed onto a small
  worker pool (one inbound ``multiprocessing.Queue`` per worker, a
  dispatcher thread routing to rank-local queues), so ``P`` can exceed
  the core count by orders of magnitude.  The pool is forked on the
  first run and lives as long as the transport instance: later runs
  only ship each used worker one pickled job.
* ``mpi`` — one program per MPI rank via mpi4py; constructing it
  without mpi4py raises :class:`TransportUnavailable` so callers and
  test suites skip cleanly.

Rank semantics (instruction walk, matched receives, folds) live in
:mod:`repro.exec.engine`; a hung execution surfaces as one
:class:`ExecTimeout` whose message reuses the simulator's blocked-rank
formatting (:func:`repro.sim.machine.format_blocked`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import traceback
import weakref
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Protocol

from repro.exec.engine import Envelope, RankBlocked, RankOutcome, run_rank
from repro.exec.errors import ExecError, ExecTimeout, TransportUnavailable
from repro.exec.program import ExecPlan, RankProgram
from repro.sim.machine import format_blocked, format_rank_set

__all__ = [
    "Transport",
    "TransportRun",
    "InprocTransport",
    "MpTransport",
    "MpiTransport",
    "get_transport",
    "available_transports",
]

# extra wall-clock slack the parent allows workers beyond the rank
# deadline before declaring the pool unresponsive
_GRACE_S = 10.0
# how often an idle mp worker checks that its parent is still alive
_ORPHAN_POLL_S = 1.0

Combine = Callable[[Any, Any], Any]


class TransportRun:
    """Raw transport output: per-rank delivered pairs + final values."""

    __slots__ = ("delivered", "values")

    def __init__(
        self,
        delivered: dict[int, list[tuple[int, int]]],
        values: dict[int, Any],
    ) -> None:
        self.delivered = delivered
        self.values = values


class Transport(Protocol):
    """Executes every rank program of a plan and reports the outcome."""

    name: str

    def run(
        self,
        plan: ExecPlan,
        *,
        stores: dict[int, dict[int, Any]],
        combine: Combine | None,
        accumulators: dict[int, Any],
        reduce_op: Combine | None,
        timeout: float,
    ) -> TransportRun: ...


def _raise_blocked(
    plan: ExecPlan,
    blocked: list[RankBlocked],
    transport: str,
    timeout: float,
) -> None:
    blocked = sorted(blocked, key=lambda b: b.rank)
    first = blocked[0]
    first_item = plan.table.decode(first.code)
    waiters = [
        (
            b.rank,
            f"rank {b.rank} waits to receive item "
            f"{plan.table.decode(b.code)!r} from rank {b.src} "
            f"(instruction {b.instr + 1}/{b.total})",
        )
        for b in blocked
    ]
    raise ExecTimeout(
        format_blocked(
            f"timeout: {transport} transport hit the {timeout:.1f}s "
            f"deadline; earliest blocked receive: rank {first.rank} <- "
            f"rank {first.src}, item {first_item!r}",
            waiters,
            total_ranks=plan.num_ranks,
        )
    )


class _QueueEndpoint:
    """Inproc endpoint: direct put into the destination rank's queue."""

    __slots__ = ("_inboxes", "_inbox")

    def __init__(
        self, inboxes: dict[int, "queue.Queue[Envelope]"], rank: int
    ) -> None:
        self._inboxes = inboxes
        self._inbox = inboxes[rank]

    def send(self, dst: int, envelope: Envelope) -> None:
        self._inboxes[dst].put(envelope)

    def recv(self, timeout: float) -> Envelope | None:
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None


def _run_rank_group(
    programs: Mapping[int, RankProgram],
    endpoint_of: Callable[[int], Any],
    *,
    stores: dict[int, dict[int, Any]],
    combine: Combine | None,
    accumulators: dict[int, Any],
    reduce_op: Combine | None,
    deadline: float,
) -> tuple[dict[int, RankOutcome], list[RankBlocked], dict[int, Exception]]:
    """Run a set of rank programs on threads; collect the outcomes.

    Shared helper for the inproc transport (all ranks) and each mp
    worker (its slice of ranks).  Dict writes are per-key from distinct
    threads, so no locking is needed.
    """
    outcomes: dict[int, RankOutcome] = {}
    blocked: list[RankBlocked] = []
    failures: dict[int, Exception] = {}

    def target(rank: int) -> None:
        try:
            outcomes[rank] = run_rank(
                rank,
                programs[rank],
                endpoint_of(rank),
                store=stores.get(rank, {}),
                combine=combine,
                accumulator=accumulators.get(rank),
                reduce_op=reduce_op,
                deadline=deadline,
            )
        except RankBlocked as exc:
            blocked.append(exc)
        except Exception as exc:  # pragma: no cover - defensive
            failures[rank] = exc

    threads = [
        threading.Thread(target=target, args=(rank,), daemon=True)
        for rank in sorted(programs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(deadline - time.monotonic(), 0.0) + 2.0)
    return outcomes, blocked, failures


class InprocTransport:
    """Threads + queues in this process; the always-available default."""

    name = "inproc"

    def run(
        self,
        plan: ExecPlan,
        *,
        stores: dict[int, dict[int, Any]],
        combine: Combine | None,
        accumulators: dict[int, Any],
        reduce_op: Combine | None,
        timeout: float,
    ) -> TransportRun:
        deadline = time.monotonic() + timeout
        inboxes: dict[int, "queue.Queue[Envelope]"] = {
            rank: queue.Queue() for rank in plan.programs
        }
        outcomes, blocked, failures = _run_rank_group(
            plan.programs,
            lambda rank: _QueueEndpoint(inboxes, rank),
            stores=stores,
            combine=combine,
            accumulators=accumulators,
            reduce_op=reduce_op,
            deadline=deadline,
        )
        if failures:
            rank = min(failures)
            raise ExecError(
                f"inproc transport: rank {rank} failed: {failures[rank]}"
            ) from failures[rank]
        if blocked:
            _raise_blocked(plan, blocked, self.name, timeout)
        return TransportRun(
            delivered={r: o.delivered for r, o in outcomes.items()},
            values={r: o.value for r, o in outcomes.items()},
        )


def _mp_context() -> Any:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


class _MpEndpoint:
    """mp endpoint: every send goes over the destination worker's
    inbound process queue, tagged with the run id and destination rank."""

    __slots__ = ("_run_id", "_inboxes", "_route", "_local")

    def __init__(
        self,
        run_id: int,
        inboxes: list[Any],
        route: dict[int, int],
        local: "queue.Queue[Envelope]",
    ) -> None:
        self._run_id = run_id
        self._inboxes = inboxes
        self._route = route
        self._local = local

    def send(self, dst: int, envelope: Envelope) -> None:
        self._inboxes[self._route[dst]].put((self._run_id, dst, envelope))

    def recv(self, timeout: float) -> Envelope | None:
        try:
            return self._local.get(timeout=timeout)
        except queue.Empty:
            return None


class _Job(NamedTuple):
    """One worker's share of one run; the parent ships it pickled."""

    run_id: int
    programs: dict[int, RankProgram]
    route: dict[int, int]  # rank -> index of the worker hosting it
    stores: dict[int, dict[int, Any]]
    accumulators: dict[int, Any]
    use_combine: bool
    use_reduce: bool
    timeout: float


def _mp_worker_main(
    worker_id: int,
    inboxes: list[Any],
    results: Any,
    combine: Combine | None,
    reduce_op: Combine | None,
    fault_ranks: frozenset[int],
) -> None:
    """Entry point of one pooled mp worker: serve runs until stopped.

    A dispatcher thread owns the worker's inbox.  A job (pickled bytes)
    opens a run with fresh rank-local queues, fed first with any
    envelopes of that run that overtook the job.  An envelope
    ``(run_id, dst, envelope)`` of the open run goes to its rank's
    queue, one of a later run waits for that run's job, and one of an
    earlier run is stale and dropped.  The main thread runs each job's
    ranks on threads and reports one ``(worker_id, status, payload)``
    result.  ``combine``/``reduce_op`` were captured at fork; a job only
    says whether its run uses them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's
    parent = os.getppid()
    inbox = inboxes[worker_id]
    opened: queue.Queue[tuple[_Job, dict[int, queue.Queue[Envelope]]]] = (
        queue.Queue()
    )

    def dispatch() -> None:
        run_id = -1
        local: dict[int, "queue.Queue[Envelope]"] = {}
        early: dict[int, list[tuple[int, Envelope]]] = {}
        try:
            while True:
                message = inbox.get()
                if type(message) is tuple:
                    rid, dst, envelope = message
                    if rid == run_id:
                        local[dst].put(envelope)
                    elif rid > run_id:
                        early.setdefault(rid, []).append((dst, envelope))
                    continue
                job: _Job = pickle.loads(message)
                run_id = job.run_id
                local = {rank: queue.Queue() for rank in job.programs}
                for dst, envelope in early.pop(run_id, ()):
                    local[dst].put(envelope)
                opened.put((job, local))
        except Exception:
            # an unreadable message: die loudly, and the parent's
            # liveness check reports this worker's ranks
            traceback.print_exc()
            os._exit(1)

    threading.Thread(target=dispatch, daemon=True).start()
    while True:
        try:
            job, local = opened.get(timeout=_ORPHAN_POLL_S)
        except queue.Empty:
            if os.getppid() != parent:
                os._exit(0)  # the parent died without closing the pool
            continue
        if fault_ranks.intersection(job.programs):
            os._exit(17)  # fault injection for the failure-path tests
        endpoints = {
            rank: _MpEndpoint(job.run_id, inboxes, job.route, inbound)
            for rank, inbound in local.items()
        }
        outcomes, blocked, failures = _run_rank_group(
            job.programs,
            endpoints.__getitem__,
            stores=job.stores,
            combine=combine if job.use_combine else None,
            accumulators=job.accumulators,
            reduce_op=reduce_op if job.use_reduce else None,
            deadline=time.monotonic() + job.timeout,
        )
        if failures:
            rank = min(failures)
            results.put(
                (worker_id, "error", f"rank {rank} failed: {failures[rank]}")
            )
        elif blocked:
            results.put(
                (
                    worker_id,
                    "blocked",
                    [(b.rank, b.instr, b.total, b.src, b.code) for b in blocked],
                )
            )
        else:
            results.put(
                (
                    worker_id,
                    "ok",
                    {r: (o.delivered, o.value) for r, o in outcomes.items()},
                )
            )


def _stop_pool(procs: list[Any], queues: list[Any]) -> None:
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    for q in queues:
        q.close()


class _MpPool:
    """Forked workers, their inboxes and the shared result queue.

    The workers captured ``combine``/``reduce_op`` at fork, so a run
    may use this pool only if its non-``None`` callables are those.
    ``stop`` stops the workers once: when called, when the owning
    transport is collected, or at interpreter exit.
    """

    def __init__(
        self,
        owner: object,
        size: int,
        combine: Combine | None,
        reduce_op: Combine | None,
        fault_ranks: frozenset[int],
    ) -> None:
        ctx = _mp_context()
        self.combine = combine
        self.reduce_op = reduce_op
        self.inboxes = [ctx.Queue() for _ in range(size)]
        self.results = ctx.Queue()
        self.procs = [
            ctx.Process(
                target=_mp_worker_main,
                args=(
                    w,
                    self.inboxes,
                    self.results,
                    combine,
                    reduce_op,
                    fault_ranks,
                ),
                daemon=True,
            )
            for w in range(size)
        ]
        for proc in self.procs:
            proc.start()
        self.stop = weakref.finalize(
            owner, _stop_pool, self.procs, [*self.inboxes, self.results]
        )

    def serves(self, combine: Combine | None, reduce_op: Combine | None) -> bool:
        return (
            (combine is None or combine is self.combine)
            and (reduce_op is None or reduce_op is self.reduce_op)
            and all(proc.is_alive() for proc in self.procs)
        )


class MpTransport:
    """Real OS processes; ranks multiplexed onto a long-lived worker pool.

    ``workers`` sizes the pool (a positive int; default: core count,
    capped at 8).  The pool is forked on the first :meth:`run` and kept
    for later runs, in the master/worker shape of nengo_mpi: each run
    ships one pickled job per used worker (its rank programs, stores
    and accumulators) and the first ``min(workers, ranks)`` workers
    host rank groups.  ``combine``/``reduce_op`` are captured at fork,
    so lambdas need no pickling; a run whose callables differ from the
    captured ones re-forks the pool.  Any failed run (rank error,
    blocked ranks, dead or unresponsive worker) tears the pool down and
    the next run forks a fresh one.  :meth:`close` (or leaving a
    ``with`` block, or dropping the transport) stops the workers.
    Under the ``spawn`` start method the callables must be picklable.
    """

    name = "mp"

    def __init__(
        self, workers: int | None = None, fault_ranks: Iterable[int] = ()
    ) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 2, 8)
        elif (
            isinstance(workers, bool)
            or not isinstance(workers, int)
            or workers < 1
        ):
            raise ValueError(
                f"mp transport: workers must be a positive int, got {workers!r}"
            )
        self.workers = workers
        self.fault_ranks = frozenset(fault_ranks)
        self._pool: _MpPool | None = None
        self._run_id = 0

    def close(self) -> None:
        """Stop the worker pool, if any; a later run forks a new one."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    def __enter__(self) -> "MpTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def run(
        self,
        plan: ExecPlan,
        *,
        stores: dict[int, dict[int, Any]],
        combine: Combine | None,
        accumulators: dict[int, Any],
        reduce_op: Combine | None,
        timeout: float,
    ) -> TransportRun:
        ranks = sorted(plan.programs)
        if not ranks:
            return TransportRun(delivered={}, values={})
        used = min(self.workers, len(ranks))
        groups = [ranks[w::used] for w in range(used)]
        route = {rank: w for w, group in enumerate(groups) for rank in group}
        self._run_id += 1
        # pickle every job before sending any: a payload that cannot be
        # pickled fails here, with the pool untouched
        jobs = [
            pickle.dumps(
                _Job(
                    self._run_id,
                    {r: plan.programs[r] for r in group},
                    route,
                    {r: stores[r] for r in group if r in stores},
                    {r: accumulators[r] for r in group if r in accumulators},
                    combine is not None,
                    reduce_op is not None,
                    timeout,
                ),
                pickle.HIGHEST_PROTOCOL,
            )
            for group in groups
        ]
        if self._pool is None or not self._pool.serves(combine, reduce_op):
            self.close()
            self._pool = _MpPool(
                self, self.workers, combine, reduce_op, self.fault_ranks
            )
        pool = self._pool
        try:
            for inbox, job in zip(pool.inboxes, jobs):
                inbox.put(job)
            results = self._collect(pool, groups, timeout)
            errors = [p for s, p in results if s == "error"]
            if errors:
                raise ExecError(f"mp transport: {errors[0]}")
            blocked = [
                RankBlocked(*info)
                for status, payload in results
                if status == "blocked"
                for info in payload
            ]
            if blocked:
                _raise_blocked(plan, blocked, self.name, timeout)
        except BaseException:
            self.close()
            raise
        delivered: dict[int, list[tuple[int, int]]] = {}
        values: dict[int, Any] = {}
        for _status, payload in results:
            for rank, (dlv, value) in payload.items():
                delivered[rank] = dlv
                values[rank] = value
        return TransportRun(delivered=delivered, values=values)

    @staticmethod
    def _collect(
        pool: _MpPool, groups: list[list[int]], timeout: float
    ) -> list[tuple[str, Any]]:
        """One ``(status, payload)`` per used worker, in worker order."""
        results: dict[int, tuple[str, Any]] = {}
        deadline = time.monotonic() + timeout + _GRACE_S
        while len(results) < len(groups):
            try:
                worker_id, status, payload = pool.results.get(timeout=0.25)
            except queue.Empty:
                pass
            else:
                results[worker_id] = (status, payload)
                continue
            for w, group in enumerate(groups):
                proc = pool.procs[w]
                if w not in results and not proc.is_alive():
                    raise ExecError(
                        f"mp transport: worker {w} hosting ranks "
                        f"{format_rank_set(group)} exited with code "
                        f"{proc.exitcode} before completing; remaining "
                        f"workers were terminated"
                    )
            if time.monotonic() > deadline:
                raise ExecTimeout(
                    f"timeout: mp transport workers unresponsive "
                    f"{_GRACE_S:.0f}s past the {timeout:.1f}s deadline; "
                    f"terminating the pool"
                )
        return [results[w] for w in range(len(groups))]


class MpiTransport:
    """One program per MPI rank via mpi4py (optional dependency).

    Intended to run under ``mpiexec``: every process executes its own
    rank's program against ``MPI.COMM_WORLD`` and rank 0 gathers the
    full result.  Constructing this transport without mpi4py installed
    raises :class:`TransportUnavailable` so callers skip cleanly.
    """

    name = "mpi"

    def __init__(self) -> None:
        try:
            from mpi4py import MPI
        except ImportError as exc:
            raise TransportUnavailable(
                "mpi transport requires mpi4py, which is not installed; "
                "use --transport inproc or mp"
            ) from exc
        self._mpi = MPI

    def run(
        self,
        plan: ExecPlan,
        *,
        stores: dict[int, dict[int, Any]],
        combine: Combine | None,
        accumulators: dict[int, Any],
        reduce_op: Combine | None,
        timeout: float,
    ) -> TransportRun:
        mpi = self._mpi
        comm = mpi.COMM_WORLD
        world = comm.Get_size()
        needed = max(plan.programs, default=-1) + 1
        if world < needed:
            raise ExecError(
                f"mpi transport: plan spans ranks 0-{needed - 1} but "
                f"COMM_WORLD has only {world} process(es); launch with "
                f"mpiexec -n {needed}"
            )
        rank = comm.Get_rank()
        deadline = time.monotonic() + timeout
        outcome: tuple[str, Any]
        if rank in plan.programs:
            endpoint = _MpiEndpoint(comm, mpi)
            try:
                result = run_rank(
                    rank,
                    plan.program(rank),
                    endpoint,
                    store=stores.get(rank, {}),
                    combine=combine,
                    accumulator=accumulators.get(rank),
                    reduce_op=reduce_op,
                    deadline=deadline,
                )
                outcome = ("ok", (result.delivered, result.value))
            except RankBlocked as exc:
                outcome = (
                    "blocked",
                    (exc.rank, exc.instr, exc.total, exc.src, exc.code),
                )
        else:
            outcome = ("idle", None)
        gathered = comm.gather((rank, outcome), root=0)
        if rank != 0:
            return TransportRun(delivered={}, values={})
        blocked = [
            RankBlocked(*payload)
            for _, (status, payload) in gathered
            if status == "blocked"
        ]
        if blocked:
            _raise_blocked(plan, blocked, self.name, timeout)
        delivered = {
            r: payload[0]
            for r, (status, payload) in gathered
            if status == "ok"
        }
        values = {
            r: payload[1]
            for r, (status, payload) in gathered
            if status == "ok"
        }
        return TransportRun(delivered=delivered, values=values)


class _MpiEndpoint:
    """mpi4py endpoint: tagged point-to-point with polling receive."""

    __slots__ = ("_comm", "_mpi")

    def __init__(self, comm: Any, mpi: Any) -> None:
        self._comm = comm
        self._mpi = mpi

    def send(self, dst: int, envelope: Envelope) -> None:
        self._comm.send(envelope, dest=dst, tag=0)

    def recv(self, timeout: float) -> Envelope | None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._comm.iprobe(source=self._mpi.ANY_SOURCE, tag=0):
                return self._comm.recv(source=self._mpi.ANY_SOURCE, tag=0)
            time.sleep(0.002)
        return None


_TRANSPORTS: dict[str, type] = {
    "inproc": InprocTransport,
    "mp": MpTransport,
    "mpi": MpiTransport,
}


def get_transport(name: str, **options: Any) -> Transport:
    """Resolve a transport by name; one-line errors for unknown names,
    :class:`TransportUnavailable` for known-but-absent backends."""
    cls = _TRANSPORTS.get(name)
    if cls is None:
        known = ", ".join(sorted(_TRANSPORTS))
        raise ValueError(f"unknown transport {name!r} (known: {known})")
    transport: Transport = cls(**options)
    return transport


def available_transports() -> list[str]:
    """Transport names constructible in this environment, in preference
    order (``mpi`` drops out when mpi4py is absent)."""
    out: list[str] = []
    for name in ("inproc", "mp", "mpi"):
        try:
            get_transport(name)
        except TransportUnavailable:
            continue
        out.append(name)
    return out
