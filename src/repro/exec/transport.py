"""Transports: move envelopes between ranks, nothing more.

Three implementations of the one-method-deep :class:`Transport`
protocol, all driving ranks through one cooperative scheduler
(:func:`repro.exec.engine.run_ranks`):

* ``inproc`` — every rank in one scheduler in the calling thread; no
  threads, no queues, always available, deterministic results.
* ``mp`` — real OS processes.  Ranks are multiplexed onto a small
  worker pool, one scheduler per worker, so ``P`` can exceed the core
  count by orders of magnitude.  A send to a rank of the same worker is
  delivered in memory; sends to other workers are batched, one
  ``put`` per peer worker per scheduling round, on that worker's
  inbound ``multiprocessing.Queue``.  The pool is forked on the first
  run and lives as long as the transport instance: later runs only ship
  each used worker one pickled job.
* ``mpi`` — one program per MPI rank via mpi4py; constructing it
  without mpi4py raises :class:`TransportUnavailable` so callers and
  test suites skip cleanly.

Rank semantics (instruction walk, matched receives, folds) live in
:mod:`repro.exec.engine`; a hung execution surfaces as one
:class:`ExecTimeout` whose message names the blocked rank set
(:func:`format_blocked`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import time
import traceback
import weakref
from typing import Any, Callable, Iterable, Mapping, NamedTuple, NoReturn, Protocol

from repro.exec.engine import (
    Outcome,
    Program,
    RankFailed,
    RanksBlocked,
    Routed,
    Waiter,
    program_lists,
    run_ranks,
)
from repro.exec.errors import ExecError, ExecTimeout, TransportUnavailable
from repro.exec.program import ExecPlan

__all__ = [
    "Transport",
    "TransportRun",
    "InprocTransport",
    "MpTransport",
    "MpiTransport",
    "get_transport",
    "available_transports",
    "format_rank_set",
    "format_blocked",
]

# extra wall-clock slack the parent allows workers beyond the rank
# deadline before declaring the pool unresponsive
_GRACE_S = 10.0
# how often an idle mp worker checks that its parent is still alive
_ORPHAN_POLL_S = 1.0
# detail lines shown per blocked rank before truncating; the summary
# line always covers the full set
_MAX_BLOCKED_LINES = 8

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


def format_rank_set(ranks: list[int]) -> str:
    """Collapse a sorted rank list into run notation: ``0-3,7,9-10``."""
    runs: list[str] = []
    i = 0
    while i < len(ranks):
        j = i
        while j + 1 < len(ranks) and ranks[j + 1] == ranks[j] + 1:
            j += 1
        runs.append(str(ranks[i]) if i == j else f"{ranks[i]}-{ranks[j]}")
        i = j + 1
    return ",".join(runs)


def format_blocked(
    headline: str,
    waiters: list[tuple[int, str]],
    *,
    total_ranks: int,
) -> str:
    """Diagnostic body for a hung execution: ``headline`` plus a
    blocked-rank summary (set collapsed to run notation, usable at large
    ``P``) and per-rank detail lines, truncated after
    ``_MAX_BLOCKED_LINES``.

    ``waiters`` is ``(rank, one-line description)`` in the order the
    details should print; the first entry is the "earliest" one the
    headline typically names.
    """
    ranks = sorted({rank for rank, _ in waiters})
    lines = [detail for _, detail in waiters[:_MAX_BLOCKED_LINES]]
    hidden = len(waiters) - len(lines)
    if hidden > 0:
        lines.append(f"... and {hidden} more blocked rank(s)")
    return (
        f"{headline}: {len(ranks)} of {total_ranks} ranks blocked "
        f"(ranks {format_rank_set(ranks)})\n  " + "\n  ".join(lines)
    )


def _raise_blocked(
    plan: ExecPlan,
    blocked: list[Waiter],
    transport: str,
    timeout: float,
) -> NoReturn:
    blocked = sorted(blocked)
    rank, _instr, _total, src, code = blocked[0]
    waiters = [
        (
            rank,
            f"rank {rank} waits to receive item "
            f"{plan.table.decode(code)!r} from rank {src} "
            f"(instruction {instr + 1}/{total})",
        )
        for rank, instr, total, src, code in blocked
    ]
    raise ExecTimeout(
        format_blocked(
            f"timeout: {transport} transport hit the {timeout:.1f}s "
            f"deadline; earliest blocked receive: rank {rank} <- "
            f"rank {src}, item {plan.table.decode(code)!r}",
            waiters,
            total_ranks=plan.num_ranks,
        )
    )


def _transport_run(outcomes: Mapping[int, Outcome]) -> TransportRun:
    return TransportRun(
        delivered={r: delivered for r, (delivered, _) in outcomes.items()},
        values={r: value for r, (_, value) in outcomes.items()},
    )


def _run_group(programs: Mapping[int, Program], **kwargs: Any) -> tuple[str, Any]:
    """:func:`run_ranks` as a picklable ``(status, payload)`` result."""
    try:
        return "ok", run_ranks(programs, **kwargs)
    except RankFailed as exc:
        return "error", str(exc)
    except RanksBlocked as exc:
        return "blocked", exc.waiters


def _merge(
    plan: ExecPlan, transport: str, timeout: float, results: list[tuple[str, Any]]
) -> TransportRun:
    """Every group's result merged: the first error, else every blocked
    rank, else all outcomes."""
    errors = [payload for status, payload in results if status == "error"]
    if errors:
        raise ExecError(f"{transport} transport: {errors[0]}")
    blocked = [w for status, payload in results if status == "blocked" for w in payload]
    if blocked:
        _raise_blocked(plan, blocked, transport, timeout)
    return _transport_run(
        {r: out for _status, payload in results for r, out in payload.items()}
    )


class InprocTransport:
    """Every rank in one scheduler in the calling thread; the default.

    No threads and no queues: a send is a mailbox append.  Nothing can
    arrive from outside, so a deadlocked plan waits out the deadline
    and raises the blocked-rank report then.
    """

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
        try:
            outcomes = run_ranks(
                {r: program_lists(p) for r, p in plan.programs.items()},
                stores=stores,
                combine=combine,
                accumulators=accumulators,
                reduce_op=reduce_op,
                deadline=time.monotonic() + timeout,
            )
        except RankFailed as exc:
            raise ExecError(f"inproc transport: {exc}") from exc.__cause__
        except RanksBlocked as exc:
            _raise_blocked(plan, exc.waiters, self.name, timeout)
        return _transport_run(outcomes)


def _split(batch: list[Routed], place: Callable[[int], int]) -> dict[int, list[Routed]]:
    """A round's outbound batch grouped by ``place(dst)``: one message
    per peer worker (mp) or peer rank (mpi), in send order."""
    parts: dict[int, list[Routed]] = {}
    for routed in batch:
        parts.setdefault(place(routed[0]), []).append(routed)
    return parts


def _mp_context() -> Any:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


class _Job(NamedTuple):
    """One worker's share of one run; the parent ships it pickled."""

    run_id: int
    programs: dict[int, Program]
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

    One thread reads the worker's inbox.  A job (pickled bytes) opens a
    run; a batch ``(run_id, [(dst, envelope), ...])`` of a later run
    waits for that run's job, and one of the last or an earlier run is
    stale and dropped.  A job's ranks run in :func:`run_ranks`, whose
    inbound side reads the same inbox, and the worker reports one
    ``(worker_id, status, payload)`` result.  ``combine``/``reduce_op``
    were captured at fork; a job only says whether its run uses them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's
    parent = os.getppid()
    inbox = inboxes[worker_id]
    last_run = 0
    held: dict[int, list[list[Routed]]] = {}
    try:
        while True:
            try:
                message = inbox.get(timeout=_ORPHAN_POLL_S)
            except queue.Empty:
                if os.getppid() != parent:
                    os._exit(0)  # the parent died without closing the pool
                continue
            if type(message) is tuple:
                run_id, batch = message
                if run_id > last_run:
                    held.setdefault(run_id, []).append(batch)
                continue
            job: _Job = pickle.loads(message)
            last_run = job.run_id
            if fault_ranks.intersection(job.programs):
                os._exit(17)  # fault injection for the failure-path tests
            early = held.pop(job.run_id, [])
            status, payload = _serve(
                job, inbox, inboxes, early, combine, reduce_op
            )
            results.put((worker_id, status, payload))
    except Exception:
        # an unreadable message or an unroutable send: die loudly, and
        # the parent's liveness check reports this worker's ranks
        traceback.print_exc()
        os._exit(1)


def _serve(
    job: _Job,
    inbox: Any,
    inboxes: list[Any],
    early: list[list[Routed]],
    combine: Combine | None,
    reduce_op: Combine | None,
) -> tuple[str, Any]:
    """Run one job's ranks; ``early`` holds batches that overtook it."""
    run_id, route = job.run_id, job.route

    def ship(batch: list[Routed]) -> None:
        for worker, part in _split(batch, route.__getitem__).items():
            inboxes[worker].put((run_id, part))

    def wait(timeout: float) -> list[Routed]:
        if early:
            overtaken = [routed for batch in early for routed in batch]
            early.clear()
            return overtaken
        try:
            rid, batch = inbox.get(timeout=timeout)
        except queue.Empty:
            return []
        # the parent sends no job before every result of the open run is
        # in, so a batch that is not this run's is a finished run's
        return batch if rid == run_id else []

    return _run_group(
        job.programs,
        stores=job.stores,
        combine=combine if job.use_combine else None,
        accumulators=job.accumulators,
        reduce_op=reduce_op if job.use_reduce else None,
        deadline=time.monotonic() + job.timeout,
        ship=ship,
        wait=wait,
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
    ships one pickled job per used worker (its rank programs as plain
    lists, stores and accumulators) and the first ``min(workers, ranks)``
    workers host rank groups.  Each worker runs its group in one
    cooperative scheduler, delivers same-worker sends in memory and
    ships one batch per peer worker per scheduling round.
    ``combine``/``reduce_op`` are captured at fork, so lambdas need no
    pickling; a run whose callables differ from the captured ones
    re-forks the pool.  Any failed run (rank error,
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
                    {r: program_lists(plan.programs[r]) for r in group},
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
            return _merge(plan, self.name, timeout, results)
        except BaseException:
            self.close()
            raise

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

        def ship(batch: list[Routed]) -> None:
            for dst, part in _split(batch, lambda dst: dst).items():
                comm.send(part, dest=dst, tag=0)

        def wait(seconds: float) -> list[Routed]:
            deadline = time.monotonic() + seconds
            while not comm.iprobe(source=mpi.ANY_SOURCE, tag=0):
                if time.monotonic() >= deadline:
                    return []
                time.sleep(0.002)
            batch: list[Routed] = comm.recv(source=mpi.ANY_SOURCE, tag=0)
            return batch

        outcome: tuple[str, Any] = ("ok", {})
        if rank in plan.programs:
            outcome = _run_group(
                {rank: program_lists(plan.program(rank))},
                stores=stores,
                combine=combine,
                accumulators=accumulators,
                reduce_op=reduce_op,
                deadline=time.monotonic() + timeout,
                ship=ship,
                wait=wait,
            )
        gathered = comm.gather(outcome, root=0)
        if rank != 0:
            return TransportRun(delivered={}, values={})
        return _merge(plan, self.name, timeout, gathered)


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
