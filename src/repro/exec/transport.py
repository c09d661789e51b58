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
  inbox: a pipe that only its owner reads and that writers fill with
  length-framed pickles from their own thread (:class:`_Inbox`), so no
  process of the pool runs a second thread.  The pool is forked on the
  first run and lives as long as the transport instance: later runs
  only ship each used worker one pickled job.
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
import select
import signal
import struct
import time
import traceback
import weakref
from collections import deque
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
# an inbox frame: the pickled message's byte length, then the pickle
_FRAME_HEADER = struct.Struct("<Q")
# bytes an inbox owner reads per call: one default pipe buffer
_READ_CHUNK = 1 << 16
# how often a writer waiting for an inbox's lock reads its own inbox
_LOCK_POLL_S = 0.005
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


class _Inbox:
    """One process's inbound pipe: many writers, one reading owner.

    ``put`` pickles a message, prefixes its length and writes the frame
    with non-blocking ``os.write`` from the caller's own thread, holding
    the inbox's lock so frames never interleave; no feeder thread is
    involved.  While the pipe is full or another writer holds the lock,
    the writer reads its own inbox (``drain``) into that inbox's local
    buffer, so two processes writing large messages to each other at
    once cannot deadlock.  ``deadline`` bounds how long a stalled put
    waits (``TimeoutError``).  Only the owner calls ``get``: buffered
    messages first, then it waits on the read end with ``poll`` (which,
    unlike ``select``, takes any fd number).  The ends are
    ``Connection`` objects, which reach a worker under every start
    method.
    """

    def __init__(self, ctx: Any) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()
        os.set_blocking(self._writer.fileno(), False)
        self._local()

    def _local(self) -> None:
        # owner-side state, never shared: bytes short of a whole frame
        # and whole messages not yet taken
        self._partial = bytearray()
        self._messages: deque[Any] = deque()
        self._poll = select.poll()
        self._poll.register(self._reader.fileno(), select.POLLIN)

    def __getstate__(self) -> tuple[Any, Any, Any]:
        return self._reader, self._writer, self._lock

    def __setstate__(self, state: tuple[Any, Any, Any]) -> None:
        self._reader, self._writer, self._lock = state
        self._local()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()

    def put(
        self,
        message: Any,
        *,
        drain: _Inbox | None = None,
        deadline: float = float("inf"),
    ) -> None:
        """Send ``message``; ``drain`` is the calling process's own inbox."""
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        frame = memoryview(_FRAME_HEADER.pack(len(data)) + data)
        while not self._lock.acquire(timeout=_LOCK_POLL_S):
            _check_deadline(deadline)
            if drain is not None:
                drain._take()
        try:
            fd = self._writer.fileno()
            while frame:
                try:
                    frame = frame[os.write(fd, frame) :]
                except BlockingIOError:
                    self._wait_room(drain, deadline)
        finally:
            self._lock.release()

    def _wait_room(self, drain: _Inbox | None, deadline: float) -> None:
        """Wait until the pipe takes bytes again, reading ``drain``."""
        _check_deadline(deadline)
        poller = select.poll()
        poller.register(self._writer.fileno(), select.POLLOUT)
        if drain is not None:
            poller.register(drain._reader.fileno(), select.POLLIN)
        wait_s = max(0.0, min(deadline - time.monotonic(), _ORPHAN_POLL_S))
        for fd, _mask in poller.poll(wait_s * 1000):
            if drain is not None and fd == drain._reader.fileno():
                drain._read()

    def get(self, timeout: float) -> Any:
        """The next message; ``queue.Empty`` after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while not self._messages:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000):
                raise queue.Empty
            self._read()
        return self._messages.popleft()

    def _take(self) -> None:
        """Read what the pipe holds now, if anything, without waiting."""
        if self._poll.poll(0):
            self._read()

    def _read(self) -> None:
        """One read of a readable pipe, split into whole messages."""
        chunk = os.read(self._reader.fileno(), _READ_CHUNK)
        if not chunk:
            raise EOFError("mp inbox: every writer closed the pipe")
        partial = self._partial
        partial += chunk
        start, header = 0, _FRAME_HEADER.size
        while len(partial) - start >= header:
            (size,) = _FRAME_HEADER.unpack_from(partial, start)
            end = start + header + size
            if end > len(partial):
                break
            self._messages.append(pickle.loads(partial[start + header : end]))
            start = end
        del partial[:start]


def _check_deadline(deadline: float) -> None:
    if time.monotonic() >= deadline:
        raise TimeoutError("mp inbox: the pipe stayed full until the deadline")


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
    inboxes: list[_Inbox],
    results: _Inbox,
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
    Every put of a run gives up ``_GRACE_S`` past the run's deadline
    (``TimeoutError``), so a worker whose reader is gone dies instead
    of hanging.
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
            deadline = time.monotonic() + job.timeout
            status, payload = _serve(
                job, deadline, inbox, inboxes, early, combine, reduce_op
            )
            results.put(
                (worker_id, status, payload),
                drain=inbox,
                deadline=deadline + _GRACE_S,
            )
    except Exception:
        # an unreadable message or an unroutable send: die loudly, and
        # the parent's liveness check reports this worker's ranks
        traceback.print_exc()
        os._exit(1)


def _serve(
    job: _Job,
    deadline: float,
    inbox: _Inbox,
    inboxes: list[_Inbox],
    early: list[list[Routed]],
    combine: Combine | None,
    reduce_op: Combine | None,
) -> tuple[str, Any]:
    """Run one job's ranks; ``early`` holds batches that overtook it."""
    run_id, route = job.run_id, job.route

    def ship(batch: list[Routed]) -> None:
        for worker, part in _split(batch, route.__getitem__).items():
            inboxes[worker].put(
                (run_id, part), drain=inbox, deadline=deadline + _GRACE_S
            )

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
        deadline=deadline,
        ship=ship,
        wait=wait,
    )


def _stop_pool(procs: list[Any], inboxes: list[_Inbox]) -> None:
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        proc.close()
    for inbox in inboxes:
        inbox.close()


class _MpPool:
    """Forked workers, one :class:`_Inbox` each and the results inbox.

    The parent writes jobs to the workers' inboxes and reads the
    results inbox; workers write batches to each other's inboxes and
    results to the parent's.

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
        self.inboxes = [_Inbox(ctx) for _ in range(size)]
        self.results = _Inbox(ctx)
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
    ships one batch per peer worker per scheduling round.  Jobs,
    batches and results travel as length-framed pickles on one
    :class:`_Inbox` pipe per worker plus one for results, written from
    the sender's own thread: each worker is one thread, and a run on a
    forked pool starts no thread in the parent either.
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
        deadline = time.monotonic() + timeout + _GRACE_S
        try:
            for inbox, job in zip(pool.inboxes, jobs):
                try:
                    inbox.put(job, drain=pool.results, deadline=deadline)
                except TimeoutError:
                    raise _unresponsive(timeout) from None
            results = self._collect(pool, groups, timeout, deadline)
            return _merge(plan, self.name, timeout, results)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _collect(
        pool: _MpPool, groups: list[list[int]], timeout: float, deadline: float
    ) -> list[tuple[str, Any]]:
        """One ``(status, payload)`` per used worker, in worker order."""
        results: dict[int, tuple[str, Any]] = {}
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
                raise _unresponsive(timeout)
        return [results[w] for w in range(len(groups))]


def _unresponsive(timeout: float) -> ExecTimeout:
    return ExecTimeout(
        f"timeout: mp transport workers unresponsive "
        f"{_GRACE_S:.0f}s past the {timeout:.1f}s deadline; "
        f"terminating the pool"
    )


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
