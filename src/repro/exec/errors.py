"""Exception types for the lowering + execution stack.

Every error carries a one-line, actionable message — the CLI surfaces
them verbatim as ``repro: error: ...`` lines, and the checkers'
CLI-profile rule (REPRO008) holds this package to that contract.
"""

from __future__ import annotations

__all__ = [
    "ExecError",
    "ExecTimeout",
    "ExecVerificationError",
    "LoweringError",
    "TransportUnavailable",
]


class ExecError(RuntimeError):
    """Base class for execution failures (transport or executor)."""


class TransportUnavailable(ExecError):
    """The requested transport cannot run in this environment.

    Raised eagerly at transport construction (e.g. ``mpi`` without
    mpi4py) so callers — and test suites — can skip cleanly instead of
    failing mid-run.
    """


class ExecTimeout(ExecError):
    """The execution deadline expired with ranks still blocked.

    The message (:func:`repro.exec.transport.format_blocked`) names the
    blocked rank set, the earliest blocked instruction, and per-rank
    detail lines.
    """


class ExecVerificationError(ExecError):
    """The delivered multiset diverged from the simulator's."""


class LoweringError(ValueError):
    """The schedule cannot be compiled to per-rank programs.

    Lowering only rejects structural impossibilities (a send whose item
    is neither initially held nor produced by an earlier receive or
    reduction on the same rank); timing legality is the validator's
    business, not the lowerer's.
    """
