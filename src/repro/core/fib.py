"""Generalized Fibonacci machinery: ``f_i``, ``P(t)``, ``B(P)`` and ``k*``.

Definition 2.5 of the paper fixes an integer ``L > 0`` and defines::

    f_i = 1                  for 0 <= i < L
    f_i = f_{i-1} + f_{i-L}  otherwise

Theorem 2.2 states that in the postal model (``o = 0``, ``g = 1``) the
maximum number of processors reachable by a single-item broadcast in ``t``
steps is ``P(t; L, 0, 1) = f_t``.  Fact 2.1 gives the prefix-sum identity
``1 + sum_{i<=t} f_i = f_{t+L}``.

For general LogP parameters the same quantities are obtained by counting
nodes of the universal broadcast tree (Definition 2.3): a node with label
``s`` has children labeled ``s + L + 2o + i*g`` for ``i >= 0``, so the
number of nodes with label exactly ``d`` obeys::

    N(0) = 1
    N(d) = sum_{i >= 0, d - (L+2o) - i*g >= 0} N(d - (L+2o) - i*g)

and ``P(t) = sum_{d<=t} N(d)``.  Everything here is exact integer
arithmetic (Python ints, no overflow).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from typing import Iterator

from repro.params import LogPParams, postal

__all__ = [
    "fib_sequence",
    "fib",
    "reachable_postal",
    "broadcast_time_postal",
    "node_census",
    "broadcast_census",
    "reachable",
    "broadcast_time",
    "k_star",
    "kitem_items_by_deadline",
    "kitem_lower_bound",
    "kitem_lower_bound_closed_form",
    "single_sending_lower_bound",
]


def fib_sequence(L: int, upto: int) -> list[int]:
    """Return ``[f_0, f_1, ..., f_upto]`` for the given latency ``L``.

    >>> fib_sequence(3, 8)
    [1, 1, 1, 2, 3, 4, 6, 9, 13]
    >>> fib_sequence(1, 5)
    [1, 2, 4, 8, 16, 32]
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    seq = [1] * min(L, upto + 1)
    for i in range(L, upto + 1):
        seq.append(seq[i - 1] + seq[i - L])
    return seq


def fib(L: int, i: int) -> int:
    """Return ``f_i`` for latency ``L`` (Definition 2.5)."""
    return fib_sequence(L, i)[i]


def reachable_postal(t: int, L: int) -> int:
    """``P(t; L, 0, 1) = f_t``: processors reachable in ``t`` postal steps.

    Theorem 2.2.  ``t < 0`` reaches only the source itself is not meaningful;
    we require ``t >= 0`` (``P(0) = 1``, the source alone).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return fib(L, t)


def broadcast_time_postal(P: int, L: int) -> int:
    """``B(P; L, 0, 1)``: the minimum number of postal steps to reach ``P``
    processors, i.e. the least ``t`` with ``f_t >= P``.

    >>> broadcast_time_postal(9, 3)
    7
    >>> broadcast_time_postal(1, 3)
    0
    """
    return broadcast_time(P, postal(P=1, L=L))


def _census(params: LogPParams) -> Iterator[int]:
    """Yield ``N(0), N(1), ...`` in O(1) each: ``N(d) = S(d - cost)`` for
    ``d >= 1``, where ``S(x) = N(x) + S(x - g)`` is kept alongside."""
    cost = params.send_cost
    g = params.g
    sums: list[int] = []
    for d in count():
        x = d - cost
        n = 1 if d == 0 else (sums[x] if x >= 0 else 0)
        sums.append(n + (sums[d - g] if d >= g else 0))
        yield n


def node_census(t: int, params: LogPParams) -> list[int]:
    """Number of universal-tree nodes at each label ``0..t`` for general LogP.

    Element ``d`` of the result is ``N(d)``, the number of processors that an
    optimal broadcast informs exactly at time ``d``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return list(islice(_census(params), t + 1))


def reachable(t: int, params: LogPParams) -> int:
    """``P(t; L, o, g)``: processors reachable in ``t`` cycles, general LogP.

    Coincides with :func:`reachable_postal` when ``params.is_postal``.
    """
    return sum(node_census(t, params))


def broadcast_census(P: int, params: LogPParams) -> list[int]:
    """``[N(0), ..., N(B(P))]``: the census grown until ``P`` nodes fit."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    census: list[int] = []
    counts = _census(params)
    total = 0
    while total < P:
        census.append(next(counts))
        total += census[-1]
    return census


def broadcast_time(P: int, params: LogPParams) -> int:
    """``B(P; L, o, g)``: minimum cycles for a ``P``-processor broadcast.

    Computed by growing the universal-tree census until ``P`` nodes fit.
    """
    return len(broadcast_census(P, params)) - 1


# Bounded since PR 7: the serve bench's full Zipf mix touches well under
# a hundred distinct (L, upto) pairs, so 1024 entries never evicts on
# realistic traffic while capping a long-running server's memo growth
# (entries are O(upto) tuples, so the worst case mattered).
# Exposed via repro.serve's /stats endpoint (core_cache_stats).
@lru_cache(maxsize=1024)
def _prefix_sums(L: int, upto: int) -> tuple[int, ...]:
    seq = fib_sequence(L, upto)
    sums = []
    acc = 0
    for value in seq:
        acc += value
        sums.append(acc)
    return tuple(sums)


def k_star(P: int, L: int) -> int:
    """The endgame size ``k*`` of Theorem 3.1 (postal model).

    Let ``n`` be the index with ``f_n < P-1 <= f_{n+1}`` (so that
    ``B(P-1) = n + 1``); then ``k* = floor(sum_{t=0}^{n} f_t / (P-1))``.
    The paper proves ``k* <= L``.  Requires ``P >= 3`` so that ``n`` exists
    (``P - 1 >= 2 > f_0``); for ``P = 2`` every item goes straight to the
    single receiver and we define ``k* = 1`` (each item is its own endgame).
    """
    if P < 2:
        raise ValueError(f"k* needs at least 2 processors, got P={P}")
    if P == 2:
        return 1
    n = broadcast_time_postal(P - 1, L) - 1
    return _prefix_sums(L, n)[n] // (P - 1)


def kitem_items_by_deadline(P: int, L: int, deadline: int) -> int:
    """Theorem 3.1's counting argument: at most ``min(f_j, P-1)`` useful
    receptions occur at step ``L + j``, so at most
    ``floor(sum_{j <= deadline-L} min(f_j, P-1) / (P-1))`` items can be
    fully broadcast by ``deadline``."""
    if P < 2:
        return 10**9
    horizon = deadline - L
    if horizon < 0:
        return 0
    seq = fib_sequence(L, horizon)
    return sum(min(f, P - 1) for f in seq[: horizon + 1]) // (P - 1)


def kitem_lower_bound(P: int, L: int, k: int) -> int:
    """The Theorem 3.1 lower bound: the smallest deadline whose counting
    capacity (:func:`kitem_items_by_deadline`) reaches ``k`` items.

    For ``k > k*`` this equals the paper's closed form
    ``B(P-1) + L + (k-1) - k*`` (see
    :func:`kitem_lower_bound_closed_form`); for ``k <= k*`` the closed
    form can *overshoot* the true optimum (e.g. ``P=5, L=2, k=1``: the
    closed form says 5 but a plain broadcast finishes in ``B(5) = 4``),
    because the counting argument's ``= k* + t - n`` step assumes
    ``t >= n``.  The inversion here is the bound the proof actually
    establishes for every ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if P < 2:
        return 0
    deadline = 0
    while kitem_items_by_deadline(P, L, deadline) < k:
        deadline += 1
    return deadline


def kitem_lower_bound_closed_form(P: int, L: int, k: int) -> int:
    """The paper's printed formula ``B(P-1) + L + (k-1) - k*``.

    Valid (and equal to :func:`kitem_lower_bound`) whenever ``k > k*``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if P < 2:
        return 0
    return broadcast_time_postal(P - 1, L) + L + (k - 1) - k_star(P, L)


def single_sending_lower_bound(P: int, L: int, k: int) -> int:
    """Lower bound ``B(P-1) + L + k - 1`` for single-sending schedules.

    A single-sending schedule transmits each item from the source exactly
    once; the last item leaves no earlier than ``k - 1``, takes ``L`` to its
    first destination and at least ``B(P-1)`` more to reach everyone.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if P < 2:
        return 0
    return broadcast_time_postal(P - 1, L) + L + k - 1
