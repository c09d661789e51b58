"""First-class machine models: flat, hierarchical, and fault-masked.

The paper analyses one flat, fully-connected, failure-free LogP machine,
and until PR 10 that assumption was baked into every layer as a bare
:class:`~repro.params.LogPParams`.  This module promotes the machine to
an explicit object so builders, validators, lint, cache keys, and the
executor can agree on *which* machine a schedule targets:

* :class:`FlatMachine` — wraps ``LogPParams``; byte-identical behaviour
  to the implicit flat machine (``is_flat`` short-circuits every
  per-edge code path back to the scalar ``L + 2o``).
* :class:`HierarchicalMachine` — a cluster of clusters: ``nodes``
  machines of ``cores`` ranks each, with distinct ``(L, o, g)`` per
  level.  Level 0 prices cross-node edges with ``inter``; level 1
  prices same-node edges with ``intra``.  Rank ``r`` lives on node
  ``r // cores`` as core ``r % cores``; rank ``node * cores`` is the
  node's *leader*.
* :class:`FaultMaskedMachine` — any machine minus a dead-rank set.
  Pricing delegates to the base machine; the mask contributes the
  *expected participant* set that coverage lint (SCHED010) checks
  against, so a healed schedule that silently drops a surviving leaf
  is caught.

Every machine serializes to a canonical JSON-able doc
(:meth:`MachineModel.canonical_doc` / :func:`machine_from_doc`) so the
plan-service cache key can distinguish topologies with equal flat
params, and parses from a compact CLI spec string
(:func:`machine_from_spec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, ClassVar, Mapping

import numpy as np

from repro.params import LogPParams

__all__ = [
    "MachineModel",
    "FlatMachine",
    "HierarchicalMachine",
    "FaultMaskedMachine",
    "machine_from_doc",
    "machine_from_spec",
    "default_hier_machine",
]


class MachineModel:
    """Common interface over flat, hierarchical, and fault-masked machines.

    Subclasses are frozen dataclasses; equality and the canonical doc are
    the same notion (two machines are equal iff their docs are equal), so
    a machine can participate in :class:`~repro.schedule.ops.Schedule`
    equality and in content-addressed cache keys without extra plumbing.
    """

    kind: ClassVar[str] = "abstract"

    # -- shape -----------------------------------------------------------

    @property
    def num_procs(self) -> int:
        """Total rank count (dead ranks still occupy their ids)."""
        raise NotImplementedError

    @property
    def flat_params(self) -> LogPParams:
        """Conservative single-level envelope over ``num_procs`` ranks.

        For a hierarchical machine this prices every edge at the *inter*
        level — the worst case — so closed-form bounds computed from it
        are upper bounds, never promises.
        """
        raise NotImplementedError

    @property
    def levels(self) -> tuple[LogPParams, ...]:
        """Per-level parameters; index = the level of an edge."""
        raise NotImplementedError

    @property
    def is_flat(self) -> bool:
        """True only for :class:`FlatMachine`: one level, no mask."""
        return False

    @property
    def has_flat_pricing(self) -> bool:
        """True when every edge costs exactly ``flat_params.send_cost``.

        Gates the SCHED008 closed-form optimality bound: on machines
        without flat pricing a schedule may legitimately beat the flat
        bound, so the rule must not fire.
        """
        return False

    # -- per-edge pricing ------------------------------------------------

    def edge_levels_np(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Level index of each (src, dst) edge, vectorized."""
        raise NotImplementedError

    def send_cost_np(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Per-edge ``L + 2o`` priced by each edge's level, vectorized."""
        costs = np.fromiter(
            (p.send_cost for p in self.levels),
            dtype=np.int64,
            count=len(self.levels),
        )
        return costs[self.edge_levels_np(srcs, dsts)]

    # -- liveness --------------------------------------------------------

    def alive_np(self) -> np.ndarray:
        """Sorted array of live rank ids."""
        return np.arange(self.num_procs, dtype=np.int64)

    def expected_participants(self) -> np.ndarray | None:
        """Ranks that coverage lint must see, or None for "observed only".

        Only :class:`FaultMaskedMachine` pins this: a healed broadcast
        must reach every *survivor*, including leaves that no longer
        appear in any send.
        """
        return None

    # -- serialization ---------------------------------------------------

    def canonical_doc(self) -> dict[str, Any]:
        """Deterministic JSON-able description (sorted, list-valued)."""
        raise NotImplementedError


def _params_doc(params: LogPParams) -> list[int]:
    return [params.P, params.L, params.o, params.g]


def _params_from_doc(doc: Any, where: str) -> LogPParams:
    if not isinstance(doc, (list, tuple)) or len(doc) != 4:
        raise ValueError(f"{where} must be a [P, L, o, g] list, got {doc!r}")
    P, L, o, g = (int(v) for v in doc)
    return LogPParams(P=P, L=L, o=o, g=g)


@dataclass(frozen=True)
class FlatMachine(MachineModel):
    """The paper's machine: one level, fully connected, failure free."""

    params: LogPParams

    kind: ClassVar[str] = "flat"

    @property
    def num_procs(self) -> int:
        return self.params.P

    @property
    def flat_params(self) -> LogPParams:
        return self.params

    @property
    def levels(self) -> tuple[LogPParams, ...]:
        return (self.params,)

    @property
    def is_flat(self) -> bool:
        return True

    @property
    def has_flat_pricing(self) -> bool:
        return True

    def edge_levels_np(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        return np.zeros(len(srcs), dtype=np.int64)

    def canonical_doc(self) -> dict[str, Any]:
        return {"kind": "flat", "params": _params_doc(self.params)}


@dataclass(frozen=True)
class HierarchicalMachine(MachineModel):
    """``nodes`` clusters of ``cores`` ranks with two-level pricing.

    ``inter`` prices cross-node edges (level 0), ``intra`` same-node
    edges (level 1); both are normalized so ``inter.P == nodes`` and
    ``intra.P == cores`` regardless of what the caller passed.  The rank
    layout is blocked: rank ``r`` = (node ``r // cores``, core
    ``r % cores``), and each node's rank-0 core (``node * cores``) acts
    as its leader in the composed builders.
    """

    nodes: int
    cores: int
    inter: LogPParams
    intra: LogPParams

    kind: ClassVar[str] = "hier"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        object.__setattr__(self, "inter", self.inter.with_processors(self.nodes))
        object.__setattr__(self, "intra", self.intra.with_processors(self.cores))

    @property
    def num_procs(self) -> int:
        return self.nodes * self.cores

    @cached_property
    def flat_params(self) -> LogPParams:
        # built and validated once per machine: a hier plan reads it
        # several times (registry bounds, the composed builder)
        return self.inter.with_processors(self.num_procs)

    def __getstate__(self) -> dict[str, Any]:
        # the cached envelope is derived state; pickles stay field-only
        state = dict(self.__dict__)
        state.pop("flat_params", None)
        return state

    @property
    def levels(self) -> tuple[LogPParams, ...]:
        return (self.inter, self.intra)

    def edge_levels_np(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        return np.where(srcs // self.cores == dsts // self.cores, 1, 0).astype(
            np.int64
        )

    def node_of(self, rank: int) -> int:
        return rank // self.cores

    def core_of(self, rank: int) -> int:
        return rank % self.cores

    def leader(self, node: int) -> int:
        return node * self.cores

    def canonical_doc(self) -> dict[str, Any]:
        return {
            "kind": "hier",
            "nodes": self.nodes,
            "cores": self.cores,
            "inter": _params_doc(self.inter),
            "intra": _params_doc(self.intra),
        }


@dataclass(frozen=True)
class FaultMaskedMachine(MachineModel):
    """A machine with a dead-rank set masked out.

    Rank ids are *not* renumbered — dead ranks keep their slots so a
    healed schedule composes with the original rank space.  Nested masks
    flatten (masking a masked machine unions the dead sets), and the
    dead tuple is stored sorted and deduplicated so equal masks produce
    byte-equal canonical docs and cache keys.
    """

    base: MachineModel
    dead: tuple[int, ...]

    kind: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        base = self.base
        dead = set(int(r) for r in self.dead)
        if isinstance(base, FaultMaskedMachine):
            dead |= set(base.dead)
            base = base.base
        for rank in dead:
            if not 0 <= rank < base.num_procs:
                raise ValueError(
                    f"dead rank {rank} out of range for "
                    f"{base.num_procs}-rank machine"
                )
        if len(dead) >= base.num_procs:
            raise ValueError("cannot mask out every rank")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dead", tuple(sorted(dead)))

    @property
    def num_procs(self) -> int:
        return self.base.num_procs

    @property
    def flat_params(self) -> LogPParams:
        return self.base.flat_params

    @property
    def levels(self) -> tuple[LogPParams, ...]:
        return self.base.levels

    @property
    def has_flat_pricing(self) -> bool:
        return self.base.has_flat_pricing

    def edge_levels_np(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        return self.base.edge_levels_np(srcs, dsts)

    def alive_np(self) -> np.ndarray:
        return np.setdiff1d(
            np.arange(self.num_procs, dtype=np.int64),
            np.asarray(self.dead, dtype=np.int64),
        )

    def expected_participants(self) -> np.ndarray | None:
        return self.alive_np()

    def canonical_doc(self) -> dict[str, Any]:
        return {
            "kind": "fault",
            "base": self.base.canonical_doc(),
            "dead": list(self.dead),
        }


#: Exactly the keys each machine kind's canonical doc carries.  Docs
#: feed cache keys, so a stray key must be an error: silently dropping
#: e.g. ``dead`` on a hier doc would alias a masked machine onto the
#: unmasked one's cache entry.
_DOC_KEYS = {
    "flat": frozenset({"kind", "params"}),
    "hier": frozenset({"kind", "nodes", "cores", "inter", "intra"}),
    "fault": frozenset({"kind", "base", "dead"}),
}


def machine_from_doc(doc: Mapping[str, Any]) -> MachineModel:
    """Inverse of :meth:`MachineModel.canonical_doc`."""
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _DOC_KEYS:
        raise ValueError(f"unknown machine kind {kind!r}")
    unknown = sorted(set(doc) - _DOC_KEYS[kind])
    if unknown:
        raise ValueError(
            f"{kind} machine doc has unknown key(s) {unknown} "
            f"(expected {sorted(_DOC_KEYS[kind])}; a fault mask is "
            f"spelled {{'kind': 'fault', 'base': ..., 'dead': [...]}})"
        )
    if kind == "flat":
        return FlatMachine(_params_from_doc(doc.get("params"), "params"))
    if kind == "hier":
        return HierarchicalMachine(
            nodes=int(doc["nodes"]),
            cores=int(doc["cores"]),
            inter=_params_from_doc(doc.get("inter"), "inter"),
            intra=_params_from_doc(doc.get("intra"), "intra"),
        )
    base = doc.get("base")
    if not isinstance(base, Mapping):
        raise ValueError(f"fault machine doc needs a 'base' doc, got {base!r}")
    dead = doc.get("dead", [])
    return FaultMaskedMachine(
        base=machine_from_doc(base), dead=tuple(int(r) for r in dead)
    )


def _parse_level(text: str, where: str) -> LogPParams:
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError(
            f"{where} must look like L/o/g (e.g. 24/2/6), got {text!r}"
        )
    try:
        L, o, g = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{where} fields must be integers, got {text!r}") from None
    return LogPParams(P=1, L=L, o=o, g=g)


def _parse_dead(text: str) -> tuple[int, ...]:
    body = text[len("dead=") :]
    if not body:
        raise ValueError("dead= segment must list ranks, e.g. dead=3+7")
    try:
        return tuple(int(r) for r in body.split("+"))
    except ValueError:
        raise ValueError(f"dead ranks must be integers, got {body!r}") from None


def machine_from_spec(
    spec: str, params: LogPParams | None = None
) -> MachineModel:
    """Parse a compact machine spec string (the CLI ``--machine`` value).

    Grammar::

        flat                          -- FlatMachine over ``params``
        hier:NxC:L/o/g:L/o/g          -- N nodes x C cores, inter then intra
        <any of the above>:dead=a+b   -- wrap in a FaultMaskedMachine

    Example: ``hier:8x8:24/2/6:2/1/1:dead=9+27`` is the 8x8 reference
    cluster with ranks 9 and 27 dead.
    """
    segments = spec.split(":")
    dead: tuple[int, ...] | None = None
    if segments and segments[-1].startswith("dead="):
        dead = _parse_dead(segments.pop())
    if not segments:
        raise ValueError(f"empty machine spec {spec!r}")
    head = segments[0]
    machine: MachineModel
    if head == "flat":
        if len(segments) != 1:
            raise ValueError(f"flat spec takes no extra segments, got {spec!r}")
        if params is None:
            raise ValueError("flat machine spec needs LogP params")
        machine = FlatMachine(params)
    elif head == "hier":
        if len(segments) != 4:
            raise ValueError(
                f"hier spec must be hier:NxC:L/o/g:L/o/g, got {spec!r}"
            )
        shape = segments[1].split("x")
        if len(shape) != 2:
            raise ValueError(f"hier shape must be NxC (e.g. 8x8), got {segments[1]!r}")
        try:
            nodes, cores = (int(s) for s in shape)
        except ValueError:
            raise ValueError(
                f"hier shape fields must be integers, got {segments[1]!r}"
            ) from None
        machine = HierarchicalMachine(
            nodes=nodes,
            cores=cores,
            inter=_parse_level(segments[2], "inter level"),
            intra=_parse_level(segments[3], "intra level"),
        )
    else:
        raise ValueError(f"unknown machine spec {spec!r} (want flat or hier:...)")
    if dead is not None:
        machine = FaultMaskedMachine(base=machine, dead=dead)
    return machine


def default_hier_machine(params: LogPParams) -> HierarchicalMachine:
    """Factor ``params.P`` into the squarest nodes x cores hierarchy.

    Used by the registry's ``hier-*`` specs when no explicit machine is
    given (so flat ``-P/-L/--o/--g`` CLI flags still drive them): cores
    is the largest divisor of ``P`` at most ``sqrt(P)``, the inter level
    reuses ``params``' timing, and the intra level is a fast local bus
    (``L=1, o=0, g=1``).
    """
    P = params.P
    cores = 1
    for d in range(1, math.isqrt(P) + 1):
        if P % d == 0:
            cores = d
    nodes = P // cores
    return HierarchicalMachine(
        nodes=nodes,
        cores=cores,
        inter=params.with_processors(nodes),
        intra=LogPParams(P=max(cores, 1), L=1, o=0, g=1),
    )
