"""Schedule serialization: JSON export/import.

Lets external runtimes (an MPI progress engine, a NIC command-queue
compiler, a visualizer) consume plans produced by this library.  The
format is stable and self-describing::

    {
      "format": "logp-schedule/1",
      "params": {"P": 8, "L": 6, "o": 2, "g": 4},
      "initial": [[0, [0]]],                # [proc, [item, ...]]
      "source_items": [],                   # [item, creation time]
      "sends": [[0, 0, 1, 0], ...]          # [time, src, dst, item]
    }

Items are encoded structurally (ints, strings, tuples as ``{"t": [...]}``
and frozensets as ``{"fs": [...]}``) so the tuple-tagged items used
across the library round-trip exactly.  Schedules targeting a
non-default machine carry an extra ``"machine"`` key holding the
topology's canonical doc (see
:meth:`repro.machine.model.MachineModel.canonical_doc`); flat schedules
omit it, so their serialized bytes — and cached content hashes — are
unchanged from earlier format revisions.

There are two forms.  The default (:func:`schedule_to_json`) is
``json.dumps`` of :func:`schedule_payload`, the form every checked-in
corpus file was written in.  The canonical form (sorted keys, compact
separators) has one writer, :func:`canonical_json`: it writes the text
straight from the schedule's columns and interned item table, encoding
each distinct item once (:func:`item_json`) instead of building a
per-send payload for ``json.dumps`` to walk.  The plan cache's content
(:func:`repro.serve.keys.plan_content`) and the exec layer's delivered
traces (:mod:`repro.exec.trace`) are written with the same item
encoding.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.params import LogPParams
from repro.schedule.ops import Schedule, SendOp

__all__ = [
    "encode_item",
    "item_json",
    "params_json",
    "canonical_json",
    "schedule_payload",
    "schedule_to_json",
    "schedule_from_json",
    "dump_schedule",
    "load_schedule",
]

FORMAT = "logp-schedule/1"
_FORMAT_JSON = encode_basestring_ascii(FORMAT)

#: ``json.dumps`` keywords for ``canonical=True`` output: one byte
#: sequence per payload, independent of dict insertion order.  The plan
#: cache (:mod:`repro.serve`) content-hashes this form, so changing it
#: invalidates every on-disk cache entry — treat it as a format constant.
CANONICAL_DUMPS: dict[str, Any] = {"sort_keys": True, "separators": (",", ":")}


def _encode_item(item: Any) -> Any:
    if isinstance(item, tuple):
        return {"t": [_encode_item(x) for x in item]}
    if isinstance(item, (int, str)):
        return item
    if isinstance(item, frozenset):
        return {"fs": sorted(_encode_item(x) for x in item)}
    raise TypeError(f"cannot serialize item of type {type(item).__name__}")


# public alias: the executor's trace layer (repro.exec.trace) emits the
# same item encoding so exec and simulator payloads are byte-comparable
encode_item = _encode_item


def _decode_item(obj: Any) -> Any:
    if isinstance(obj, dict):
        if "t" in obj:
            return tuple(_decode_item(x) for x in obj["t"])
        if "fs" in obj:
            return frozenset(_decode_item(x) for x in obj["fs"])
        raise ValueError(f"unknown item encoding {obj!r}")
    return obj


def _item_text(item: Any) -> str:
    cls = type(item)
    if cls is int:
        return int.__repr__(item)
    if cls is str:
        return encode_basestring_ascii(item)
    if cls is tuple:
        # exact int/str elements are written in place; only the others
        # (bool, nested tuples, ...) recurse
        parts = [
            encode_basestring_ascii(x) if type(x) is str
            else int.__repr__(x) if type(x) is int
            else _item_text(x)
            for x in item
        ]
        return '{"t":[' + ",".join(parts) + "]}"
    return json.dumps(_encode_item(item), **CANONICAL_DUMPS)


def item_json(item: Any, memo: dict[Any, str] | None = None) -> str:
    """The canonical JSON text of one item.

    The bytes are those of
    ``json.dumps(encode_item(item), **CANONICAL_DUMPS)``.  Exact ``int``
    and ``str`` are written directly and a tuple is joined from its
    parts; a writer passes one ``memo`` per call, so it encodes each
    distinct tuple item once.  Like :class:`ItemTable
    <repro.schedule.columnar.ItemTable>` interning, ``memo`` is keyed by
    equality, so one writer call must not mix items that are equal but
    encode differently (``1`` and ``True``); without a ``memo`` every
    item is encoded on its own.  Every other type (``bool``,
    ``frozenset``, ``int`` subclasses) goes through ``json.dumps``, so
    its bytes cannot change.
    """
    if memo is None or type(item) is not tuple:
        return _item_text(item)
    text = memo.get(item)
    if text is None:
        text = memo[item] = _item_text(item)
    return text


def _held_json(items: frozenset[Any], memo: dict[Any, str]) -> str:
    """One processor's initial items, comma-joined in ``repr`` order."""
    if len(items) == 1:
        for item in items:
            return item_json(item, memo)
    return ",".join([item_json(item, memo) for item in sorted(items, key=repr)])


def params_json(params: LogPParams) -> str:
    """Canonical JSON of a ``params`` object (keys sorted)."""
    return (
        f'{{"L":{_item_text(params.L)},"P":{_item_text(params.P)},'
        f'"g":{_item_text(params.g)},"o":{_item_text(params.o)}}}'
    )


def canonical_json(schedule: Schedule, *, drop_time0_sources: bool = False) -> str:
    """The byte-canonical serialized form of a schedule.

    Exactly ``json.dumps(schedule_payload(schedule), **CANONICAL_DUMPS)``,
    written straight from the schedule's columns: each send is one
    ``[t,s,d,item]`` row in replay order, and each distinct item is
    encoded once, from the interning table.  All rows are written by one
    ``%`` format over a flat argument tuple; item texts are ``%s``
    arguments, never part of the format string, so a ``%`` inside an
    item is plain text.  No payload dict is built.
    ``drop_time0_sources`` omits ``source_items`` entries created at
    time 0 (the plan cache's content form, see
    :func:`repro.serve.keys.plan_content`).
    """
    from repro.schedule.columnar import sort_order

    cols = schedule.columns()
    order = sort_order(cols)
    memo: dict[Any, str] = {}
    table = [item_json(item, memo) for item in cols.table.items]
    rows: list[Any] = [None] * (4 * len(order))
    rows[0::4] = cols.times[order].tolist()
    rows[1::4] = cols.srcs[order].tolist()
    rows[2::4] = cols.dsts[order].tolist()
    rows[3::4] = map(table.__getitem__, cols.items[order].tolist())
    sends = ",".join(["[%d,%d,%d,%s]"] * len(order)) % tuple(rows)
    placed = schedule.initial
    procs = sorted(placed)
    held: list[Any] = [None] * (2 * len(procs))
    held[0::2] = map(_item_text, procs)
    held[1::2] = [_held_json(items, memo) for items in map(placed.__getitem__, procs)]
    initial = ",".join(["[%s,[%s]]"] * len(procs)) % tuple(held)
    made = sorted(
        [
            pair
            for pair in schedule.source_items.items()
            if not (drop_time0_sources and pair[1] == 0)
        ],
        key=repr,
    )
    created: list[Any] = [None] * (2 * len(made))
    created[0::2] = [item_json(item, memo) for item, _ in made]
    created[1::2] = [_item_text(when) for _, when in made]
    sources = ",".join(["[%s,%s]"] * len(made)) % tuple(created)
    machine = ""
    if schedule.machine is not None:
        # only present for machine-attached schedules, so every flat
        # plan (and its cached content hash) stays byte-identical
        doc = json.dumps(schedule.machine.canonical_doc(), **CANONICAL_DUMPS)
        machine = f'"machine":{doc},'
    return (
        f'{{"format":{_FORMAT_JSON},"initial":[{initial}],{machine}'
        f'"params":{params_json(schedule.params)},"sends":[{sends}],'
        f'"source_items":[{sources}]}}'
    )


def schedule_payload(schedule: Schedule) -> dict[str, Any]:
    """The schedule's JSON-ready payload dict, before ``json.dumps``.

    :func:`schedule_to_json` dumps it for the non-canonical corpus form;
    :func:`canonical_json` writes the same content as text.  Sends are
    emitted in replay order straight from the schedule's cached column
    arrays (each distinct item is encoded once via the interning table),
    so array-backed schedules serialize without ever materializing
    ``SendOp`` objects.
    """
    from repro.schedule.columnar import sort_order

    cols = schedule.columns()
    order = sort_order(cols)
    encoded_items = [_encode_item(item) for item in cols.table.items]
    payload: dict[str, Any] = {
        "format": FORMAT,
        "params": {
            "P": schedule.params.P,
            "L": schedule.params.L,
            "o": schedule.params.o,
            "g": schedule.params.g,
        },
        "initial": [
            [proc, [_encode_item(item) for item in sorted(items, key=repr)]]
            for proc, items in sorted(schedule.initial.items())
        ],
        "source_items": [
            [_encode_item(item), when]
            for item, when in sorted(schedule.source_items.items(), key=repr)
        ],
        "sends": [
            [t, s, d, encoded_items[c]]
            for t, s, d, c in zip(
                cols.times[order].tolist(),
                cols.srcs[order].tolist(),
                cols.dsts[order].tolist(),
                cols.items[order].tolist(),
            )
        ],
    }
    if schedule.machine is not None:
        # only present for machine-attached schedules, so every flat
        # payload (and its cached content hash) stays byte-identical
        payload["machine"] = schedule.machine.canonical_doc()
    return payload


def schedule_to_json(schedule: Schedule, canonical: bool = False) -> str:
    """Serialize a schedule to a JSON string.

    ``canonical=True`` emits the byte-canonical form (sorted keys,
    compact separators — :data:`CANONICAL_DUMPS`) through
    :func:`canonical_json`, the writer the plan cache's content hashing
    also uses.  The default form keeps ``json.dumps``'s standard
    separators, which every checked-in corpus file was written with.
    Both forms carry the identical payload (:func:`schedule_payload`)
    and load back identically.
    """
    if canonical:
        return canonical_json(schedule)
    # The non-canonical default is the checked-in corpus format; nothing
    # hashes these bytes (content keys always come from canonical_json).
    return json.dumps(schedule_payload(schedule))  # repro: ignore[REPRO005]


def schedule_from_json(text: str) -> Schedule:
    """Reconstruct a schedule from its JSON form."""
    payload = json.loads(text)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"unsupported format {payload.get('format')!r}; expected {FORMAT!r}"
        )
    params = LogPParams(**payload["params"])
    machine = None
    if "machine" in payload:
        from repro.machine.model import machine_from_doc

        machine = machine_from_doc(payload["machine"])
    return Schedule(
        params=params,
        sends=[_send_from_row(i, row) for i, row in enumerate(payload["sends"])],
        initial={
            proc: {_decode_item(item) for item in items}
            for proc, items in payload["initial"]
        },
        source_items={
            _decode_item(item): when for item, when in payload["source_items"]
        },
        machine=machine,
    )


def _send_from_row(index: int, row: Any) -> SendOp:
    """One ``[time, src, dst, item]`` send row, or a ``ValueError`` naming it."""
    if not isinstance(row, list) or len(row) != 4:
        raise ValueError(
            f"sends[{index}]: expected [time, src, dst, item], got {row!r}"
        )
    time, src, dst, item = row
    for field, value in (("time", time), ("src", src), ("dst", dst)):
        if type(value) is not int:
            raise ValueError(
                f"sends[{index}]: {field} must be an integer, got {value!r}"
            )
    return SendOp(time, src, dst, _decode_item(item))


def dump_schedule(schedule: Schedule, path: str) -> None:
    """Write a schedule to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(schedule_to_json(schedule))


def load_schedule(path: str) -> Schedule:
    """Read a schedule previously written by :func:`dump_schedule`."""
    with open(path) as handle:
        return schedule_from_json(handle.read())
