"""Self-contained SVG Gantt charts of schedule executions.

No plotting dependencies: the renderer emits a standalone ``.svg`` file
(openable in any browser) with one row per processor, colored bars for
send overhead / receive overhead / computation, and thin arcs for
messages in flight.  This is the publication-quality counterpart of the
ASCII timelines in :mod:`repro.viz.ascii`.
"""

from __future__ import annotations

from repro.schedule.ops import Schedule
from repro.sim.trace import trace_from_schedule

__all__ = ["schedule_to_svg", "save_svg"]

_COLORS = {
    "send": "#e4a33d",     # amber
    "recv": "#4f81bd",     # blue
    "compute": "#6aa84f",  # green
}
_ROW_H = 26
_BAR_H = 16
_LEFT = 56
_TOP = 34
_PX_PER_CYCLE = 14
_MESSAGE_COLOR = "#999999"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def schedule_to_svg(schedule: Schedule, title: str = "") -> str:
    """Render a schedule as an SVG document string."""
    trace = trace_from_schedule(schedule)
    params = schedule.params
    procs = sorted(set(trace.activities) | set(range(params.P)))
    horizon = max(trace.horizon(), 1)
    width = _LEFT + horizon * _PX_PER_CYCLE + 20
    height = _TOP + len(procs) * _ROW_H + 30

    def x(cycle: float) -> float:
        return _LEFT + cycle * _PX_PER_CYCLE

    def y(proc_index: int) -> float:
        return _TOP + proc_index * _ROW_H

    row_of = {p: i for i, p in enumerate(procs)}
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LEFT}" y="16" font-size="13">{_esc(title)}</text>'
        )

    # grid + axis labels every 5 cycles
    step = 1 if horizon <= 30 else 5 if horizon <= 150 else 10
    for c in range(0, horizon + 1, step):
        parts.append(
            f'<line x1="{x(c)}" y1="{_TOP - 6}" x2="{x(c)}" '
            f'y2="{height - 24}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{x(c) - 3}" y="{_TOP - 10}" fill="#666666">{c}</text>'
        )

    # processor rows
    for p in procs:
        parts.append(
            f'<text x="6" y="{y(row_of[p]) + _BAR_H - 3}">P{p}</text>'
        )
        parts.append(
            f'<line x1="{_LEFT}" y1="{y(row_of[p]) + _BAR_H + 2}" '
            f'x2="{x(horizon)}" y2="{y(row_of[p]) + _BAR_H + 2}" '
            f'stroke="#f5f5f5"/>'
        )

    # message arcs (send start -> receive start)
    for op in schedule.sorted_sends():
        x1 = x(op.time + params.o)
        y1 = y(row_of[op.src]) + _BAR_H / 2
        x2 = x(op.receive_start(params))
        y2 = y(row_of[op.dst]) + _BAR_H / 2
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{_MESSAGE_COLOR}" stroke-width="0.7" opacity="0.6"/>'
        )

    # activity bars on top of the arcs
    for p in procs:
        for act in trace.activities.get(p, []):
            color = _COLORS.get(act.kind, "#cccccc")
            w = max((act.end - act.start) * _PX_PER_CYCLE - 1, 2)
            label = f"{act.kind} item={act.item!r}"
            parts.append(
                f'<rect x="{x(act.start)}" y="{y(row_of[p])}" width="{w}" '
                f'height="{_BAR_H}" fill="{color}" rx="2">'
                f"<title>{_esc(label)} @[{act.start},{act.end})</title></rect>"
            )

    # legend
    lx = _LEFT
    ly = height - 14
    for kind, color in _COLORS.items():
        parts.append(
            f'<rect x="{lx}" y="{ly - 10}" width="12" height="10" fill="{color}"/>'
        )
        parts.append(f'<text x="{lx + 16}" y="{ly}">{kind}</text>')
        lx += 90

    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(schedule: Schedule, path: str, title: str = "") -> None:
    """Write the SVG rendering of ``schedule`` to ``path``."""
    with open(path, "w") as handle:
        handle.write(schedule_to_svg(schedule, title=title))
