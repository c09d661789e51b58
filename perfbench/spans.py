"""Layer spans recorded from the benchmark's own files.

A :class:`Tracer` wraps the public functions of each layer (module
attributes or object attributes) so that every call opens a span.  A
span's *self time* is its duration minus the time its child spans cover,
so per request the layer self times plus the request's own self time
(``trace.other``: time no layer span covers) add up to the request's
traced total.  Spans are kept in memory as per-layer aggregates; nothing
is written while the timed window runs.

Nothing here is installed unless the benchmark runs with ``--trace 1``:
the untraced run calls the program's functions directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

REQUEST = "request"


@dataclass
class LayerStat:
    """Aggregate of every span recorded under one layer name."""

    calls: int = 0
    errors: int = 0
    self_s: list[float] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.self_s)


class Tracer:
    """Nested spans with self times, aggregated per layer name."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStat] = {}
        self.requests: list[float] = []  # traced total per request
        self.max_gap_s = 0.0  # worst |sum of self times - total| per request
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._request_self = 0.0
        self._last_duration = 0.0
        self._restore: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> LayerStat:
        stat = self.layers.get(name)
        if stat is None:
            stat = self.layers[name] = LayerStat()
        return stat

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stat = self.stat(name)
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            duration = time.perf_counter() - frame[0]
            self._last_duration = duration
            self._stack.pop()
            own = duration - frame[1]
            stat.calls += 1
            stat.self_s.append(own)
            self._request_self += own
            if self._stack:
                self._stack[-1][1] += duration

    def request(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one whole request as the root span and check that the
        layer self times inside it add up to its total."""
        self._request_self = 0.0
        try:
            return self.call(REQUEST, fn, *args)
        finally:  # a failed request keeps its place in `requests`
            total = self._last_duration
            self.max_gap_s = max(self.max_gap_s, abs(self._request_self - total))
            self.requests.append(total)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`close`."""
        original = getattr(owner, attr)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, spanned)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
