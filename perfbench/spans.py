"""Nested host-time spans with per-layer self time.

A span covers one call across a layer boundary.  Its *self time* is its
duration minus the time its direct child spans cover, so the self times
of all spans add up exactly to the duration of the outermost spans: no
host time is counted twice and none inside a root span is lost.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class SpanRecorder:
    """A stack of open spans plus self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list[Any]] = []  # [layer, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: summed duration of the outermost spans
        self.root_s = 0.0

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self._clock(), 0.0])

    def exit(self) -> None:
        layer, start, child_s = self._stack.pop()
        duration = self._clock() - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open."""
        return any(frame[0] == layer for frame in self._stack)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        counter: str,
        *,
        before: Callable[..., None] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a ``layer`` span, counting each call as ``counter``.

        ``before`` sees the call's arguments and ``after`` its result;
        both run in a ``probe`` span, outside the layer's span, so what
        they cost is charged to no layer.
        """

        def probe(hook: Callable[..., None], *args: Any, **kwargs: Any) -> None:
            self.enter("probe")
            try:
                hook(*args, **kwargs)
            finally:
                self.exit()

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            self.calls[counter] += 1
            if before is not None:
                probe(before, *args, **kwargs)
            self.enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                probe(after, out)
            return out

        return spanned
