"""In-process tracing for the benchmark's traced pass.

The program is not instrumented. Instead, for the length of one pass, public
functions are replaced by wrappers where the calling module imported them
(``cli.load_annotations``, ``correction.nms``, ...). Each wrapper records a
span: name, start, end and the span that was open when it was called. Spans
stay in memory and are written out when the benchmark ends. A span's self
time is its duration minus the time covered by its direct children.

``count_iou_calls`` is a separate pass: a per-call counter on the scalar IoU
would add to every span that calls it, so it never runs together with spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a span-recording wrapper until ``restore``.

        ``after(result, *args, **kwargs)`` runs once the call returned, outside
        the span, to take counts from the call's arguments and result.
        """
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child):
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - covered)
        return out

    def errors_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            if span.error:
                out[span.layer] = out.get(span.layer, 0) + 1
        return out

    def write(self, path: Path) -> None:
        """Write spans as JSON, times in seconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {**asdict(s), "start": s.start - t0, "end": s.end - t0} for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


@contextmanager
def count_iou_calls(modules: list[object]) -> Iterator[list[int]]:
    """Count scalar ``iou`` calls made through ``modules`` while the context is open.

    Every module that imported ``iou`` by name is patched, including
    ``geometry`` itself, whose ``nms`` and ``iou_distance`` look it up there.
    Yields a one-element list holding the count so far.
    """
    calls = [0]
    originals = [(m, m.iou) for m in modules]

    def counted(fn: Callable) -> Callable:
        def iou(a, b):
            calls[0] += 1
            return fn(a, b)

        return iou

    for module, fn in originals:
        module.iou = counted(fn)
    try:
        yield calls
    finally:
        for module, fn in originals:
            module.iou = fn
