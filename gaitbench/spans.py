"""In-memory spans and the module-attribute wrappers that record them.

The benchmark never re-composes the pipeline. It times the program from
outside by replacing the module attributes the program looks up at call
time (``pipeline.process_recording`` calling ``segmentation.segment``,
``cli.main`` calling ``cli.match_events`` and so on) with wrappers, and
puts the original attributes back when the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str                    # "<kind>:<item>", e.g. "process:daily03"
    error: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "error": self.error}


class Tracer:
    """Spans with parent links plus named counters, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = ""

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1.0) -> None:
        self.counts[(self._op.split(":", 1)[0], key)] += n

    def counted(self, key: str, kinds) -> float:
        """Total of a counter over the operations of the given kinds."""
        return sum(self.counts.get((kind, key), 0.0) for kind in kinds)

    def self_times(self, op_kind: str | None = None,
                   op: str | None = None) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children,
        over the operations of one kind or over one operation."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if ((op_kind is None or s.op.split(":", 1)[0] == op_kind)
                    and (op is None or s.op == op)):
                out[s.name] += (s.end - s.start) - child[i]
        return out


@dataclass
class Hook:
    """Where a function lives and what to record around its calls.

    ``targets`` lists every (module, attribute) that holds the function:
    a name imported with ``from x import f`` is a second binding that the
    wrapper must replace too. ``span`` names the span (None: no span).
    ``after(args, kwargs, result, seconds)`` runs once the call returned.
    """

    targets: list[tuple[object, str]]
    span: str | None = None
    after: Callable | None = None


def _wrap(fn, hook: Hook, tracer: Tracer | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        if hook.span is not None and tracer is not None:
            with tracer.span(hook.span):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        if hook.after is not None:
            hook.after(args, kwargs, result, time.perf_counter() - t0)
        return result
    return wrapper


@contextmanager
def installed(hooks: list[Hook], tracer: Tracer | None = None):
    """Replace every hooked attribute while the block runs; restore after.

    Yields the list of targets that do not exist, so a renamed function
    shows up as a missing layer instead of silently measuring nothing.
    """
    saved = []
    missing = []
    try:
        for hook in hooks:
            wrappers = {}
            for module, attr in hook.targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = _wrap(fn, hook, tracer)
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
