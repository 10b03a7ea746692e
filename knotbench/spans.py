"""Spans recorded by the benchmark around its calls into knotalg.

A span is (name, start, end, parent, op, calls): `name` is
"<layer>.<function>", `parent` the index of the enclosing span (-1 for an
operation's root span), `op` the operation id and `calls` how many calls of
`name` the span covers.  Per-item calls inside one operation (one
`cf_value` per table entry, one `to_text` per leaf) are grouped into one
span per stage, so the span log stays a few spans per operation.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("expr", "algebra", "rational", "enumeration", "bracket", "tensor", "graph", "oracle", "cli")


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Direct:
    """The untraced client: calls go straight through."""

    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name, calls=1):
        return _NO_SPAN


class _Span:
    __slots__ = ("tracer", "name", "calls", "index")

    def __init__(self, tracer, name, calls):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.op, self.calls])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    """The traced client: every call into a layer is wrapped in a span."""

    on = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | str = "warm"

    def span(self, name, calls=1):
        return _Span(self, name, calls)

    def call(self, name, fn, *args):
        with _Span(self, name, 1):
            return fn(*args)

    def self_times(self, timed: bool) -> dict[str, float]:
        """Self time per span name: duration minus the time covered by children.

        With timed, only spans of timed operations (an integer op id) count;
        warm-up, probes and untimed side runs carry a string op id.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _calls in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, op, _calls) in enumerate(self.spans):
            if timed and not isinstance(op, int):
                continue
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, _s, _e, _p, op, calls in self.spans:
            if isinstance(op, int):
                out[name] = out.get(name, 0) + calls
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, calls in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "calls": calls}) + "\n")
