"""Spans around calls into nbibd, recorded from the benchmark's side.

A Tracer replaces a name that a calling module imported (for example
`nbibd.simulate.fit_random`) with a wrapper that records a span: its
name, start, end, parent span and the iteration or arrival it belongs
to.  Spans stay in memory until `write` dumps them as JSON lines.
Nothing inside the package is edited; `restore` puts every name back.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [id, name, start, end, parent, tag]
        self.stack: list[list[Any]] = []
        self.tag: Any = None
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        observe: Callable[["Tracer", tuple, Any], None] | None = None,
        tag_of: Callable[[Any, tuple], Any] | None = None,
    ) -> None:
        """Record a span around every call of owner.attr.

        name is the span name or a function of the call's arguments;
        observe sees the arguments and the returned value so counts can be
        taken from it; tag_of maps the enclosing tag and the arguments to
        the tag that the call and its children carry.
        """
        raw = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            outer_tag = self.tag
            if tag_of is not None:
                self.tag = tag_of(outer_tag, args)
            parent = self.stack[-1][0] if self.stack else None
            span = [len(self.spans), span_name, 0.0, 0.0, parent, self.tag]
            self.spans.append(span)
            self.stack.append(span)
            span[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
                self.tag = outer_tag
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        self._restore.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, each call's duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        times: dict[str, list[float]] = defaultdict(list)
        for span_id, span_name, start, end, _, _ in self.spans:
            times[span_name].append((end - start - child_time[span_id]) * 1e3)
        return times

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span_name, start, end, parent, tag in self.spans:
                record = {"id": span_id, "name": span_name, "start": start, "end": end, "parent": parent, "tag": tag}
                handle.write(json.dumps(record) + "\n")
