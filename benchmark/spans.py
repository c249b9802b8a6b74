"""In-memory span tracing around public callables of the engine.

A :class:`Tracer` records one span per wrapped call: its name, start and end
(``perf_counter_ns``), the span that was open when it started (its parent)
and attributes that a per-call hook attaches. Wrapping replaces an attribute
on a class or module for as long as the ``instrument`` context is open, so
the engine itself carries no tracing code. Spans stay in memory; the caller
reads them when the traced pass ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

# hook(args, kwargs, result, attrs): fills attrs after the call returns
ExitHook = Callable[[tuple, dict, Any, dict], None]
# hook(args, kwargs, attrs): fills attrs before the call starts
EnterHook = Callable[[tuple, dict, dict], None]


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Single-threaded span recorder; ``paused`` calls record nothing."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_enter: Optional[EnterHook] = None,
        on_exit: Optional[ExitHook] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = Span(name, 0, parent=self._stack[-1] if self._stack else None)
            if on_enter is not None:
                on_enter(args, kwargs, span.attrs)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result, span.attrs)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def ancestor(self, index: int, names: frozenset[str]) -> Optional[Span]:
        """Nearest enclosing span whose name is in ``names``."""
        parent = self.spans[index].parent
        while parent is not None:
            span = self.spans[parent]
            if span.name in names:
                return span
            parent = span.parent
        return None

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Calls are single-threaded, so children never overlap each other.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return [ns / 1e9 for ns in own]


@contextlib.contextmanager
def instrument(
    tracer: Tracer, targets: list[tuple[Any, str, str, Optional[EnterHook], Optional[ExitHook]]]
) -> Iterator[None]:
    """Replace ``owner.attr`` with a traced wrapper for each
    ``(owner, attr, span_name, on_enter, on_exit)``; restore on exit."""
    saved = []
    try:
        for owner, attr, name, on_enter, on_exit in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, on_enter, on_exit))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
