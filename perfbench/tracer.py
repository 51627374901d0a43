"""In-memory span tracer that times calls into the program from outside.

The traced benchmark run replaces module and class attributes that the
program's callers bind to (``repro.exact.bab.solve_lp``,
``NetworkEncoding.build_lp``, ...) with thin wrappers that record one span
per call, and puts the original objects back when the run ends -- also
when it ends with an exception.  No program file is touched.

A span has a name, start and end (``time.perf_counter``), the span that
was open on the same thread when it started (its parent) and the op id
the thread was working on.  Spans stay in memory and are written out once,
after the run (the span model of Dapper, Sigelman et al., 2010).
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class Span:
    """One timed call."""

    __slots__ = ("id", "name", "op", "thread", "parent", "start", "end",
                 "child_s", "meta")

    def __init__(self, span_id: int, name: str, op: Optional[int],
                 thread: int, parent: Optional["Span"]):
        self.id = span_id
        self.name = name
        self.op = op
        self.thread = thread
        self.parent = parent.id if parent is not None else None
        self.start = 0.0
        self.end = 0.0
        #: Time covered by direct children (same thread), for self time.
        self.child_s = 0.0
        self.meta: Optional[Dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self, origin: float) -> Dict:
        return {"id": self.id, "name": self.name, "op": self.op,
                "thread": self.thread, "parent": self.parent,
                "start": self.start - origin, "end": self.end - origin,
                "meta": self.meta}


#: ``hook(tracer, span_or_None, args, kwargs, result)`` run after a call.
Hook = Callable[["Tracer", Optional[Span], tuple, dict, object], None]


class Target:
    """One attribute to wrap: ``module[.cls].attr`` recorded as ``name``.

    ``span=False`` records no span and only runs ``hook`` (for counters on
    hot stdlib calls such as byte counts)."""

    def __init__(self, module: str, attr: str, name: str,
                 cls: Optional[str] = None, hook: Optional[Hook] = None,
                 span: bool = True):
        self.module = module
        self.cls = cls
        self.attr = attr
        self.name = name
        self.hook = hook
        self.span = span

    def owner(self):
        owner = importlib.import_module(self.module)
        return getattr(owner, self.cls) if self.cls else owner


class Tracer:
    """Collects spans and counters from every thread of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: ``(owner, attr, original __dict__ entry)`` in install order.
        self._patches: List[tuple] = []

    # ------------------------------------------------------------- recording
    def set_op(self, op: Optional[int]) -> None:
        """Mark the calling thread as working on op ``op``."""
        self._local.op = op

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, getattr(self._local, "op", None),
                    threading.get_ident(), stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # -------------------------------------------------------------- wrapping
    def _wrapper(self, target: Target, original):
        tracer, name, hook = self, target.name, target.hook
        if not target.span:
            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(tracer, None, args, kwargs, result)
                return result
            return counting

        def timed(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result
        return timed

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            owner = target.owner()
            raw = vars(owner)[target.attr]
            # Call through getattr, which unwraps descriptors the way an
            # attribute lookup on the owner would.
            wrapper = self._wrapper(target, getattr(owner, target.attr))
            self._patches.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapper)

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        try:
            self.install(targets)
            yield self
        finally:
            self.restore()

    # ---------------------------------------------------------------- output
    def write(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [s.to_dict(self.origin) for s in spans],
                       "counters": self.counters}, handle)
