"""In-memory span tracer that wraps functions from the outside.

A span records its name, start, end, parent span and request id. Each
thread keeps its own span stack; a span opened on a thread whose stack is
empty (a pool worker) takes as parent the innermost open span of the
thread that opened the request, which is the span that submitted the work.
Finished spans stay in memory until the caller writes them out.

Patching replaces a function in every module namespace of a package that
holds the same function object, so names bound by `from x import f` are
traced as well; `unpatch` puts every original back.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "parent", "request", "name", "thread", "start", "end", "attrs")

    def __init__(self, sid, parent, request, name, thread):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @staticmethod
    def from_dict(d) -> "Span":
        s = Span(d["sid"], d["parent"], d["request"], d["name"], d["thread"])
        s.start, s.end, s.attrs = d["start"], d["end"], d["attrs"]
        return s


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request = 0
        self._request_stack = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            owner = self._request_stack or ()
            parent = owner[-1].sid if owner else None
        s = Span(next(self._ids), parent, self._request, name, threading.get_ident())
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    @contextmanager
    def request(self, name):
        """Open a new request id with a root span named `name`."""
        self._request += 1
        self._request_stack = self._stack()
        try:
            with self.span(name) as s:
                yield s
        finally:
            self._request_stack = None

    def wrap(self, fn, name, record=None):
        """Trace calls of `fn` as spans `name`; `record(attrs, args, kwargs,
        result)` adds counts after a successful call. An exception is noted
        in the span's `error` attribute and re-raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception as e:
                    s.attrs["error"] = type(e).__name__
                    raise
                if record is not None:
                    record(s.attrs, args, kwargs, result)
                return result

        return traced

    def patch_function(self, package, module, attr, name, record=None):
        """Wrap module.attr wherever a module of `package` binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, record)
        prefix = package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name, record=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, record))
        self._patches.append((cls, attr, original))

    def unpatch(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def union_length(intervals, lo, hi) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }
