"""In-memory span tracer that wraps library functions where callers look them up.

A span is ``(id, name, start_ns, end_ns, parent_id, thread)``.  The spans of
a pass are kept in memory as one flat array of 64-bit integers, six
per span (names and threads as small indices), and the caller writes them
out when the run ends.  A span's self time is its duration minus the time
its child spans cover; children always run in the parent's thread, so they
never overlap.

Modules import functions by name (``runner.einstein_scalar``,
``scenarios.spray``), so a function is replaced in every ``finslerlab``
module namespace that holds it, not only where it is defined.  Every
replaced attribute is put back by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "thread")
PACKAGE = "finslerlab"


class Tracer:
    def __init__(self):
        self.names = {}    # span name -> index stored in the spans
        self.threads = {}  # thread ident -> index stored in the spans
        self._patches = []  # (owner, attribute, original value)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        """Start a new pass: drop spans, distinct-argument keys and counts."""
        self.spans = array("q")
        self.keys = {}  # name -> set of distinct-work keys
        self.counts = Counter()
        # objects whose id() is part of a key stay alive for the whole pass,
        # so an id cannot be reused by a different object
        self._pinned = {}
        self._ids = itertools.count(1)

    def _index(self, table, key):
        index = table.get(key)
        if index is None:
            with self._lock:
                index = table.setdefault(key, len(table))
        return index

    def _frame(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = self._index(self.threads, threading.get_ident())
        return stack, local.thread

    def pin(self, obj):
        self._pinned[id(obj)] = obj
        return id(obj)

    def distinct(self, name):
        return len(self.keys.get(name, ()))

    def record(self, name, key):
        """Count one event of ``name`` (from any thread) and note its key."""
        with self._lock:
            self.counts[name] += 1
            self.keys.setdefault(name, set()).add(key)

    def _enter(self, name):
        stack, thread = self._frame()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        return stack, (span_id, self._index(self.names, name), parent, thread)

    def _exit(self, stack, head, start, end):
        stack.pop()
        span_id, name, parent, thread = head
        # one C-level call, so spans from several threads never interleave
        self.spans.extend((span_id, name, start, end, parent, thread))

    @contextmanager
    def span(self, name):
        stack, head = self._enter(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(stack, head, start, time.perf_counter_ns())

    def wrap(self, fn, name, key=None):
        """``fn`` recorded as a span; ``name`` may be a function of the args.

        A call made while a span of the same name is open (recursion, or an
        operator delegating to the wrapped function it is grouped with) is
        not a new span, so call counts are outermost calls.  ``key(tracer,
        args, kwargs)`` names the distinct work the call does, for useful
        ratios.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack, _ = tracer._frame()
            if stack and stack[-1][1] == span_name:
                return fn(*args, **kwargs)
            if key is not None:
                tracer.keys.setdefault(span_name, set()).add(
                    key(tracer, args, kwargs))
            stack, head = tracer._enter(span_name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(stack, head, start, time.perf_counter_ns())

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def patch_function(self, original, name, key=None):
        """Replace ``original`` in every package module that holds it."""
        wrapper = self.wrap(original, name, key)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not held by any module")

    def patch_method(self, cls, attribute, name, key=None):
        self._set(cls, attribute, self.wrap(getattr(cls, attribute), name, key))

    def patch_constructor_argument(self, cls, argument, wrap_value):
        """Pass ``argument`` of ``cls(...)`` through ``wrap_value(instance, v)``."""
        original = cls.__init__
        signature = inspect.signature(original)

        def init(instance, *args, **kwargs):
            bound = signature.bind(instance, *args, **kwargs)
            bound.arguments[argument] = wrap_value(
                instance, bound.arguments[argument])
            original(*bound.args, **bound.kwargs)

        self._set(cls, "__init__", init)

    def restore(self):
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attribute, value = self._patches.pop()
            setattr(owner, attribute, value)

    def table(self):
        """The pass's spans as an (n, 6) integer array, columns ``FIELDS``."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(
            -1, len(FIELDS))

    def summary(self):
        """Per span name: calls, inclusive ns, self ns and the durations."""
        spans = self.table()
        ids, names, parents = spans[:, 0], spans[:, 1], spans[:, 4]
        durations = spans[:, 3] - spans[:, 2]
        covered = np.bincount(parents, weights=durations,
                              minlength=int(ids.max(initial=0)) + 1)
        self_ns = durations - covered[ids]
        out = {}
        for name, index in self.names.items():
            mine = names == index
            if mine.any():
                out[name] = {"calls": int(mine.sum()),
                             "total_ns": int(durations[mine].sum()),
                             "self_ns": int(self_ns[mine].sum()),
                             "durations_ns": durations[mine]}
        return out
