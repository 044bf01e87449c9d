"""Spans recorded from outside the library, around calls into its modules.

A ``Tracer`` replaces module (or class) attributes with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory until the benchmark writes them out. A name the library
no longer has is recorded as missing instead of raising, so a refactor that
removes a function makes its metrics go missing rather than breaking the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_ABSENT = object()

# errors a counter hook may hit when a refactor changes what a call returns
HOOK_ERRORS = (AttributeError, TypeError, ValueError, KeyError, IndexError)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []  # wrapped names the library does not have
        self.hook_failed: set[str] = set()  # wrapped names whose counter hook failed
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str, after=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``after(args, kwargs, result)`` runs outside the span and may update
        counters; if it fails because the call's inputs or result changed
        shape, ``name`` goes into ``hook_failed`` and the call still succeeds.
        A ``None`` owner or an absent attribute marks ``name`` missing.
        """
        if owner is None or not hasattr(owner, attr):
            self.missing.append(name)
            return
        original = getattr(owner, attr)
        raw = vars(owner).get(attr, _ABSENT)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except HOOK_ERRORS:
                    self.hook_failed.add(name)
            return result

        # on a class, a plain function would bind to instances; the wrapped
        # attributes are classmethods called on the class itself
        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        self._installed.append((owner, attr, raw))

    def restore(self):
        """Put every wrapped attribute back as it was."""
        for owner, attr, raw in reversed(self._installed):
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._installed.clear()

    # ---- queries over the recorded spans ----

    def under(self, phase: str) -> list[int]:
        """Indices of the spans nested, at any depth, inside spans named ``phase``."""
        flags: list[bool] = []
        for rec in self.spans:
            parent = rec[3]
            flags.append(parent >= 0 and (flags[parent] or self.spans[parent][0] == phase))
        return [idx for idx, flag in enumerate(flags) if flag]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def total(self, name: str, phase: str | None = None, self_time: bool = False):
        """(summed seconds, call count) of the spans named ``name``, optionally
        only those inside ``phase`` and counting only their self time."""
        idxs = self.under(phase) if phase else range(len(self.spans))
        times = self.self_times() if self_time else [r[2] - r[1] for r in self.spans]
        picked = [times[i] for i in idxs if self.spans[i][0] == name]
        return sum(picked), len(picked)

    def write(self, path):
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0, "self": own[idx],
                }) + "\n")

