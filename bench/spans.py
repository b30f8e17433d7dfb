"""Span recording around calls into pricepump, installed from outside.

A ``Tracer`` replaces a function where its caller looks it up (for
example ``pricepump.cycle.trading_session``, the name the day loop
calls) with a wrapper that records one span per call: name, start, end,
and the index of the enclosing span.  Spans live in flat arrays until
``summary`` reduces them to per-name call counts, inclusive time and self
time (inclusive time minus the time covered by child spans).  Leaving the
``with`` block puts every original function back.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Trace calls of ``owner.attr`` under ``name``.

        ``hook(tracer, args, kwargs, result, exc)`` runs after each call,
        with the exception it raised or None, to add counts.
        """
        original = getattr(owner, attr)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``,
        and ``child_calls`` (spans, by name, opened directly inside it)."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_calls": Counter()}
               for name in self.names}
        covered = [0.0] * len(self.starts)
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
                out[self.names[self.name_ids[parent]]]["child_calls"][
                    self.names[self.name_ids[index]]
                ] += 1
        for index, name_id in enumerate(self.name_ids):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - covered[index]
        return out
