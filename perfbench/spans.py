"""In-memory span recorder that times sidforge's modules from the outside.

The benchmark never edits the program. Instead, a :class:`Tracer` replaces
the bindings that callers look up at call time (a module attribute, a
class attribute or a function's default argument) with a wrapper that
records one span per call, and puts every original back on
:meth:`Tracer.uninstall`. Spans stay in memory until the run ends:

    [name, start, end, parent index, request id, attrs]

``start``/``end`` are ``time.perf_counter()`` seconds, ``parent`` is the
index of the innermost span open when this one began (-1 at top level) and
``attrs`` holds what a hook read off the call's arguments or result (a
number or a dict, or None).
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None  # request id stamped on every span opened
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------

    def _traced(self, fn, name, attrs=None):
        """``fn`` wrapped to record a span; ``attrs(args, kwargs, result)``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr, name, attrs=None):
        """Trace calls made through ``owner.attr`` (a module or a class)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._traced(original, name, attrs))
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap_default(self, func, param, name, attrs=None):
        """Trace calls that ``func`` makes through its default for ``param``."""
        names = list(inspect.signature(func).parameters)
        defaults = func.__defaults__
        index = names.index(param) - (len(names) - len(defaults))
        traced = self._traced(defaults[index], name, attrs)
        func.__defaults__ = defaults[:index] + (traced,) + defaults[index + 1:]
        self._restore.append(lambda: setattr(func, "__defaults__", defaults))

    def install(self, hooks):
        """Apply ``(owner, attr, name, attrs)`` hooks; a function owner
        means its default argument ``attr``."""
        for owner, attr, name, attrs in hooks:
            if inspect.isfunction(owner):
                self.wrap_default(owner, attr, name, attrs)
            else:
                self.wrap(owner, attr, name, attrs)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- reading --------------------------------------------------------

    def select(self, name, request_prefix=None):
        return [s for s in self.spans if s[0] == name
                and (request_prefix is None or str(s[4]).startswith(request_prefix))]

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.select(name))

    def mean(self, name) -> float:
        spans = self.select(name)
        return sum(s[2] - s[1] for s in spans) / len(spans) if spans else 0.0

    def has_ancestor(self, index, name) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count_under(self, name, ancestor) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and self.has_ancestor(i, ancestor))

    def self_times(self) -> dict:
        """Seconds per module (span-name prefix) not covered by child spans.

        Children of one span run one after another, so the covered part of
        a span is the sum of its direct children's durations.
        """
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - covered[i]
        return dict(out)

    def counts(self, request_prefix=None) -> dict:
        """Calls per span name: the exact counts two runs must agree on."""
        return dict(Counter(s[0] for s in self.spans
                            if request_prefix is None
                            or str(s[4]).startswith(request_prefix)))

    def write(self, path):
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "request": request}
                if isinstance(attrs, dict):
                    row["attrs"] = {k: v for k, v in attrs.items()
                                    if isinstance(v, (int, float, str))}
                elif attrs is not None:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")
