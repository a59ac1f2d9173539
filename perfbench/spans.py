"""In-memory span recorder that wraps leviflat functions from outside the package.

A wrapped call records one span: name, start, end, parent span and pass id,
plus an optional measurement taken from its arguments and result (array
widths, bytes written, iteration counts).  Spans stay in memory until the
benchmark writes them out at the end of a run.

Function wrappers replace every binding of the function in the loaded
`leviflat.*` modules, so calls between functions of one module and names
imported with `from .x import f` are caught too.  Method wrappers replace
the attribute on the class.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "leviflat"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    pass_id: int
    ok: bool = True      # False when the call raised
    measured: Optional[dict] = None

    @property
    def seconds(self):
        return self.end - self.start


@dataclass
class Target:
    """One function or method to wrap: span name, owner (module or class), attribute."""

    name: str
    owner: object
    attr: str
    measure: Optional[Callable] = None   # (args, kwargs, result) -> dict


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    pass_id: int = 0
    _stack: list = field(default_factory=lambda: [-1])
    _patches: list = field(default_factory=list)

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        name, measure = target.name, target.measure
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1], self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.measured = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """Wrap every target; undo with uninstall()."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for target in targets:
            if isinstance(target.owner, type):
                orig = target.owner.__dict__[target.attr]
                self._patch(target.owner, target.attr, self._wrap(target, orig))
                continue
            orig = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,pass,ok\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{s.pass_id},{int(s.ok)}\n")


def self_times(spans):
    """Per-span duration minus the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    measured: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans):
    """Calls, failures, self seconds and summed measurements per span name."""
    stats = defaultdict(LayerStats)
    for s, own in zip(spans, self_times(spans)):
        st = stats[s.name]
        st.calls += 1
        st.failed += not s.ok
        st.self_s += own
        for key, value in (s.measured or {}).items():
            if key.startswith("max_"):
                st.measured[key] = max(st.measured[key], value)
            else:
                st.measured[key] += value
    return stats


def count_under(spans, name, ancestor, direct=False):
    """Spans called `name` with an enclosing span called `ancestor`."""
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0:
            if spans[p].name == ancestor:
                n += 1
                break
            if direct:
                break
            p = spans[p].parent
    return n
