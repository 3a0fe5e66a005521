"""Span recorder for the traced benchmark run.

:class:`Recorder` wraps every public function of the ``spherefall``
modules at every binding that holds it, so a call is recorded whether
it goes through ``module.name`` or through a name imported with
``from .module import name`` (``villat`` is bound in ``special``,
``analytic`` and ``analysis``).  Spans stay in memory until
:meth:`Recorder.take`; self time is computed afterwards by
:func:`self_times`.

A span opened on a thread with no open span becomes a child of the
innermost open span on the thread that opened the invocation's root
span, so the per-kappa solves that ``sweep`` runs on pool threads are
children of the ``cli.run`` call waiting for them.  Pool threads hold
the GIL in turns, so their span durations include the time each waits
for the other, and self times summed over layers exceed the wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Iterable, NamedTuple

LAYERS = ("special", "analytic", "ide", "ode", "physical", "analysis", "cli")


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start: float
    end: float


class _Stack(threading.local):
    def __init__(self) -> None:
        self.open: list[int] = []


class Recorder:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack = _Stack()
        self._root_open: list[int] | None = None  # open spans of the root's thread
        self._patches: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        spans, ids, stack, clock = self._spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_ = stack.open
            root_open = self._root_open
            if open_:
                parent = open_[-1]
            elif root_open:
                parent = root_open[-1]
            else:
                parent = None
                self._root_open = open_
            sid = next(ids)
            open_.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans.append((sid, parent, name, start, end))
                if parent is None:
                    self._root_open = None

        return traced

    def install(self, package: ModuleType) -> None:
        """Wrap each function in a layer's ``__all__`` wherever the package or a layer binds it."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, value))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Return the recorded spans and start a new, empty record."""
        spans = [Span._make(s) for s in self._spans]
        self._spans.clear()
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time), self time = duration minus what children cover.

    Children on the same thread nest inside their parent; children on
    pool threads may overlap each other, so their union is subtracted.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = out[s.name]
        entry[0] += 1
        entry[1] += (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
    return {name: (calls, self_s) for name, (calls, self_s) in out.items()}
