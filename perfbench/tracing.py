"""In-memory span tracing installed from benchmark code.

A :class:`Tracer` replaces a layer's entry point *at the name its callers
resolve* (a class attribute for methods, a module global for functions
imported into the caller's module) with a wrapper that records a span:
layer name, start, duration and self time (duration minus the spans nested
under it on the same thread).  Observers attached to a wrapper turn return
values into timestamped events (cache hits, users per encoder call).
Spans and events stay in memory; :meth:`Tracer.flush` writes them to one
JSON file per process at the end.  A forked ``multiprocessing`` child (a serving replica) starts with
an empty buffer and flushes its own file when it exits.

An entry point that no longer exists is recorded as *absent* instead of
failing, so a change that deletes a layer does not have to touch the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Span buffer plus the wrappers that feed it."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object, bool]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.spans: list[tuple[str, str, float, float, float]] = []
        self.events: list[tuple[str, float, float]] = []
        self._local = threading.local()

    def _after_fork(self) -> None:
        """In a forked child: drop the parent's spans, flush on exit."""
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    # -- recording -------------------------------------------------------
    def call(self, layer: str, fn, args: tuple, kwargs: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else ""
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += seconds
            self.spans.append((layer, parent, start, seconds,
                               seconds - frame[1]))

    def event(self, name: str, value: float = 1.0) -> None:
        """A timestamped count or sample (e.g. a cache hit, a queue wait)."""
        self.events.append((name, time.perf_counter(), value))

    # -- installation ----------------------------------------------------
    def resolve(self, module: str, path: str, layer: str):
        """``(owner, attribute)`` for ``module:path`` or ``None`` (and the
        layer marked absent) when the module or attribute is gone."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(layer)
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                break
        if owner is None or not hasattr(owner, attr):
            self.absent.append(layer)
            return None
        return owner, attr

    def _install(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._installed.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, module: str, path: str, layer: str, observe=None,
             name_of=None) -> None:
        """Record a span around every call of ``module.path``;
        ``observe(tracer, args, result)`` sees each call's result and
        ``name_of(args)``, when given, names each span instead of ``layer``."""
        target = self.resolve(module, path, layer)
        if target is None:
            return
        owner, attr = target
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = layer if name_of is None else name_of(args)
            result = tracer.call(name, original, args, kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._install(owner, attr, wrapper)

    def wrap_iter(self, module: str, path: str, layer: str) -> None:
        """Record a span around each ``next()`` of the iterator that
        ``module.path`` (an ``__iter__``) returns: the consumer's wait."""
        target = self.resolve(module, path, layer)
        if target is None:
            return
        owner, attr = target
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(layer, next, (iterator,), {})
                except StopIteration:
                    return
                yield item

        self._install(owner, attr, wrapper)

    def wrap_callbacks(self, module: str, path: str, layer: str,
                       **hooks) -> None:
        """Wrap a constructor so named callable arguments are observed:
        ``hooks[name](tracer, *call_args)`` runs before the original
        callable (the original is kept, or skipped when it was ``None``)."""
        target = self.resolve(module, path, layer)
        if target is None:
            return
        owner, attr = target
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        def observed(hook, inner):
            def call(*args, **kwargs):
                hook(tracer, *args)
                return None if inner is None else inner(*args, **kwargs)
            return call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, hook in hooks.items():
                bound.arguments[name] = observed(hook, bound.arguments[name])
            return original(*bound.args, **bound.kwargs)

        self._install(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped name (in reverse order of installation)."""
        for owner, attr, previous, own in reversed(self._installed):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # -- output ----------------------------------------------------------
    def flush(self) -> Path:
        """Write this process's spans and events to one file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(), "spans": self.spans, "events": self.events,
            "absent": self.absent}))
        return path


class Trace:
    """The merged spans of every process that flushed into one directory,
    restricted to those that started inside ``window`` (``perf_counter``
    reads ``CLOCK_MONOTONIC``, which all processes of a host share)."""

    def __init__(self, out_dir: Path, window: tuple[float, float] | None = None):
        lo, hi = window if window is not None else (-math.inf, math.inf)
        self.spans: list[tuple[str, str, float, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: set[str] = set()
        self.files = 0
        for path in sorted(Path(out_dir).glob("spans-*.json")):
            data = json.loads(path.read_text())
            self.files += 1
            self.spans.extend(tuple(span) for span in data["spans"]
                              if lo <= span[2] <= hi)
            for name, stamp, value in data["events"]:
                if lo <= stamp <= hi:
                    self.counts[name] += value
                    self.samples[name].append(value)
            self.absent.update(data["absent"])

    def durations_ms(self, layer: str) -> list[float]:
        return [span[3] * 1e3 for span in self.spans if span[0] == layer]

    def self_ms(self, layer: str, parent: str | None = None) -> float:
        """Total self time of ``layer`` (optionally only under ``parent``)."""
        return sum(span[4] * 1e3 for span in self.spans if span[0] == layer
                   and (parent is None or span[1] == parent))


def median(values) -> float:
    """Median, or 0.0 for a layer that recorded nothing."""
    return float(np.median(values)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
