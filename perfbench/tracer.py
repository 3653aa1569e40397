"""Span recorder: per-layer self time and call counts, by patching.

A span is one call of a wrapped function.  Spans nest through an
explicit stack, so each span knows how much of its duration its child
spans covered; a layer's *self time* is the sum over its spans of
duration minus child-span time.  Time a span spends in code that no
wrapped function covers stays with the innermost open span; time outside
every span is unattributed and shows up as missing coverage.

Spans are aggregated as they close (per-layer totals and per-name call
counts) rather than stored: a flood trial opens over a million of them.

Patching targets *where a function is looked up*, not only where it is
defined: a module-level function is replaced in every loaded module of
the program that bound it with ``from ... import``, and a method is
replaced on its class and on every subclass that defines its own
override.  Install patches before the program builds any object that
caches a bound method.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

#: Top-level package of the program under measurement.
PROGRAM = "repro"


class SpanRecorder:
    """Aggregates self time per layer and call counts per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: one child-time accumulator per open span, innermost last
        self._stack: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, count: str | None = None) -> Callable:
        """``fn`` recorded as a span of ``layer``; each call adds one to
        ``counts[count]`` when ``count`` is given."""
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count is not None:
                    counts[count] += 1

        return spanned

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(
        self, module_name: str, name: str, layer: str, count: str | None = None
    ) -> int:
        """Wrap ``module_name.name`` as a span everywhere it is bound."""
        return self.rebind(
            module_name, name, lambda original: self.wrap(original, layer, count)
        )

    def rebind(
        self, module_name: str, name: str, make: Callable[[Callable], Callable]
    ) -> int:
        """Replace ``module_name.name`` by ``make(original)`` everywhere.

        Every loaded module of the program (name starting with
        ``PROGRAM``) that holds the same function object under any name
        gets the replacement.  Returns the number of bindings replaced.
        """
        original = getattr(sys.modules[module_name], name)
        replacement = make(original)
        replaced = 0
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if not module_id.startswith(PROGRAM):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    replaced += 1
        return replaced

    def patch_method(
        self, cls: type, name: str, layer: str, count: str | None = None
    ) -> int:
        """Wrap ``cls.name`` and every subclass's own override of it.

        Returns the number of classes patched.
        """
        patched = 0
        for klass in _with_subclasses(cls):
            original = klass.__dict__.get(name)
            if original is None:
                continue
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self.wrap(original.__func__, layer, count))
            elif isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(original.__func__, layer, count))
            elif callable(original):
                wrapper = self.wrap(original, layer, count)
            else:
                continue
            self._set(klass, name, wrapper)
            patched += 1
        return patched

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)


def _with_subclasses(cls: type) -> list[type]:
    seen: list[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.append(klass)
        pending.extend(klass.__subclasses__())
    return seen
