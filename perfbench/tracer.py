"""Spans around calls into the public functions of a package, installed from outside.

The tracer replaces every module attribute that binds a traced function with a
timing wrapper, including the copies other modules made with ``from .x import
y``, and the public methods of the package's classes.  The package source is
never edited.  ``installed()`` restores every original on exit, so untraced
calls in the same process run the original code.

Spans are kept in memory: name, start and end (``perf_counter_ns``), the index
of the enclosing span, and an optional dict of counts that a per-function hook
computed from the call.  The benchmark drives one client thread, so a single
stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager
from typing import Callable, Iterable

clock = time.perf_counter_ns

BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("name", "start", "end", "parent", "extra")

    def __init__(self, name: str, start: int, end: int = 0, parent: int = -1, extra=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.extra = extra


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        edge = s.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(i, ())):
            lo, hi = max(lo, edge, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.end - s.start - covered)
    return out


Hook = Callable[[tuple, dict, object], dict]


class Tracer:
    """Wraps the public functions of ``package`` and its ``modules`` while installed.

    ``hooks`` maps a span name to a function of (args, kwargs, result) whose
    dict is stored on the span; its run time is recorded as a child span
    named ``trace.bookkeeping``, so it is not charged to the caller.
    """

    def __init__(self, package: str, modules: Iterable[str], hooks: dict[str, Hook] | None = None):
        self.package = package
        self.modules = tuple(modules)
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._active = False

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0, 0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name: str):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook is not None:
                with self.span(BOOKKEEPING):
                    s.extra = hook(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def _module(self, name: str):
        # importlib, not attribute access: a package attribute may have been
        # rebound by ``from .mod import mod`` to a function of the same name
        return importlib.import_module(f"{self.package}.{name}")

    def install(self) -> None:
        if self._active:
            raise RuntimeError("tracer already installed")
        self._active = True
        self._patches = []
        wrappers: dict[object, object] = {}
        for short in self.modules:
            mod = self._module(short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self._wrap(fn, f"{short}.{obj.__name__}.{meth}"))
        owners = [importlib.import_module(self.package)] + [self._module(m) for m in self.modules]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(owner, attr, wrappers[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._active = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding the last install replaced."""
        return list(self._patches)

    def leftovers(self) -> list[str]:
        """Bindings that do not hold their original object after uninstall."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
