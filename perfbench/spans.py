"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, root): `parent` is the index of the
span that was open when this one started and `root` the index of the
outermost open span (the benchmark's own "op" or "check" span). Spans are
kept in a list and written out only when the run ends, so recording costs
one clock read and one list append per boundary.

`install` replaces chosen nmpkit functions with recording wrappers. Every
module attribute that holds the original function is replaced, not only the
one in the defining module: `nmpcheck` calls `max_flow` through its own
`from .flow import max_flow` binding, and `harness` calls `gen_gnp` and
`check_nmp` the same way. Classmethods and methods are replaced on their
class. A name that no longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Recorder:
    clock: Callable[[], float] = time.perf_counter
    names: list[str] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    root: list[int] = field(default_factory=list)
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.root.append(self._stack[0] if self._stack else i)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def run(self, name: str, fn: Callable, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def self_times(self) -> list[float]:
        """Duration of each span minus the part of it its children cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.names)):
            covered = 0.0
            reach = self.start[i]
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                lo, hi = max(self.start[c], reach), min(self.end[c], self.end[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.end[i] - self.start[i] - covered)
        return out

    def dump(self, path: str) -> None:
        rows = [
            [self.names[i], self.start[i], self.end[i], self.parent[i], self.root[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root"], "spans": rows,
                       "counts": {str(k): v for k, v in self.counts.items()}}, fh)


@dataclass(frozen=True)
class Target:
    """One function to trace: `module.qualname`, with an optional counter
    that turns the call's arguments into computed counts for its span."""

    module: str
    qualname: str
    counter: Callable[..., dict[str, int]] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _wrap(rec: Recorder, name: str, fn: Callable, counter) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
            if counter is not None:
                rec.counts[i] = counter(*args, **kwargs)

    return traced


def install(rec: Recorder, package: str, targets: list[Target]):
    """Wrap every target; returns (undo, absent names)."""
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for t in targets:
        try:
            owner = importlib.import_module(f"{package}.{t.module}")
        except ImportError:
            absent.append(t.name)
            continue
        *path, attr = t.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            absent.append(t.name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(rec, t.name, raw.__func__, t.counter))
        else:
            wrapped = _wrap(rec, t.name, raw, t.counter)
        if path:
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore, absent
