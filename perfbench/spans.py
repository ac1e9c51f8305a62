"""Span tracer for the benchmark's traced runs.

The tracer wraps every public function of the named layer modules of a
package, and replaces it at every place it was imported (for example
``kfmetric.kfda.build_scatter`` and ``kfmetric.mkl.build_scatter``), so calls
between layers are recorded without changing the program. Each call records
a span: name, start, end, the span that caused it, and an optional size of
the work the call was given. A span's self time is its duration minus the
part of that interval its child spans cover.

Spans are kept in memory; the benchmark takes them per segment (a set-up or
one pass of a workload) and writes them out when it ends. Calls are assumed
to come from one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span in the same segment
    work: float = 0.0


def replace_everywhere(package: str, replacements: dict) -> list:
    """Swap each function in ``replacements`` (original -> new) in every module
    of ``package`` that holds it. Returns the patches for :func:`restore`."""
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    patches = []
    for modname, module in list(sys.modules.items()):
        if module is None or (modname != package and not modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patches.append((module, attr, value))
    return patches


def restore(patches: list) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        attr: fn
        for attr, fn in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


class Tracer:
    """Records a span around each call of the layers' public functions.

    ``work`` maps a span name to ``f(fn, args, kwargs) -> number``, evaluated
    after the call returns, giving the size of the work the call was given.
    """

    def __init__(self, package: str, layers, work: dict | None = None):
        self.package = package
        self.layers = tuple(layers)
        self.work = dict(work or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        work_of = self.work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if work_of is not None:
                    span.work = float(work_of(fn, args, kwargs))

        return traced

    def __enter__(self) -> "Tracer":
        replacements = {}
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in public_functions(module).items():
                replacements[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._patches = replace_everywhere(self.package, replacements)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._patches)
        self._patches = []

    def take(self) -> list[Span]:
        """Spans recorded since the last take; call only outside every span."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def untraced_remainder(spans: list[Span], wall: float) -> float:
    """Time of a segment of length ``wall`` outside every root span."""
    return wall - sum(s.end - s.start for s in spans if s.parent is None)


def under(spans: list[Span], i: int, prefix: str) -> bool:
    """True when some ancestor of span ``i`` has a name starting with ``prefix``."""
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total self time and total work."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "work": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["work"] += span.work
    return table


def to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
