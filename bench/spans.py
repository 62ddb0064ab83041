"""Spans and call counts recorded around cogsim's functions, from outside.

``Tracer.install`` replaces every public module-level function of every
loaded ``cogsim`` module, plus ``RoomLayout.passable``, with a recording
wrapper.  A function is replaced at every name it is bound to: a
function imported with ``from .metacog import monitor`` is also bound in
``cogsim.agent`` and in the package namespace, and callers look it up
there.  ``Tracer.restore`` puts every original binding back, so code run
after it executes unpatched.

A span records its name (``<module>.<function>``), start, end, parent
span and run id.  Functions in ``COUNT_ONLY`` are too hot for a span
each and only count their calls; their time falls into the caller's
self time.  Self time is a span's duration minus the durations of its
direct children.

While ``metacog.monitor`` runs, the tracer counts the trace events the
program actually reads: the trace's event list is swapped, once per
trace, for a ``ReadCounter`` holding the same events.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import json
import operator
import sys
import time
from collections import Counter, defaultdict

# Leaf helpers called tens of thousands of times per pass.
COUNT_ONLY = frozenset(
    {
        "world.passable",
        "world.split_action",
        "world.parse_cell",
        "world.cell_loc",
        "world.manhattan",
        "world.placed_ok",
        "world.is_world_action",
        "world.encode_action",
        "rules.eval_condition",
        "rules.referenced_atoms",
        "arguments.argument_id",
        "affect.compute_force",
        "affect.supporting_argument_ids",
    }
)


def cogsim_modules() -> list:
    """The loaded cogsim package and its submodules, in name order."""
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if name == "cogsim" or name.startswith("cogsim.")
    ]


def public_functions(modules) -> dict:
    """``{"<module>.<name>": function}`` for functions defined in each module."""
    out = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not name.startswith("_")
                and value.__module__ == module.__name__
            ):
                out[f"{short}.{name}"] = value
    return out


def _tick_seq(event) -> tuple[int, int]:
    return (event.tick, event.seq)


class ReadCounter(list):
    """A trace's event list that counts the elements read from it while
    ``tracer.scanning`` is set: one per element an iterator (forward or
    reversed) yields, one per index, the length of a slice.  ``bisect``
    reads through ``__getitem__``, so a binary search counts its probes.
    """

    __slots__ = ("tracer",)

    def _counted(self, iterator):
        tracer = self.tracer
        if not tracer.scanning:
            return iterator
        counter = itertools.count()
        tracer.reads.append(counter)
        # zip stops at the exhausted list before it advances the counter,
        # so the counter advances once per element yielded.
        return map(operator.itemgetter(0), zip(iterator, counter))

    def __iter__(self):
        return self._counted(list.__iter__(self))

    def __reversed__(self):
        return self._counted(list.__reversed__(self))

    def __getitem__(self, index):
        item = list.__getitem__(self, index)
        tracer = self.tracer
        if tracer.scanning:
            read = len(item) if isinstance(index, slice) else 1
            tracer.events_scanned[tracer.run_id] += read
        return item


class Tracer:
    """Records spans and counts while installed and enabled."""

    def __init__(self) -> None:
        self.enabled = True
        self.run_id = 0
        # One row per span, indexed by span id: (parent id or -1, run id,
        # name, start, end).  A slot is None while its span is open.
        self.spans: list = []
        self.counts: Counter = Counter()
        self.events_scanned: Counter = Counter()  # run id -> events monitor read
        self.events_new: Counter = Counter()  # run id -> events after cursor
        self.scanning = False  # inside metacog.monitor
        self.reads: list = []  # one itertools.count per counted iterator
        self.trace_bytes = 0
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = cogsim_modules()
        if not modules:
            raise RuntimeError("cogsim is not imported")
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, fn in public_functions(modules).items():
            if name in COUNT_ONLY:
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn, **self._hooks(name, fn))
            wrappers[id(fn)] = (fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])
        layout = sys.modules["cogsim.world"].RoomLayout
        passable = vars(layout)["passable"]
        self._patch(layout, "passable", passable,
                    self._counter("world.passable", passable))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _hooks(self, name: str, fn) -> dict:
        if name == "metacog.monitor":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                trace = bound.arguments["trace"]
                if not isinstance(trace.events, ReadCounter):
                    trace.events = ReadCounter(trace.events)
                events = trace.events
                events.tracer = self
                cursor = tuple(bound.arguments["since"])
                self.events_new[self.run_id] += len(events) - bisect.bisect_right(
                    events, cursor, key=_tick_seq
                )
                self.scanning = True

            def after(args, kwargs):
                self.scanning = False
                self.events_scanned[self.run_id] += sum(map(next, self.reads))
                self.reads.clear()

            return {"before": before, "after": after}
        if name == "runner.write_trace":
            signature = inspect.signature(fn)

            def after(args, kwargs):
                path = signature.bind(*args, **kwargs).arguments["path"]
                with open(path, "rb") as fh:
                    self.trace_bytes += len(fh.read())

            return {"after": after}
        return {}

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, self.run_id, name, start, end)
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> tuple[Counter, dict, Counter]:
        """(calls per name, self seconds per name, calls per (name, run id)).

        Calls include the count-only functions; self time covers spans.
        """
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter(self.counts)
        self_s: dict = defaultdict(float)
        by_run: Counter = Counter()
        for index, (_, run, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            by_run[name, run] += 1
        return calls, self_s, by_run

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (parent, run, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "run": run,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")
