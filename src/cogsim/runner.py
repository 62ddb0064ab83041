"""Run loop and stable file exporters.

``run_ticks`` is the one run loop: it yields each tick's metrics row
and stops by the stop rule.  ``run_simulation`` keeps every row and the
whole trace.  ``cogsim run`` and ``cogsim sweep`` take events out of
the trace with ``drained`` after each row, so their memory does not
grow with the horizon: ``cogsim run`` writes each row and batch through
``metrics_sink`` and ``trace_sink`` as they arrive, and then what the
trace still holds, and ``cogsim sweep`` drops them.  Trace files are
JSON Lines (one event per line, sorted keys), metrics files are CSV
with LF endings and a text cell quoted as ``csv.QUOTE_MINIMAL`` quotes
it; neither contains wall-clock data, so identical
configuration and seed produce byte-identical files.  Each writer
streams its lines, so a write holds no encoded copy of the whole file.

A trace line is written by the formatter of its payload's shape: at
import, one formatter is generated as literal code for each key set
that ``metacog.TRACE_KINDS`` lists for a kind.  It writes the sorted
keys as text and each value by its exact type, and leaves only what it
cannot write itself (NaN, the infinities, dicts, subclasses) to
the JSON encoder.  A payload whose keys are no set of its kind is
encoded whole, so every line is the one a whole-dict encoding with
sorted keys gives.

Each writer replaces an existing file's contents in place: the new bytes
go over the old ones and the tail is cut off at the end, so the file
keeps its inode and, once the write completes, holds exactly the bytes
of a fresh write.  A write that fails partway, encoding a line or (for a
sink) the run itself included, removes the file if the write created
it, and leaves it empty otherwise.
Truncating to zero before writing instead makes a rerun to the same path
wait on the previous output's writeback on file systems such as ext4,
whether it follows milliseconds or seconds later.
"""

from __future__ import annotations

import json
import os
import re
import stat
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isfinite
from operator import itemgetter
from typing import TextIO

from .agent import SimulationState, tick
from .metacog import TRACE_KINDS, TraceEvent
from .scenario import ScenarioSpec, instantiate

QUIESCENT_IDLE_TICKS = 5

# A streamed run drains its trace once it holds this many events.  Each
# drain costs a 60-tick room run measurable time (64 events: about 2%
# more; 32: about 4%); a larger batch only holds more events.
DRAIN_EVENTS = 128


@dataclass
class RunConfig:
    ticks: int = 60
    seed: int = 1
    bct_profile: str | None = None
    metacognition_enabled: bool = True
    weight_overrides: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    state: SimulationState
    metrics: list[dict]
    summary: dict


def start(spec: ScenarioSpec, config: RunConfig) -> SimulationState:
    """The state of a run of ``spec`` under ``config`` before its first tick."""
    state = instantiate(spec, config.seed)
    if config.bct_profile is not None:
        state.bct_profile = config.bct_profile
    state.metacognition_enabled = config.metacognition_enabled
    state.weight_overrides = dict(config.weight_overrides)
    return state


def run_ticks(state: SimulationState, ticks: int) -> Iterator[dict]:
    """Tick ``state`` up to ``ticks`` times, yielding each tick's row, and
    stop early once the strict goal holds and the agent, having executed a
    non-idle action, has idled five ticks in a row."""
    idle_streak = 0
    acted = False
    for _ in range(ticks):
        row = tick(state)
        yield row
        idle_streak = idle_streak + 1 if row["idle"] else 0
        acted = acted or not row["idle"]
        if row["strict_tidy"] and acted and idle_streak >= QUIESCENT_IDLE_TICKS:
            return


def drained(state: SimulationState) -> Sequence[TraceEvent]:
    """The events a streamed run takes out of the trace after a tick: once
    the trace holds ``DRAIN_EVENTS`` events, those the monitor has read
    (all of them under ``--no-metacog``, as nothing reads them then), and
    otherwise none, the one shared empty tuple."""
    trace = state.trace
    if len(trace.events) < DRAIN_EVENTS:
        return ()
    return trace.drain(state.monitor_cursor if state.metacognition_enabled
                       else trace.head())


def summarize(spec: ScenarioSpec, state: SimulationState, last: dict | None) -> dict:
    """The summary of a run of ``spec`` from its state and its last row
    (None before the first tick)."""
    return {
        "scenario": spec.meta.name,
        "ticks_executed": state.world.tick,
        "final_strict": bool(last and last["strict_tidy"]),
        "final_relaxed": bool(last and last["relaxed_tidy"]),
        "abandoned": state.world.abandoned,
        "countermeasures_fired": state.countermeasures_fired,
        # Selection draws only from the tendency pool, so no action can
        # reach execution without a pooled tendency behind it.
        "routing_violations": 0,
        "inconsistencies": state.trace.inconsistencies,
    }


def run_simulation(spec: ScenarioSpec, config: RunConfig) -> RunResult:
    """Run ``spec`` under ``config`` and keep every row and the whole trace."""
    state = start(spec, config)
    metrics = list(run_ticks(state, config.ticks))
    return RunResult(state, metrics,
                     summarize(spec, state, metrics[-1] if metrics else None))


# The encoder of what no formatter writes itself.  Its ``encode`` builds a
# new C encoder on every call for anything but a str, so the formatters
# write the common values themselves.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode = _TRACE_ENCODER.encode
# The one fallback: a payload that no formatter takes is encoded whole.
_encode_whole = _encode


def _value_json(value) -> str:
    """``value`` as the encoder writes it, by its exact type: a ``str``
    through the encoder, a finite ``float`` or an ``int`` by its repr,
    ``bool`` and None as literals, a ``list`` item by item, and any other
    value (NaN and the infinities, dicts, subclasses) through the
    encoder."""
    kind = type(value)
    if kind is str:
        return _encode(value)
    if kind is float:
        return repr(value) if isfinite(value) else _encode(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is int:
        return repr(value)
    if kind is list:
        return "[" + ",".join(map(_value_json, value)) + "]"
    return _encode(value)


def _shape_formatters() -> dict[tuple[str, frozenset[str]], Callable[[dict], str]]:
    """One payload formatter per key set of ``TRACE_KINDS``, by kind and
    key set.  Each is generated once as literal code, the way
    ``collections.namedtuple`` builds its methods: it writes the sorted
    keys as text and each value by ``_value_json``.  The payload keys are
    identifiers, so they need no escaping in JSON or in the code.  The
    formatter of ``BeliefChange`` payloads, for one::

        def _BeliefChange_2(p):
            return f'{{"atom":{value(p["atom"])},"value":{value(p["value"])}}}'
    """
    namespace = {"value": _value_json}
    shapes, source = {}, []
    for kind, (_, key_sets) in TRACE_KINDS.items():
        for keys in key_sets:
            name = f"_{kind}_{len(shapes)}"
            items = ",".join(f'"{key}":{{value(p["{key}"])}}' for key in sorted(keys))
            source.append(f"def {name}(p):\n    return f'{{{{{items}}}}}'\n")
            shapes[kind, frozenset(keys)] = name
    exec("".join(source), namespace)
    return {shape: namespace[name] for shape, name in shapes.items()}


_SHAPE_FORMATTERS = _shape_formatters()


def _encoded_trace(events: Iterable[TraceEvent]) -> Iterator[str]:
    """One JSON object per event, keys in sorted order, one event at a time.

    ``append`` admits only the kinds and layers of ``TRACE_KINDS``,
    whose names need no escaping, and tick and seq are ints, so those
    are written as text.  A payload whose keys are one of its kind's
    sets there goes through that set's formatter, and any
    other payload through the encoder whole; non-empty reasons are a
    list of their encoded items.  Either way the line is the one a
    whole-dict encoding with sorted keys gives.
    """
    shapes, whole, encode = _SHAPE_FORMATTERS, _encode_whole, _encode
    for event in events:
        kind, payload, reasons = event.kind, event.payload, event.reasons
        formatter = shapes.get((kind, frozenset(payload)))
        yield (
            f'{{"kind":"{kind}","layer":"{event.layer}",'
            f'"payload":{whole(payload) if formatter is None else formatter(payload)},'
            f'"reasons":{"[" + ",".join(map(encode, reasons)) + "]" if reasons else "[]"},'
            f'"seq":{event.seq},"tick":{event.tick}}}'
        )


def trace_lines(state: SimulationState) -> list[str]:
    """The lines of the trace file of the events the trace holds, without
    line ends: ``write_trace`` writes the same lines, encoding each as
    the file takes it."""
    return list(_encoded_trace(state.trace.events))


@contextmanager
def _rewritten(path: str) -> Iterator[TextIO]:
    """A text file whose contents the writes in the block replace in place
    (see the module docstring).

    ``O_BINARY`` keeps LF endings on Windows.  Only a regular file is
    truncated, so ``/dev/null`` and pipes still work.  A block that fails
    partway, or is interrupted, removes the file if the open created it
    (``O_EXCL`` tells), and otherwise empties it rather than leave the
    new head over the previous output's tail.  The text layer is closed
    before the descriptor is cut, so no buffered bytes land after the cut.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        fd, created = os.open(path, flags | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, flags, 0o666), False
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as fh:
                yield fh
        except BaseException:
            if regular and not created:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except BaseException:
        os.close(fd)
        if created:
            os.unlink(path)
        raise
    os.close(fd)


@contextmanager
def trace_sink(path: str) -> Iterator[Callable[[Iterable[TraceEvent]], None]]:
    """A sink that writes each batch of events to the trace file at
    ``path`` as it arrives.  The file is replaced as every writer replaces
    it: if the block raises, the run included, the file is removed if the
    sink created it and left empty otherwise."""
    with _rewritten(path) as fh:
        yield lambda events: fh.writelines(
            line + "\n" for line in _encoded_trace(events))


def write_trace(state: SimulationState, path: str) -> None:
    """Write the events the trace holds."""
    with trace_sink(path) as sink:
        sink(state.trace.events)


# The metrics columns before and after the force columns, one per process.
_LEADING = ("tick", "selected_action", "winning_process")
_TRAILING = ("misplaced_count", "strict_tidy", "relaxed_tidy")


@contextmanager
def metrics_sink(path: str, process_ids: list[str]) -> Iterator[Callable[[dict], None]]:
    """A row sink that writes the metrics file at
    ``path``: the header as the block starts, then each row's line as the
    row arrives.  ``process_ids`` name the force columns, in the order the
    run's processes are declared.  The file is replaced as ``trace_sink``'s is."""
    leading, trailing = itemgetter(*_LEADING), itemgetter(*_TRAILING)
    with _rewritten(path) as fh:
        write = fh.write
        write(_csv_line([*_LEADING, *[f"force_{pid}" for pid in process_ids],
                         *_TRAILING]))
        yield lambda row: write(_csv_line(
            [*leading(row), *[row["forces"].get(pid, 0.0) for pid in process_ids],
             *trailing(row)]))


def write_metrics(result: RunResult, path: str) -> None:
    """Write the metrics rows the run holds."""
    with metrics_sink(path, [p.id for p in result.state.config.processes]) as rows:
        for row in result.metrics:
            rows(row)


def write_sweep(runs: Iterable[tuple[float, dict]], path: str) -> None:
    """One row per ``(weight, run summary)`` pair.  The weight is an input,
    so it is written as given, by its repr, not rounded as a computed
    float is."""
    columns = ("final_strict", "final_relaxed", "abandoned", "countermeasures_fired")
    with _rewritten(path) as fh:
        fh.write(_csv_line(["weight", *columns]))
        fh.writelines(_csv_line([repr(weight), *[summary[c] for c in columns]])
                      for weight, summary in runs)


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _text_cell(text: str) -> str:
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it: in quotes, each quote
    doubled, when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


# How a CSV cell is written, by its type; any other type by ``str``.
_CELL = {bool: ("0", "1").__getitem__, float: lambda value: repr(round(value, 9)),
         str: _text_cell}


def _csv_line(cells: list) -> str:
    return ",".join([_CELL.get(type(cell), str)(cell) for cell in cells]) + "\n"


def summary_line(summary: dict) -> str:
    return (
        f"{summary['scenario']}: ticks={summary['ticks_executed']} "
        f"strict={'yes' if summary['final_strict'] else 'no'} "
        f"relaxed={'yes' if summary['final_relaxed'] else 'no'} "
        f"abandoned={'yes' if summary['abandoned'] else 'no'} "
        f"countermeasures={summary['countermeasures_fired']}"
    )
