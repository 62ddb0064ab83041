"""The trace encoding: ``trace_lines`` writes each event's keys in a fixed
order and each payload through the formatter of its key set in
``TRACE_KINDS``, or through the JSON encoder whole when its keys are no
set of its kind, and must give the lines of a whole-dict encoding with
sorted keys.  ``write_trace`` streams the same lines into the file, and
``cogsim run`` writes them as its run drains the trace."""

import dataclasses
import itertools
import json
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import cogsim
from cogsim import runner
from cogsim.cli import main
from cogsim.errors import CogsimError, OutOfOrder
from cogsim.metacog import TRACE_KINDS, ReasoningTrace
from cogsim.runner import (
    RunConfig,
    RunResult,
    run_simulation,
    trace_lines,
    write_metrics,
    write_trace,
)
from cogsim.scenario import BUNDLED, load_bundled

from helpers import reference_trace_lines

CONFIGS = {
    "default": {},
    "no_metacog": {"metacognition_enabled": False},
    "ceos": {"bct_profile": "ceos"},
}
# The ``cogsim run`` options of each config.
OPTIONS = {"default": [], "no_metacog": ["--no-metacog"], "ceos": ["--bct", "ceos"]}

ASSETS = Path(cogsim.__file__).parent / "assets"


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_runs_match_the_whole_dict_encoding(name, config, tmp_path):
    result = run_simulation(load_bundled(name), RunConfig(ticks=600, **CONFIGS[config]))
    lines = trace_lines(result.state)
    assert lines == reference_trace_lines(result.state)
    path = tmp_path / "trace.jsonl"
    write_trace(result.state, str(path))
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


def test_kind_and_layer_names_need_no_escaping():
    layers = {layer for layers, _ in TRACE_KINDS.values() for layer in layers}
    for name in [*TRACE_KINDS, *layers]:
        assert json.dumps(name)[1:-1] == name


def test_payload_key_sets_are_sorted_identifiers():
    for kind, (_, key_sets) in TRACE_KINDS.items():
        assert len(set(map(frozenset, key_sets))) == len(key_sets), kind
        for keys in key_sets:
            assert list(keys) == sorted(set(keys)), (kind, keys)
            assert all(key.isidentifier() and key.isascii() for key in keys), keys


class _Text(str):
    def __repr__(self):
        return "text"


class _Count(int):
    def __repr__(self):
        return "count"


class _Real(float):
    def __repr__(self):
        return "real"


# Characters the encoder escapes (quote, backslash, controls, non-ASCII
# up to one beyond the BMP) among ones it leaves as they are.
_TEXT = st.text(st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\x85\u2028 aé€😀'), max_size=4)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.just(-0.0), _TEXT,
    st.builds(_Text, _TEXT), st.builds(_Count, st.integers()),
    st.builds(_Real, st.floats()),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=6,
)
_KINDS_AND_LAYERS = sorted((kind, layer) for kind, (layers, _) in TRACE_KINDS.items()
                           for layer in layers)
_PAYLOAD_KEY_NAMES = sorted({key for _, key_sets in TRACE_KINDS.values()
                             for keys in key_sets for key in keys})


@st.composite
def _payloads(draw, kind):
    """A payload with one of the kind's key sets, or with one key of it
    dropped or one key added, its keys in any order."""
    keys = list(draw(st.sampled_from(TRACE_KINDS[kind][1])))
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and keys:
        keys.remove(draw(st.sampled_from(keys)))
    elif change == "add":
        keys.append(draw(st.one_of(st.sampled_from(_PAYLOAD_KEY_NAMES), _TEXT)
                         .filter(lambda key: key not in keys)))
    return {key: draw(_VALUES) for key in draw(st.permutations(keys))}


@st.composite
def _events(draw):
    kind, layer = draw(st.sampled_from(_KINDS_AND_LAYERS))
    reasons = draw(st.one_of(st.just(()), st.lists(_TEXT, min_size=1, max_size=3)))
    return draw(st.integers(0, 2)), (kind, layer), draw(_payloads(kind)), reasons


@seed(20211018)
@settings(max_examples=200, deadline=None, database=None)
@given(events=st.lists(_events(), max_size=6))
def test_appended_events_match_the_whole_dict_encoding(events):
    trace = ReasoningTrace()
    tick = 0
    for gap, (kind, layer), payload, reasons in events:
        tick += gap
        trace.append(tick, kind, payload, reasons, layer)
    state = SimpleNamespace(trace=trace)
    assert trace_lines(state) == reference_trace_lines(state)


@seed(20211018)
@settings(max_examples=300, deadline=None, database=None)
@given(value=st.lists(_VALUES, max_size=4))
def test_a_list_value_is_written_as_json_dumps_writes_it(value):
    assert runner._value_json(value) == json.dumps(value, sort_keys=True,
                                                   separators=(",", ":"))


def _trace_of(*events):
    trace = ReasoningTrace()
    for kind, payload, reasons in events:
        trace.append(0, kind, payload, reasons)
    return SimpleNamespace(trace=trace)


def _spy_on_fallbacks(monkeypatch) -> list[dict]:
    """The payloads encoded whole from now on, which no formatter took."""
    whole = []
    encode = runner._TRACE_ENCODER.encode
    monkeypatch.setattr(runner, "_encode_whole",
                        lambda payload: whole.append(payload) or encode(payload))
    return whole


def test_the_fallback_spy_sees_a_payload_of_no_listed_shape(monkeypatch):
    whole = _spy_on_fallbacks(monkeypatch)
    state = _trace_of(("NoTendency", {}, ()), ("NoTendency", {"extra": 1}, ()))
    assert trace_lines(state) == reference_trace_lines(state)
    assert whole == [{"extra": 1}]


# Values the formatters must write as the encoder does: each non-finite
# float, both zeros, bool against int, big ints, escapes, non-ASCII,
# nested values and subclasses with a repr of their own.
_HOSTILE = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324, 0.1,
    True, False, 0, 1, -(2**70), None, "", '"\\/\x00\u2028é😀', "plain",
    [1.5, "a", None], {"b": [float("nan")], "a": {"é": True}}, (),
    _Text("text"), _Count(3), _Real(2.5), _Real("nan"),
]


@pytest.mark.parametrize("kind, keys", [
    (kind, keys) for kind, (_, key_sets) in TRACE_KINDS.items() for keys in key_sets])
def test_each_shape_writes_every_value_as_the_encoder_does(kind, keys, monkeypatch):
    # Each key takes each value once, and every payload has a listed shape.
    whole = _spy_on_fallbacks(monkeypatch)
    count = len(_HOSTILE)
    state = _trace_of(*[
        (kind, {key: _HOSTILE[(row + column) % count]
                for column, key in enumerate(reversed(keys))}, ())
        for row in range(count)])
    assert trace_lines(state) == reference_trace_lines(state)
    assert whole == []


# Each pair is equal under ``==`` but encodes apart, or is equal and
# distinct: each event of the kind is encoded from its own payload.
@pytest.mark.parametrize("first, second", [
    ({"x": 0.0}, {"x": -0.0}),
    ({"x": 1}, {"x": 1.0}),
    ({"x": True}, {"x": 1}),
    ({"x": [1, 2]}, {"x": [1, 2]}),
], ids=["signed_zero", "int_float", "bool_int", "equal_copy"])
def test_equal_payloads_of_one_kind_encode_as_a_fresh_encode(first, second):
    reasons = ("serves_tidy_goal",)
    state = _trace_of(
        ("OptionSelected", first, reasons),
        ("OptionSelected", second, tuple(list(reasons))),
        ("OptionSelected", second, ("a",)),
        ("OptionSelected", first, ()),
    )
    assert trace_lines(state) == reference_trace_lines(state)


def test_write_trace_holds_no_encoded_copy_of_the_trace(tmp_path):
    # Counts allocations only: the whole list of lines would be over ten
    # times what streaming them into the file holds at its peak.
    state = run_simulation(load_bundled("room_tidy_redescription"),
                           RunConfig(ticks=1600, seed=1)).state
    path = str(tmp_path / "trace.jsonl")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lines = trace_lines(state)
        listed = tracemalloc.get_traced_memory()[1] - base
        del lines
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_trace(state, path)
        streamed = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(state.trace.events) > 10_000
    assert streamed < 0.1 * listed, (streamed, listed)


def test_an_encode_that_fails_partway_empties_the_file(tmp_path):
    # Enough lines to flush past the text layer's buffer before the failure.
    events = [("ActionExecuted", {"action": f"a{i}"}, ()) for i in range(5000)]
    state = _trace_of(*events, ("ActionExecuted", {"action": object()}, ()))
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"old output\n" * 100_000)
    with pytest.raises(TypeError):
        write_trace(state, str(path))
    assert path.read_bytes() == b""


def _run_argv(name, trace, metrics, ticks, options=()):
    return ["run", str(ASSETS / f"{name}.json"), "--ticks", str(ticks),
            "--trace", str(trace), "--metrics", str(metrics), *options]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_a_streamed_run_writes_the_files_of_the_kept_run(name, config, tmp_path,
                                                         capsys):
    kept = run_simulation(load_bundled(name), RunConfig(ticks=600, **CONFIGS[config]))
    write_trace(kept.state, str(tmp_path / "kept.jsonl"))
    write_metrics(kept, str(tmp_path / "kept.csv"))
    streamed = [tmp_path / "t.jsonl", tmp_path / "m.csv"]
    assert main(_run_argv(name, *streamed, 600, OPTIONS[config])) == 0
    assert streamed[0].read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
    assert streamed[1].read_bytes() == (tmp_path / "kept.csv").read_bytes()
    assert capsys.readouterr().out == runner.summary_line(kept.summary) + "\n"


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_event_goes_through_its_shapes_formatter(name, config, tmp_path,
                                                               monkeypatch, capsys):
    whole = _spy_on_fallbacks(monkeypatch)
    formatted = []
    monkeypatch.setattr(runner, "_SHAPE_FORMATTERS", {
        shape: lambda payload, formatter=formatter: (formatted.append(payload)
                                                     or formatter(payload))
        for shape, formatter in runner._SHAPE_FORMATTERS.items()})
    trace = tmp_path / "t.jsonl"
    assert main(_run_argv(name, trace, os.devnull, 600, OPTIONS[config])) == 0
    assert whole == []
    assert len(formatted) == len(trace.read_bytes().splitlines()) > 0


def _driven(spec, run_config, batches) -> RunResult:
    """A run of ``run_ticks`` driven as ``cogsim run`` drives it: after each
    row, each non-empty batch ``drained`` takes goes to ``batches``, and
    the result keeps the rows and what the trace still holds."""
    state = runner.start(spec, run_config)
    rows = []
    for row in runner.run_ticks(state, run_config.ticks):
        rows.append(row)
        batch = runner.drained(state)
        if batch:
            batches.append(batch)
    return RunResult(state, rows, runner.summarize(spec, state, rows[-1]))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_a_drained_run_sees_the_rows_and_events_of_the_kept_run(name, config):
    spec, run_config = load_bundled(name), RunConfig(ticks=600, **CONFIGS[config])
    kept = run_simulation(spec, run_config)
    batches = []
    streamed = _driven(spec, run_config, batches)
    found = sum(e.kind == "InconsistencyDetected" for e in kept.state.trace.events)
    assert kept.summary["inconsistencies"] == found
    assert streamed.summary == kept.summary
    assert streamed.metrics == kept.metrics
    assert ([e for batch in batches for e in batch] + streamed.state.trace.events
            == kept.state.trace.events)
    assert len(batches) > 1


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_a_kept_run_never_drains(name, config, monkeypatch):
    def refused(trace, cursor):
        raise AssertionError("a kept run drained its trace")

    monkeypatch.setattr(ReasoningTrace, "drain", refused)
    result = run_simulation(load_bundled(name), RunConfig(ticks=600, **CONFIGS[config]))
    assert len(result.state.trace.events) > runner.DRAIN_EVENTS


def test_a_run_that_raises_after_drains_leaves_the_trace_empty(tmp_path, monkeypatch,
                                                               capsys):
    drains = []
    drain, step = ReasoningTrace.drain, runner.tick

    def counted(trace, cursor):
        drains.append(cursor)
        return drain(trace, cursor)

    def failing(state):
        if state.world.tick == 300:
            raise CogsimError("raised at tick 300")
        return step(state)

    monkeypatch.setattr(ReasoningTrace, "drain", counted)
    monkeypatch.setattr(runner, "tick", failing)
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.csv"
    trace.write_bytes(b"old output\n" * 100_000)
    assert main(_run_argv("room_tidy_redescription", trace, metrics, 600)) == 2
    assert "raised at tick 300" in capsys.readouterr().err
    assert len(drains) > 10
    assert trace.read_bytes() == b""
    assert not metrics.exists()


def _peak(action) -> int:
    """The tracemalloc peak of ``action()`` above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_streamed_run_holds_under_half_of_a_kept_one(tmp_path, capsys):
    name, ticks = "room_tidy_redescription", 1600
    paths = [tmp_path / "t.jsonl", tmp_path / "m.csv"]

    def kept():
        result = run_simulation(load_bundled(name), RunConfig(ticks=ticks))
        write_trace(result.state, str(paths[0]))

    streamed = _peak(lambda: main(_run_argv(name, *paths, ticks)))
    assert _peak(kept) > 2 * streamed


@pytest.mark.parametrize("name", ["room_tidy_redescription", "non_smoking"])
def test_a_streamed_runs_memory_does_not_grow_with_the_horizon(name, tmp_path, capsys):
    # Neither scenario stops before its horizon.  A short run first, so
    # that what the first run of a process caches falls in neither peak.
    paths = [tmp_path / "t.jsonl", tmp_path / "m.csv"]
    assert main(_run_argv(name, *paths, 60)) == 0
    short, long = (_peak(lambda: main(_run_argv(name, *paths, ticks)))
                   for ticks in (600, 3000))
    assert "ticks=3000 " in capsys.readouterr().out
    assert abs(long - short) <= 0.15 * short, (short, long)


def _room_tidy_without_events():
    return dataclasses.replace(load_bundled("room_tidy"), events=())


def test_the_stop_rule_ends_a_run_five_idle_ticks_after_the_goal_holds():
    # As in A1: without the shelf breakage the strict goal holds from tick
    # 21, and ticks 22 to 26 idle, so the run stops long before its horizon.
    spec, config = _room_tidy_without_events(), RunConfig(ticks=600, seed=1)
    state = runner.start(spec, config)
    rows = list(runner.run_ticks(state, config.ticks))
    assert len(rows) == 27
    assert [row["strict_tidy"] for row in rows].index(True) == 21
    assert not rows[21]["idle"] and all(row["idle"] for row in rows[22:])
    summary = runner.summarize(spec, state, rows[-1])
    assert summary == run_simulation(spec, config).summary
    assert summary["ticks_executed"] == 27 and summary["final_strict"]


# (scenario name, config, ticks seen): the stopping run at and before its
# stop, and a long run in each config.
@pytest.mark.parametrize("name, config, ticks", [
    *[("room_tidy_without_events", "default", ticks) for ticks in (1, 21, 26, 27)],
    *[("room_tidy_redescription", config, 300) for config in sorted(CONFIGS)]])
def test_a_consumer_that_stops_early_has_seen_a_prefix_of_the_kept_run(name, config,
                                                                       ticks):
    scenario = (_room_tidy_without_events() if name == "room_tidy_without_events"
                else load_bundled(name))
    config = RunConfig(ticks=600, **CONFIGS[config])
    kept = run_simulation(scenario, config)
    state = runner.start(scenario, config)
    rows = list(itertools.islice(runner.run_ticks(state, config.ticks), ticks))
    seen = state.trace.events
    assert rows == kept.metrics[:ticks]
    assert seen == [event for event in kept.state.trace.events if event.tick < ticks]
    assert len(seen) < len(kept.state.trace.events) or ticks == len(kept.metrics)


def test_a_run_that_raises_empties_the_metrics_file_it_found(tmp_path, monkeypatch,
                                                              capsys):
    step = runner.tick

    def failing(state):
        if state.world.tick == 300:
            raise CogsimError("raised at tick 300")
        return step(state)

    monkeypatch.setattr(runner, "tick", failing)
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.csv"
    metrics.write_bytes(b"old output\n" * 100_000)
    assert main(_run_argv("room_tidy_redescription", trace, metrics, 600)) == 2
    assert "raised at tick 300" in capsys.readouterr().err
    assert metrics.read_bytes() == b""
    assert not trace.exists()


def test_a_write_that_fails_on_a_path_it_created_leaves_no_file(tmp_path):
    # Enough lines to flush past the text layer's buffer before the failure.
    events = [("ActionExecuted", {"action": f"a{i}"}, ()) for i in range(5000)]
    state = _trace_of(*events, ("ActionExecuted", {"action": object()}, ()))
    path = tmp_path / "trace.jsonl"
    with pytest.raises(TypeError):
        write_trace(state, str(path))
    assert not path.exists()


class TestDrain:
    def test_an_earlier_tick_after_a_drain_is_rejected(self):
        trace = ReasoningTrace()
        trace.append(5, "BeliefChange", {})
        assert len(trace.drain(trace.head())) == 1 and trace.events == []
        with pytest.raises(OutOfOrder):
            trace.append(4, "BeliefChange", {})
        event = trace.append(5, "BeliefChange", {})
        assert (event.tick, event.seq) == (5, 1)

    @seed(20211019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(gaps=st.lists(st.integers(0, 2), max_size=20), cut=st.integers(-1, 25))
    def test_a_drain_takes_what_since_leaves(self, gaps, cut):
        trace = ReasoningTrace()
        tick = 0
        for gap in gaps:
            tick += gap
            trace.append(tick, "BeliefChange", {})
        events = list(trace.events)
        cursor = (events[cut].tick, events[cut].seq) if 0 <= cut < len(events) else (
            -1, -1)
        after = trace.since(cursor)
        drained = trace.drain(cursor)
        assert drained + after == events
        assert trace.events == after and trace.since(cursor) == after
