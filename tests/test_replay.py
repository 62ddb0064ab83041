"""The steady cycle: ``agent.tick`` replays a run's repeating period.

A replayed tick must leave every output byte and every field of the
state but the memo as the computed tick does; these tests compare runs
with ``agent.REPLAY`` on and off, tick by tick and byte by byte.
"""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import agent
from cogsim.affect import ActionTendency, AffectiveProcess
from cogsim.cli import main
from cogsim.metacog import (
    _SHIFTERS,
    PAYLOAD_REFS,
    TRACE_KINDS,
    ReasoningTrace,
    TraceEvent,
    shift_id,
    shifted,
    shifter,
)
from cogsim.rules import BeliefStore
from cogsim.runner import RunConfig, run_simulation, start
from cogsim.scenario import BUNDLED, bundled_document, load_bundled

from helpers import forgetful, run_bytes, traced_peak

MODES = {
    "default": ({}, []),
    "no_metacog": ({"metacognition_enabled": False}, ["--no-metacog"]),
    "ceos": ({"bct_profile": "ceos"}, ["--bct", "ceos"]),
}

# Where each bundled run (seed 1) settles into its cycle, as the latest
# start over the three modes, and the cycle's period.
CYCLES = {
    "room_tidy": (38, 9),
    "room_tidy_redescription": (15, 9),
    "non_smoking": (6, 3),
    "office_cake": (6, 3),
}


@pytest.fixture
def replayed(monkeypatch):
    """The ticks ``agent._replay`` makes, as a list of their ticks."""
    ticks = []
    replay = agent._replay

    def counted(state, cycle):
        ticks.append(state.world.tick)
        return replay(state, cycle)

    monkeypatch.setattr(agent, "_replay", counted)
    return ticks


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED)
def test_a_steady_run_is_replayed_from_its_third_period(replayed, name, mode):
    result = run_simulation(load_bundled(name), RunConfig(ticks=600, seed=1, **MODES[mode][0]))
    assert result.summary["ticks_executed"] == 600
    start, period = CYCLES[name]
    assert len(replayed) >= 600 - start - 2 * period
    assert replayed == list(range(600 - len(replayed), 600))  # once on, to the end


@pytest.mark.parametrize("name", BUNDLED)
def test_a_forgetful_run_replays_nothing(replayed, name):
    with forgetful():
        run_simulation(load_bundled(name), RunConfig(ticks=120, seed=1))
    assert replayed == []


def _digest(state, first: int) -> str:
    """Every field of the state but the memo, with the trace as its head,
    its inconsistency count and the events from index ``first`` on."""
    fields = {name: value for name, value in vars(state).items()
              if name not in ("memo", "trace", "beliefs")}
    trace, beliefs = state.trace, state.beliefs
    events = [(e.tick, e.seq, e.layer, e.kind, sorted(e.payload.items()), e.reasons)
              for e in trace.events[first:]]
    return repr((fields, trace.head(), trace.inconsistencies, events,
                 vars(beliefs)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED)
def test_every_field_but_the_memo_is_as_computed_after_every_tick(
        monkeypatch, replayed, name, mode):
    config = RunConfig(ticks=150, seed=1, **MODES[mode][0])
    states = {flag: start(load_bundled(name), config) for flag in (True, False)}
    for _ in range(config.ticks):
        digests = set()
        for flag, state in states.items():
            monkeypatch.setattr(agent, "REPLAY", flag)
            first = len(state.trace.events)
            agent.tick(state)
            digests.add(_digest(state, first))
        assert len(digests) == 1, states[True].world.tick
    start_tick, period = CYCLES[name]
    assert len(replayed) >= 150 - start_tick - 2 * period


def _streamed(tmp_path, name: str, ticks: int, flags: list[str]) -> tuple:
    """What ``cogsim run`` writes and prints for a bundled scenario."""
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(bundled_document(name), encoding="utf-8")
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(scenario), "--ticks", str(ticks), "--seed", "1", *flags,
                     "--trace", str(trace), "--metrics", str(metrics)])
    return code, out.getvalue(), trace.read_bytes(), metrics.read_bytes()


@pytest.mark.parametrize("ticks", [60, 600, 3000])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED)
def test_a_replayed_run_writes_what_a_computed_run_writes(
        monkeypatch, tmp_path, name, mode, ticks):
    spec, (options, flags) = load_bundled(name), MODES[mode]
    config = RunConfig(ticks=ticks, seed=1, **options)
    runs = []
    for flag in (True, False):
        monkeypatch.setattr(agent, "REPLAY", flag)
        runs.append((run_bytes(spec, config), _streamed(tmp_path, name, ticks, flags)))
    assert runs[0] == runs[1]


def test_the_readme_sweep_is_replayed_to_the_same_bytes(monkeypatch, tmp_path, replayed):
    scenario = tmp_path / "room.json"
    scenario.write_text(bundled_document("room_tidy_redescription"), encoding="utf-8")
    sweeps = []
    for flag in (True, False):
        monkeypatch.setattr(agent, "REPLAY", flag)
        out = tmp_path / f"{flag}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", str(scenario), "--template", "commitment_guard",
                         "--weights", "0,0.5,1.0,1.5,2.0", "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1] and replayed


def test_a_state_changed_between_ticks_is_computed(monkeypatch, replayed):
    # The world is swapped in the middle of the replay: that tick and the
    # ones after it until a cycle is found again are computed.
    state = start(load_bundled("non_smoking"), RunConfig(ticks=90, seed=1))
    for _ in range(40):
        agent.tick(state)
    assert replayed[-1] == 39
    ((fact, value),) = state.world.facts.items()
    state.world = state.world._replace(facts={fact: not value})
    agent.tick(state)
    assert replayed[-1] == 39 and state.memo.cycle is None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUNDLED)
def test_payload_refs_hold_every_tick_and_tendency_id(monkeypatch, name, mode):
    # Every ``td`` id in a payload sits under an id key; and over the
    # cycle each payload is the one a period back with exactly the keys
    # of PAYLOAD_REFS moved, so no other key holds a tick or an id.
    monkeypatch.setattr(agent, "REPLAY", False)
    state = run_simulation(load_bundled(name),
                           RunConfig(ticks=200, seed=1, **MODES[mode][0])).state
    tendency_id = re.compile(r"td\d+")
    for event in state.trace.events:
        for key, value in event.payload.items():
            for text in re.findall(r'"[^"]*"', json.dumps(value)):
                if tendency_id.fullmatch(text.strip('"')):
                    assert PAYLOAD_REFS.get(key) == "id", (event.kind, key)
    start_tick, period = CYCLES[name]
    by_tick = {}
    for event in state.trace.events:
        by_tick.setdefault(event.tick, []).append(event)
    for tick in range(start_tick + period, 200):
        now, then = by_tick[tick], by_tick[tick - period]
        assert [(e.seq, e.kind) for e in now] == [(e.seq, e.kind) for e in then]
        for new, old in zip(now, then):
            moved = {key for key in new.payload if new.payload[key] != old.payload[key]}
            assert moved <= PAYLOAD_REFS.keys(), (new.kind, moved)
            for key in moved:
                if PAYLOAD_REFS[key] == "tick":
                    assert new.payload[key] - old.payload[key] == period
                elif PAYLOAD_REFS[key] == "event":
                    assert new.payload[key][0] - old.payload[key][0] == period


# -- how a replayed payload is built ---------------------------------------------


def _ref_shapes():
    """Each key set of TRACE_KINDS with a PAYLOAD_REFS key, with each
    non-empty subset of those keys (the ones set to other than None), in
    PAYLOAD_REFS order."""
    for keys in sorted({keys for _, key_sets in TRACE_KINDS.values() for keys in key_sets}):
        refs = [key for key in PAYLOAD_REFS if key in keys]
        for size in range(1, len(refs) + 1):
            yield from ((keys, moved) for moved in itertools.combinations(refs, size))


_REF_SHAPES = list(_ref_shapes())
_VALUES = st.one_of(st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=3))
_REFS = {"tick": st.integers(-10**6, 10**6),
         "id": st.integers(1, 10**4).map(lambda n: f"td{n:05d}"),
         "event": st.tuples(st.integers(-10**6, 10**6), st.integers(0, 50)).map(list)}


def test_every_ref_shape_has_a_generated_constructor():
    assert len(_REF_SHAPES) == 15
    assert {(frozenset(keys), moved) for keys, moved in _REF_SHAPES} == _SHIFTERS.keys()


@pytest.mark.parametrize("keys, moved", _REF_SHAPES)
@seed(20211022)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), ticks=st.integers(-3000, 3000), ids=st.integers(-500, 500))
def test_each_constructor_builds_what_the_generic_shift_builds(keys, moved, data, ticks, ids):
    payload = {key: None if key in PAYLOAD_REFS and key not in moved
               else data.draw(_REFS[PAYLOAD_REFS[key]] if key in moved else _VALUES)
               for key in keys}
    before = repr(payload)
    shift = shifter(payload)
    assert shift is _SHIFTERS[frozenset(keys), moved]
    rename = lambda name: shift_id(name, ids)  # noqa: E731
    built = shift(payload, ticks, rename)
    assert built == shifted(payload, ticks, rename, moved) and built is not payload
    assert repr(payload) == before  # the recorded payload is left as it was
    for key in keys:
        if key not in moved:
            assert built[key] is payload[key]


def test_a_payload_of_no_listed_shape_is_moved_by_the_generic_shift():
    payload = {"tendency": "td00007", "source_event": [40, 2], "os_tendency": None,
               "extra": [1]}
    shift = shifter(payload)
    assert shift not in _SHIFTERS.values()
    assert shift(payload, 9, lambda name: shift_id(name, 3)) == {
        "tendency": "td00010", "source_event": [49, 2], "os_tendency": None, "extra": [1]}
    assert payload["tendency"] == "td00007" and payload["source_event"] == [40, 2]
    assert shifter({"tendency": None, "fire_tick": None}) is None


# -- what the replay costs in memory ---------------------------------------------


def test_a_replayed_sweep_holds_little_more_than_a_computed_one(monkeypatch, tmp_path):
    # The shape of the benchmark's one-cell sweep, after a warm-up sweep so
    # that what the first run of a process caches falls in neither peak.
    scenario = tmp_path / "non_smoking.json"
    scenario.write_text(bundled_document("non_smoking"), encoding="utf-8")
    argv = ["sweep", str(scenario), "--template", "relief_appeal", "--ticks", "60",
            "--weights", "0,0.5,1.0,1.5,2.0", "--out", str(tmp_path / "sweep.csv")]

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    sweep()
    peaks = {}
    for flag in (False, True):
        monkeypatch.setattr(agent, "REPLAY", flag)
        peaks[flag] = traced_peak(sweep)
    assert peaks[True] <= 1.15 * peaks[False], peaks


# -- what the replay key covers -------------------------------------------------

# Each field of these classes is in ``agent._key`` or listed here with why
# it need not be.  A new field fails the test until it is placed.
UNKEYED = {
    "SimulationState": {
        "memo": "derived: a run that forgets it writes the same bytes",
        "countermeasures_fired": "a counter no stage reads; a replay adds to it",
        "_tendency_counter": "ids enter the key relative to it; a replay adds to it",
    },
    "AffectiveProcess": {},
    "ActionTendency": {
        "folded": "the force table its force was read off: a memo a replay clears",
    },
    "BeliefStore": {
        "version": "counts changes: read only as a memo key",
    },
    "ReasoningTrace": {
        "inconsistencies": "a counter no stage reads; a replay adds to it",
    },
}


def _fields(cls) -> set[str]:
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set(vars(cls()))


def _perturbations(state) -> dict:
    """For each keyed field of each class, a change to a copy of ``state``
    that the key must see."""
    def other(value):
        for kind, change in ((bool, lambda v: not v), (int, lambda v: v + 1),
                             (float, lambda v: v + 0.5), (str, lambda v: v + "x"),
                             (tuple, lambda v: v + v[:1] if v else ("x",)),
                             (list, lambda v: v + v[:1] if v else ["x"])):
            if isinstance(value, kind):
                return change(value)
        return "x" if value is None else object()

    def setter(obj_of, name, change=other):
        def perturb(s):
            obj = obj_of(s)
            setattr(obj, name, change(getattr(obj, name)))
        return perturb

    def field_of(name, change):
        return setter(lambda s: s, name, change)

    state_changes = {
        "world": lambda w: w._replace(agent_holding="toy_9"),
        "beliefs": lambda b: (b.set("extra", 1, 0), b)[1],
        "processes": lambda p: p[:-1],
        "trace": lambda t: (t.append(t.head()[0] + 1, "NoTendency", {}), t)[1],
        "config": lambda c: dataclasses.replace(c, tendency_ttl=c.tendency_ttl + 1),
        "goal": lambda g: dataclasses.replace(g, deadline_tick=99),
        "events": lambda e: e[1:],
        "monitor_cursor": lambda c: (c[0] - 1, c[1]),
        "weight_overrides": lambda w: {**w, "x": 1.0},
        "last_option_set": lambda o: {"x": 1},
        "sticky_arguments": lambda a: a + a[:1] or ["x"],
        "plan": lambda p: (p or ()) + ("idle",),
    }
    out = {}
    for name in _fields(agent.SimulationState) - UNKEYED["SimulationState"].keys():
        out["SimulationState", name] = field_of(name, state_changes.get(name, other))
    for name in _fields(AffectiveProcess):
        out["AffectiveProcess", name] = setter(lambda s: s.processes[0], name)
    for name in _fields(ActionTendency) - UNKEYED["ActionTendency"].keys():
        change = (lambda v: shift_id(v, 1)) if name == "id" else other
        out["ActionTendency", name] = setter(lambda s: s.tendency_pool[0], name, change)
    out["BeliefStore", "_atoms"] = lambda s: s.beliefs._atoms.update(extra=1)
    out["BeliefStore", "_changed"] = lambda s: s.beliefs._changed.update(
        {min(s.beliefs._changed, key=s.beliefs._changed.get): s.world.tick})
    out["ReasoningTrace", "_head"] = setter(lambda s: s.trace, "_head",
                                            lambda h: (h[0], h[1] + 1))
    out["ReasoningTrace", "events"] = lambda s: s.trace.events.append(
        TraceEvent(s.world.tick, 0, "reactive", "NoTendency", {}))
    return out


def test_every_field_is_keyed_or_listed_as_unkeyed():
    classes = {"SimulationState": agent.SimulationState, "AffectiveProcess": AffectiveProcess,
               "ActionTendency": ActionTendency, "BeliefStore": BeliefStore,
               "ReasoningTrace": ReasoningTrace}
    state = start(load_bundled("room_tidy"), RunConfig(ticks=60, seed=1))
    for _ in range(9):  # a deliberation tick with a plan, a pool and arguments
        agent.tick(state)
    assert state.tendency_pool and state.arguments and state.plan
    perturbations = _perturbations(state)
    for class_name, cls in classes.items():
        keyed = {name for (owner, name) in perturbations if owner == class_name}
        assert keyed | UNKEYED[class_name].keys() == _fields(cls), class_name
        assert not keyed & UNKEYED[class_name].keys(), class_name
    key = agent._key(state)
    for (class_name, name), perturb in perturbations.items():
        changed = copy.deepcopy(state)
        assert agent._key(changed) == key
        perturb(changed)
        assert agent._key(changed) != key, (class_name, name)
