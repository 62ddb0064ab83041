import bisect
import dataclasses
import itertools
import re
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import agent, metacog
from cogsim import world as W
from cogsim.affect import ActionTendency, ProcessOption
from cogsim.arguments import Argument
from cogsim.errors import OutOfOrder
from cogsim.metacog import (
    TRACE_KINDS,
    Commitment,
    CountermeasureSpec,
    Inconsistency,
    ReasoningTrace,
    TraceEvent,
    check_consistency,
    control,
    monitor,
)
from cogsim.rules import BeliefStore, RuleContext
from cogsim.runner import RunConfig, run_simulation, start, trace_lines
from cogsim.scenario import BUNDLED, instantiate, load_bundled

from helpers import reference_check_consistency, reference_redescription


def commitment(atom="smoke", valence="negative", weight=1.2):
    return Commitment(atom=atom, required_valence=valence, weight=weight)


def appraisal(atom, valence, process="proc1", active=True):
    """An AppraisalChange event as the deliberative layer traces it."""
    return TraceEvent(4, 0, "deliberative", "AppraisalChange",
                      {"process": process, "atom": atom, "valence": valence,
                       "magnitude": 0.8, "label": "", "active": active})


def goal_change(state, process="proc1", **extra):
    """A GoalChange event adopting ``state`` as a candidate goal."""
    return TraceEvent(2, 0, "deliberative", "GoalChange",
                      {"process": process, "state": state, **extra})


def tendency(action, process="proc1", urgency=0.9):
    """A TendencyInjected event for ``action``."""
    return TraceEvent(0, 0, "reactive", "TendencyInjected",
                      {"tendency": "t1", "process": process, "action": action,
                       "option": action, "label": "", "base_urgency": urgency})


class TestTrace:
    def test_append_to_empty_gets_seq_zero(self):
        trace = ReasoningTrace()
        event = trace.append(0, "BeliefChange", {"atom": "a", "value": 1})
        assert (event.tick, event.seq) == (0, 0)

    def test_same_tick_increments_seq(self):
        trace = ReasoningTrace()
        trace.append(3, "BeliefChange", {})
        event = trace.append(3, "BeliefChange", {})
        assert (event.tick, event.seq) == (3, 1)
        event = trace.append(4, "BeliefChange", {})
        assert (event.tick, event.seq) == (4, 0)

    def test_regressing_tick_rejected(self):
        trace = ReasoningTrace()
        trace.append(5, "BeliefChange", {})
        with pytest.raises(OutOfOrder):
            trace.append(4, "BeliefChange", {})

    def test_unknown_layer_rejected(self):
        trace = ReasoningTrace()
        with pytest.raises(ValueError, match="unknown trace layer"):
            trace.append(0, "BeliefChange", {}, layer="limbic")
        assert trace.events == []

    @pytest.mark.parametrize("kind, layer", [
        ("BeliefChange", "deliberative"),
        ("NoTendency", "world"),
        ("TendencyInjected", "metacognitive"),
        ("GoalChange", "reactive"),
    ])
    def test_a_layer_that_does_not_trace_the_kind_is_rejected(self, kind, layer):
        trace = ReasoningTrace()
        with pytest.raises(ValueError, match=f"unknown trace layer for {kind}: {layer}"):
            trace.append(0, kind, {}, layer=layer)
        assert trace.events == []

    def test_unknown_kind_rejected(self):
        trace = ReasoningTrace()
        for layer in (None, "world"):
            with pytest.raises(ValueError, match="unknown trace event kind: Mood"):
                trace.append(0, "Mood", {}, layer=layer)
        assert trace.events == []

    def test_each_kind_defaults_to_its_first_layer(self):
        trace = ReasoningTrace()
        for kind, (layers, _) in TRACE_KINDS.items():
            assert trace.append(0, kind, {}).layer == layers[0]
            for layer in layers:
                assert trace.append(0, kind, {}, layer=layer).layer == layer

    def test_appended_event_is_a_slotted_record(self):
        trace = ReasoningTrace()
        payload = {"option": "smoke"}
        event = trace.append(2, "OptionSelected", payload,
                             reasons=["a1"])
        assert event == TraceEvent(2, 0, "deliberative", "OptionSelected",
                                   payload, ("a1",))
        assert not hasattr(event, "__dict__")

    def test_per_tick_records_are_slotted(self):
        commitment = Commitment("current_situation", "positive")
        finding = Inconsistency(commitment, "tendency", "abandon", "abandon", "why")
        records = [
            finding,
            ActionTendency("abandon", "proc1", 0.9, 3),
            RuleContext(BeliefStore()),
        ]
        assert not any(hasattr(record, "__dict__") for record in records)
        # Not frozen, so a finding is not hashable; equal ones compare equal.
        assert finding == Inconsistency(commitment, "tendency", "abandon",
                                        "abandon", "why")
        with pytest.raises(TypeError):
            hash(finding)

    def test_append_only_prefix_property(self):
        trace = ReasoningTrace()
        snapshots = []
        for tick in range(4):
            trace.append(tick, "BeliefChange", {"atom": str(tick)})
            snapshots.append(list(trace.events))
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[: len(earlier)] == earlier

    @seed(20211015)
    @settings(max_examples=200, deadline=None, database=None)
    @given(first=st.integers(0, 3),
           gaps=st.lists(st.integers(0, 3), max_size=40))
    def test_since_is_the_events_after_the_cursor_in_tuple_order(self, first, gaps):
        # One event per gap; a gap of 0 puts several events on one tick.
        trace = ReasoningTrace()
        tick = first
        for gap in gaps:
            tick += gap
            trace.append(tick, "BeliefChange", {})
        events = list(trace.events)
        ids = list(map(id, events))
        last_seq = {e.tick: e.seq for e in events}
        head_tick = trace.head()[0]
        cursors = {(-1, -1), trace.head(), (head_tick + 1, -1), (head_tick + 1, 0)}
        cursors.update((e.tick, e.seq) for e in events)
        for t, s in last_seq.items():
            cursors.update({(t, -1), (t, s + 1), (t + 1, -1), (t + 1, 0)})
        for cursor in sorted(cursors):
            want = [e for e in events if (e.tick, e.seq) > cursor]
            assert list(map(id, trace.since(cursor))) == list(map(id, want)), cursor
            assert list(map(id, trace.events)) == ids


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_trace_table() -> dict[str, tuple[tuple[str, ...], set[frozenset[str]]]]:
    """Kind -> (its layers, its payload key sets), from the rows of the
    README's "Trace events" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Trace events\n", 1)[1].split("\n## ", 1)[0]
    return {
        kind: (tuple(re.findall(r"`(\w+)`", layers)),
               {frozenset(filter(None, keys.split(", ")))
                for keys in re.findall(r"`\{(.*?)\}`", shapes)})
        for kind, layers, shapes in re.findall(
            r"^\| `(\w+)` \| (.+?) \| (.+) \|$", section, re.MULTILINE)
    }


@pytest.mark.parametrize("name", BUNDLED)
def test_the_readme_lists_each_kind_its_layers_and_payload_keys(name):
    table = _readme_trace_table()
    assert table == {kind: (layers, set(map(frozenset, sets)))
                     for kind, (layers, sets) in TRACE_KINDS.items()}
    for mode in ({}, {"metacognition_enabled": False}, {"bct_profile": "ceos"}):
        result = run_simulation(load_bundled(name), RunConfig(ticks=600, seed=1, **mode))
        for event in result.state.trace.events:
            assert frozenset(event.payload) in table[event.kind][1], (mode, event)


class TestCheckConsistency:
    def test_opposing_appraisal_violates(self):
        finding = check_consistency(appraisal("smoke", "positive"), [commitment()])
        assert finding is not None
        assert finding.item_kind == "appraisal"
        assert finding.commitment.atom == "smoke"

    def test_agreeing_appraisal_passes(self):
        event = appraisal("smoke", "negative", process="proc2")
        assert check_consistency(event, [commitment()]) is None

    def test_uncommitted_atom_passes(self):
        event = appraisal("weather", "positive")
        assert check_consistency(event, [commitment()]) is None

    def test_desiring_a_committed_against_state_violates(self):
        goal = goal_change("smoke", option="smoke")
        finding = check_consistency(goal, [commitment()])
        assert finding is not None and finding.item_kind == "goal"

    def test_goal_on_free_atom_passes(self):
        goal = goal_change("no_smoking", process="proc2")
        assert check_consistency(goal, [commitment()]) is None

    def test_abandon_tendency_violates_task_commitment(self, small_world, small_goal):
        tend = tendency("abandon")
        task = commitment(atom="tidy_room", valence="positive")
        finding = check_consistency(
            tend, [task], world=small_world, goal=small_goal
        )
        assert finding is not None and finding.item_kind == "tendency"
        # rollout confirms: after abandoning, neither predicate is reachable
        after = W.apply_action(small_world, "abandon")
        assert after.abandoned
        status = W.evaluate_goal(after, small_goal)
        assert not status.strict and not status.relaxed

    def test_undoing_correct_placement_violates(self, small_world, small_goal):
        world = dataclasses.replace(
            small_world,
            objects={
                "book_1": W.ObjectState("book_1", "book", "slot:shelf_slot_1"),
            },
        )
        tend = tendency("pick_up:book_1", urgency=0.5)
        task = commitment(atom="tidy_room", valence="positive")
        finding = check_consistency(tend, [task], world=world, goal=small_goal)
        assert finding is not None
        assert "undoes" in finding.detail

    def test_ordinary_move_passes(self, small_world, small_goal):
        tend = tendency("move:north", process="proc0", urgency=0.8)
        task = commitment(atom="tidy_room", valence="positive")
        assert check_consistency(tend, [task], world=small_world, goal=small_goal) is None

    def test_no_commitments_no_findings(self):
        assert check_consistency(tendency("abandon", process="p"), []) is None


_ATOMS = ("smoke", "tidy_room")
_VALENCES = ("positive", "negative")
_LAYOUT = W.RoomLayout(
    width=3,
    height=3,
    fixtures=(
        W.Fixture(id="shelf_1", cell=(0, 0), accepts="book", slots=("shelf_slot_1",)),
        W.Fixture(id="box_1", cell=(2, 0), accepts="toy"),
    ),
)
# book_1 and toy_2 sit where the goal wants them; toy_1 lies on the floor.
_WORLD = W.WorldState(
    tick=0,
    layout=_LAYOUT,
    agent_pos=(1, 1),
    objects={
        "book_1": W.ObjectState("book_1", "book", "slot:shelf_slot_1"),
        "toy_1": W.ObjectState("toy_1", "toy", "cell:2,2"),
        "toy_2": W.ObjectState("toy_2", "toy", "fixture:box_1"),
    },
)
_GOAL = W.GoalSpec(strict={"book": ("shelf_1",), "toy": ("box_1",)},
                   relaxed={"book": ("shelf_1",), "toy": ("box_1",)})

_appraisals = st.builds(
    lambda atom, valence, active: appraisal(atom, valence, active=active),
    st.sampled_from(_ATOMS), st.sampled_from(_VALENCES), st.booleans(),
)
_options = st.sampled_from(({}, {"option": ""}, {"option": None},
                            {"option": "smoke"}, {"option": "avoid_smoking"}))
_goal_changes = st.one_of(
    st.builds(lambda state, option: goal_change(state, **option),
              st.sampled_from(_ATOMS), _options),
    st.just(TraceEvent(5, 0, "metacognitive", "GoalChange",
                       {"process": None, "variant": "relaxed"})),
)
_tendencies = st.builds(
    lambda action, option: TraceEvent(
        0, 0, "reactive", "TendencyInjected",
        {"tendency": "t1", "process": "proc1", "action": action,
         "label": "", "base_urgency": 0.5, **option}),
    st.sampled_from(("abandon", "pick_up:book_1", "pick_up:toy_1",
                     "pick_up:toy_2", "pick_up:ghost", "move:north")),
    _options,
)
_other = st.just(TraceEvent(1, 0, "world", "BeliefChange", {"atom": "smoke"}))
_commitments = st.lists(
    st.builds(commitment, st.sampled_from(_ATOMS), st.sampled_from(_VALENCES)),
    max_size=3,
)


@seed(20211015)
@settings(max_examples=200, deadline=None, database=None)
@given(event=st.one_of(_appraisals, _goal_changes, _tendencies, _other),
       commitments=_commitments)
def test_check_consistency_matches_the_object_check(event, commitments):
    """Checking the traced event gives the finding the old check gave
    for the engine object rebuilt from it, with and without the world
    and the goal."""
    for world, goal in itertools.product((None, _WORLD), (None, _GOAL)):
        assert check_consistency(event, commitments, world=world, goal=goal) == (
            reference_check_consistency(event, commitments, world=world, goal=goal)
        )


class TestMonitor:
    def _trace_with(self, events):
        trace = ReasoningTrace()
        for tick, kind, payload in events:
            trace.append(tick, kind, payload)
        return trace

    def test_no_flagged_kinds_empty(self):
        trace = self._trace_with(
            [(0, "BeliefChange", {"atom": "x", "value": 1})]
        )
        assert monitor(trace, [commitment()], (-1, -1)) == []

    def test_flags_positive_appraisal_of_committed_atom(self):
        trace = self._trace_with(
            [
                (
                    4,
                    "AppraisalChange",
                    {
                        "process": "proc1",
                        "atom": "smoke",
                        "valence": "positive",
                        "magnitude": 0.8,
                        "label": "calming",
                        "active": True,
                    },
                )
            ]
        )
        findings = monitor(trace, [commitment()], (-1, -1))
        assert len(findings) == 1
        detected = [e for e in trace.events if e.kind == "InconsistencyDetected"]
        assert len(detected) == 1
        assert detected[0].payload["source_event"] == [4, 0]

    def test_withdrawn_appraisals_are_not_flagged(self):
        trace = self._trace_with(
            [
                (
                    4,
                    "AppraisalChange",
                    {
                        "process": "proc1",
                        "atom": "smoke",
                        "valence": "positive",
                        "magnitude": 0.8,
                        "label": "calming",
                        "active": False,
                    },
                )
            ]
        )
        assert monitor(trace, [commitment()], (-1, -1)) == []

    def test_cursor_makes_monitoring_idempotent(self):
        trace = self._trace_with(
            [
                (
                    2,
                    "GoalChange",
                    {"process": "proc1", "state": "smoke", "option": "smoke"},
                )
            ]
        )
        first = monitor(trace, [commitment()], (-1, -1))
        assert len(first) == 1
        cursor = trace.head()
        assert monitor(trace, [commitment()], cursor) == []
        detected = [e for e in trace.events if e.kind == "InconsistencyDetected"]
        assert len(detected) == 1

    def test_goal_variant_change_is_not_a_desire(self):
        trace = self._trace_with(
            [(5, "GoalChange", {"process": None, "variant": "relaxed"})]
        )
        assert monitor(trace, [commitment()], (-1, -1)) == []


class TestControl:
    def test_empty_library_records_observable_failure(self):
        state = instantiate(load_bundled("non_smoking"), seed=1)
        finding = check_consistency(
            appraisal("smoke", "positive"),
            state.config.commitments,
        )
        pool_before = list(state.tendency_pool)
        args_before = list(state.arguments)
        variant_before = state.goal_variant
        control(finding, [], state)
        applied = [
            e for e in state.trace.events if e.kind == "CountermeasureApplied"
        ]
        assert len(applied) == 1
        assert applied[0].payload["outcome"] == "none"
        assert state.tendency_pool == pool_before
        assert state.arguments == args_before
        assert state.goal_variant == variant_before
        assert state.countermeasures_fired == 0

    def test_first_matching_entry_wins(self):
        state = instantiate(load_bundled("non_smoking"), seed=1)
        library = [
            CountermeasureSpec(
                id="specific_but_mismatched",
                matches={"kind": "tendency", "atom": "smoke"},
                action={"kind": "redescription", "template": "broken_commitment"},
            ),
            CountermeasureSpec(
                id="broad",
                matches={"kind": "any", "atom": "*"},
                action={"kind": "redescription", "template": "broken_commitment"},
            ),
        ]
        finding = check_consistency(
            appraisal("smoke", "positive"),
            state.config.commitments,
        )
        control(finding, library, state)
        applied = [
            e for e in state.trace.events if e.kind == "CountermeasureApplied"
        ]
        assert applied[0].payload["countermeasure"] == "broad"

    GUARD = [CountermeasureSpec(
        id="guard", matches={"kind": "any", "atom": "smoke"},
        action={"kind": "redescription", "template": "broken_commitment"},
    )]

    def _redescribed_state(self):
        """non_smoking after one redescription against smoking, and the
        finding it answered."""
        state = instantiate(load_bundled("non_smoking"), seed=1)
        finding = check_consistency(appraisal("smoke", "positive"),
                                    state.config.commitments)
        control(finding, self.GUARD, state)
        return state, finding

    def test_an_appraised_state_argues_against_the_first_declared_option(self):
        # proc1 (rank 1) is declared before proc2 (rank 0), and both know
        # "smoke" as a response state: the declaration, not the rank,
        # picks the action a redescription argues against.
        spec = load_bundled("non_smoking")
        proc2, proc1 = spec.agent.processes
        proc2 = dataclasses.replace(
            proc2, options=(*proc2.options, ProcessOption("smoke", "light_up")))
        config = dataclasses.replace(spec.agent, processes=(proc1, proc2))
        state = instantiate(dataclasses.replace(spec, agent=config), seed=1)
        assert [p.id for p in state.processes] == ["proc2", "proc1"]
        finding = check_consistency(appraisal("smoke", "positive"),
                                    state.config.commitments)
        control(finding, self.GUARD, state)
        assert state.sticky_arguments[-1].option == "smoke"

    def test_a_reapplied_redescription_reuses_the_standing_argument(self):
        state, finding = self._redescribed_state()
        standing = state.sticky_arguments[-1]
        control(finding, self.GUARD, state)
        assert state.sticky_arguments == [standing]
        assert state.sticky_arguments[-1] is standing
        assert state.arguments[-1] is standing
        applied = [e.payload for e in state.trace.events
                   if e.kind == "CountermeasureApplied"]
        assert len(applied) == 2 and applied[0] == applied[1]
        assert state.countermeasures_fired == 2

    def test_a_changed_or_buried_redescription_is_upserted_afresh(self):
        state, finding = self._redescribed_state()
        standing = state.sticky_arguments[-1]
        state.weight_overrides["broken_commitment"] = 2.5
        control(finding, self.GUARD, state)
        (reweighed,) = state.sticky_arguments
        assert reweighed is not standing and reweighed.weight == 2.5
        assert state.arguments[-1] is reweighed

        other = Argument("other@smoke", "smoke", "con", 1.0)
        state.upsert_argument(other)
        sticky, case = list(state.sticky_arguments), list(state.arguments)
        control(finding, self.GUARD, state)
        assert state.sticky_arguments[0] is other
        assert state.sticky_arguments[-1] is not reweighed
        assert (state.sticky_arguments, state.arguments) == reference_redescription(
            state, finding, self.GUARD, sticky, case)


PROFILES = {
    "default": {},
    "no_metacog": {"metacognition_enabled": False},
    "ceos": {"bct_profile": "ceos"},
}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("name", BUNDLED)
def test_control_leaves_the_lists_a_fresh_upsert_would(monkeypatch, name, profile):
    """After every ``control`` call of a 600-tick run, the sticky and the
    case argument lists equal, in order, what upserting a freshly built
    argument would leave, also where control reuses the standing one."""
    monkeypatch.setattr(agent, "REPLAY", False)  # a replayed tick has no stages
    checked = 0

    def checked_control(finding, library, state):
        nonlocal checked
        sticky, case = list(state.sticky_arguments), list(state.arguments)
        replan = control(finding, library, state)
        expected = reference_redescription(state, finding, library, sticky, case)
        if expected is not None:
            checked += 1
            assert (state.sticky_arguments, state.arguments) == expected
        return replan

    monkeypatch.setattr(agent, "control", checked_control)
    result = run_simulation(load_bundled(name),
                            RunConfig(ticks=600, seed=1, **PROFILES[profile]))
    assert checked == sum(e.kind == "CountermeasureApplied"
                          and e.payload["outcome"] == "redescription"
                          for e in result.state.trace.events)


def test_a_reapplied_redescription_builds_no_argument(monkeypatch):
    """``room_tidy_redescription`` re-applies one redescription on most
    ticks.  Control builds an argument at most once per distinct (id,
    weight) and reuses it after, and still traces and counts every
    application."""
    built = []

    def counted(*args, **kwargs):
        arg = Argument(*args, **kwargs)
        built.append((arg.id, arg.weight))
        return arg

    monkeypatch.setattr(metacog, "Argument", counted)
    result = run_simulation(load_bundled("room_tidy_redescription"),
                            RunConfig(ticks=600, seed=1))
    applied = [e for e in result.state.trace.events
               if e.kind == "CountermeasureApplied"
               and e.payload["outcome"] == "redescription"]
    assert 0 < len(built) == len(set(built)) < len(applied)
    assert len(applied) == result.state.countermeasures_fired


@pytest.mark.parametrize("name", ["room_tidy_redescription", "non_smoking"])
def test_long_runs_match_a_tuple_order_since(monkeypatch, name):
    """600 ticks with metacognition on give the same trace and metrics as
    with the reference ``since``, which compares whole (tick, seq) pairs,
    and ``since`` agrees with it at every cursor the run reaches.  Control
    appends after the monitor, so the cursor often stops in the middle of
    a tick; the reference counts the calls where it does."""
    spec = load_bundled(name)
    config = RunConfig(ticks=600, seed=1)
    fast = run_simulation(spec, config)

    since = ReasoningTrace.since
    mid_tick = 0

    def reference(self, cursor):
        nonlocal mid_tick
        after = [e for e in self.events if (e.tick, e.seq) > cursor]
        assert since(self, cursor) == after, cursor
        mid_tick += bool(after) and after[0].tick == cursor[0]
        return after

    monkeypatch.setattr(ReasoningTrace, "since", reference)
    slow = run_simulation(spec, config)
    assert len(slow.metrics) == 600
    assert mid_tick > 0
    assert trace_lines(fast.state) == trace_lines(slow.state)
    assert fast.metrics == slow.metrics
    assert fast.summary == slow.summary


class _CountingEvents(list):
    """A trace's event list that counts the elements read from it while
    ``reading`` is set: one per index, the length of a slice, one per
    element iterated.  ``bisect`` reads through ``__getitem__``, so a
    binary search counts its probes."""

    reading = False
    reads = 0

    def __getitem__(self, index):
        item = list.__getitem__(self, index)
        if self.reading:
            self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for event in list.__iter__(self):
            self.reads += self.reading
            yield event


def _monitor_reads(monkeypatch, ticks: int) -> tuple[int, int]:
    """(events ``monitor`` reads, events after its cursors) over one
    ``room_tidy_redescription`` run of ``ticks`` ticks."""
    monitor_fn = agent.monitor
    runs = []
    after_cursor = 0

    def counted(trace, commitments, since, **kwargs):
        nonlocal after_cursor
        if not isinstance(trace.events, _CountingEvents):
            trace.events = _CountingEvents(trace.events)
            runs.append(trace.events)
        events = trace.events
        after_cursor += len(events) - bisect.bisect_right(
            events, tuple(since), key=attrgetter("tick", "seq"))
        events.reading = True
        try:
            return monitor_fn(trace, commitments, since, **kwargs)
        finally:
            events.reading = False

    with monkeypatch.context() as patch:
        patch.setattr(agent, "monitor", counted)
        # Ticked directly rather than through the run loop, whose drains
        # would keep the trace short: the rescanning control needs it to grow.
        state = start(load_bundled("room_tidy_redescription"),
                      RunConfig(ticks=ticks, seed=3))
        rows = [agent.tick(state) for _ in range(ticks)]
    assert len(rows) == ticks and len(runs) == 1
    return runs[0].reads, after_cursor


def test_monitor_reads_per_tick_stay_flat_across_horizons(monkeypatch):
    """The engine's ``since`` reads about the same number of events per
    tick at 200 and 400 ticks.  A positive control, the reference
    ``since`` that reads the whole trace, shows the counter sees a
    rescan: its reads per tick double with the horizon."""
    monkeypatch.setattr(agent, "REPLAY", False)  # a replayed tick has no stages
    horizons = (200, 400)
    counts = [_monitor_reads(monkeypatch, ticks) for ticks in horizons]
    engine = [reads / ticks for (reads, _), ticks in zip(counts, horizons)]

    def reference(self, cursor):
        return [e for e in self.events if (e.tick, e.seq) > cursor]

    monkeypatch.setattr(ReasoningTrace, "since", reference)
    rescan = [_monitor_reads(monkeypatch, ticks)[0] / ticks for ticks in horizons]
    assert rescan[1] > 1.8 * rescan[0]
    assert engine[1] < rescan[1] / 10
    assert engine[1] == pytest.approx(engine[0], rel=0.25)
    for reads, after_cursor in counts:
        assert reads >= after_cursor > 0


def test_monitor_reads_at_most_two_per_new_event_and_one_per_tick(monkeypatch):
    """``since`` reads back from the trace head: one read per event after
    the cursor plus the one that stops the walk, then the slice of those
    events.  With one monitor pass per tick that is at most
    ``2 * after_cursor + ticks`` reads; a binary search's probes exceed it."""
    for ticks in (200, 400):
        reads, after_cursor = _monitor_reads(monkeypatch, ticks)
        assert after_cursor <= reads <= 2 * after_cursor + ticks
