import dataclasses

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import world as W
from cogsim.affect import ActionTendency, Appraisal
from cogsim.errors import OutOfOrder
from cogsim.metacog import (
    Commitment,
    GoalChange,
    ReasoningTrace,
    TraceEvent,
    check_consistency,
    monitor,
)
from cogsim.runner import RunConfig, run_simulation, trace_lines
from cogsim.scenario import load_bundled


def commitment(atom="smoke", valence="negative", weight=1.2):
    return Commitment(atom=atom, required_valence=valence, weight=weight)


class TestTrace:
    def test_append_to_empty_gets_seq_zero(self):
        trace = ReasoningTrace()
        event = trace.append(0, "world", "BeliefChange", {"atom": "a", "value": 1})
        assert (event.tick, event.seq) == (0, 0)

    def test_same_tick_increments_seq(self):
        trace = ReasoningTrace()
        trace.append(3, "world", "BeliefChange", {})
        event = trace.append(3, "world", "BeliefChange", {})
        assert (event.tick, event.seq) == (3, 1)
        event = trace.append(4, "world", "BeliefChange", {})
        assert (event.tick, event.seq) == (4, 0)

    def test_regressing_tick_rejected(self):
        trace = ReasoningTrace()
        trace.append(5, "world", "BeliefChange", {})
        with pytest.raises(OutOfOrder):
            trace.append(4, "world", "BeliefChange", {})

    def test_unknown_layer_rejected(self):
        trace = ReasoningTrace()
        with pytest.raises(ValueError, match="unknown trace layer"):
            trace.append(0, "limbic", "BeliefChange", {})
        assert trace.events == []

    def test_appended_event_is_a_slotted_record(self):
        trace = ReasoningTrace()
        payload = {"option": "smoke"}
        event = trace.append(2, "deliberative", "OptionSelected", payload,
                             reasons=["a1"])
        assert event == TraceEvent(2, 0, "deliberative", "OptionSelected",
                                   payload, ("a1",))
        assert not hasattr(event, "__dict__")

    def test_append_only_prefix_property(self):
        trace = ReasoningTrace()
        snapshots = []
        for tick in range(4):
            trace.append(tick, "world", "BeliefChange", {"atom": str(tick)})
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
            trace.append(tick, "world", "BeliefChange", {})
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


class TestCheckConsistency:
    def test_opposing_appraisal_violates(self):
        appraisal = Appraisal("smoke", "positive", 0.8, "proc1", 4)
        finding = check_consistency(appraisal, [commitment()])
        assert finding is not None
        assert finding.item_kind == "appraisal"
        assert finding.commitment.atom == "smoke"

    def test_agreeing_appraisal_passes(self):
        appraisal = Appraisal("smoke", "negative", 0.8, "proc2", 4)
        assert check_consistency(appraisal, [commitment()]) is None

    def test_uncommitted_atom_passes(self):
        appraisal = Appraisal("weather", "positive", 0.5, "proc1", 4)
        assert check_consistency(appraisal, [commitment()]) is None

    def test_desiring_a_committed_against_state_violates(self):
        goal = GoalChange(state="smoke", source_process="proc1", option="smoke")
        finding = check_consistency(goal, [commitment()])
        assert finding is not None and finding.item_kind == "goal"

    def test_goal_on_free_atom_passes(self):
        goal = GoalChange(state="no_smoking", source_process="proc2")
        assert check_consistency(goal, [commitment()]) is None

    def test_abandon_tendency_violates_task_commitment(self, small_world, small_goal):
        tend = ActionTendency("abandon", "proc1", 0.9, 0)
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
        tend = ActionTendency("pick_up:book_1", "proc1", 0.5, 0)
        task = commitment(atom="tidy_room", valence="positive")
        finding = check_consistency(tend, [task], world=world, goal=small_goal)
        assert finding is not None
        assert "undoes" in finding.detail

    def test_ordinary_move_passes(self, small_world, small_goal):
        tend = ActionTendency("move:north", "proc0", 0.8, 0)
        task = commitment(atom="tidy_room", valence="positive")
        assert check_consistency(tend, [task], world=small_world, goal=small_goal) is None

    def test_no_commitments_no_findings(self):
        assert check_consistency(ActionTendency("abandon", "p", 0.9, 0), []) is None


class TestMonitor:
    def _trace_with(self, events):
        trace = ReasoningTrace()
        for tick, kind, payload in events:
            layer = "deliberative"
            trace.append(tick, layer, kind, payload)
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
        from cogsim.metacog import control
        from cogsim.scenario import instantiate, load_bundled

        state = instantiate(load_bundled("non_smoking"), seed=1)
        finding = check_consistency(
            Appraisal("smoke", "positive", 0.8, "proc1", 0),
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
        from cogsim.metacog import CountermeasureSpec, control
        from cogsim.scenario import instantiate, load_bundled

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
            Appraisal("smoke", "positive", 0.8, "proc1", 0),
            state.config.commitments,
        )
        control(finding, library, state)
        applied = [
            e for e in state.trace.events if e.kind == "CountermeasureApplied"
        ]
        assert applied[0].payload["countermeasure"] == "broad"


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
