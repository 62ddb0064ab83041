"""Whole-run invariants checked over the bundled scenarios."""

import contextlib
import dataclasses
import gc
import io
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import cli
from cogsim.affect import ActionTendency
from cogsim.agent import tick
from cogsim.metacog import MONITORED_KINDS, check_consistency
from cogsim.runner import RunConfig, run_simulation
from cogsim.scenario import (
    BUNDLED,
    bundled_document,
    instantiate,
    load_bundled,
    parse_scenario,
    validate_scenario,
)


@pytest.fixture(scope="module")
def countermeasure_run():
    return run_simulation(load_bundled("room_tidy"), RunConfig(ticks=60, seed=1))


@pytest.fixture(scope="module")
def non_smoking_run():
    return run_simulation(load_bundled("non_smoking"), RunConfig(ticks=12, seed=1))


@pytest.fixture(scope="module")
def bundled_runs():
    return [
        run_simulation(load_bundled(name), RunConfig(ticks=60, seed=1))
        for name in BUNDLED
    ]


def test_monitoring_soundness_no_spurious_findings(bundled_runs):
    # Every recorded finding re-verifies against its source event.
    for result in bundled_runs:
        events = result.state.trace.events
        by_pos = {(e.tick, e.seq): e for e in events}
        detected = [e for e in events if e.kind == "InconsistencyDetected"]
        assert detected
        for event in detected:
            source = by_pos[tuple(event.payload["source_event"])]
            finding = check_consistency(source, result.state.config.commitments)
            assert finding is not None
            assert finding.commitment.atom == event.payload["commitment_atom"]


def test_monitoring_completeness_no_missed_findings(bundled_runs):
    # Replaying every flagged event through the checker recovers exactly
    # the findings present in the trace.
    for result in bundled_runs:
        events = result.state.trace.events
        expected = set()
        for event in events:
            if event.kind not in MONITORED_KINDS:
                continue
            if check_consistency(event, result.state.config.commitments) is not None:
                expected.add((event.tick, event.seq))
        recorded = {
            tuple(e.payload["source_event"])
            for e in events
            if e.kind == "InconsistencyDetected"
        }
        assert recorded == expected


def test_causality_chain_detection_before_countermeasure_before_action(
    countermeasure_run,
):
    events = countermeasure_run.state.trace.events
    i_detect = next(
        i for i, e in enumerate(events) if e.kind == "InconsistencyDetected"
    )
    i_counter = next(
        i for i, e in enumerate(events) if e.kind == "CountermeasureApplied"
    )
    i_next_action = next(
        i
        for i, e in enumerate(events)
        if i > i_counter and e.kind == "ActionExecuted"
    )
    assert i_detect < i_counter < i_next_action


def test_commitments_identical_at_every_tick():
    state = instantiate(load_bundled("room_tidy"), seed=1)
    initial = state.config.commitments
    for _ in range(20):
        tick(state)
        assert state.config.commitments == initial


def test_competing_appraisals_are_distinct_per_process(non_smoking_run):
    # The same atom ends up positively appraised by one process and
    # negatively by another; no single appraisal carries both valences.
    events = [
        e
        for e in non_smoking_run.state.trace.events
        if e.kind == "AppraisalChange"
        and e.payload["atom"] == "smoke"
        and e.payload.get("active", True)
    ]
    valences = {(e.payload["process"], e.payload["valence"]) for e in events}
    assert ("proc1", "positive") in valences
    assert ("proc2", "negative") in valences


def test_source_attribution_names_declared_processes(countermeasure_run):
    declared = {p.id for p in countermeasure_run.state.processes}
    for event in countermeasure_run.state.trace.events:
        if event.kind in ("AppraisalChange", "TendencyInjected"):
            assert event.payload["process"] in declared


def test_expired_tendencies_are_purged_and_traced():
    state = instantiate(load_bundled("room_tidy"), seed=1)
    stale = ActionTendency(
        action="move:north", source_process="proc0", base_urgency=0.4, created_tick=0
    )
    stale.id = state.next_tendency_id()
    state.tendency_pool.append(stale)
    for _ in range(4):  # ttl is 2: the stale tendency must die
        tick(state)
    assert all(t.id != stale.id for t in state.tendency_pool)
    expired = [
        e
        for e in state.trace.events
        if e.kind == "TendencyExpired" and e.payload["tendency"] == stale.id
    ]
    assert len(expired) == 1


def test_selection_force_is_recomputed_at_the_moment_of_action(non_smoking_run):
    # The winning avoidance tendency was injected with base urgency 0.9;
    # at selection its force includes the commitment-keeping argument.
    selected = [
        e
        for e in non_smoking_run.state.trace.events
        if e.kind == "OptionSelected" and e.payload["option"] == "avoid_smoking"
    ]
    assert selected
    assert all(e.payload["force"] == pytest.approx(1.4) for e in selected)


def test_trace_is_prefix_of_itself_across_ticks():
    state = instantiate(load_bundled("room_tidy"), seed=1)
    previous: list = []
    for _ in range(15):
        tick(state)
        current = list(state.trace.events)
        assert current[: len(previous)] == previous
        previous = current


def test_suppressed_tendency_never_executes():
    # With a crushing counterweight the give-up impulse stays pooled but
    # can never drive behaviour.
    spec = load_bundled("room_tidy_redescription")
    result = run_simulation(
        spec, RunConfig(ticks=40, seed=1, weight_overrides={"commitment_guard": 5.0})
    )
    executed = {
        e.payload["action"]
        for e in result.state.trace.events
        if e.kind == "ActionExecuted"
    }
    assert "abandon" not in executed
    assert not result.state.world.abandoned


@pytest.mark.parametrize("name", BUNDLED)
def test_a_run_leaves_no_cyclic_garbage(name):
    # Only the cyclic collector frees a reference cycle, so garbage in
    # cycles would make memory use depend on when it happens to run.
    gc.collect()
    gc.disable()
    try:
        run_simulation(load_bundled(name), RunConfig(ticks=60, seed=1))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", BUNDLED)
def test_an_in_process_cli_run_leaves_no_cyclic_garbage(name, tmp_path):
    # The first call warms up; the second must free everything it made
    # by reference counting alone, argument parsing included.
    path = tmp_path / f"{name}.json"
    path.write_text(bundled_document(name), encoding="utf-8")
    argv = ["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


# Events onto room_tidy (8x8 grid; shelf_1 at (3, 0) with three slots,
# table_1 at (6, 0), box_1 at (7, 2)).  Locations range over declared and
# undeclared slots and fixtures, and over cells on, off and under the grid;
# shelf_slot_1 is drawn most, so that schedules often fill it twice.
_LOCATIONS = st.one_of(
    st.just({"slot": "shelf_slot_1"}),
    st.sampled_from([
        {"slot": "ghost_slot"}, {"slot": "shelf_slot_2"}, {"fixture": "table_1"},
        {"fixture": "ghost"}, {"cell": [3, 0]}, {"cell": [7, 2]}, {"cell": [-1, 0]},
        {"cell": [8, 3]},
    ]),
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda c: {"cell": list(c)}),
)
_SPAWNED = st.fixed_dictionaries({
    "id": st.sampled_from(["book_8", "book_9", "toy_9", "book_1"]),
    "kind": st.sampled_from(["book", "toy"]),
    "location": _LOCATIONS,
})
_OTHER_EFFECTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("remove_object"),
                           "object_id": st.sampled_from(["book_1", "book_8", "toy_1"])}),
    st.fixed_dictionaries({"kind": st.just("break_fixture"),
                           "fixture": st.sampled_from(["shelf_1", "table_1", "box_1"])}),
)


def _scheduled(effects):
    return st.fixed_dictionaries({"fire_tick": st.integers(0, 20), "effect": effects})


# A schedule spawns each id at most once (book_1 is already present), in
# any order among its removals and breaks.
_SCHEDULES = st.tuples(
    st.lists(_scheduled(st.fixed_dictionaries({"kind": st.just("spawn_object"),
                                               "object": _SPAWNED})),
             max_size=3, unique_by=lambda event: event["effect"]["object"]["id"]),
    st.lists(_scheduled(_OTHER_EFFECTS), max_size=2),
).flatmap(lambda both: st.permutations(both[0] + both[1]))


@seed(20211015)
@settings(max_examples=100, deadline=None, database=None)
@given(events=_SCHEDULES)
def test_a_validated_schedule_runs_with_one_object_per_slot(events):
    doc = json.loads(bundled_document("room_tidy"))
    doc["events"] += events
    spec = parse_scenario(json.dumps(doc))
    if not validate_scenario(spec).ok():
        return
    state = instantiate(spec, 1)
    for _ in range(40):
        tick(state)
        slots = [o.location for o in state.world.objects.values()
                 if o.location.startswith("slot:")]
        assert len(slots) == len(set(slots)), state.world.tick
