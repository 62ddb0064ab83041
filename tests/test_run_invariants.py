"""Whole-run invariants checked over the bundled scenarios."""

import contextlib
import dataclasses
import gc
import io

import pytest

from cogsim import cli
from cogsim.affect import ActionTendency
from cogsim.agent import tick
from cogsim.metacog import MONITORED_KINDS, check_consistency
from cogsim.runner import RunConfig, run_simulation
from cogsim.scenario import BUNDLED, bundled_document, instantiate, load_bundled


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
