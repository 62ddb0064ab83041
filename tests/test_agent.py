import dataclasses
import json
import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import affect, agent, arguments, planner, runner
from cogsim import world as W
from cogsim.affect import ActionTendency, Appraisal
from cogsim.agent import (
    SimulationState,
    deliberative_step,
    perceive,
    reactive_step,
    tick,
)
from cogsim.arguments import Argument, active_set, build_case, tally, triggered
from cogsim.planner import plan_tidy_task
from cogsim.rules import RuleContext, compile_condition, eval_condition
from cogsim.runner import RunConfig, run_simulation, trace_lines
from cogsim.scenario import BUNDLED, instantiate, load_bundled

from helpers import (
    compute_force,
    forgetful,
    reference_deliberative_step,
    run_bytes,
    supporting_argument_ids,
)


@pytest.fixture
def room_state() -> SimulationState:
    return instantiate(load_bundled("room_tidy"), seed=1)


def pooled(state, base=0.5, action="move:north", process="proc0", tick_=0):
    tendency = ActionTendency(
        action=action,
        source_process=process,
        base_urgency=base,
        created_tick=tick_,
    )
    tendency.id = state.next_tendency_id()
    tendency.force = base
    state.tendency_pool.append(tendency)
    return tendency


class TestPerceive:
    def test_initial_perception_mirrors_world(self, room_state):
        perceive(room_state)
        for obj in room_state.world.objects.values():
            assert room_state.beliefs.get(f"location({obj.id})") == obj.location
        assert room_state.beliefs.get("broken(shelf_1)") is False
        assert room_state.beliefs.get("misplaced_count") == 5

    def test_unchanged_world_emits_no_events(self, room_state):
        perceive(room_state)
        before = len(room_state.trace.events)
        perceive(room_state)
        assert len(room_state.trace.events) == before

    def test_changed_atoms_emit_exactly_that_many_events(self, room_state):
        perceive(room_state)
        before = len(room_state.trace.events)
        world = room_state.world
        room_state.world = dataclasses.replace(
            world, broken_fixtures=frozenset({"shelf_1"})
        )
        perceive(room_state)
        new = room_state.trace.events[before:]
        # independent diff oracle: exactly one belief differs
        assert [e.payload["atom"] for e in new] == ["broken(shelf_1)"]
        assert new[0].payload["value"] is True


class TestReactive:
    def test_give_up_rule_fires_after_break(self, room_state):
        room_state.world = dataclasses.replace(
            room_state.world, broken_fixtures=frozenset({"shelf_1"})
        )
        perceive(room_state)
        tendencies = reactive_step(room_state)
        assert [t.action for t in tendencies] == ["abandon"]
        assert tendencies[0].base_urgency == 0.9
        assert tendencies[0].source_process == "proc1"  # the OS-designated process

    def test_no_conditions_no_tendencies(self, room_state):
        perceive(room_state)
        assert reactive_step(room_state) == []

    def test_multiple_rules_fire_in_declaration_order(self, room_state):
        from cogsim.agent import ReactiveRule

        rules = (
            ReactiveRule(
                id="second",
                when=compile_condition({"belief": "broken(shelf_1)", "equals": True}),
                action="idle",
                urgency=0.2,
            ),
            ReactiveRule(
                id="first",
                when=compile_condition({"belief": "broken(shelf_1)", "equals": True}),
                action="abandon",
                urgency=0.4,
            ),
        )
        room_state.config = dataclasses.replace(room_state.config, reactive_rules=rules)
        room_state.world = dataclasses.replace(
            room_state.world, broken_fixtures=frozenset({"shelf_1"})
        )
        perceive(room_state)
        tendencies = reactive_step(room_state)
        assert [t.label for t in tendencies] == ["second", "first"]


class TestSelectAction:
    """The moment of action as ``tick`` performs it, over a pool holding
    only the tendencies a test puts there: no argument templates, no
    reactive rules, no metacognition, and an off-cadence tick."""

    def _select(self, state):
        state.config = dataclasses.replace(
            state.config, argument_templates=(), reactive_rules=()
        )
        state.metacognition_enabled = False
        state.world = dataclasses.replace(state.world, tick=1)
        row = tick(state)
        return row, [e for e in state.trace.events
                     if e.kind in ("OptionSelected", "NoTendency")]

    def _winner(self, state):
        [selected] = self._select(state)[1]
        assert selected.kind == "OptionSelected"
        return selected.payload["option"], selected.payload["process"]

    def test_maximal_force_wins(self, room_state):
        pooled(room_state, base=0.9, action="abandon", process="proc1")
        pooled(room_state, base=0.3, action="move:north", process="proc0")
        assert self._winner(room_state) == ("abandon", "proc1")

    def test_tie_breaks_by_process_rank(self, room_state):
        pooled(room_state, base=0.9, action="abandon", process="proc1")
        pooled(room_state, base=0.9, action="move:north", process="proc0")
        assert self._winner(room_state) == ("move:north", "proc0")

    def test_equal_rank_breaks_by_action_encoding(self, room_state):
        pooled(room_state, base=0.9, action="move:south", process="proc0")
        pooled(room_state, base=0.9, action="move:east", process="proc0")
        assert self._winner(room_state) == ("move:east", "proc0")

    def test_empty_pool_selects_nothing(self, room_state):
        # Selection traces NoTendency and returns None; the tick degrades
        # to a traced idle.
        row, selections = self._select(room_state)
        assert [e.kind for e in selections] == ["NoTendency"]
        assert row["executed_action"] == "idle"
        assert agent._select_tendency(room_state) is None

    @seed(20211020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(pool=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.9, 1.5]),
                                   st.sampled_from(["proc0", "proc1", "unknown"]),
                                   st.sampled_from(["abandon", "move:east", "move:north"])),
                         max_size=6))
    def test_the_pick_is_the_first_least_key(self, pool):
        state = instantiate(load_bundled("room_tidy"), seed=1)
        for force, process, action in pool:
            pooled(state, base=force, action=action, process=process)
        want = min((t for t in state.tendency_pool if t.force > 0), default=None,
                   key=lambda t: (-t.force, state.process_rank(t.source_process), t.action))
        assert agent._select_tendency(state) is want

    def test_fully_suppressed_pool_selects_nothing(self, room_state):
        pooled(room_state, base=0.0)
        row, selections = self._select(room_state)
        assert [e.kind for e in selections] == ["NoTendency"]
        assert row["executed_action"] == "idle"
        assert [t.force for t in room_state.tendency_pool] == [0.0]
        assert agent._select_tendency(room_state) is None


class TestTick:
    def test_one_world_action_per_tick(self, room_state):
        for expected in range(5):
            assert room_state.world.tick == expected
            tick(room_state)
        assert room_state.world.tick == 5

    def test_same_seed_gives_identical_traces(self):
        spec = load_bundled("room_tidy")
        first = instantiate(spec, 7)
        second = instantiate(spec, 7)
        for _ in range(20):
            tick(first)
            tick(second)
        assert first.trace.events == second.trace.events

    def test_break_tick_orders_event_before_belief_before_tendency(self):
        spec = load_bundled("room_tidy")
        state = instantiate(spec, 1)
        while state.world.tick < 13:
            tick(state)
        kinds = [
            e.kind
            for e in state.trace.events
            if e.tick == 12
            and (
                e.kind == "WorldEventFired"
                or (e.kind == "BeliefChange" and e.payload["atom"] == "broken(shelf_1)")
                or (e.kind == "TendencyInjected" and e.payload["action"] == "abandon")
            )
        ]
        assert kinds[0] == "WorldEventFired"
        assert kinds[1] == "BeliefChange"
        assert "TendencyInjected" in kinds[2:]

    def test_illegal_selection_degrades_to_idle_and_is_traced(self, room_state):
        perceive(room_state)
        stuck = pooled(room_state, base=2.0, action="move:west", process="proc0")
        room_state.world = dataclasses.replace(room_state.world, agent_pos=(0, 7))
        tick(room_state)
        executed = [e for e in room_state.trace.events if e.kind == "ActionExecuted"]
        bad = [e for e in executed if e.payload.get("error")]
        assert bad and bad[0].payload["action"] == "idle"
        assert bad[0].payload["fallback"] is True
        assert bad[0].payload["tendency"] == stuck.id

    def test_a_spawn_onto_a_slot_addressed_fixture_is_rejected(self, room_state):
        # Validation refuses such a schedule; a state built around it traces
        # the spawn as rejected and leaves the book out of the world.
        effect = {"kind": "spawn_object", "object": {
            "id": "book_9", "kind": "book", "location": "fixture:shelf_1"}}
        room_state.events = (W.WorldEvent(0, effect),)
        tick(room_state)
        rejected = [e.payload for e in room_state.trace.events
                    if e.kind == "EventRejected"]
        assert [(p["code"], p["reason"]) for p in rejected] == [
            ("SLOT_CONFLICT", "fixture shelf_1 is slot-addressed: name a slot")]
        assert "book_9" not in room_state.world.objects

    def test_a_spawn_into_a_broken_fixture_is_rejected(self, room_state):
        # The shelf breaks at tick 12; validation refuses a tick-13 spawn
        # into one of its slots, and a state built around that schedule
        # traces the spawn as rejected and leaves the book out of the world.
        effect = {"kind": "spawn_object", "object": {
            "id": "book_9", "kind": "book", "location": "slot:shelf_slot_2"}}
        room_state.events += (W.WorldEvent(13, effect),)
        while room_state.world.tick < 14:
            tick(room_state)
        rejected = [(e.tick, e.payload["code"], e.payload["reason"])
                    for e in room_state.trace.events if e.kind == "EventRejected"]
        assert rejected == [(13, "BROKEN_FIXTURE", "fixture shelf_1 is broken")]
        assert "shelf_1" in room_state.world.broken_fixtures
        assert "book_9" not in room_state.world.objects

    def test_first_deliberation_plans_toward_nearest_object(self):
        # Hand-simulated tick 0: the agent stands next to toy_1, so the
        # plan's first step is the pick-up, and the case argues for it.
        spec = load_bundled("room_tidy")
        state = instantiate(spec, 1)
        tick(state)
        selected = [e for e in state.trace.events if e.kind == "OptionSelected"]
        assert selected[0].payload["option"] == "pick_up:toy_1"
        assert selected[0].payload["process"] == "proc0"
        assert "serves_tidy_goal@pick_up:toy_1" in selected[0].reasons
        executed = [e for e in state.trace.events if e.kind == "ActionExecuted"]
        assert executed[0].payload["action"] == "pick_up:toy_1"

    def test_off_cadence_tick_without_request_keeps_processes_idle(self):
        spec = load_bundled("room_tidy")
        state = instantiate(spec, 1)
        tick(state)  # tick 0: deliberation ran
        phases = [p.phase for p in state.processes]
        tick(state)  # tick 1: no deliberation (period 3)
        assert [p.phase for p in state.processes] == phases


class TestStageOrder:
    """``tick`` calls its stages, looked up by name in ``cogsim.agent``,
    in the order the module docstring documents."""

    STAGES = ("fire_events", "perceive", "reactive_step", "deliberative_step",
              "follow_plan", "metacognition", "recompute_forces", "act")
    ROW = {"tick": "row"}

    def _record(self, monkeypatch, calls, stages=STAGES):
        for name in stages:
            result = {"reactive_step": [], "monitor": [], "act": self.ROW}.get(name)
            monkeypatch.setattr(
                agent, name,
                lambda *_, _name=name, _result=result, **__:
                    calls.append(_name) or _result,
            )

    def _tick(self, state, now):
        state.world = dataclasses.replace(state.world, tick=now)
        return tick(state)

    def test_an_on_cadence_tick(self, room_state, monkeypatch):
        calls = []
        self._record(monkeypatch, calls)
        assert self._tick(room_state, 3) is self.ROW
        assert calls == ["fire_events", "perceive", "reactive_step",
                         "deliberative_step", "metacognition",
                         "recompute_forces", "act"]

    def test_an_off_cadence_tick_follows_the_plan(self, room_state, monkeypatch):
        calls = []
        self._record(monkeypatch, calls)
        self._tick(room_state, 4)
        assert calls == ["fire_events", "perceive", "reactive_step",
                         "follow_plan", "metacognition", "recompute_forces",
                         "act"]

    def test_no_metacognition_skips_monitoring(self, room_state, monkeypatch):
        calls = []
        stages = [n for n in self.STAGES if n != "metacognition"]
        self._record(monkeypatch, calls, stages + ["monitor", "control"])
        room_state.metacognition_enabled = False
        self._tick(room_state, 3)
        assert calls == ["fire_events", "perceive", "reactive_step",
                         "deliberative_step", "recompute_forces", "act"]

    def test_a_replanning_answer_deliberates_once_more(self, room_state, monkeypatch):
        perceive(room_state)  # a trace for the cursor to move along
        calls, cursor_moved = [], []
        stages = [n for n in self.STAGES
                  if n not in ("deliberative_step", "metacognition")]
        self._record(monkeypatch, calls, stages)

        def deliberative_step(state):
            calls.append("deliberative_step")
            cursor_moved.append(state.monitor_cursor == state.trace.head())

        monkeypatch.setattr(agent, "deliberative_step", deliberative_step)
        monkeypatch.setattr(agent, "monitor", lambda *_, **__: ["f1", "f2"])
        monkeypatch.setattr(
            agent, "control",
            lambda finding, library, state: calls.append("control") or True)
        self._tick(room_state, 4)
        assert calls == ["fire_events", "perceive", "reactive_step",
                         "follow_plan", "control", "control",
                         "deliberative_step", "recompute_forces", "act"]
        # The cursor moved past this pass before the second deliberation.
        assert cursor_moved == [True]


# Belief values set before each deliberation, one entry per tick from 1.
# The untidiness appraisal loses its grounds at tick 5 and the
# satisfaction appraisal at tick 8; both form again afterwards.
FLIP_SCRIPT = (
    {}, {}, {}, {}, {"misplaced_count": 0}, {}, {},
    {"misplaced_count": 4, "strict_tidy": True}, {}, {},
    {"strict_tidy": False}, {}, {},
)


def _scripted_deliberations(step):
    """Deliberate with ``step`` once per tick of ``FLIP_SCRIPT`` on a
    fresh ``room_tidy``; yield the state after each deliberation."""
    state = instantiate(load_bundled("room_tidy"), seed=1)
    perceive(state)
    for now, flips in enumerate(FLIP_SCRIPT, start=1):
        state.world = dataclasses.replace(state.world, tick=now)
        for atom, value in flips.items():
            state.set_belief(atom, value)
        step(state)
        yield state


def _events(state):
    return [(e.tick, e.seq, e.layer, e.kind, e.payload, e.reasons)
            for e in state.trace.events]


class TestDeliberationInPlace:
    def test_trace_matches_the_copy_and_diff_reference(self):
        runs = zip(_scripted_deliberations(deliberative_step),
                   _scripted_deliberations(reference_deliberative_step))
        for state, expected in runs:
            assert state.processes == expected.processes
            assert _events(state) == _events(expected)
        events = [(kind, payload) for _, _, _, kind, payload, _ in _events(state)]
        assert [p["active"] for k, p in events if k == "AppraisalChange"].count(False) == 2
        assert any(k == "AppraisalChange" and p["active"] for k, p in events)
        assert any(k == "AttentionShift" and "target" in p for k, p in events)
        assert any(k == "GoalChange" for k, p in events)
        # follow_plan injects one plan step per deliberation; the rest are
        # the plan tendencies the preparing steps emitted.
        assert sum(k == "TendencyInjected" for k, _ in events) > len(FLIP_SCRIPT)

    def test_processes_are_stepped_in_place(self, room_state):
        perceive(room_state)
        processes = list(room_state.processes)
        phases = [p.phase for p in processes]
        deliberative_step(room_state)
        assert len(room_state.processes) == len(processes)
        assert all(p is q for p, q in zip(room_state.processes, processes))
        assert [p.phase for p in processes] != phases


@pytest.fixture
def plan_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return plan_tidy_task(*args, **kwargs)

    monkeypatch.setattr(agent, "plan_tidy_task", counting)
    return calls


def _held(world):
    obj = next(o for o in world.objects.values() if o.location.startswith("cell:"))
    objects = {**world.objects, obj.id: dataclasses.replace(obj, location="held")}
    return dataclasses.replace(world, agent_holding=obj.id, objects=objects)


def _stepped(world):
    x, y = world.agent_pos
    cell = next(c for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if world.layout.passable(c))
    return dataclasses.replace(world, agent_pos=cell)


def _one_object_fewer(world):
    objects = dict(world.objects)
    del objects[min(objects)]
    return dataclasses.replace(world, objects=objects)


class TestPlanReuse:
    """A deliberation reuses the plan of the world memo when the world is
    the same apart from ``tick`` and the goal variant was planned for it;
    the reused plan is what the planner would return for the new tick,
    cut after the whole legs that cover the state's deliberation
    period."""

    @pytest.fixture
    def room_state(self, room_state):
        # Beside book_1, the first leg fetches a book: each world change
        # below then shows in the plan, which at room_tidy's period of 3
        # is that one leg.
        room_state.world = dataclasses.replace(room_state.world, agent_pos=(4, 1))
        return room_state

    def _deliberate_at(self, state, tick_, world=None):
        state.world = dataclasses.replace(world or state.world, tick=tick_)
        deliberative_step(state)
        fresh = plan_tidy_task(state.world, state.goal, state.goal_variant,
                               min_steps=state.config.deliberation_period)
        assert state.plan == fresh
        return state.plan

    def test_unchanged_world_is_planned_once(self, room_state, plan_calls):
        perceive(room_state)
        first = self._deliberate_at(room_state, 0)
        second = self._deliberate_at(room_state, 3)
        assert len(plan_calls) == 1
        assert first is not None and second is first

    def test_each_variant_of_a_world_is_planned_once(self, room_state, plan_calls):
        perceive(room_state)
        plans = {}
        for tick_, variant in enumerate(("strict", "relaxed", "strict", "relaxed")):
            room_state.goal_variant = variant
            plan = self._deliberate_at(room_state, tick_)
            assert plan is not None
            assert plan is room_state.memo.world.plans[variant]
            assert plans.setdefault(variant, plan) is plan
        assert [args[2] for args in plan_calls] == ["strict", "relaxed"]

    def test_no_plan_is_reused_as_no_plan(self, room_state, plan_calls):
        room_state.world = dataclasses.replace(room_state.world, objects={})
        perceive(room_state)
        assert self._deliberate_at(room_state, 0) is None
        assert self._deliberate_at(room_state, 3) is None
        assert len(plan_calls) == 1

    @pytest.mark.parametrize(
        "change",
        [
            _stepped,
            _held,
            _one_object_fewer,
            lambda w: dataclasses.replace(w, broken_fixtures=frozenset({"shelf_1"})),
        ],
        ids=["agent_pos", "holding", "objects", "broken_fixtures"],
    )
    def test_a_changed_world_is_replanned(self, room_state, plan_calls, change):
        perceive(room_state)
        first = self._deliberate_at(room_state, 0)
        second = self._deliberate_at(room_state, 3, change(room_state.world))
        assert len(plan_calls) == 2
        assert second != first

    def test_a_changed_goal_variant_is_replanned(self, room_state, plan_calls):
        perceive(room_state)
        broken = dataclasses.replace(
            room_state.world, broken_fixtures=frozenset({"shelf_1"})
        )
        strict = self._deliberate_at(room_state, 0, broken)
        room_state.goal_variant = "relaxed"
        relaxed = self._deliberate_at(room_state, 3)
        assert len(plan_calls) == 2
        assert relaxed != strict

    def test_abandonment_is_part_of_the_reused_world(self, room_state, plan_calls):
        # A deliberation never plans an abandoned world, so ask directly.
        perceive(room_state)
        self._deliberate_at(room_state, 0)
        room_state.world = dataclasses.replace(room_state.world, abandoned=True)
        assert agent._task_plan(room_state) is None
        assert len(plan_calls) == 2


class TestPlanHorizon:
    """A deliberation plans only the whole legs that cover the next
    ``deliberation_period`` steps.  Every deliberation sets the plan
    cursor back to 0 and no more steps are followed before the next one,
    so a run gives the bytes a run with whole plans gives, with fewer
    searches."""

    @staticmethod
    def _run(monkeypatch, name, config, whole):
        bfs_calls, plans = [], []
        real_bfs = planner.bfs_path

        def counting_bfs(*args):
            bfs_calls.append(args)
            return real_bfs(*args)

        def recording_plan(world, goal, variant, *, min_steps):
            plan = plan_tidy_task(world, goal, variant,
                                  min_steps=None if whole else min_steps)
            plans.append(plan)
            return plan

        with monkeypatch.context() as patch:
            patch.setattr(planner, "bfs_path", counting_bfs)
            patch.setattr(agent, "plan_tidy_task", recording_plan)
            result = run_simulation(load_bundled(name), config)
        return result, len(bfs_calls), plans

    @pytest.mark.parametrize("name", ["room_tidy", "room_tidy_redescription"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"metacognition_enabled": False}, {"bct_profile": "ceos"}],
        ids=["default", "no_metacog", "ceos"],
    )
    def test_runs_match_whole_plans_with_fewer_searches(self, monkeypatch,
                                                        name, options):
        for seed_ in range(5):
            config = RunConfig(ticks=300, seed=seed_, **options)
            short, short_bfs, plans = self._run(monkeypatch, name, config, False)
            whole, whole_bfs, _ = self._run(monkeypatch, name, config, True)
            assert trace_lines(short.state) == trace_lines(whole.state)
            assert short.metrics == whole.metrics
            assert short_bfs < whole_bfs
            # Every plan searched, those left in the world memo among them.
            period = short.state.config.deliberation_period
            for plan in plans:
                if plan is not None:
                    assert plan[-1].startswith("place:")
                    assert len(_without_last_leg(plan)) < period


def _without_last_leg(plan):
    places = [i for i, step in enumerate(plan[:-1]) if step.startswith("place:")]
    return plan[:places[-1] + 1] if places else ()


@pytest.fixture
def case_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_case(*args, **kwargs)

    monkeypatch.setattr(agent, "build_case", counting)
    return calls


def _context(state):
    return RuleContext(
        beliefs=state.beliefs,
        appraisals=agent._all_appraisals(state),
        commitments=state.config.commitments,
    )


def _fresh_case(state):
    """The case and active ids built from scratch for the current state."""
    now = state.world.tick
    sources: dict[str, set[str]] = {}
    for t in state.tendency_pool:
        if not t.expired(now, state.config.tendency_ttl):
            sources.setdefault(t.action, set()).add(t.source_process)
    templates = list(state.config.argument_templates)
    args = build_case(sorted(sources), templates, triggered(templates, _context(state)),
                      weight_overrides=state.weight_overrides, option_sources=sources)
    fresh_ids = {a.id for a in args}
    args += [a for a in state.sticky_arguments if a.id not in fresh_ids]
    return args, active_set(args)


def _appraise(state):
    proc = state.processes[1]
    appraisal = Appraisal(atom="current_situation", valence="negative",
                          magnitude=0.5, source_process=proc.id)
    state.processes[1] = dataclasses.replace(
        proc, active_appraisals=[*proc.active_appraisals, appraisal]
    )


def _reweigh_template(state):
    first, *rest = state.config.argument_templates
    templates = (dataclasses.replace(first, weight=first.weight + 1.0), *rest)
    state.config = dataclasses.replace(state.config, argument_templates=templates)


class TestCaseReuse:
    """The moment of action reuses the argument case when the live
    options, their sources, the template triggers, the sticky arguments
    and the weight overrides are all unchanged; the reused case is the
    one a fresh ``build_case`` would give."""

    # Live options that some template argues about, or would once an
    # input changes.
    POOLS = {
        "room_tidy": (("abandon", "proc1"), ("move:north", "proc0")),
        "non_smoking": (("smoke", "proc1"),),
    }

    def _ready(self, name="room_tidy"):
        state = instantiate(load_bundled(name), seed=1)
        perceive(state)
        for action, process in self.POOLS[name]:
            pooled(state, action=action, process=process)
        return state

    def _rebuild(self, state):
        table = agent._rebuild_case(state)
        args, fresh_active = _fresh_case(state)
        assert state.arguments == args
        # The last OptionSet payload is the case's, reused or not.
        rows = state.last_option_set["arguments"]
        assert {row["id"] for row in rows if row["active"]} == fresh_active
        assert table == tally(args, fresh_active)
        return list(state.arguments)

    def test_a_deliberation_and_the_purge_build_once(self, room_state, case_calls):
        perceive(room_state)
        deliberative_step(room_state)
        agent.recompute_forces(room_state)
        assert len(case_calls) == 1
        assert room_state.arguments == _fresh_case(room_state)[0]

    def test_unchanged_inputs_reuse_the_case(self, case_calls):
        state = self._ready()
        first = self._rebuild(state)
        events = len(state.trace.events)
        assert self._rebuild(state) == first
        assert len(case_calls) == 1
        assert len(state.trace.events) == events  # no second OptionSet

    def test_a_reupserted_argument_is_put_back_in_case_order(self, case_calls):
        # upsert_argument moves its argument to the end of the case; the
        # next rebuild puts the case back in build order.
        state = self._ready()
        state.beliefs.set("broken(shelf_1)", True, 0)
        head = self._rebuild(state)[0]
        state.upsert_argument(head)
        order = self._rebuild(state)
        state.upsert_argument(head)
        assert state.arguments[-1] == head != order[-1]
        assert self._rebuild(state) == order
        assert len(case_calls) == 2

    @pytest.mark.parametrize(
        "name, change",
        [
            ("room_tidy", lambda s: pooled(s, action="idle", process="proc0")),
            ("room_tidy", lambda s: pooled(s, action="abandon", process="proc0")),
            ("room_tidy", lambda s: s.beliefs.set("broken(shelf_1)", True, 0)),
            ("non_smoking", _appraise),
            ("room_tidy", lambda s: s.upsert_argument(
                Argument(id="extra@abandon", option="abandon", polarity="con",
                         weight=0.4))),
            ("room_tidy", lambda s: s.weight_overrides.update(serves_tidy_goal=0.7)),
            ("room_tidy", _reweigh_template),
        ],
        ids=["options", "sources", "belief_trigger", "appraisal_trigger",
             "sticky", "weight_override", "templates"],
    )
    def test_a_changed_input_is_rebuilt(self, case_calls, name, change):
        state = self._ready(name)
        before = self._rebuild(state)
        change(state)
        after = self._rebuild(state)
        assert len(case_calls) == 2
        assert after != before

    def test_no_duplicate_option_set_is_traced(self):
        for name in BUNDLED:
            result = run_simulation(load_bundled(name), RunConfig(ticks=60, seed=1))
            sets = [e.payload for e in result.state.trace.events
                    if e.kind == "OptionSet"]
            assert sets and all(a != b for a, b in zip(sets, sets[1:])), name

    def test_builds_do_not_grow_with_the_horizon(self, case_calls):
        spec = load_bundled("non_smoking")
        counts = []
        for ticks in (60, 600):
            case_calls.clear()
            result = run_simulation(spec, RunConfig(ticks=ticks, seed=1))
            assert result.summary["ticks_executed"] == ticks
            counts.append(len(case_calls))
        assert counts[0] == counts[1] > 0

    def test_the_force_table_is_tallied_once_per_build(self, case_calls, monkeypatch):
        tallies = []

        def counting(args, active):
            tallies.append(args)
            return tally(args, active)

        monkeypatch.setattr(agent, "tally", counting)
        for name in BUNDLED:
            for ticks in (60, 600):
                case_calls.clear()
                tallies.clear()
                run_simulation(load_bundled(name), RunConfig(ticks=ticks, seed=1))
                assert len(tallies) == len(case_calls) > 0, (name, ticks)


@pytest.fixture
def trigger_calls(monkeypatch):
    calls = []

    def counting(templates, ctx):
        calls.append(templates)
        return triggered(templates, ctx)

    monkeypatch.setattr(agent, "triggered", counting)
    return calls


def _fresh_fired(state):
    return triggered(state.config.argument_templates, _context(state))


def _drop_appraisal(state):
    proc = state.processes[1]
    state.processes[1] = dataclasses.replace(
        proc, active_appraisals=proc.active_appraisals[:-1]
    )


def _untrigger_templates(state):
    templates = tuple(dataclasses.replace(t, trigger=None)
                      for t in state.config.argument_templates)
    state.config = dataclasses.replace(state.config, argument_templates=templates)


class TestTriggerReuse:
    """The template triggers are evaluated again only when a belief value
    or an active appraisal changed since their last evaluation; the
    reused values are the ones a fresh ``triggered`` would give."""

    def _ready(self, name="non_smoking"):
        state = instantiate(load_bundled(name), seed=1)
        perceive(state)
        pooled(state, action="smoke", process="proc1")
        return state

    def test_evaluations_do_not_grow_with_the_horizon(self, trigger_calls):
        for name in BUNDLED:
            counts = []
            for ticks in (60, 600):
                trigger_calls.clear()
                run_simulation(load_bundled(name), RunConfig(ticks=ticks, seed=1))
                counts.append(len(trigger_calls))
            assert counts[0] == counts[1] > 0, name

    @pytest.mark.parametrize("value, changed", [(False, True), (True, False)],
                             ids=["changed", "unchanged"])
    def test_only_a_changed_belief_value_is_re_evaluated(self, trigger_calls,
                                                         value, changed):
        state = self._ready()
        agent._rebuild_case(state)
        assert state.set_belief("situation_office_row", value) == changed
        agent._rebuild_case(state)
        assert len(trigger_calls) == 1 + changed

    @pytest.mark.parametrize(
        "change", [_appraise, _drop_appraisal, _untrigger_templates],
        ids=["new_appraisal", "dropped_appraisal", "templates"],
    )
    def test_a_changed_input_is_re_evaluated(self, trigger_calls, change):
        state = self._ready()
        _appraise(state)
        agent._rebuild_case(state)
        change(state)
        agent._rebuild_case(state)
        assert len(trigger_calls) == 2
        assert state.memo.conditions[2] == _fresh_fired(state)

    def test_reused_triggers_match_a_fresh_evaluation(self, monkeypatch):
        monkeypatch.setattr(agent, "REPLAY", False)  # a replayed tick has no stages
        rebuild = agent._rebuild_case
        checked = []

        def checking(state):
            active = rebuild(state)
            assert state.memo.conditions[2] == _fresh_fired(state)
            checked.append(state.world.tick)
            return active

        monkeypatch.setattr(agent, "_rebuild_case", checking)
        for name in BUNDLED:
            checked.clear()
            run_simulation(load_bundled(name), RunConfig(ticks=60, seed=1))
            assert len(checked) > 60, name


@pytest.fixture
def reactive_calls(monkeypatch):
    """Every reactive condition that ``reactive_step`` evaluates."""
    calls = []

    def counting(cond, ctx):
        calls.append(cond)
        return eval_condition(cond, ctx)

    monkeypatch.setattr(agent, "eval_condition", counting)
    return calls


def _fresh_reactive(state):
    """The tendencies ``reactive_step`` gives with every condition
    evaluated afresh."""
    if state.world.abandoned or state.os_process_id() is None:
        return []
    ctx = _context(state)
    return [
        ActionTendency(action=rule.action, source_process=state.os_process_id(),
                       base_urgency=rule.urgency, created_tick=state.world.tick,
                       label=rule.label or rule.id, origin="reactive")
        for rule in state.config.reactive_rules
        if eval_condition(rule.when, ctx)
    ]


def _change_belief(state):
    assert state.set_belief("broken(shelf_1)", False)


def _replace_condition(state):
    always = compile_condition({"const": True})
    rules = tuple(dataclasses.replace(rule, when=always)
                  for rule in state.config.reactive_rules)
    state.config = dataclasses.replace(state.config, reactive_rules=rules)


RUN_MODES = {
    "default": {},
    "no_metacog": {"metacognition_enabled": False},
    "ceos": {"bct_profile": "ceos"},
}

# A weight override under which each one-cell scenario lapses: the agent
# takes the tempting action on every tick from tick 2 instead of resisting it.
LAPSE_WEIGHTS = {
    "non_smoking": {"relief_appeal": 3.0},
    "office_cake": {"social_pressure": 3.0},
}
LAPSE_ACTIONS = {"non_smoking": "smoke", "office_cake": "eat_cake"}


class TestReactiveReuse:
    """The reactive rules that held are kept under the key of the trigger
    memo, and their conditions are evaluated again only when it changes;
    every rule that holds still injects a fresh tendency."""

    def _blocked(self):
        state = instantiate(load_bundled("room_tidy"), seed=1)
        state.world = dataclasses.replace(
            state.world, broken_fixtures=frozenset({"shelf_1"}))
        perceive(state)
        return state

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_reused_rules_match_a_fresh_evaluation(self, monkeypatch, name, mode):
        monkeypatch.setattr(agent, "REPLAY", False)  # a replayed tick has no stages
        step = agent.reactive_step
        checked = []

        def checking(state):
            fresh = _fresh_reactive(state)
            out = step(state)
            assert out == fresh, state.world.tick
            pooled_ids = {id(t) for t in state.tendency_pool}
            assert not any(id(t) in pooled_ids for t in out)  # fresh objects
            checked.append(state.world.tick)
            return out

        monkeypatch.setattr(agent, "reactive_step", checking)
        result = run_simulation(load_bundled(name),
                                RunConfig(ticks=600, seed=1, **RUN_MODES[mode]))
        assert len(checked) == result.summary["ticks_executed"]

    def test_only_a_changed_input_is_re_evaluated(self, reactive_calls):
        state = self._blocked()
        rules = len(state.config.reactive_rules)
        first = reactive_step(state)
        second = reactive_step(state)
        assert len(reactive_calls) == rules > 0
        # Equal tendencies, but each injection gets a new one.
        assert second == first and all(a is not b for a, b in zip(first, second))
        assert not state.set_belief("broken(shelf_1)", True)
        reactive_step(state)
        assert len(reactive_calls) == rules

    @pytest.mark.parametrize(
        "change", [_change_belief, _appraise, _drop_appraisal, _replace_condition],
        ids=["belief", "new_appraisal", "dropped_appraisal", "config"],
    )
    def test_a_changed_input_is_re_evaluated(self, reactive_calls, change):
        state = self._blocked()
        _appraise(state)
        reactive_step(state)
        change(state)
        out = reactive_step(state)
        assert len(reactive_calls) == 2 * len(state.config.reactive_rules)
        assert out == _fresh_reactive(state)

    def test_a_steady_run_evaluates_few_conditions(self, reactive_calls):
        # From tick 14 give_up_when_blocked fires every tick, but the
        # beliefs and appraisals seldom change.
        result = run_simulation(load_bundled("room_tidy_redescription"),
                                RunConfig(ticks=600, seed=1))
        fired = [e for e in result.state.trace.events
                 if e.kind == "TendencyInjected" and e.layer == "reactive"]
        assert len(fired) > 500
        assert 0 < len(reactive_calls) <= 40


# One change of every WorldState field but tick.
WORLD_CHANGES = {
    "layout": lambda w: dataclasses.replace(w.layout, width=w.layout.width + 1),
    "agent_pos": lambda w: (w.agent_pos[0] + 1, w.agent_pos[1]),
    "agent_holding": lambda w: min(w.objects),
    "objects": lambda w: {},
    "broken_fixtures": lambda w: frozenset({"shelf_1"}),
    "abandoned": lambda w: not w.abandoned,
    "facts": lambda w: {**w.facts, "extra": True},
}


def _new_beliefs(state):
    """The beliefs one perceive changes, as traced."""
    before = len(state.trace.events)
    perceive(state)
    return [(e.kind, e.payload["atom"], e.payload["value"])
            for e in state.trace.events[before:]]


class TestSteadyState:
    """Perception is skipped while the world apart from its tick, the
    goal, the goal variant and the beliefs are as the last perceive left
    them, and the goal is evaluated and each variant planned once per
    distinct world; a run gives what it gives when it forgets its memo
    before every stage."""

    @pytest.mark.parametrize("mode", RUN_MODES, ids=["metacog", "no_metacog", "ceos"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_the_memos_change_no_output(self, name, mode):
        spec = load_bundled(name)
        configs = [RunConfig(ticks=600, seed=1, **RUN_MODES[mode])]
        if mode == "default" and name in LAPSE_WEIGHTS:
            configs.append(RunConfig(ticks=600, seed=1,
                                     weight_overrides=LAPSE_WEIGHTS[name]))
        for config in configs:
            kept = run_bytes(spec, config)
            assert isinstance(kept, tuple)  # the bundled scenarios run
            if config.weight_overrides:
                executed = [event["payload"]["action"]
                            for event in map(json.loads, kept[0])
                            if event["kind"] == "ActionExecuted"]
                assert executed == ["idle"] * 2 + [LAPSE_ACTIONS[name]] * 598
            with forgetful():
                assert run_bytes(spec, config) == kept

    def test_every_field_but_tick_is_compared(self, room_state):
        world = room_state.world
        names = {f.name for f in dataclasses.fields(W.WorldState)} - {"tick"}
        assert WORLD_CHANGES.keys() == names
        assert W.same_but_tick(world, dataclasses.replace(world, tick=9))
        for name, change in WORLD_CHANGES.items():
            changed = dataclasses.replace(world, **{name: change(world)})
            assert not W.same_but_tick(world, changed), name
            assert not W.same_but_tick(changed, world), name

    def test_a_belief_changed_from_outside_is_restored(self):
        state = instantiate(load_bundled("non_smoking"), seed=1)
        for _ in range(5):
            tick(state)
        value = state.beliefs.get("agent_pos")
        state.beliefs.set("agent_pos", "cell:9,9", state.world.tick)
        assert _new_beliefs(state) == [("BeliefChange", "agent_pos", value)]
        assert state.beliefs.get("agent_pos") == value

    def test_a_changed_goal_variant_is_perceived(self, room_state):
        perceive(room_state)
        room_state.goal_variant = "relaxed"
        assert _new_beliefs(room_state) == [
            ("BeliefChange", "goal_variant", "relaxed")
        ]

    def test_a_changed_goal_is_re_evaluated(self, room_state):
        world, goal = room_state.world, room_state.goal
        obj = world.objects[min(world.objects)]
        placed = dataclasses.replace(
            obj, location=f"fixture:{goal.strict[obj.kind][0]}"
        )
        room_state.world = dataclasses.replace(
            world, objects={**world.objects, obj.id: placed}
        )
        perceive(room_state)
        misplaced = room_state.beliefs.get("misplaced_count")
        room_state.goal = dataclasses.replace(
            goal, strict={**goal.strict, obj.kind: ()}
        )
        assert _new_beliefs(room_state) == [
            ("BeliefChange", "misplaced_count", misplaced + 1)
        ]

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("name", sorted(LAPSE_WEIGHTS))
    def test_a_steady_one_cell_run_evaluates_no_condition(self, monkeypatch, name, mode):
        # The one-cell runs repeat a 3-tick period from tick 20, so every
        # condition of a 600-tick run is evaluated in its first 60 ticks.
        calls = []

        def counting(cond, ctx):
            calls.append(cond)
            return eval_condition(cond, ctx)

        for module in (agent, affect, arguments):
            monkeypatch.setattr(module, "eval_condition", counting)
        counts = []
        for ticks in (60, 600):
            calls.clear()
            result = run_simulation(load_bundled(name),
                                    RunConfig(ticks=ticks, seed=1, **RUN_MODES[mode]))
            assert result.summary["ticks_executed"] == ticks
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, name

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("name", sorted(LAPSE_WEIGHTS))
    def test_a_steady_one_cell_tick_looks_each_memo_up_once(self, monkeypatch, name,
                                                            mode):
        # Over ticks 300-600, where each one-cell run has long settled, and
        # metacognition finds nothing: the case is looked up once a tick, a
        # condition key is built once for it and once for each process
        # step, and a preparing step scans no appraisal.
        monkeypatch.setattr(agent, "REPLAY", False)  # a replayed tick has no stages
        counts = {"_rebuild_case": 0, "_all_appraisals": 0, "prepare_action": 0,
                  "tendency_specs": 0}
        steady = []

        def counted(module, fn):
            original = getattr(module, fn)

            def run(*args, **kwargs):
                counts[fn] += bool(steady)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, fn, run)

        for fn in counts:
            counted(affect if fn in ("prepare_action", "tendency_specs") else agent, fn)

        def steady_tick(state):
            if state.world.tick == 300:
                steady.append(state)
            return tick(state)

        monkeypatch.setattr(runner, "tick", steady_tick)
        result = run_simulation(load_bundled(name),
                                RunConfig(ticks=600, seed=1, **RUN_MODES[mode]))
        assert result.summary["ticks_executed"] == 600
        processes = len(steady[0].processes)
        assert counts["_rebuild_case"] == 300
        assert counts["_all_appraisals"] == 300 * (processes + 1)
        assert counts["prepare_action"] > 0
        assert counts["tendency_specs"] == 0

    @pytest.mark.parametrize("lapse", [False, True], ids=["default", "lapse"])
    @pytest.mark.parametrize("name", sorted(LAPSE_WEIGHTS))
    def test_a_withdrawn_appraisal_changes_no_output(self, monkeypatch, name, lapse):
        # The situation fact of the one-cell scenario is withdrawn at tick
        # 30 and restored at tick 45: its appraisal is dropped, then formed
        # again, and the run writes what its forgetful twin writes.
        spec = load_bundled(name)
        ((fact, _),) = spec.starting_state.facts
        (label,) = [rule.label for rule in spec.agent.appraisal_rules
                    if fact in rule.when.atoms]

        def scripted_tick(state):
            if state.world.tick in (30, 45):
                facts = {**state.world.facts, fact: state.world.tick == 45}
                state.world = state.world._replace(facts=facts)
            return tick(state)

        monkeypatch.setattr(runner, "tick", scripted_tick)
        config = RunConfig(ticks=90, seed=1,
                           weight_overrides=LAPSE_WEIGHTS[name] if lapse else {})
        kept = run_bytes(spec, config)
        events = [json.loads(line) for line in kept[0]]
        assert [e["payload"]["active"] for e in events
                if e["kind"] == "AppraisalChange" and e["tick"] >= 30
                and e["payload"]["label"] == label] == [False, True]
        with forgetful():
            assert run_bytes(spec, config) == kept

    def test_an_appraisal_moved_to_another_process_is_derived_again(self):
        # The flattened appraisals of the condition key stay the same; the
        # process's own appraisals do not.
        state = instantiate(load_bundled("non_smoking"), seed=1)
        first, second = state.processes
        appraisal = Appraisal(atom="current_situation", valence="negative",
                              magnitude=0.7, source_process=second.id)
        second.active_appraisals = [appraisal]
        derived = agent._derived(state, first)
        key = agent._conditions(state)[0]
        first.active_appraisals, second.active_appraisals = [appraisal], []
        assert agent._conditions(state)[0] is key
        assert agent._derived(state, first) is not derived

    def test_goal_evaluations_do_not_grow_with_the_horizon(self, monkeypatch):
        evaluate_goal = W.evaluate_goal
        calls = []

        def counting(world, goal):
            calls.append(world.tick)
            return evaluate_goal(world, goal)

        monkeypatch.setattr(W, "evaluate_goal", counting)
        for name in ("non_smoking", "office_cake"):
            counts = []
            for ticks in (60, 600):
                calls.clear()
                result = run_simulation(load_bundled(name),
                                        RunConfig(ticks=ticks, seed=1))
                assert result.summary["ticks_executed"] == ticks
                counts.append(len(calls))
            assert counts[0] == counts[1] > 0, name


def _pool_abstract(state):
    pooled(state, action="smoke")


def _pool_refused(state):
    pooled(state, action="pick_up:book_1")  # not adjacent: refused


class _CountingMath:
    """``math`` with its ``isfinite`` calls counted: ``recompute_forces``
    checks each fold of a tendency's force with it once."""

    def __init__(self):
        self.folds = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def isfinite(self, value):
        self.folds += 1
        return math.isfinite(value)


def _force_table(state):
    return None if state.memo.case is None else state.memo.case[4]


class TestSteadyTicks:
    """A steady tick does only new work: a tendency is folded once per
    force table, each world object is compared with the memo's at most
    once, and an idle's successor is not compared at all."""

    @pytest.mark.parametrize("mode", RUN_MODES)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_forces_are_folded_once_per_table(self, monkeypatch, name, mode):
        counting = _CountingMath()
        monkeypatch.setattr(agent, "math", counting)
        compared = {}  # id(world) -> [world, comparisons]; holds the world
        same_but_tick = W.same_but_tick

        def counting_same(memo_world, world):
            compared.setdefault(id(world), [world, 0])[1] += 1
            return same_but_tick(memo_world, world)

        monkeypatch.setattr(W, "same_but_tick", counting_same)

        def checked_tick(state):
            table, folds = _force_table(state), counting.folds
            first = len(state.trace.events)
            row = tick(state)
            injected = sum(e.kind == "TendencyInjected"
                           for e in state.trace.events[first:])
            if _force_table(state) is table:
                assert counting.folds - folds <= injected, state.world.tick
            active = active_set(state.arguments)
            active_args = [a for a in state.arguments if a.id in active]
            for tendency in state.tendency_pool:
                assert (tendency.force, tendency.supporting_arguments) == (
                    compute_force(tendency, active_args),
                    supporting_argument_ids(tendency, active_args),
                ), (state.world.tick, tendency.id)
            return row

        monkeypatch.setattr(runner, "tick", checked_tick)
        result = run_simulation(load_bundled(name),
                                RunConfig(ticks=600, seed=1, **RUN_MODES[mode]))
        assert all(n == 1 for _, n in compared.values())
        # Only a world that a non-idle action or a fired event made is
        # compared: an idle successor is followed without a compare, so
        # the one-cell scenarios, which only idle, compare no world.
        moved = sum(not row["idle"] for row in result.metrics)
        fired = {e.tick for e in result.state.trace.events if e.kind == "WorldEventFired"}
        assert len(compared) <= moved + len(fired)

    @pytest.mark.parametrize(
        "pool", [lambda state: None, _pool_abstract, _pool_refused],
        ids=["nothing_selected", "abstract_act", "refused_action"])
    def test_an_idle_successor_is_followed_without_a_compare(self, monkeypatch,
                                                             room_state, pool):
        perceive(room_state)
        pool(room_state)
        before = room_state.world
        calls = []
        monkeypatch.setattr(W, "same_but_tick", lambda a, b: calls.append(b))
        row = agent.act(room_state)
        assert room_state.world == before._replace(tick=before.tick + 1)
        assert room_state.memo.world.world is room_state.world
        assert calls == []
        assert row["misplaced_count"] == W.evaluate_goal(
            room_state.world, room_state.goal).misplaced_count


class TestSharedPayloads:
    """A steady tick passes the payloads and forces dict it would build
    equal to the last ones again, and only within its own run."""

    def test_steady_ticks_share_their_payloads(self):
        result = run_simulation(load_bundled("room_tidy_redescription"),
                                RunConfig(ticks=600, seed=1))
        events = result.state.trace.events
        applied = [e for e in events if e.kind == "CountermeasureApplied"]
        # Every application redescribes with one standing argument: the
        # first builds it, every later one reuses it.
        assert [e.payload["outcome"] for e in applied] == ["redescription"] * len(applied)
        idle = [e for e in events if e.kind == "NoTendency"]
        unselected = [e for e in events
                      if e.kind == "ActionExecuted" and e.payload["tendency"] is None]
        for shared in (applied, idle, unselected):
            assert len(shared) > 100
            assert all(e.payload is shared[0].payload for e in shared)
        # Equal focus payloads are one dict, though their values cycle.
        focus = [e.payload for e in events
                 if e.kind == "AttentionShift" and "focus" in e.payload]
        by_key = {(p["process"], p["phase"]): p for p in focus}
        assert len(focus) > 100 and 1 < len(by_key) < 10
        assert all(p is by_key[p["process"], p["phase"]] for p in focus)
        rows = result.metrics
        steady = [(a["forces"], b["forces"]) for a, b in zip(rows, rows[1:])]
        assert sum(a == b for a, b in steady) > 500
        assert all((a is b) == (a == b) for a, b in steady)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_run_shares_nothing_with_the_next(self, name):
        # Every run of one spec; editing one run's payloads and forces
        # must leave the next run's trace and metrics as a fresh run's.
        spec, config = load_bundled(name), RunConfig(ticks=100, seed=1)
        fresh = run_simulation(spec, config)
        expected = (trace_lines(fresh.state), repr(fresh.metrics))
        edited = run_simulation(spec, config)
        assert any(e.kind == "AttentionShift" and "focus" in e.payload
                   for e in edited.state.trace.events)
        for event in edited.state.trace.events:
            event.payload["edited"] = True
        for row in edited.metrics:
            row["forces"]["edited"] = 1.0
        again = run_simulation(spec, config)
        assert (trace_lines(again.state), repr(again.metrics)) == expected


class TestThresholdMonotonicity:
    def test_winner_flips_at_most_once_as_counterweight_grows(self):
        spec = load_bundled("room_tidy_redescription")
        outcomes = []
        for i in range(9):
            weight = i * 0.25
            result = run_simulation(
                spec,
                RunConfig(
                    ticks=40, seed=1, weight_overrides={"commitment_guard": weight}
                ),
            )
            outcomes.append(result.summary["abandoned"])
        flips = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert flips == 1
        assert outcomes[0] is True and outcomes[-1] is False


class TestRoutingAnnotations:
    def test_ceos_actions_name_their_pooled_tendency(self):
        spec = load_bundled("room_tidy")
        result = run_simulation(spec, RunConfig(ticks=30, seed=1, bct_profile="ceos"))
        injected = {
            e.payload["tendency"]
            for e in result.state.trace.events
            if e.kind == "TendencyInjected"
        }
        for event in result.state.trace.events:
            if event.kind != "ActionExecuted" or event.payload["fallback"]:
                continue
            assert event.payload["os_tendency"] in injected

    def test_prime_actions_carry_momentary_need(self):
        spec = load_bundled("room_tidy")
        result = run_simulation(spec, RunConfig(ticks=10, seed=1, bct_profile="prime"))
        executed = [
            e
            for e in result.state.trace.events
            if e.kind == "ActionExecuted" and not e.payload["fallback"]
        ]
        assert executed
        assert all(e.payload["momentary_need"] > 0 for e in executed)
