import dataclasses

import pytest

import cogsim
from cogsim import agent
from cogsim import world as W
from cogsim.affect import ActionTendency
from cogsim.agent import (
    SimulationState,
    deliberative_step,
    perceive,
    reactive_step,
    select_action,
    tick,
)
from cogsim.errors import NoTendency
from cogsim.planner import plan_tidy_task
from cogsim.rules import compile_condition
from cogsim.runner import RunConfig, run_simulation
from cogsim.scenario import instantiate, load_bundled


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
    def test_maximal_force_wins(self, room_state):
        pooled(room_state, base=0.9, action="abandon", process="proc1")
        pooled(room_state, base=0.3, action="move:north", process="proc0")
        for t in room_state.tendency_pool:
            t.force = t.base_urgency
        action, winner = select_action(room_state)
        assert (action, winner) == ("abandon", "proc1")

    def test_tie_breaks_by_process_rank(self, room_state):
        pooled(room_state, base=0.9, action="abandon", process="proc1")
        pooled(room_state, base=0.9, action="move:north", process="proc0")
        for t in room_state.tendency_pool:
            t.force = t.base_urgency
        action, winner = select_action(room_state)
        assert (action, winner) == ("move:north", "proc0")

    def test_equal_rank_breaks_by_action_encoding(self, room_state):
        pooled(room_state, base=0.9, action="move:south", process="proc0")
        pooled(room_state, base=0.9, action="move:east", process="proc0")
        for t in room_state.tendency_pool:
            t.force = t.base_urgency
        action, _ = select_action(room_state)
        assert action == "move:east"

    def test_empty_pool_raises(self, room_state):
        with pytest.raises(NoTendency):
            select_action(room_state)

    def test_fully_suppressed_pool_raises(self, room_state):
        pooled(room_state, base=0.5)
        room_state.tendency_pool[0].force = 0.0
        with pytest.raises(NoTendency):
            select_action(room_state)


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

    def test_whatif_isolation_during_full_run(self):
        spec = load_bundled("room_tidy")
        state = instantiate(spec, 3)
        snapshot = dataclasses.replace(state.world)
        outcome = cogsim.simulate_whatif(
            state.world, ("idle", "idle", "idle"), state.goal
        )
        assert outcome.reachable
        assert state.world == snapshot


@pytest.fixture
def plan_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return plan_tidy_task(*args)

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
    """A deliberation reuses the standing plan when the world is the same
    apart from ``tick`` and the goal variant is the same; the reused plan
    is what the planner would return for the new tick."""

    def _deliberate_at(self, state, tick_, world=None):
        state.world = dataclasses.replace(world or state.world, tick=tick_)
        deliberative_step(state)
        fresh = plan_tidy_task(state.world, state.goal, state.goal_variant, tick_)
        assert state.plan == fresh
        return state.plan

    def test_unchanged_world_is_planned_once(self, room_state, plan_calls):
        perceive(room_state)
        first = self._deliberate_at(room_state, 0)
        second = self._deliberate_at(room_state, 3)
        assert len(plan_calls) == 1
        assert first is not None and second.steps == first.steps
        assert (second.id, second.valid_from_tick) == ("tidy@3", 3)

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
        assert second != dataclasses.replace(first, id="tidy@3", valid_from_tick=3)

    def test_a_changed_goal_variant_is_replanned(self, room_state, plan_calls):
        perceive(room_state)
        broken = dataclasses.replace(
            room_state.world, broken_fixtures=frozenset({"shelf_1"})
        )
        strict = self._deliberate_at(room_state, 0, broken)
        room_state.goal_variant = "relaxed"
        relaxed = self._deliberate_at(room_state, 3)
        assert len(plan_calls) == 2
        assert relaxed.steps != strict.steps

    def test_abandonment_is_part_of_the_reused_world(self, room_state, plan_calls):
        # A deliberation never plans an abandoned world, so ask directly.
        perceive(room_state)
        self._deliberate_at(room_state, 0)
        room_state.world = dataclasses.replace(room_state.world, abandoned=True)
        assert agent._task_plan(room_state) is None
        assert len(plan_calls) == 2


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
