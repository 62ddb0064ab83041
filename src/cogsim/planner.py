"""Deterministic task planning and hypothetical rollout.

The tidy planner is greedy: repeatedly pick the nearest misplaced
object (breadth-first-search distance, ties by object id), walk to it,
pick it up, walk to the first legal fixture that still has room, and
place it.  The table is considered for books only once the relaxed
goal variant is active.  Optimality is not the point — a monitorable,
reproducible plan is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import world as W
from .errors import IllegalAction

_NEIGHBOR_ORDER = ("north", "east", "south", "west")


@dataclass(frozen=True)
class Plan:
    id: str
    goal_ref: str
    steps: tuple[str, ...]
    valid_from_tick: int


@dataclass(frozen=True)
class PredictedOutcome:
    reachable: bool
    failing_step: int | None
    final_goal_status: W.GoalStatus


def bfs_path(
    layout: W.RoomLayout,
    start: tuple[int, int],
    goals: set[tuple[int, int]],
) -> list[str] | None:
    """Moves from start to the first reachable goal cell, or None.

    Neighbor expansion order is fixed, so equal inputs give equal paths.
    """
    if start in goals:
        return []
    seen = {start}
    queue: deque[tuple[tuple[int, int], list[str]]] = deque([(start, [])])
    while queue:
        cell, path = queue.popleft()
        for direction in _NEIGHBOR_ORDER:
            dx, dy = W.DIRECTIONS[direction]
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt in seen or not layout.passable(nxt):
                continue
            step_path = path + [f"move:{direction}"]
            if nxt in goals:
                return step_path
            seen.add(nxt)
            queue.append((nxt, step_path))
    return None


def _adjacent_cells(layout: W.RoomLayout, cell: tuple[int, int]) -> set[tuple[int, int]]:
    out = {c for c in (cell,) if layout.passable(c)}
    for dx, dy in W.DIRECTIONS.values():
        c = (cell[0] + dx, cell[1] + dy)
        if layout.passable(c):
            out.add(c)
    return out


def _free_target(
    sim: W.WorldState, obj: W.ObjectState, allowed: tuple[str, ...]
) -> str | None:
    """First legal placement target for the object among allowed fixtures."""
    for fixture_id in allowed:
        if not sim.layout.has_fixture(fixture_id):
            continue
        fixture = sim.layout.fixture(fixture_id)
        if fixture.id in sim.broken_fixtures or fixture.accepts != obj.kind:
            continue
        if fixture.slots:
            for slot in fixture.slots:
                if not any(
                    o.location == f"slot:{slot}" for o in sim.objects.values()
                ):
                    return slot
            continue
        occupants = sum(
            1 for o in sim.objects.values() if o.location == f"fixture:{fixture.id}"
        )
        if fixture.capacity is None or occupants < fixture.capacity:
            return fixture_id
    return None


def _target_allowance(goal: W.GoalSpec, kind: str, variant: str) -> tuple[str, ...]:
    strict = goal.strict.get(kind, ())
    if variant != "relaxed":
        return strict
    extra = tuple(f for f in goal.relaxed.get(kind, ()) if f not in strict)
    return strict + extra


def plan_tidy_task(
    start: W.WorldState, goal: W.GoalSpec, variant: str = "strict", tick: int = 0
) -> Plan | None:
    """Plan to put every plannable misplaced object somewhere allowed.

    Objects with no reachable legal target are skipped rather than
    failing the whole plan.  Returns None when no step can be planned.
    """
    sim = start
    steps: list[str] = []
    handled: set[str] = set()

    # If already carrying something, deliver it first.
    if sim.agent_holding is not None:
        held_id = sim.agent_holding
        delivered = _deliver(sim, sim.object(held_id), goal, variant)
        if delivered is None:
            return None
        sim, extra = delivered
        steps.extend(extra)
        handled.add(held_id)

    while True:
        candidates = []
        for obj in sim.objects.values():
            if obj.id in handled:
                continue
            if W.placed_ok(sim, obj, _target_allowance(goal, obj.kind, variant)):
                continue
            cell = W.parse_cell(obj.location)
            if cell is None:
                continue  # already in some fixture; leave it be
            path = bfs_path(sim.layout, sim.agent_pos, _adjacent_cells(sim.layout, cell))
            if path is None:
                continue
            candidates.append((len(path), obj.id, path, obj))
        if not candidates:
            break
        candidates.sort(key=lambda c: (c[0], c[1]))
        _, obj_id, path, obj = candidates[0]
        trial = sim
        trial_steps = list(path) + [f"pick_up:{obj_id}"]
        try:
            for action in trial_steps:
                trial = W.apply_action(trial, action)
        except IllegalAction:
            handled.add(obj_id)
            continue
        delivered = _deliver(trial, trial.object(obj_id), goal, variant)
        if delivered is None:
            handled.add(obj_id)
            continue
        sim, extra = delivered
        steps.extend(trial_steps)
        steps.extend(extra)
        handled.add(obj_id)

    if not steps:
        return None
    return Plan(
        id=f"tidy@{tick}", goal_ref="task", steps=tuple(steps), valid_from_tick=tick
    )


def _deliver(
    sim: W.WorldState, obj: W.ObjectState, goal: W.GoalSpec, variant: str
) -> tuple[W.WorldState, list[str]] | None:
    """Steps that carry the held object to a legal target and place it."""
    target = _free_target(sim, obj, _target_allowance(goal, obj.kind, variant))
    if target is None:
        return None
    fixture = sim.layout.slot_parent(target) or sim.layout.fixture(target)
    path = bfs_path(sim.layout, sim.agent_pos, _adjacent_cells(sim.layout, fixture.cell))
    if path is None:
        return None
    steps = path + [f"place:{target}"]
    try:
        for action in steps:
            sim = W.apply_action(sim, action)
    except IllegalAction:
        return None
    return sim, steps


def simulate_whatif(
    world: W.WorldState, plan: Plan | tuple[str, ...], goal: W.GoalSpec
) -> PredictedOutcome:
    """Apply plan steps to a copy of the world, never the live one.

    An illegal step does not raise: it marks the plan unreachable at
    that index, and the status reflects the world reached so far.
    """
    steps = plan.steps if isinstance(plan, Plan) else tuple(plan)
    sim = world
    for index, action in enumerate(steps):
        try:
            sim = W.apply_action(sim, action)
        except IllegalAction:
            return PredictedOutcome(
                reachable=False,
                failing_step=index,
                final_goal_status=W.evaluate_goal(sim, goal),
            )
    return PredictedOutcome(
        reachable=True, failing_step=None, final_goal_status=W.evaluate_goal(sim, goal)
    )
