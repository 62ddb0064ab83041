"""Deterministic task planning.

The tidy planner is greedy: repeatedly pick the nearest misplaced
object (breadth-first-search distance, ties by object id), walk to it,
pick it up, walk to the first legal fixture that still has room, and
place it.  The table is considered for books only once the relaxed
goal variant is active.  Optimality is not the point — a monitorable,
reproducible plan is.

Each object's walk, pick-up, walk and ``place:`` step make one leg.
With ``min_steps`` the search stops after the first whole leg that
brings the plan to that many steps, so the result is the whole plan's
first legs.  The agent asks for ``deliberation_period`` steps: the plan
covers only the stretch up to its next deliberation.  That is exact,
since every deliberation replans from the first step and no more than
``deliberation_period`` steps are followed in between.

Each leg searches its candidates nearest-bound first: an object's path
is at least its Manhattan distance minus one (its goal cells lie within
one step of it), so objects are searched in ``(bound, id)`` order and
the search stops once no later bound can beat the best ``(length, id)``.
"""

from __future__ import annotations

import math
from collections import deque

from . import world as W
from .errors import IllegalAction

_NEIGHBOR_ORDER = ("north", "east", "south", "west")
# (action, dx, dy) per direction, in expansion order.
_NEIGHBOR_STEPS = tuple((f"move:{d}", *W.DIRECTIONS[d]) for d in _NEIGHBOR_ORDER)
_MOVE_DELTAS = {action: (dx, dy) for action, dx, dy in _NEIGHBOR_STEPS}


def bfs_path(
    layout: W.RoomLayout,
    start: tuple[int, int],
    goals: set[tuple[int, int]],
    dead: list | None = None,
) -> list[str] | None:
    """Moves from start to the first reachable goal cell, or None.

    Neighbor expansion order is fixed, so equal inputs give equal paths.
    Each discovered cell records the cell and move it was reached by;
    only the winning path is rebuilt from those parent pointers.
    ``dead`` collects the cells a failed search reached, which are its
    start's whole component of ``layout``: a later search from inside
    one with no goal in it fails without searching.
    """
    if start in goals:
        return []
    for component in dead or ():
        if start in component and goals.isdisjoint(component):
            return None
    width, height = layout.width, layout.height
    blocked = layout.fixture_cells
    parents: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        x, y = cell
        for action, dx, dy in _NEIGHBOR_STEPS:
            nx, ny = x + dx, y + dy
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            nxt = (nx, ny)
            if nxt in parents or nxt in blocked:
                continue
            parents[nxt] = (cell, action)
            if nxt in goals:
                return _path_to(parents, nxt)
            queue.append(nxt)
    if dead is not None:
        dead.append(parents)
    return None


def _path_to(parents: dict, cell: tuple[int, int]) -> list[str]:
    path = []
    link = parents[cell]
    while link is not None:
        cell, action = link
        path.append(action)
        link = parents[cell]
    path.reverse()
    return path


def _walk(sim: W.WorldState, path: list[str]) -> W.WorldState:
    """The world after a BFS path's moves, built in one step.

    Every move of a BFS path stays in bounds and off fixtures, so the
    moves change only the tick and the agent's cell.  An abandoned world
    is walked too: the ``pick_up``/``place`` that ends each leg raises
    :class:`IllegalAction` there, and the caller drops the whole leg.
    """
    x, y = sim.agent_pos
    for action in path:
        dx, dy = _MOVE_DELTAS[action]
        x, y = x + dx, y + dy
    return sim._replace(tick=sim.tick + len(path), agent_pos=(x, y))


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
    """The first location among the allowed fixtures, each slot of a
    slot-addressed fixture in turn, that ``W.placement_problem`` accepts
    for the object."""
    for fixture_id in allowed:
        fixture = sim.layout.fixture_at(f"fixture:{fixture_id}")
        slots = fixture.slots if fixture is not None else ()
        for location in [f"slot:{s}" for s in slots] or [f"fixture:{fixture_id}"]:
            if W.placement_problem(sim, obj.kind, location) is None:
                return location
    return None


def _target_allowance(goal: W.GoalSpec, kind: str, variant: str) -> tuple[str, ...]:
    strict = goal.strict.get(kind, ())
    if variant != "relaxed":
        return strict
    extra = tuple(f for f in goal.relaxed.get(kind, ()) if f not in strict)
    return strict + extra


def plan_tidy_task(
    start: W.WorldState,
    goal: W.GoalSpec,
    variant: str = "strict",
    *,
    min_steps: int | None = None,
) -> tuple[str, ...] | None:
    """The steps that put every plannable misplaced object somewhere allowed.

    Objects with no reachable legal target are skipped rather than
    failing the whole plan.  Returns None when no step can be planned.
    With ``min_steps``, returns the shortest prefix of that plan that
    ends with a leg's ``place:`` step and has at least ``min_steps``
    steps, or the whole plan when it is shorter.
    """
    sim = start
    steps: list[str] = []
    handled: set[str] = set()
    # The components failed searches reached, kept for this call only: the
    # layout cannot change within it.
    dead: list = []
    # Legs are planned while the plan is shorter than this.
    limit = math.inf if min_steps is None else max(min_steps, 1)

    # If already carrying something, deliver it first.
    if sim.agent_holding is not None:
        held_id = sim.agent_holding
        delivered = _deliver(sim, sim.object(held_id), goal, variant, dead)
        if delivered is None:
            return None
        sim, extra = delivered
        steps.extend(extra)
        handled.add(held_id)

    while len(steps) < limit:
        found = _nearest_object(sim, goal, variant, handled, dead)
        if found is None:
            break
        obj_id, path = found
        pick_up = f"pick_up:{obj_id}"
        try:
            trial = W.apply_action(_walk(sim, path), pick_up)
        except IllegalAction:
            handled.add(obj_id)
            continue
        delivered = _deliver(trial, trial.object(obj_id), goal, variant, dead)
        if delivered is None:
            handled.add(obj_id)
            continue
        sim, extra = delivered
        steps.extend(path)
        steps.append(pick_up)
        steps.extend(extra)
        handled.add(obj_id)

    if not steps:
        return None
    return tuple(steps)


def _nearest_object(
    sim: W.WorldState, goal: W.GoalSpec, variant: str, handled: set[str],
    dead: list | None = None,
) -> tuple[str, list[str]] | None:
    """The loose misplaced object with the least ``(path length, id)``
    and its path, or None when none is reachable.

    ``max(manhattan - 1, 0)`` bounds a path length from below, so once
    the next ``(bound, id)`` exceeds the best ``(length, id)``, no later
    object can win.
    """
    candidates = []
    for obj in sim.objects.values():
        if obj.id in handled:
            continue
        if W.placed_ok(sim, obj, _target_allowance(goal, obj.kind, variant)):
            continue
        cell = W.parse_cell(obj.location)
        if cell is None:
            continue  # already in some fixture; leave it be
        bound = max(W.manhattan(sim.agent_pos, cell) - 1, 0)
        candidates.append((bound, obj.id, cell))
    candidates.sort()
    best_key, best_path = None, None
    for bound, obj_id, cell in candidates:
        if best_key is not None and (bound, obj_id) > best_key:
            break
        path = bfs_path(sim.layout, sim.agent_pos, _adjacent_cells(sim.layout, cell), dead)
        if path is not None and (best_key is None or (len(path), obj_id) < best_key):
            best_key, best_path = (len(path), obj_id), path
    return None if best_key is None else (best_key[1], best_path)


def _deliver(
    sim: W.WorldState, obj: W.ObjectState, goal: W.GoalSpec, variant: str,
    dead: list | None = None,
) -> tuple[W.WorldState, list[str]] | None:
    """Steps that carry the held object to a legal target and place it."""
    location = _free_target(sim, obj, _target_allowance(goal, obj.kind, variant))
    if location is None:
        return None
    cell = sim.layout.fixture_at(location).cell
    path = bfs_path(sim.layout, sim.agent_pos, _adjacent_cells(sim.layout, cell), dead)
    if path is None:
        return None
    place = f"place:{location.partition(':')[2]}"
    try:
        sim = W.apply_action(_walk(sim, path), place)
    except IllegalAction:
        return None
    path.append(place)
    return sim, path

