import dataclasses
import json
import random
from collections import deque

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cogsim import planner
from cogsim import world as W
from cogsim.planner import _free_target, bfs_path, plan_tidy_task
from cogsim.scenario import bundled_document, instantiate, load_bundled, parse_scenario

from helpers import (
    bfs_distance,
    reference_bfs_path,
    reference_free_target,
    reference_plan_tidy_task,
    replay,
)


def test_bfs_path_matches_independent_distance_oracle():
    rng = random.Random(99)
    layout = W.RoomLayout(
        width=6,
        height=6,
        fixtures=(
            W.Fixture("f1", (2, 2), "book"),
            W.Fixture("f2", (3, 2), "book"),
            W.Fixture("f3", (2, 3), "book"),
        ),
    )
    cells = [(x, y) for x in range(6) for y in range(6) if layout.passable((x, y))]
    for _ in range(60):
        start = rng.choice(cells)
        goal = rng.choice(cells)
        path = bfs_path(layout, start, {goal})
        dist = bfs_distance(layout, start, {goal})
        if dist is None:
            assert path is None
        else:
            assert path is not None and len(path) == dist
            # replay the path to confirm it really reaches the goal
            pos = start
            for step in path:
                dx, dy = W.DIRECTIONS[step.split(":")[1]]
                pos = (pos[0] + dx, pos[1] + dy)
                assert layout.passable(pos)
            assert pos == goal


def _room(width, height, *cells):
    return W.RoomLayout(width, height, tuple(
        W.Fixture(f"f{i}", cell, "book") for i, cell in enumerate(cells)
    ))


@st.composite
def grid_searches(draw):
    """A room with random fixtures, a start cell, and a goal set whose
    cells may lie on fixtures or outside the room.  Cells come from a
    drawn ``Random``, so start and goals do not both crowd the origin."""
    rng = draw(st.randoms(use_true_random=False))
    width, height = rng.randint(1, 8), rng.randint(1, 8)
    inside = [(x, y) for x in range(width) for y in range(height)]
    around = [(x, y) for x in range(-1, width + 1) for y in range(-1, height + 1)]
    cells = set(rng.sample(inside, rng.randint(0, len(inside) // 2)))
    start = rng.choice(inside)
    goals = {rng.choice(inside if rng.random() < 0.8 else around)
             for _ in range(rng.randint(1, 4))}
    extra = rng.choice(("none", "none", "start", "fixture"))
    if extra == "start":
        goals.add(start)
    elif extra == "fixture" and cells:
        goals.add(rng.choice(sorted(cells)))
    return _room(width, height, *sorted(cells)), start, goals


@seed(20211015)
@settings(max_examples=400, deadline=None, database=None)
@given(case=grid_searches())
# start in goals; a goal on a fixture; a goal out of bounds; a multi-cell
# goal set with equal-length routes; a goal walled off.
@example(case=(_room(3, 3, (1, 1)), (0, 0), {(0, 0), (2, 2)}))
@example(case=(_room(3, 3, (1, 1)), (0, 0), {(1, 1)}))
@example(case=(_room(3, 3), (0, 0), {(3, 0), (0, -1)}))
@example(case=(_room(3, 3, (1, 1)), (0, 0), {(2, 2), (1, 2), (2, 1)}))
@example(case=(_room(4, 3, (2, 0), (2, 1), (2, 2)), (0, 1), {(3, 1)}))
def test_bfs_path_gives_the_reference_moves(case):
    layout, start, goals = case
    assert bfs_path(layout, start, goals) == reference_bfs_path(layout, start, goals)


def test_plan_applies_only_its_pick_ups_and_places(monkeypatch):
    # Moves along a searched path are applied in one step; only the
    # pick-up and place at the end of each leg go through apply_action.
    state = instantiate(load_bundled("room_tidy"), 1)
    world, goal = state.world, state.goal
    calls = []
    apply_action = W.apply_action

    def counting(sim, action):
        calls.append(action)
        return apply_action(sim, action)

    monkeypatch.setattr(W, "apply_action", counting)
    plan = plan_tidy_task(world, goal, "strict")
    monkeypatch.undo()
    assert plan is not None
    non_moves = [s for s in plan if not s.startswith("move:")]
    assert len(non_moves) > 0
    assert calls == non_moves
    assert replay(world, plan, goal).strict


def test_abandoned_world_still_gives_no_plan():
    # Every leg ends in a pick-up or place, which an abandoned world
    # refuses, so no leg survives: with or without an object in hand.
    state = instantiate(load_bundled("room_tidy"), 1)
    book = next(o for o in state.world.objects.values() if o.kind == "book")
    objects = {**state.world.objects, book.id: dataclasses.replace(book, location="held")}
    holding = dataclasses.replace(state.world, agent_holding=book.id, objects=objects)
    for world in (state.world, holding):
        assert plan_tidy_task(world, state.goal, "strict") is not None
        abandoned = dataclasses.replace(world, abandoned=True)
        assert plan_tidy_task(abandoned, state.goal, "strict") is None


def test_plan_reaches_strict_goal(small_world, small_goal):
    plan = plan_tidy_task(small_world, small_goal, "strict")
    assert plan is not None
    assert replay(small_world, plan, small_goal).strict


def test_plan_skips_unreachable_objects(small_world, small_goal):
    broken = dataclasses.replace(
        small_world, broken_fixtures=frozenset({"shelf_1"})
    )
    plan = plan_tidy_task(broken, small_goal, "strict")
    # the book cannot be shelved; only the toy is planned
    assert plan is not None
    assert not any("book" in step for step in plan)
    assert replay(broken, plan, small_goal).misplaced_count == 1


def test_relaxed_variant_uses_fallback_fixture():
    layout = W.RoomLayout(
        width=4,
        height=3,
        fixtures=(
            W.Fixture("shelf_1", (0, 0), "book", slots=("s1",)),
            W.Fixture("table_1", (3, 0), "book"),
        ),
    )
    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=(1, 1),
        objects={"book_1": W.ObjectState("book_1", "book", "cell:1,2")},
        broken_fixtures=frozenset({"shelf_1"}),
    )
    goal = W.GoalSpec(
        strict={"book": ("shelf_1",)}, relaxed={"book": ("shelf_1", "table_1")}
    )
    assert plan_tidy_task(world, goal, "strict") is None
    plan = plan_tidy_task(world, goal, "relaxed")
    assert plan is not None and plan[-1] == "place:table_1"
    status = replay(world, plan, goal)
    assert status.relaxed
    assert not status.strict


def test_plans_are_deterministic(small_world, small_goal):
    first = plan_tidy_task(small_world, small_goal, "strict")
    second = plan_tidy_task(small_world, small_goal, "strict")
    assert first == second
    assert isinstance(first, tuple)


def test_bundled_grid_first_leg_is_shortest_route_to_nearest_object():
    state = instantiate(load_bundled("room_tidy"), 1)
    world = state.world
    plan = plan_tidy_task(world, state.goal, "strict")
    assert plan is not None
    approach = {}
    for obj in world.objects.values():
        cell = W.parse_cell(obj.location)
        goals = {cell} | {
            (cell[0] + dx, cell[1] + dy) for dx, dy in W.DIRECTIONS.values()
        }
        goals = {c for c in goals if world.layout.passable(c)}
        approach[obj.id] = bfs_distance(world.layout, world.agent_pos, goals)
    first_pick = next(s for s in plan if s.startswith("pick_up"))
    picked = first_pick.split(":")[1]
    assert approach[picked] == min(approach.values())
    # the leg before the first pick-up is exactly that shortest distance
    assert plan.index(first_pick) == approach[picked]


def test_nearest_object_first():
    layout = W.RoomLayout(
        width=7, height=2, fixtures=(W.Fixture("box_1", (0, 0), "toy"),)
    )
    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=(3, 1),
        objects={
            "toy_far": W.ObjectState("toy_far", "toy", "cell:6,0"),
            "toy_near": W.ObjectState("toy_near", "toy", "cell:2,0"),
        },
    )
    goal = W.GoalSpec(strict={"toy": ("box_1",)}, relaxed={"toy": ("box_1",)})
    plan = plan_tidy_task(world, goal, "strict")
    picks = [s for s in plan if s.startswith("pick_up")]
    assert picks == ["pick_up:toy_near", "pick_up:toy_far"]


def _tidy_world(rng):
    """A room with random shelves, boxes, tables and walls, loose objects
    whose ids do not follow their order in the world, perhaps one held
    object, broken fixtures, an abandoned flag and a goal variant.
    Crowded rooms give equal-length routes and walled-off objects."""
    width, height = rng.randint(1, 7), rng.randint(1, 7)
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    fixture_count = rng.randint(0, len(cells) // 2)
    fixtures = []
    for i, cell in enumerate(cells[:fixture_count]):
        kind = ("shelf", "box")[i] if i < 2 else rng.choice(
            ("shelf", "box", "table", "wall", "wall", "wall"))
        if kind == "shelf":
            slots = tuple(f"s{i}_{j}" for j in range(rng.randint(1, 2)))
            fixtures.append(W.Fixture(f"shelf_{i}", cell, "book", slots=slots))
        elif kind == "box":
            capacity = rng.choice((None, 1, 2))
            fixtures.append(W.Fixture(f"box_{i}", cell, "toy", capacity=capacity))
        else:
            accepts = "book" if kind == "table" else "wall"
            fixtures.append(W.Fixture(f"{kind}_{i}", cell, accepts))
    layout = W.RoomLayout(width, height, tuple(fixtures))
    free = cells[fixture_count:] or cells
    targets = [f"fixture:{f.id}" for f in fixtures if not f.slots]
    targets += [f"slot:{s}" for f in fixtures for s in f.slots]
    objects = {}
    for n in rng.sample(range(20), rng.randint(0, 9)):
        kind = rng.choice(("book", "toy"))
        roll = rng.random()
        if roll < 0.1 and targets:
            location = rng.choice(targets)
        elif roll < 0.15:
            location = W.cell_loc(rng.choice(cells))
        else:
            location = W.cell_loc(rng.choice(free))
        objects[f"{kind}_{n}"] = W.ObjectState(f"{kind}_{n}", kind, location)
    holding = None
    if objects and rng.random() < 0.3:
        holding = rng.choice(sorted(objects))
        objects[holding] = dataclasses.replace(objects[holding], location="held")
    ids = [f.id for f in fixtures]
    world = W.WorldState(
        tick=rng.randint(0, 50),
        layout=layout,
        agent_pos=rng.choice(free),
        agent_holding=holding,
        objects=objects,
        broken_fixtures=frozenset(i for i in ids if rng.random() < 0.2),
        abandoned=rng.random() < 0.05,
    )
    shelves = tuple(i for i in ids if i.startswith("shelf"))
    tables = tuple(i for i in ids if i.startswith("table"))
    boxes = tuple(i for i in ids if i.startswith("box"))
    goal = W.GoalSpec(
        strict={"book": shelves, "toy": boxes},
        relaxed={"book": shelves + tables, "toy": boxes},
    )
    return world, goal, rng.choice(("strict", "relaxed"))


def _detour_tie():
    # toy_2 is nearer by Manhattan distance, but a wall at (1, 0) makes
    # its route as long as toy_1's straight one: the tie goes to toy_1,
    # which is searched only because its bound equals the best length.
    layout = W.RoomLayout(3, 5, (
        W.Fixture("box_1", (2, 4), "toy"), W.Fixture("wall_1", (1, 0), "wall"),
    ))
    world = W.WorldState(tick=0, layout=layout, agent_pos=(0, 0), objects={
        "toy_2": W.ObjectState("toy_2", "toy", "cell:2,0"),
        "toy_1": W.ObjectState("toy_1", "toy", "cell:0,4"),
    })
    goal = W.GoalSpec(strict={"toy": ("box_1",)}, relaxed={"toy": ("box_1",)})
    return world, goal, "strict"


@seed(20211016)
@settings(max_examples=400, deadline=None, database=None)
@given(case=st.randoms(use_true_random=False).map(_tidy_world))
@example(case=_detour_tie())
def test_plan_matches_the_exhaustive_candidate_search(case):
    world, goal, variant = case
    expected = reference_plan_tidy_task(world, goal, variant)
    for min_steps in (None, 1, 2, 3, 7, 1000):
        got = plan_tidy_task(world, goal, variant, min_steps=min_steps)
        assert got == _leg_prefix(expected, min_steps), min_steps


def _leg_prefix(plan, min_steps):
    """The shortest prefix of the plan that ends with a ``place:`` step and
    has at least ``min_steps`` steps; the whole plan when there is none
    or ``min_steps`` is None."""
    if plan is None or min_steps is None:
        return plan
    for end, step in enumerate(plan, 1):
        if end >= min_steps and step.startswith("place:"):
            return plan[:end]
    return plan


def _free_target_case(rng):
    """A drawn room whose slots and bulk fixtures hold up to two more
    objects each (often of the accepted kind, so capacities fill), an
    object of any kind and an allowance that may name any fixture, in
    any order, or an undeclared one."""
    world, _, _ = _tidy_world(rng)
    objects = dict(world.objects)
    for f in world.layout.fixtures:
        for location in [f"slot:{s}" for s in f.slots] or [f"fixture:{f.id}"]:
            for _ in range(rng.randint(0, 2)):
                n = len(objects)
                kind = rng.choice((f.accepts, "book", "toy"))
                objects[f"extra_{n}"] = W.ObjectState(f"extra_{n}", kind, location)
    ids = [f.id for f in world.layout.fixtures] + ["ghost"]
    allowed = tuple(rng.sample(ids, rng.randint(0, min(len(ids), 4))))
    obj = W.ObjectState("new_1", rng.choice(("book", "toy") * 2 + ("wall",)), "held")
    return dataclasses.replace(world, objects=objects), obj, allowed


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(case=st.randoms(use_true_random=False).map(_free_target_case))
def test_free_target_matches_the_planner_s_former_checks(case):
    world, obj, allowed = case
    location = _free_target(world, obj, allowed)
    expected = reference_free_target(world, obj, allowed)
    assert (None if location is None else location.partition(":")[2]) == expected
    if location is not None:
        assert W.placement_problem(world, obj.kind, location) is None


def _walled_room(toys: int):
    """Bundled ``room_tidy`` on a 128 x 128 grid, with ``box_1`` in a corner
    pocket that no path enters and ``toys`` more toys: no toy can be
    delivered."""
    doc = json.loads(bundled_document("room_tidy"))
    start, fixtures = doc["starting_state"], doc["ontology"]["fixtures"]
    start["grid"] = [128, 128]
    for fixture in fixtures:
        if fixture["id"] == "box_1":
            fixture["cell"] = [127, 127]
    fixtures += [{"id": f"wall_{i}", "cell": cell, "accepts": "book"}
                 for i, cell in enumerate([[125, 127], [125, 126], [126, 125], [127, 125]])]
    start["objects"] += [{"id": f"toy_{i}", "kind": "toy", "location": {"cell": [3 * i, 9]}}
                         for i in range(3, 3 + toys)]
    return instantiate(parse_scenario(json.dumps(doc)), seed=1)


class _CountingDeque(deque):
    """``bfs_path``'s queue, counting the cells it expands."""

    expanded = 0

    def popleft(self):
        _CountingDeque.expanded += 1
        return super().popleft()


def test_an_unreachable_component_is_searched_once_per_plan(monkeypatch):
    # Each of the 14 toys is picked up and its delivery searched.  Without
    # the failed searches' components every delivery searches the grid.
    state, cells = _walled_room(toys=12), 128 * 128
    monkeypatch.setattr(planner, "deque", _CountingDeque)
    search, counts, plans = planner.bfs_path, [], []
    for forget in (False, True):
        if forget:
            monkeypatch.setattr(planner, "bfs_path",
                                lambda layout, start, goals, dead=None:
                                search(layout, start, goals))
        _CountingDeque.expanded = 0
        plans.append(plan_tidy_task(state.world, state.goal, "strict"))
        counts.append(_CountingDeque.expanded)
    assert plans[0] == plans[1] and plans[0] is not None
    assert counts[0] < 3 * cells < 12 * cells < counts[1]
