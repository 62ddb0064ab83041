import dataclasses
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import world as W
from cogsim.errors import IllegalAction


def test_idle_preserves_placements(small_world):
    after = W.apply_action(small_world, "idle")
    assert after.tick == small_world.tick + 1
    assert after.objects == small_world.objects
    assert after.agent_pos == small_world.agent_pos


def test_move_updates_position(small_world):
    after = W.apply_action(small_world, "move:north")
    assert after.agent_pos == (1, 0)
    assert after.tick == small_world.tick + 1


def test_move_out_of_bounds_rejected(small_world):
    world = dataclasses.replace(small_world, agent_pos=(1, 2))
    with pytest.raises(IllegalAction):
        W.apply_action(world, "move:south")


def test_move_into_fixture_rejected(small_world):
    world = dataclasses.replace(small_world, agent_pos=(0, 1))
    with pytest.raises(IllegalAction):
        W.apply_action(world, "move:north")


def test_pick_up_adjacent_object(small_world):
    # Hand-stepped on the 3x3 grid: agent (1,1), book at (0,1) is adjacent.
    after = W.apply_action(small_world, "pick_up:book_1")
    assert after.agent_holding == "book_1"
    assert after.objects["book_1"].location == "held"


def test_pick_up_not_adjacent_rejected(small_world):
    with pytest.raises(IllegalAction):
        W.apply_action(small_world, "pick_up:toy_1")


def test_pick_up_while_holding_rejected(small_world):
    holding = W.apply_action(small_world, "pick_up:book_1")
    step = W.apply_action(holding, "move:east")
    step = W.apply_action(step, "move:south")
    with pytest.raises(IllegalAction):
        W.apply_action(step, "pick_up:toy_1")


def test_place_on_broken_fixture_rejected(small_world):
    world = W.apply_action(small_world, "pick_up:book_1")
    world = W.apply_action(world, "move:north")  # (1,0), adjacent to shelf
    world = dataclasses.replace(world, broken_fixtures=frozenset({"shelf_1"}))
    with pytest.raises(IllegalAction, match="broken"):
        W.apply_action(world, "place:shelf_slot_1")


def test_place_on_full_slot_rejected(small_world):
    world = dataclasses.replace(
        small_world,
        objects={
            **small_world.objects,
            "book_2": W.ObjectState(
                id="book_2", kind="book", location="slot:shelf_slot_1"
            ),
        },
    )
    world = W.apply_action(world, "pick_up:book_1")
    world = W.apply_action(world, "move:north")
    with pytest.raises(IllegalAction, match="full"):
        W.apply_action(world, "place:shelf_slot_1")
    placed = W.apply_action(world, "place:shelf_slot_2")
    assert placed.objects["book_1"].location == "slot:shelf_slot_2"
    assert placed.agent_holding is None


def test_place_wrong_kind_rejected(small_world):
    world = dataclasses.replace(small_world, agent_pos=(2, 1))
    world = W.apply_action(world, "move:south")
    world = W.apply_action(world, "pick_up:toy_1")
    world = W.apply_action(world, "move:north")  # back to (2,1), box adjacent
    placed = W.apply_action(world, "place:box_1")
    assert placed.objects["toy_1"].location == "fixture:box_1"
    world2 = W.apply_action(small_world, "pick_up:book_1")
    world2 = dataclasses.replace(world2, agent_pos=(2, 1))
    with pytest.raises(IllegalAction, match="accept"):
        W.apply_action(world2, "place:box_1")


# An action naming no object or target of the world is illegal, as any
# other refused action is, so the agent idles instead and traces why.
def test_pick_up_of_an_unknown_object_rejected(small_world):
    with pytest.raises(IllegalAction, match="^unknown object: ghost$"):
        W.apply_action(small_world, "pick_up:ghost")


def test_place_on_an_unknown_target_rejected(small_world):
    holding = W.apply_action(small_world, "pick_up:book_1")
    with pytest.raises(IllegalAction, match="^unknown placement target: nowhere$"):
        W.apply_action(holding, "place:nowhere")


def test_abandon_is_terminal(small_world):
    after = W.apply_action(small_world, "abandon")
    assert after.abandoned
    assert W.apply_action(after, "idle").tick == after.tick + 1
    for action in ("move:north", "pick_up:book_1", "abandon"):
        with pytest.raises(IllegalAction):
            W.apply_action(after, action)


def test_step_events_empty_schedule(small_world):
    after, fired, _ = W.step_events(small_world, [])
    assert after == small_world
    assert fired == []


def test_step_events_break_at_matching_tick(small_world):
    event = W.WorldEvent(
        fire_tick=0, effect={"kind": "break_fixture", "fixture": "shelf_1"}
    )
    after, fired, _ = W.step_events(small_world, [event])
    assert "shelf_1" in after.broken_fixtures
    assert fired == [event]
    later = dataclasses.replace(small_world, tick=1)
    unchanged, fired, _ = W.step_events(later, [event])
    assert fired == []
    assert unchanged.broken_fixtures == frozenset()


def test_step_events_same_tick_order_matches_one_by_one_replay(small_world):
    events = [
        W.WorldEvent(0, {"kind": "break_fixture", "fixture": "shelf_1"}),
        W.WorldEvent(
            0,
            {
                "kind": "spawn_object",
                "object": {"id": "toy_9", "kind": "toy", "location": "cell:1,2"},
            },
        ),
        W.WorldEvent(0, {"kind": "remove_object", "object_id": "toy_9"}),
    ]
    batched, fired, _ = W.step_events(small_world, events)
    # independent oracle: replay each event alone, in declaration order
    replayed = small_world
    for event in events:
        replayed, _, _ = W.step_events(replayed, [event])
    assert batched == replayed
    assert fired == events


def test_step_events_unknown_entity(small_world):
    event = W.WorldEvent(0, {"kind": "break_fixture", "fixture": "ghost"})
    after, fired, rejected = W.step_events(small_world, [event])
    assert rejected == [(event, "DANGLING_REF", "undeclared fixture: ghost")]
    assert fired == []
    assert after == small_world


def _spawn(object_id, location, kind="book"):
    return {"kind": "spawn_object",
            "object": {"id": object_id, "kind": kind, "location": location}}


@pytest.mark.parametrize("effect, problem", [
    ({"kind": "break_fixture", "fixture": "ghost"},
     ("DANGLING_REF", "undeclared fixture: ghost")),
    ({"kind": "remove_object", "object_id": "ghost"},
     ("DANGLING_REF", "undeclared object: ghost")),
    (_spawn("book_1", "cell:1,2"), ("DUPLICATE_OBJECT", "object already present: book_1")),
    (_spawn("book_9", "slot:nope"), ("DANGLING_REF", "undeclared slot: nope")),
    (_spawn("book_9", "fixture:nope"), ("DANGLING_REF", "undeclared fixture: nope")),
    (_spawn("book_9", "cell:3,1"),
     ("OUT_OF_BOUNDS", "object placed on unusable cell (3, 1)")),
    (_spawn("book_9", "cell:-1,0"),
     ("OUT_OF_BOUNDS", "object placed on unusable cell (-1, 0)")),
    (_spawn("book_9", "cell:0,0"),  # under the shelf
     ("OUT_OF_BOUNDS", "object placed on unusable cell (0, 0)")),
    (_spawn("book_9", "slot:shelf_slot_1"),
     ("SLOT_CONFLICT", "slot shelf_slot_1 already holds book_2")),
    (_spawn("book_9", "slot:shelf_slot_2"), None),
    (_spawn("toy_9", "fixture:box_1", "toy"), None),
    (_spawn("book_9", "cell:1,2"), None),
    ({"kind": "break_fixture", "fixture": "shelf_1"}, None),
    ({"kind": "remove_object", "object_id": "book_2"}, None),
    (_spawn("book_9", "fixture:box_1"),
     ("WRONG_KIND", "fixture box_1 does not accept kind book")),
    (_spawn("toy_9", "slot:shelf_slot_2", "toy"),
     ("WRONG_KIND", "fixture shelf_1 does not accept kind toy")),
    # The kind is checked before the slot's holder.
    (_spawn("toy_9", "slot:shelf_slot_1", "toy"),
     ("WRONG_KIND", "fixture shelf_1 does not accept kind toy")),
    # A bulk fixture holds at most its capacity, as for ``place``.
    (_spawn("toy_9", "fixture:bin_1", "toy"),
     ("SLOT_CONFLICT", "fixture bin_1 is full (capacity 1)")),
    (_spawn("book_9", "fixture:bin_1"),
     ("WRONG_KIND", "fixture bin_1 does not accept kind book")),
    (_spawn("toy_9", "fixture:crate_1", "toy"), None),
    # A slot-addressed fixture takes objects only in its slots, as for
    # ``place``; the kind is checked first.
    (_spawn("book_9", "fixture:shelf_1"),
     ("SLOT_CONFLICT", "fixture shelf_1 is slot-addressed: name a slot")),
    (_spawn("toy_9", "fixture:shelf_1", "toy"),
     ("WRONG_KIND", "fixture shelf_1 does not accept kind toy")),
    # A broken fixture takes nothing, as for ``place``: into a slot of a
    # broken shelf or into a broken bulk fixture.
    (_spawn("book_9", "slot:ledge_slot_1"),
     ("BROKEN_FIXTURE", "fixture ledge_1 is broken")),
    (_spawn("toy_9", "fixture:bin_2", "toy"),
     ("BROKEN_FIXTURE", "fixture bin_2 is broken")),
    # The break is checked before the kind, the slot's holder and the
    # slot-addressing.
    (_spawn("toy_9", "slot:ledge_slot_1", "toy"),
     ("BROKEN_FIXTURE", "fixture ledge_1 is broken")),
    (_spawn("book_9", "slot:ledge_slot_2"),
     ("BROKEN_FIXTURE", "fixture ledge_1 is broken")),
    (_spawn("book_9", "fixture:ledge_1"),
     ("BROKEN_FIXTURE", "fixture ledge_1 is broken")),
])
def test_effect_problem(small_world, effect, problem):
    # bin_1 is full at capacity 1; crate_1 has room left at capacity 2.
    # ledge_1 (ledge_slot_2 held) and bin_2 are broken; fixture cells play
    # no part in these checks.
    layout = dataclasses.replace(small_world.layout, fixtures=(
        *small_world.layout.fixtures,
        W.Fixture("bin_1", (1, 0), "toy", capacity=1),
        W.Fixture("crate_1", (2, 1), "toy", capacity=2),
        W.Fixture("ledge_1", (0, 2), "book", slots=("ledge_slot_1", "ledge_slot_2")),
        W.Fixture("bin_2", (2, 2), "toy"),
    ))
    world = dataclasses.replace(small_world, layout=layout, objects={
        **small_world.objects,
        "book_2": W.ObjectState("book_2", "book", "slot:shelf_slot_1"),
        "toy_2": W.ObjectState("toy_2", "toy", "fixture:bin_1"),
        "toy_3": W.ObjectState("toy_3", "toy", "fixture:crate_1"),
        "book_3": W.ObjectState("book_3", "book", "slot:ledge_slot_2"),
    }, broken_fixtures=frozenset({"ledge_1", "bin_2"}))
    assert W.effect_problem(world, effect) == problem


@st.composite
def _placements(draw):
    """A world whose agent, at (1, 1), holds an object next to up to three
    fixtures (slot-addressed or bulk, of either kind, perhaps full or
    broken, holding objects of either kind), and a location in one of
    them: a slot, or a fixture named whole."""
    kinds = st.sampled_from(("book", "toy"))
    cells = draw(st.permutations([(1, 0), (0, 1), (2, 1), (1, 2)]))
    fixtures, locations = [], []
    for i in range(draw(st.integers(1, 3))):
        slots = tuple(f"f{i}_s{j}" for j in range(draw(st.integers(0, 2))))
        capacity = None if slots else draw(st.sampled_from((None, 1, 2)))
        fixtures.append(W.Fixture(f"f{i}", cells[i], draw(kinds), slots, capacity))
        locations += [f"fixture:f{i}", *(f"slot:{s}" for s in slots)]
    objects = {"held_1": W.ObjectState("held_1", draw(kinds), "held")}
    for n, location in enumerate(draw(st.lists(st.sampled_from(locations), max_size=4))):
        objects[f"o{n}"] = W.ObjectState(f"o{n}", draw(kinds), location)
    broken = draw(st.sets(st.sampled_from([f.id for f in fixtures])))
    world = W.WorldState(tick=0, layout=W.RoomLayout(3, 3, tuple(fixtures)),
                         agent_pos=(1, 1), agent_holding="held_1", objects=objects,
                         broken_fixtures=frozenset(broken))
    return world, draw(st.sampled_from(locations))


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(case=_placements())
def test_place_succeeds_exactly_where_a_spawn_may_go(case):
    # One placement rule: an adjacent agent can place the object it holds
    # exactly where a spawn of that object passes, broken fixtures included.
    world, location = case
    held = world.object("held_1")
    try:
        placed = W.apply_action(world, f"place:{location.partition(':')[2]}")
    except IllegalAction:
        placed = None
    else:
        assert placed.objects["held_1"].location == location
    before = world._replace(agent_holding=None, objects={
        k: o for k, o in world.objects.items() if k != "held_1"})
    spawn = {"kind": "spawn_object",
             "object": {"id": "held_1", "kind": held.kind, "location": location}}
    assert (placed is not None) == (W.effect_problem(before, spawn) is None)


def test_fixture_at_resolves_slot_and_fixture_locations(small_layout):
    shelf, box = small_layout.fixtures
    assert small_layout.fixture_at("slot:shelf_slot_2") is shelf
    assert small_layout.fixture_at("fixture:shelf_1") is shelf
    assert small_layout.fixture_at("fixture:box_1") is box
    for location in ("slot:box_1", "fixture:shelf_slot_1", "cell:0,0", "held", "slot:"):
        assert small_layout.fixture_at(location) is None
    moved = dataclasses.replace(small_layout, fixtures=(box,))
    assert moved.fixture_at("slot:shelf_slot_2") is None


def test_evaluate_goal_all_placed(small_world, small_goal):
    world = dataclasses.replace(
        small_world,
        objects={
            "book_1": W.ObjectState("book_1", "book", "slot:shelf_slot_1"),
            "toy_1": W.ObjectState("toy_1", "toy", "fixture:box_1"),
        },
    )
    status = W.evaluate_goal(world, small_goal)
    assert status.strict and status.relaxed and status.misplaced_count == 0


def test_evaluate_goal_relaxed_only():
    layout = W.RoomLayout(
        width=4,
        height=2,
        fixtures=(
            W.Fixture("shelf_1", (0, 0), "book", slots=("s1",)),
            W.Fixture("table_1", (3, 0), "book"),
        ),
    )
    goal = W.GoalSpec(
        strict={"book": ("shelf_1",)},
        relaxed={"book": ("shelf_1", "table_1")},
    )
    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=(1, 1),
        objects={"book_1": W.ObjectState("book_1", "book", "fixture:table_1")},
    )
    status = W.evaluate_goal(world, goal)
    assert not status.strict and status.relaxed
    assert status.misplaced_count == 1


def test_evaluate_goal_one_on_floor(small_world, small_goal):
    world = dataclasses.replace(
        small_world,
        objects={
            "book_1": W.ObjectState("book_1", "book", "cell:1,2"),
            "toy_1": W.ObjectState("toy_1", "toy", "fixture:box_1"),
        },
    )
    status = W.evaluate_goal(world, small_goal)
    assert not status.strict and not status.relaxed
    assert status.misplaced_count == 1


ACTIONS = (
    "idle",
    "move:north",
    "move:south",
    "move:east",
    "move:west",
    "pick_up:book_1",
    "pick_up:toy_1",
    "place:shelf_slot_1",
    "place:shelf_slot_2",
    "place:box_1",
)


def _apply_many(world, actions):
    applied = []
    for action in actions:
        try:
            world = W.apply_action(world, action)
            applied.append(action)
        except IllegalAction:
            pass
    return world, applied


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(ACTIONS), max_size=25))
def test_object_conservation_under_random_actions(actions):
    layout = W.RoomLayout(
        width=3,
        height=3,
        fixtures=(
            W.Fixture("shelf_1", (0, 0), "book", slots=("shelf_slot_1", "shelf_slot_2")),
            W.Fixture("box_1", (2, 0), "toy"),
        ),
    )
    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=(1, 1),
        objects={
            "book_1": W.ObjectState("book_1", "book", "cell:0,1"),
            "toy_1": W.ObjectState("toy_1", "toy", "cell:2,2"),
        },
    )
    after, _ = _apply_many(world, actions)
    assert sorted(after.objects) == sorted(world.objects)
    # every object is in exactly one place
    held = [o.id for o in after.objects.values() if o.location == "held"]
    assert len(held) <= 1
    assert (after.agent_holding in held) if held else after.agent_holding is None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ACTIONS), max_size=25),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_goal_entailment_on_reachable_worlds(actions, seed):
    layout = W.RoomLayout(
        width=3,
        height=3,
        fixtures=(
            W.Fixture("shelf_1", (0, 0), "book", slots=("shelf_slot_1", "shelf_slot_2")),
            W.Fixture("box_1", (2, 0), "toy"),
        ),
    )
    rng = random.Random(seed)
    cells = [(x, y) for x in range(3) for y in range(3) if layout.passable((x, y))]
    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=rng.choice(cells),
        objects={
            "book_1": W.ObjectState("book_1", "book", W.cell_loc(rng.choice(cells))),
            "toy_1": W.ObjectState("toy_1", "toy", W.cell_loc(rng.choice(cells))),
        },
    )
    goal = W.GoalSpec(
        strict={"book": ("shelf_1",), "toy": ("box_1",)},
        relaxed={"book": ("shelf_1", "box_1"), "toy": ("box_1",)},
    )
    after, _ = _apply_many(world, actions)
    status = W.evaluate_goal(after, goal)
    if status.strict:
        assert status.relaxed
    assert (status.misplaced_count == 0) == status.strict


def test_determinism_equal_inputs_equal_outputs(small_world):
    first = W.apply_action(small_world, "pick_up:book_1")
    second = W.apply_action(small_world, "pick_up:book_1")
    assert first == second


def test_monotone_breakage(small_world):
    event = W.WorldEvent(0, {"kind": "break_fixture", "fixture": "shelf_1"})
    broken, _, _ = W.step_events(small_world, [event])
    assert small_world.broken_fixtures <= broken.broken_fixtures


def test_cached_fixture_cells_follow_the_fields(small_layout):
    # The cache lives outside the dataclass fields: equality and hashing
    # ignore it, and a replaced layout computes its own.
    fresh = dataclasses.replace(small_layout)
    assert not small_layout.passable((0, 0)) and small_layout.passable((1, 0))
    assert small_layout == fresh and hash(small_layout) == hash(fresh)
    moved = dataclasses.replace(
        small_layout, fixtures=(W.Fixture("box_1", (1, 0), "toy"),)
    )
    assert moved.fixture_cells == {(1, 0)}
    assert moved.passable((0, 0)) and not moved.passable((1, 0))
    assert small_layout.fixture_cells == {(0, 0), (2, 0)}


# One new value per WorldState field, each unequal to small_world's.
WORLD_CHANGES = {
    "tick": 7,
    "layout": W.RoomLayout(width=4, height=4),
    "agent_pos": (2, 2),
    "agent_holding": "book_1",
    "objects": {},
    "broken_fixtures": frozenset({"shelf_1"}),
    "abandoned": True,
    "facts": {"situation_office_row": True},
}


def test_replace_matches_dataclasses_replace_on_every_field(small_world):
    assert WORLD_CHANGES.keys() == {f.name for f in dataclasses.fields(W.WorldState)}
    before = dict(small_world.__dict__)
    for name, value in WORLD_CHANGES.items():
        changed = small_world._replace(**{name: value})
        assert changed == dataclasses.replace(small_world, **{name: value})
        assert changed != small_world and getattr(changed, name) is value
    both = small_world._replace(tick=3, abandoned=True)
    assert both == dataclasses.replace(small_world, tick=3, abandoned=True)
    assert small_world.__dict__.keys() == before.keys()
    assert all(getattr(small_world, k) is v for k, v in before.items())


def test_replace_rejects_an_unknown_field(small_world):
    with pytest.raises(TypeError):
        dataclasses.replace(small_world, holding="book_1")
    with pytest.raises(TypeError):
        small_world._replace(tick=1, holding="book_1")
