"""Deterministic gridworld for the room-tidying task.

The world is a small bounded grid containing an agent, loose objects
(books and toys by default), and fixtures (a shelf with single-book
slots, a table, a box).  All operations are pure: they take a world
value and return a new one, so equal inputs always produce equal
outputs and hypothetical rollouts can never leak into the live world.

Locations and actions are encoded as plain strings so they are cheap
to compare, order, and serialize:

    locations   "cell:X,Y" | "slot:SLOT_ID" | "fixture:FIXTURE_ID" | "held"
    actions     "idle" | "abandon" | "move:DIR" | "pick_up:OBJ" | "place:TARGET"

``TARGET`` is a slot id for slot-addressed fixtures and a fixture id
for bulk fixtures.  Any other string is treated by the agent layer as
an abstract (non-spatial) act and leaves the grid untouched.

Every scheduled event passes :func:`effect_problem` first: a run skips
one it rejects, and scenario validation replays the schedule through it.
Where an object may go into a fixture is :func:`placement_problem`, the
one rule that ``place``, events, starting objects and the planner obey.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter

from .errors import IllegalAction, UnknownEntity

DIRECTIONS: dict[str, tuple[int, int]] = {
    "north": (0, -1),
    "south": (0, 1),
    "east": (1, 0),
    "west": (-1, 0),
}

WORLD_ACTION_KINDS = ("move", "pick_up", "place", "idle", "abandon")


@dataclass(frozen=True)
class Fixture:
    """A placement target occupying one impassable grid cell.

    A fixture with ``slots`` is slot-addressed (each slot holds one
    object); otherwise ``capacity`` bounds how many objects it holds,
    with ``None`` meaning unlimited.
    """

    id: str
    cell: tuple[int, int]
    accepts: str
    slots: tuple[str, ...] = ()
    capacity: int | None = None


@dataclass(frozen=True)
class RoomLayout:
    """Static room geometry: grid size and fixture placement.

    The fixture cells are computed once per layout and cached on the
    instance (outside the dataclass fields, so equality, hashing and
    ``replace`` ignore the cache).
    """

    width: int
    height: int
    fixtures: tuple[Fixture, ...] = ()

    @cached_property
    def fixture_cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(f.cell for f in self.fixtures)

    def fixture_at(self, location: str) -> Fixture | None:
        """The fixture of a ``"slot:ID"`` or ``"fixture:ID"`` location, or
        None for an undeclared id or any other location."""
        return self._fixture_locations.get(location)

    @cached_property
    def _fixture_locations(self) -> dict[str, Fixture]:
        out: dict[str, Fixture] = {}
        for f in self.fixtures:  # the first declaration of an id wins
            for location in (f"fixture:{f.id}", *(f"slot:{s}" for s in f.slots)):
                out.setdefault(location, f)
        return out

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return (
            0 <= x < self.width
            and 0 <= y < self.height
            and cell not in self.fixture_cells
        )


@dataclass(frozen=True)
class ObjectState:
    id: str
    kind: str
    location: str


@dataclass(frozen=True)
class WorldState:
    """One instant of the simulated room.

    ``facts`` carries non-spatial situation features (used by abstract,
    one-cell scenarios whose content lives entirely in the agent's
    rules).  ``abandoned`` latches once the agent walks out: from then
    on only ``idle`` is legal.
    """

    tick: int
    layout: RoomLayout
    agent_pos: tuple[int, int]
    agent_holding: str | None = None
    objects: dict[str, ObjectState] = field(default_factory=dict)
    broken_fixtures: frozenset[str] = frozenset()
    abandoned: bool = False
    facts: dict[str, object] = field(default_factory=dict)

    def object(self, object_id: str) -> ObjectState:
        try:
            return self.objects[object_id]
        except KeyError:
            raise UnknownEntity(f"unknown object: {object_id}") from None

    def _replace(self, **changes) -> "WorldState":
        """``dataclasses.replace(self, **changes)``, by copying the
        instance dict: ``replace`` walks ``fields()`` and runs
        ``__init__`` on every call, and every tick and rollout step makes
        a successor world."""
        if not _WORLD_FIELDS.issuperset(changes):
            unknown = sorted(changes.keys() - _WORLD_FIELDS)
            raise TypeError(f"WorldState has no field {unknown[0]!r}")
        new = object.__new__(WorldState)
        attrs = new.__dict__
        attrs.update(self.__dict__)
        attrs.update(changes)
        return new


_WORLD_FIELDS = frozenset(f.name for f in fields(WorldState))
# Every field of a world but its tick, as a tuple.
but_tick = attrgetter(*(f.name for f in fields(WorldState) if f.name != "tick"))


def same_but_tick(a: WorldState, b: WorldState) -> bool:
    """Whether two worlds agree on every field except ``tick``: what a
    plan, a goal evaluation or a perception of them reads is the same."""
    return but_tick(a) == but_tick(b)


@dataclass(frozen=True)
class WorldEvent:
    """A scheduled exogenous change, fixed at scenario load."""

    fire_tick: int
    effect: dict


@dataclass(frozen=True)
class GoalSpec:
    """Placement conditions per object kind, in a strict and a relaxed form.

    Each map sends an object kind to the fixture ids where that kind
    counts as correctly placed.  The strict map must entail the relaxed
    one (strict allowances are a subset of relaxed allowances).
    """

    strict: dict[str, tuple[str, ...]]
    relaxed: dict[str, tuple[str, ...]]
    deadline_tick: int | None = None

    def entails(self) -> bool:
        for kind, allowed in self.strict.items():
            if not set(allowed) <= set(self.relaxed.get(kind, ())):
                return False
        return True


@dataclass(frozen=True)
class GoalStatus:
    strict: bool
    relaxed: bool
    misplaced_count: int


# -- location / action string helpers ---------------------------------------


def cell_loc(cell: tuple[int, int]) -> str:
    return f"cell:{cell[0]},{cell[1]}"


def parse_cell(location: str) -> tuple[int, int] | None:
    if not location.startswith("cell:"):
        return None
    x, y = location[5:].split(",")
    return int(x), int(y)


def split_action(action: str) -> tuple[str, str | None]:
    if ":" in action:
        kind, arg = action.split(":", 1)
        return kind, arg
    return action, None


def is_world_action(action: str) -> bool:
    kind, arg = split_action(action)
    if kind not in WORLD_ACTION_KINDS:
        return False
    if kind in ("idle", "abandon"):
        return arg is None
    return arg is not None and (kind != "move" or arg in DIRECTIONS)


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def placement_problem(
    world: WorldState, kind: str, location: str
) -> tuple[str, str, str] | None:
    """Why an object of ``kind`` cannot go to a ``"slot:ID"`` or
    ``"fixture:ID"`` location, as ``(code, reason, refusal)``, or None.

    The one placement rule: ``place`` raises the ``refusal``, and an event
    or a starting object is rejected with ``code`` and ``reason``.  A
    broken fixture takes nothing.  A fixture takes only the kind it
    accepts: the planner never takes an object back out of a fixture, so
    one of another kind would stay put for good.  A slot holds one
    object, a slot-addressed fixture takes objects only through its
    slots, and a bulk fixture holds at most ``capacity``.
    """
    fixture = world.layout.fixture_at(location)
    where, _, name = location.partition(":")
    if fixture is None:
        return ("DANGLING_REF", f"undeclared {where}: {name}",
                f"unknown placement target: {name}")
    if fixture.id in world.broken_fixtures:
        return "BROKEN_FIXTURE", f"fixture {fixture.id} is broken", "fixture broken"
    if fixture.accepts != kind:
        return ("WRONG_KIND", f"fixture {fixture.id} does not accept kind {kind}",
                f"fixture does not accept kind {kind}")
    holders = [o.id for o in world.objects.values() if o.location == location]
    if where == "slot":
        if holders:
            return "SLOT_CONFLICT", f"slot {name} already holds {holders[0]}", "slot full"
    elif fixture.slots:
        return ("SLOT_CONFLICT", f"fixture {name} is slot-addressed: name a slot",
                "fixture is slot-addressed: name a slot")
    elif fixture.capacity is not None and len(holders) >= fixture.capacity:
        return ("SLOT_CONFLICT", f"fixture {name} is full (capacity {fixture.capacity})",
                "fixture full")
    return None


# -- operations ---------------------------------------------------------------


def apply_action(world: WorldState, action: str) -> WorldState:
    """Apply one action, returning the successor world with tick + 1.

    Illegal actions raise :class:`IllegalAction`; nothing is ever
    silently coerced.
    """
    kind, arg = split_action(action)
    if kind not in WORLD_ACTION_KINDS:
        raise IllegalAction(f"not a world action: {action}")
    if world.abandoned and kind != "idle":
        raise IllegalAction("task abandoned: only idle is legal")

    if kind == "idle":
        return world._replace(tick=world.tick + 1)

    if kind == "abandon":
        return world._replace(tick=world.tick + 1, abandoned=True)

    if kind == "move":
        if arg not in DIRECTIONS:
            raise IllegalAction(f"unknown direction: {arg}")
        dx, dy = DIRECTIONS[arg]
        dest = (world.agent_pos[0] + dx, world.agent_pos[1] + dy)
        if not world.layout.in_bounds(dest):
            raise IllegalAction("move out of bounds")
        if dest in world.layout.fixture_cells:
            raise IllegalAction("cell occupied by fixture")
        return world._replace(tick=world.tick + 1, agent_pos=dest)

    if kind == "pick_up":
        if world.agent_holding is not None:
            raise IllegalAction("already holding an object")
        obj = world.objects.get(arg)  # type: ignore[arg-type]
        if obj is None:
            raise IllegalAction(f"unknown object: {arg}")
        cell = parse_cell(obj.location)
        if cell is None:
            if obj.location == "held":
                raise IllegalAction("object already held")
            # In a fixture: stand next to the fixture to take it back out.
            fixture = world.layout.fixture_at(obj.location)
            if fixture is None:
                raise UnknownEntity(f"unknown placement target: {obj.location}")
            cell = fixture.cell
            if manhattan(world.agent_pos, cell) > 1:
                raise IllegalAction("fixture not adjacent")
        elif manhattan(world.agent_pos, cell) > 1:
            raise IllegalAction("object not adjacent")
        objects = dict(world.objects)
        objects[obj.id] = replace(obj, location="held")
        return world._replace(
            tick=world.tick + 1, agent_holding=obj.id, objects=objects
        )

    # place: the target is a fixture id, else a slot id.
    if world.agent_holding is None:
        raise IllegalAction("nothing held")
    layout = world.layout
    fixture = (layout.fixture_at(location := f"fixture:{arg}")
               or layout.fixture_at(location := f"slot:{arg}"))
    if fixture is None:
        raise IllegalAction(f"unknown placement target: {arg}")
    if manhattan(world.agent_pos, fixture.cell) > 1:
        raise IllegalAction("fixture not adjacent")
    held = world.object(world.agent_holding)
    problem = placement_problem(world, held.kind, location)
    if problem is not None:
        raise IllegalAction(problem[2])
    objects = dict(world.objects)
    objects[held.id] = replace(held, location=location)
    return world._replace(tick=world.tick + 1, agent_holding=None, objects=objects)


def step_events(
    world: WorldState, schedule: tuple[WorldEvent, ...]
) -> tuple[WorldState, list[WorldEvent], list[tuple[WorldEvent, str, str]]]:
    """Fire the events scheduled for the world's current tick, in schedule
    order; return ``(world, fired, rejected)``.

    An event that :func:`effect_problem` rejects is skipped and returned
    as ``(event, code, reason)``.  The tick counter is untouched (it
    advances with the agent's action), and because ticks pass through
    each value exactly once per run, no event can fire twice.
    """
    fired: list[WorldEvent] = []
    rejected: list[tuple[WorldEvent, str, str]] = []
    for event in schedule:
        if event.fire_tick != world.tick:
            continue
        problem = effect_problem(world, event.effect)
        if problem is None:
            world = _apply_effect(world, event.effect)
            fired.append(event)
        else:
            rejected.append((event, *problem))
    return world, fired, rejected


def effect_problem(world: WorldState, effect: dict) -> tuple[str, str] | None:
    """Why an event effect cannot apply to the world, as ``(code, reason)``,
    or None.  A run skips an event it rejects, and scenario validation
    replays the starting objects and the schedule through it.  A spawn
    into a fixture or slot obeys :func:`placement_problem`, as ``place``
    does."""
    kind, layout = effect.get("kind"), world.layout
    if kind == "break_fixture":
        if layout.fixture_at(f"fixture:{effect['fixture']}") is None:
            return "DANGLING_REF", f"undeclared fixture: {effect['fixture']}"
    elif kind == "remove_object":
        if effect["object_id"] not in world.objects:
            return "DANGLING_REF", f"undeclared object: {effect['object_id']}"
    elif kind == "spawn_object":
        spawned = effect["object"]
        if spawned["id"] in world.objects:
            return "DUPLICATE_OBJECT", f"object already present: {spawned['id']}"
        location = spawned["location"]
        if location.startswith(("slot:", "fixture:")):
            problem = placement_problem(world, spawned["kind"], location)
            if problem is not None:
                return problem[:2]
        elif location.startswith("cell:"):
            cell = parse_cell(location)
            if not layout.passable(cell):
                return "OUT_OF_BOUNDS", f"object placed on unusable cell {cell}"
    return None


def _apply_effect(world: WorldState, effect: dict) -> WorldState:
    """Apply an effect that :func:`effect_problem` accepts."""
    kind = effect.get("kind")
    if kind == "break_fixture":
        return world._replace(
            broken_fixtures=world.broken_fixtures | {effect["fixture"]}
        )
    if kind == "spawn_object":
        decl = effect["object"]
        objects = dict(world.objects)
        objects[decl["id"]] = ObjectState(decl["id"], decl["kind"], decl["location"])
        return world._replace(objects=objects)
    if kind == "remove_object":
        object_id = effect["object_id"]
        objects = dict(world.objects)
        del objects[object_id]
        holding = None if world.agent_holding == object_id else world.agent_holding
        return world._replace(objects=objects, agent_holding=holding)
    raise UnknownEntity(f"unknown event effect: {kind}")


def placed_ok(world: WorldState, obj: ObjectState, allowed: tuple[str, ...]) -> bool:
    """True iff the object sits in one of the allowed fixtures."""
    fixture = world.layout.fixture_at(obj.location)
    return fixture is not None and fixture.id in allowed


def evaluate_goal(world: WorldState, goal: GoalSpec) -> GoalStatus:
    """Evaluate both tidiness predicates plus the strict misplaced count."""
    misplaced = 0
    relaxed_ok = True
    for obj in world.objects.values():
        if not placed_ok(world, obj, goal.strict.get(obj.kind, ())):
            misplaced += 1
        if not placed_ok(world, obj, goal.relaxed.get(obj.kind, ())):
            relaxed_ok = False
    return GoalStatus(
        strict=misplaced == 0,
        relaxed=relaxed_ok,
        misplaced_count=misplaced,
    )
