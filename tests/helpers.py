"""Independent oracles shared by unit and acceptance tests."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import tracemalloc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from unittest import mock

from cogsim import agent
from cogsim import world as W
from cogsim.affect import ActionTendency, Appraisal, option_for_state, run_affective_cycle
from cogsim.arguments import Argument, argument_id, tally
from cogsim.errors import CogsimError, IllegalAction, NonFiniteForce
from cogsim.metacog import Inconsistency
from cogsim.planner import (
    _adjacent_cells,
    _deliver,
    _target_allowance,
    _walk,
    bfs_path,
    plan_tidy_task,
)
from cogsim.runner import run_simulation, trace_lines
from cogsim.scenario import BUNDLED, bundled_document, instantiate, load_bundled


def brute_force_active_set(args: list[Argument]) -> set[str]:
    """Enumerate every activation assignment and keep the one that is a
    fixed point of "active iff no active argument undercuts it"."""
    ids = [a.id for a in args]
    undercutters: dict[str, list[str]] = {a.id: [] for a in args}
    by_id = {a.id: a for a in args}
    for a in args:
        if a.undercuts is not None and a.undercuts in by_id:
            undercutters[a.undercuts].append(a.id)
    solutions = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        active = {i for i, bit in zip(ids, bits) if bit}
        ok = all(
            (i in active) == (not any(u in active for u in undercutters[i]))
            for i in ids
        )
        if ok:
            solutions.append(active)
    assert len(solutions) == 1, "acyclic undercuts must have a unique fixed point"
    return solutions[0]


def brute_force_scores(options: list[str], args: list[Argument]) -> dict[str, float]:
    active = brute_force_active_set(args)
    scores = {opt: 0.0 for opt in options}
    for a in args:
        if a.id in active and a.option in scores:
            scores[a.option] += a.weight if a.polarity == "pro" else -a.weight
    return {opt: round(v, 9) for opt, v in scores.items()}


# -- reference force rule ------------------------------------------------------
# Force and reasons as one scan of the active arguments per tendency, the
# way the engine once computed them; the force table must agree with them
# bit for bit, overflow included.


def compute_force(tendency: ActionTendency, active_args) -> float:
    """Base urgency plus net active argument weight, floored at zero.

    ``active_args`` holds the currently active arguments; only those
    about this tendency's option count.  Pure, and rounded so repeated
    runs serialize identically.  A sum that overflows raises
    :class:`NonFiniteForce`, so no infinite force reaches the trace.
    """
    net = tendency.base_urgency
    for arg in active_args:
        if arg.option != tendency.action:
            continue
        net += arg.weight if arg.polarity == "pro" else -arg.weight
    if not math.isfinite(net):
        raise NonFiniteForce(
            f"force on option {tendency.action!r} overflows: its urgency and "
            "argument weights sum past the largest float"
        )
    return round(max(0.0, net), 9)


def supporting_argument_ids(tendency: ActionTendency, active_args) -> tuple[str, ...]:
    """Active pro arguments for the tendency's option (falling back to
    any active argument about it, so explanations are never empty when
    the case mentions the option at all)."""
    # tuple() of a list: tuple() over a generator sizes its tuple by a guess
    # and shrinks it, parking one tuple per call in CPython's free lists.
    pro = tuple([
        a.id for a in active_args if a.option == tendency.action and a.polarity == "pro"
    ])
    if pro:
        return pro
    return tuple([a.id for a in active_args if a.option == tendency.action])


_bundled = functools.cache(load_bundled)


def recompute_over(
    tendencies: list[ActionTendency], args: list[Argument], active: set[str]
) -> list[ActionTendency]:
    """Run ``agent.recompute_forces`` on a pool of ``tendencies`` (none
    expired) whose argument case is ``args`` with active ids ``active``;
    return the pool, judged in place."""
    state = instantiate(_bundled("non_smoking"), seed=1)
    state.tendency_pool = list(tendencies)
    state.arguments = list(args)
    with mock.patch.object(agent, "_rebuild_case", lambda _: tally(args, active)):
        agent.recompute_forces(state)
    return state.tendency_pool


# -- reference redescription ---------------------------------------------------
# What a redescription leaves as control once made it: an argument built
# afresh, then upserted into the sticky and the case argument lists.


def reference_redescription(state, finding, library, sticky, case):
    """The (sticky, case) argument lists that upserting a freshly built
    argument leaves, for the redescription from ``library`` that
    ``control`` traced last in answer to ``finding``, from the lists
    ``sticky`` and ``case`` it found; None when the last answer was not a
    redescription."""
    applied = state.trace.events[-1].payload
    if applied.get("outcome") != "redescription":
        return None
    (entry,) = [e for e in library if e.id == applied["countermeasure"]]
    (template,) = [t for t in state.config.argument_templates
                   if t.id == entry.action["template"]]
    option = applied["option"]
    fresh = Argument(
        id=argument_id(template.id, option),
        option=option,
        polarity="con",
        weight=state.weight_overrides.get(template.id, finding.commitment.weight),
        grounds=template.grounds or (finding.commitment.atom,),
        source_process=template.process,
    )
    assert applied["argument"] == fresh.id and applied["weight"] == fresh.weight
    return ([a for a in sticky if a.id != fresh.id] + [fresh],
            [a for a in case if a.id != fresh.id] + [fresh])


def random_argument_instance(
    rng: random.Random, max_options: int = 6, max_args: int = 12
) -> tuple[list[str], list[Argument]]:
    """Random options and arguments with DAG undercuts and 0.1-grid weights."""
    option_count = rng.randint(1, max_options)
    options = [f"opt_{i}" for i in range(option_count)]
    arg_count = rng.randint(0, max_args)
    args: list[Argument] = []
    for i in range(arg_count):
        undercuts = None
        if args and rng.random() < 0.4:
            undercuts = rng.choice(args).id  # earlier targets only: acyclic
        args.append(
            Argument(
                id=f"arg_{i}",
                option=rng.choice(options),
                polarity=rng.choice(("pro", "con")),
                weight=rng.randint(0, 20) / 10.0,
                source_process="p",
                undercuts=undercuts,
            )
        )
    return options, args


def bfs_distance(layout, start, goals) -> int | None:
    """Shortest move count from start to any goal cell; None if unreachable."""
    if start in goals:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, dist = queue.popleft()
        for dx, dy in ((0, -1), (0, 1), (1, 0), (-1, 0)):
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt in seen or not layout.passable(nxt):
                continue
            if nxt in goals:
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    return None


def reference_bfs_path(layout, start, goals) -> list[str] | None:
    """Breadth-first search that copies the move list for every cell it
    discovers, with its own passability test: the planner's ``bfs_path``
    must return exactly the same moves."""
    blocked = {f.cell for f in layout.fixtures}

    def passable(cell):
        x, y = cell
        return 0 <= x < layout.width and 0 <= y < layout.height and cell not in blocked

    if start in goals:
        return []
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        cell, path = queue.popleft()
        for direction, (dx, dy) in (
            ("north", (0, -1)), ("east", (1, 0)), ("south", (0, 1)), ("west", (-1, 0))
        ):
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt in seen or not passable(nxt):
                continue
            step_path = path + [f"move:{direction}"]
            if nxt in goals:
                return step_path
            seen.add(nxt)
            queue.append((nxt, step_path))
    return None


def reference_free_target(sim, obj, allowed):
    """The planner's choice of a placement target with its own broken,
    kind, slot and capacity checks, apart from ``world.placement_problem``:
    a slot id or a fixture id, or None.  ``_free_target`` must name the
    same target."""
    for fixture_id in allowed:
        fixture = next((f for f in sim.layout.fixtures if f.id == fixture_id), None)
        if fixture is None:
            continue
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


def reference_plan_tidy_task(start, goal, variant="strict"):
    """The tidy planner with an exhaustive candidate loop: every leg
    searches a path to every remaining object, then takes the least
    ``(length, id)``.  ``plan_tidy_task`` must return the same plan."""
    sim = start
    steps: list[str] = []
    handled: set[str] = set()
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
                continue
            path = bfs_path(sim.layout, sim.agent_pos, _adjacent_cells(sim.layout, cell))
            if path is not None:
                candidates.append((len(path), obj.id, path))
        if not candidates:
            break
        _, obj_id, path = min(candidates, key=lambda c: (c[0], c[1]))
        pick_up = f"pick_up:{obj_id}"
        try:
            trial = W.apply_action(_walk(sim, path), pick_up)
        except IllegalAction:
            handled.add(obj_id)
            continue
        delivered = _deliver(trial, trial.object(obj_id), goal, variant)
        handled.add(obj_id)
        if delivered is None:
            continue
        sim, extra = delivered
        steps.extend(path)
        steps.append(pick_up)
        steps.extend(extra)
    if not steps:
        return None
    return tuple(steps)


def replay(world, steps, goal):
    """``apply_action`` over the steps, then ``evaluate_goal`` of the world
    they reach; an illegal step raises ``IllegalAction``."""
    for action in steps:
        world = W.apply_action(world, action)
    return W.evaluate_goal(world, goal)


# -- consistency check through engine objects -----------------------------------
#
# The monitor used to rebuild an ``Appraisal``, a goal change or a
# tendency from each monitored event and check that object.
# ``metacog.check_consistency`` reads the event itself and must return the
# same finding.


@dataclass(frozen=True)
class ReferenceGoalChange:
    """A newly adopted candidate goal, as the object check saw it."""

    state: str
    source_process: str
    option: str = ""


@dataclass(frozen=True)
class ReferenceTendency:
    """An injected tendency, as the object check saw it: the option is
    the payload's, which a drawn payload may set apart from the action."""

    action: str
    option: str


def reference_item_from_event(event):
    """Rebuild the checkable item a monitored trace event describes."""
    p = event.payload
    if event.kind == "AppraisalChange":
        if not p.get("active", True):
            return None  # a withdrawn appraisal asserts nothing
        return Appraisal(
            atom=p["atom"],
            valence=p["valence"],
            magnitude=p["magnitude"],
            source_process=p["process"],
            label=p.get("label", ""),
        )
    if event.kind == "GoalChange":
        if "state" not in p:
            return None  # goal-variant switches carry no desire
        return ReferenceGoalChange(
            state=p["state"],
            source_process=p.get("process") or "",
            option=p.get("option", ""),
        )
    if event.kind == "TendencyInjected":
        return ReferenceTendency(action=p["action"], option=p.get("option") or p["action"])
    return None


def reference_check_item(item, commitments, world=None, goal=None):
    """Check one rebuilt appraisal, goal change, or tendency against the
    commitments; returns the violation or None."""
    if isinstance(item, Appraisal):
        for c in commitments:
            if c.atom == item.atom and item.valence != c.required_valence:
                return Inconsistency(
                    commitment=c,
                    item_kind="appraisal",
                    atom=item.atom,
                    option=item.atom,
                    detail=f"{item.valence} appraisal of {item.atom} "
                    f"opposes committed valence {c.required_valence}",
                )
        return None

    if isinstance(item, ReferenceGoalChange):
        for c in commitments:
            if c.atom == item.state and c.required_valence == "negative":
                return Inconsistency(
                    commitment=c,
                    item_kind="goal",
                    atom=item.state,
                    option=item.option or item.state,
                    detail=f"desiring {item.state} contradicts the commitment "
                    f"against it",
                )
        return None

    if isinstance(item, ReferenceTendency):
        if not commitments:
            return None
        task_commitments = [c for c in commitments if c.required_valence == "positive"]
        if not task_commitments:
            return None
        c = task_commitments[0]
        if item.action == "abandon":
            return Inconsistency(
                commitment=c,
                item_kind="tendency",
                atom=item.action,
                option=item.option,
                detail="abandoning leaves the committed goal unreachable",
            )
        kind, arg = W.split_action(item.action)
        if kind == "pick_up" and world is not None and goal is not None:
            obj = world.objects.get(arg or "")
            if obj is not None and W.placed_ok(
                world, obj, goal.strict.get(obj.kind, ())
            ):
                return Inconsistency(
                    commitment=c,
                    item_kind="tendency",
                    atom=item.action,
                    option=item.option,
                    detail=f"picking up {obj.id} undoes a correct placement",
                )
        return None

    return None


def reference_check_consistency(event, commitments, world=None, goal=None):
    """The finding for one trace event, checked through the rebuilt item."""
    item = reference_item_from_event(event)
    if item is None:
        return None
    return reference_check_item(item, commitments, world=world, goal=goal)


# -- deliberation through process copies --------------------------------------
#
# A deliberation used to step a copy of each process, store the copy back
# and trace the difference between the two.  ``agent.deliberative_step``
# steps the process in place, traces what the step reports, and must write
# the same events.


def reference_deliberative_step(state):
    """One deliberation that steps copies of the processes and traces the
    difference between each process and its stepped copy."""
    now = state.world.tick
    planning = state.task_process() is not None and not state.world.abandoned
    plan = agent._task_plan(state) if planning else None
    focus = None

    order = sorted(range(len(state.processes)),
                   key=lambda i: state.processes[i].priority_rank)
    for index in order:
        old = state.processes[index]
        stepped = replace(
            old,
            active_appraisals=list(old.active_appraisals),
            candidate_goals=list(old.candidate_goals),
        )
        _, new_apps, new_tends = run_affective_cycle(
            stepped,
            state.beliefs,
            plan=plan,
            tick=now,
            commitments=state.config.commitments,
        )
        state.processes[index] = stepped

        if stepped.phase != old.phase and focus is None:
            focus = (stepped.id, old.phase)
        if stepped.attention_target != old.attention_target:
            state.trace.append(
                tick=now,
                kind="AttentionShift",
                payload={"process": stepped.id, "target": stepped.attention_target},
            )
        dropped = [
            a
            for a in old.active_appraisals
            if all(b.rule_id != a.rule_id for b in stepped.active_appraisals)
        ]
        for appraisal in dropped:
            state.trace.append(
                tick=now,
                kind="AppraisalChange",
                payload=agent._appraisal_payload(appraisal, active=False),
            )
        for appraisal in new_apps:
            state.trace.append(
                tick=now,
                kind="AppraisalChange",
                payload=agent._appraisal_payload(appraisal, active=True),
            )
        for candidate in stepped.candidate_goals:
            if candidate not in old.candidate_goals:
                state.set_belief(f"proposed({candidate})", True)
        for candidate in stepped.candidate_goals:
            if candidate not in old.candidate_goals:
                state.trace.append(
                    tick=now,
                    kind="GoalChange",
                    payload={
                        "process": stepped.id,
                        "state": candidate,
                        "option": option_for_state((stepped,), candidate, candidate),
                    },
                )
        for tendency in new_tends:
            if tendency.origin == "plan":
                agent._drop_plan_tendencies(state)
            agent._inject(state, tendency)

    if focus is not None:
        state.trace.append(
            tick=now,
            kind="AttentionShift",
            payload={"process": focus[0], "phase": focus[1], "focus": True},
        )
    if planning:
        state.plan = plan
        state.plan_cursor = 0
        agent.follow_plan(state)
    agent._rebuild_case(state)


# -- the forgetful run ---------------------------------------------------------
# Every memo and shared payload of a run lives in ``state.memo``, and each
# claims to change no output byte, as does the plan cut at
# ``deliberation_period``.  So a run that forgets them all before every
# stage, and plans whole, must write what a run that keeps them writes.

FORGETFUL_STAGES = ("fire_events", "perceive", "reactive_step", "deliberative_step",
                    "follow_plan", "metacognition", "recompute_forces", "act",
                    "_rebuild_case")


@contextmanager
def forgetful():
    """Within the block, each of ``FORGETFUL_STAGES`` starts from a fresh
    ``agent.Memo``: every memo is rebuilt and every payload built afresh.
    The planner ignores ``min_steps`` and returns whole plans, and no
    tick is replayed."""

    def forgetting(stage):
        def run(state):
            state.memo = agent.Memo()
            return stage(state)
        return run

    def whole_plan(world, goal, variant, *, min_steps):
        return plan_tidy_task(world, goal, variant)

    stages = {name: forgetting(getattr(agent, name)) for name in FORGETFUL_STAGES}
    with mock.patch.multiple(agent, plan_tidy_task=whole_plan, REPLAY=False, **stages):
        yield


def run_bytes(spec, config):
    """What a run of ``spec`` under ``config`` writes: its trace lines and
    the text of its metrics rows and summary, or the type of the
    ``CogsimError`` it stopped on."""
    try:
        result = run_simulation(spec, config)
    except CogsimError as exc:
        return type(exc)
    return trace_lines(result.state), repr(result.metrics), repr(result.summary)


def traced_peak(action) -> int:
    """The tracemalloc peak of ``action()`` above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# -- trace encoding ------------------------------------------------------------

_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def reference_trace_lines(state) -> list[str]:
    """Each event as one dict, encoded whole with sorted keys: the lines
    ``runner.trace_lines`` must return."""
    encode = _REFERENCE_ENCODER.encode
    return [
        encode(
            {
                "tick": event.tick,
                "seq": event.seq,
                "layer": event.layer,
                "kind": event.kind,
                "payload": event.payload,
                "reasons": list(event.reasons),
            }
        )
        for event in state.trace.events
    ]


# -- single-node mutants of the bundled scenarios ------------------------------

MUTANT_VALUES = (None, True, 0, -1, 2.5, "", "x", [], [1], {}, {"a": 1})


def _node_paths(node, prefix: tuple = ()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(
        node if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def mutation_sites() -> list[tuple[str, tuple]]:
    """(bundled scenario, path) for every node of every bundled document,
    the document root included."""
    return [
        (name, path)
        for name in BUNDLED
        for path in _node_paths(json.loads(bundled_document(name)))
    ]


NUMBER_MUTANTS = (0, -1, 2.5, 1e308)


@functools.cache
def _bundled_json(name: str):
    """The parsed bundled document; read-only, shared by every caller."""
    return json.loads(bundled_document(name))


def _node_at(name: str, path: tuple):
    node = _bundled_json(name)
    for key in path:
        node = node[key]
    return node


def _strings(node):
    if isinstance(node, str):
        yield node
    children = node.values() if isinstance(node, dict) else (
        node if isinstance(node, list) else ())
    for child in children:
        yield from _strings(child)


def typed_mutant_values(name: str, path: tuple) -> list:
    """Values of the JSON type of the node at ``path`` that may replace it:
    another string of the same document, one of ``NUMBER_MUTANTS``, the
    other boolean, or the list one element shorter or longer (an element
    dropped or repeated in place).  Other nodes have none."""
    node = _node_at(name, path)
    if isinstance(node, bool):
        return [not node]
    if isinstance(node, (int, float)):
        return [value for value in NUMBER_MUTANTS if value != node]
    if isinstance(node, str):
        return sorted(set(_strings(_bundled_json(name))) - {node})
    if isinstance(node, list):
        return ([node[:i] + node[i + 1:] for i in range(len(node))]
                + [node[:i] + node[i:i + 1] + node[i:] for i in range(len(node))])
    return []


def typed_mutation_sites() -> list[tuple[str, tuple]]:
    """The sites of ``mutation_sites`` with a ``typed_mutant_values`` value."""
    return [site for site in mutation_sites() if typed_mutant_values(*site)]


def mutant_document(name: str, path: tuple, value) -> str:
    """The bundled document with the node at ``path`` replaced by ``value``."""
    doc = json.loads(bundled_document(name))
    if not path:
        return json.dumps(value)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)
