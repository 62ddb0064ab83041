"""Per-tick orchestration of the three-layer agent.

``tick`` is the sequence of its stages, one function each:

    fire_events -> perceive -> reactive_step (its tendencies injected)
    -> deliberative_step on the deliberation cadence, follow_plan on
    every other tick -> metacognition -> recompute_forces -> act

Events fire before perception so adversity is perceivable in the tick
it occurs.  A deliberation steps each affective process one phase, in
place and in priority-rank order (``instantiate`` keeps
``state.processes`` in that order); the step reports the appraisals it
dropped and formed and the tendencies it emitted, and the trace is
written from that report: each new candidate goal sets its
``proposed(...)`` belief, then traces its GoalChange.  Between
deliberations ``follow_plan`` injects the standing plan's next step; a
deliberation injects the fresh plan's first step itself.
``metacognition`` monitors the trace since its last pass, so it can
veto this tick's biased tendencies before anything is executed; when
control asks for replanning it deliberates once more in the same tick.
``recompute_forces`` purges expired tendencies and reads each pooled
tendency's force and reasons off the case's force table
(``arguments.tally``), once per table: only a tendency injected since
the last read, or every one after a build, is folded.  ``act`` selects
the strongest tendency, applies exactly one world action, advances the
plan cursor and returns the tick's metrics row; an illegal or absent
selection degrades to idle and is traced, never raised.  What a run
keeps to skip work, or to pass an equal payload again, lives in
``SimulationState.memo``: ``state.memo = Memo()`` changes no output
byte, and a payload or ``forces`` dict is shared only within one run.

What the engine derives from the world is kept in one memo while the
world (apart from its tick) and the goal stay the same: the goal status
that perception and the tick's metrics row share, the task plan of each
goal variant, and the goal variant and belief version perception last
saw.  Perception is skipped when those are unchanged: every belief
already holds what it would set.  A reused plan is the same steps; no
tick is stamped on it.  The memo follows the newest world found equal to
its own, so each world object is compared once, and a second look at it
is one identity test.  An idle changes only the tick, so ``act`` moves
the memo to an idle's successor without comparing it.

A plan covers only the stretch up to the next deliberation: the planner
stops after the first whole leg that reaches ``deliberation_period``
steps.  That is exact.  Every deliberation, on the cadence or asked for
by control, sets the plan cursor back to 0, and between two of them
``follow_plan`` and ``act`` read at most ``deliberation_period`` steps;
the affective cycle reads only the first step and whether there is a
plan, which a prefix answers alike.

A condition reads only the beliefs, the active appraisals and the
config's commitments.  So ``_conditions`` keeps the reactive rules that
held and the truth of the template triggers in one entry, under the
config, the belief store's version and the active appraisals, and
evaluates both again only when those change; a rule that holds still
injects a fresh tendency on every tick.  The same entry keeps, per
process, what its phase steps derive (``affect.Derived``: its rule
truths and tendency specs), under the process's own active appraisals
as well; a deliberation hands it to ``run_affective_cycle``.  So a
steady run evaluates no condition and scans no appraisal once its
beliefs and appraisals have settled.  A deliberation ends by looking
the argument case up, and ``recompute_forces`` takes that look-up's
table when nothing has been traced since (nothing was injected and
metacognition found nothing); otherwise it looks the case up itself.
A look-up builds the case again only when the live options and their
sources, the templates or the truth of a trigger, the sticky arguments
or the weight overrides differ from the last build; otherwise the last
case and its force table are reused and no new OptionSet is traced.
The table is tallied once per build.

A run that settles repeats one exact cycle, and ``tick`` replays it.
Before each tick it does not replay, ``_watch`` compares a few values
of the state with those of the last ``RECENT`` ticks.  Where they
repeat p ticks back and no world event is still to fire, it takes the
state's key (every field but the memo and counters, ticks relative to
the tick and ids to the tendency counter) and records the next p ticks.
If the key then repeats, each later tick is replayed: the events of the
tick one period back, with their ticks and tendency ids (the keys of
``metacog.PAYLOAD_REFS``) moved on, its row with its tick, and every
field but the memo set as the computed tick sets it.  A replay ends,
and the tick is computed, once anything has changed the state since
the last tick; with ``REPLAY = False`` every tick is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import TYPE_CHECKING

from . import world as W
from .affect import (
    ActionTendency,
    AffectiveProcess,
    Derived,
    option_for_state,
    run_affective_cycle,
)
from .arguments import Argument, ForceTable, active_set, build_case, tally, triggered
from .errors import IllegalAction, NonFiniteForce
from .metacog import (
    ReasoningTrace,
    TraceEvent,
    control,
    monitor,
    payload_refs,
    shift_id,
    shifted,
)
from .planner import plan_tidy_task
from .rules import BeliefStore, Condition, RuleContext, eval_condition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import AgentConfig


@dataclass(frozen=True)
class ReactiveRule:
    """Fast rule over current percepts; no hypothetical states."""

    id: str
    when: Condition
    action: str
    urgency: float
    label: str = ""


@dataclass
class WorldMemo:
    """What the engine derived from one world, apart from its tick, and
    one goal."""

    # The newest world found equal to the first apart from its tick.
    world: W.WorldState
    goal: W.GoalSpec
    status: W.GoalStatus
    # Goal variant -> the plan for that variant, cut after the first whole
    # leg that reaches deliberation_period steps: no more is followed
    # before the next deliberation plans again.
    plans: dict[str, tuple[str, ...] | None] = field(default_factory=dict)
    # The goal variant and belief version after the last perceive.
    perceived: tuple[str, int] | None = None


@dataclass(slots=True)
class Memo:
    """What a run keeps to skip work, or to pass an equal payload again:
    the world memo; the key of the last case build and of the last
    condition evaluation, then what each gave (the latter with each
    process's ``Derived``, by process id); the trace head and force table
    of the last deliberation's case look-up; and the last payload or
    ``forces`` dict of each kind (a redescription's with its library entry
    and standing argument; a focus payload per process and phase).  Each
    is derived from the rest of the state or equal to what a tick would
    build, so ``state.memo = Memo()`` at any stage changes no output byte.
    Payloads and rows are read-only; one is shared within its run only.
    The looks of the last ticks and the steady cycle are kept here too."""

    world: WorldMemo | None = None
    case: tuple[tuple, list[Argument], dict[str, float],
                list[Argument], ForceTable] | None = None
    conditions: tuple[tuple, list[ReactiveRule], list[bool],
                      dict[str, Derived]] | None = None
    deliberated: tuple[tuple[int, int], ForceTable] | None = None
    no_tendency_payload: dict = field(default_factory=dict)
    idle_payload: dict = field(default_factory=lambda: {
        "action": "idle", "option": None, "process": None, "tendency": None,
        "fallback": True})
    redescription: tuple | None = None
    forces: dict[str, float] | None = None
    focus_payloads: dict[tuple[str, str], dict] = field(default_factory=dict)
    recent: list[int] = field(default_factory=list)  # see ``_watch``
    cycle: Cycle | None = None


# Whether ``tick`` replays a steady cycle; tests that count the calls of a
# computed stage turn it off.
REPLAY = True
RECENT = 12  # ticks looked back for a repeat


@dataclass(slots=True)
class Cycle:
    """``period`` ticks from tick ``start``, one ``_record`` each: recorded
    while ``key`` is set, then replayed (see ``tick``)."""

    start: int
    period: int
    key: list | None
    counter: int  # the tendency counter at start; then the ids a period draws
    records: list[list] = field(default_factory=list)
    stamp: tuple = ()
    names: dict[str, str] = field(default_factory=dict)


@dataclass
class SimulationState:
    """Complete state of one simulation instance."""

    world: W.WorldState
    beliefs: BeliefStore
    processes: list[AffectiveProcess]  # in priority-rank order
    trace: ReasoningTrace
    config: "AgentConfig"
    goal: W.GoalSpec
    events: tuple[W.WorldEvent, ...]
    bct_profile: str = "prime"
    tendency_pool: list[ActionTendency] = field(default_factory=list)
    arguments: list[Argument] = field(default_factory=list)
    sticky_arguments: list[Argument] = field(default_factory=list)
    goal_variant: str = "strict"
    plan: tuple[str, ...] | None = None
    plan_cursor: int = 0
    memo: Memo = field(default_factory=Memo)
    monitor_cursor: tuple[int, int] = (-1, -1)
    metacognition_enabled: bool = True
    weight_overrides: dict[str, float] = field(default_factory=dict)
    countermeasures_fired: int = 0
    last_option_set: dict | None = None
    _tendency_counter: int = 0

    # -- small helpers shared with the metacognition module ------------------

    def set_belief(self, atom: str, value) -> bool:
        changed = self.beliefs.set(atom, value, self.world.tick)
        if changed:
            self.trace.append(
                tick=self.world.tick,
                kind="BeliefChange",
                payload={"atom": atom, "value": value},
            )
        return changed

    def upsert_argument(self, arg: Argument) -> None:
        self.sticky_arguments = [a for a in self.sticky_arguments if a.id != arg.id]
        self.sticky_arguments.append(arg)
        self.arguments = [a for a in self.arguments if a.id != arg.id]
        self.arguments.append(arg)

    def process_rank(self, process_id: str) -> int:
        for proc in self.processes:
            if proc.id == process_id:
                return proc.priority_rank
        return 10**6

    def os_process_id(self) -> str | None:
        """The designated process, else the least committed one."""
        for proc in self.processes:
            if proc.os_role:
                return proc.id
        return self.processes[-1].id if self.processes else None

    def task_process(self) -> AffectiveProcess | None:
        for proc in self.processes:
            if proc.goal_ref == "task":
                return proc
        return None

    def next_tendency_id(self) -> str:
        self._tendency_counter += 1
        return f"td{self._tendency_counter:05d}"


# -- pipeline stages ----------------------------------------------------------


def fire_events(state: SimulationState) -> None:
    """Fire the events scheduled for this tick; each one that fired is
    traced, then each one that could not apply, with its code and reason."""
    now = state.world.tick
    state.world, fired, rejected = W.step_events(state.world, state.events)
    for event in fired:
        state.trace.append(
            tick=now,
            kind="WorldEventFired",
            payload={"effect": dict(event.effect), "fire_tick": event.fire_tick},
        )
    for event, code, reason in rejected:
        state.trace.append(
            tick=now,
            kind="EventRejected",
            payload={"effect": dict(event.effect), "fire_tick": event.fire_tick,
                     "code": code, "reason": reason},
        )


def perceive(state: SimulationState) -> None:
    """Refresh beliefs from the world; every change is traced.

    The perceived values depend only on the world apart from its tick,
    the goal and the goal variant.  When those are as the last perceive
    saw them and no belief changed since, every belief already holds its
    value, so nothing is done.
    """
    world, variant = state.world, state.goal_variant
    memo = _world_memo(state)
    if memo.perceived == (variant, state.beliefs.version):
        return
    snapshot: list[tuple[str, object]] = []
    for obj_id in sorted(world.objects):
        snapshot.append((f"location({obj_id})", world.objects[obj_id].location))
    for fixture in sorted(world.layout.fixtures, key=lambda f: f.id):
        snapshot.append((f"broken({fixture.id})", fixture.id in world.broken_fixtures))
    snapshot.append(("agent_pos", W.cell_loc(world.agent_pos)))
    snapshot.append(("holding", world.agent_holding))
    snapshot.append(("abandoned", world.abandoned))
    status = memo.status
    snapshot.append(("misplaced_count", status.misplaced_count))
    snapshot.append(("strict_tidy", status.strict))
    snapshot.append(("relaxed_tidy", status.relaxed))
    snapshot.append(("goal_variant", variant))
    for atom in sorted(world.facts):
        snapshot.append((atom, world.facts[atom]))
    for atom, value in snapshot:
        state.set_belief(atom, value)
    memo.perceived = (variant, state.beliefs.version)


def _world_memo(state: SimulationState) -> WorldMemo:
    """The memo of the current world and goal, started afresh (with the
    goal evaluated) when the world apart from its tick or the goal
    differs from the memo's; it keeps the newest world found equal."""
    world, goal = state.world, state.goal
    memo = state.memo.world
    if memo is not None and memo.goal is goal and (
            memo.world is world or W.same_but_tick(memo.world, world)):
        memo.world = world  # the next check of this world is one identity test
        return memo
    memo = state.memo.world = WorldMemo(world, goal, W.evaluate_goal(world, goal))
    return memo


def reactive_step(state: SimulationState) -> list[ActionTendency]:
    """Fire every reactive rule whose condition holds, in declaration
    order; runs every tick while the agent is engaged.  The rules that
    held come from ``_conditions``; each one still injects a fresh
    tendency."""
    if not state.config.reactive_rules or state.world.abandoned:
        return []
    os_pid = state.os_process_id()
    if os_pid is None:
        return []
    now = state.world.tick
    return [
        ActionTendency(
            action=rule.action,
            source_process=os_pid,
            base_urgency=rule.urgency,
            created_tick=now,
            label=rule.label or rule.id,
            origin="reactive",
        )
        for rule in _conditions(state)[1]
    ]


def _all_appraisals(state: SimulationState) -> list:
    out = []
    for proc in state.processes:
        out.extend(proc.active_appraisals)
    return out


def _conditions(state: SimulationState) -> tuple:
    """The memo entry ``(key, the reactive rules that held, the template
    triggers' truth, the ``Derived`` per process)``, evaluated again only
    when the key ``(config, belief version, active appraisals)`` changes:
    a condition reads only the beliefs, the appraisals and the config's
    commitments, so under an equal key every condition has the same
    truth.  The ``Derived`` start empty; ``_derived`` adds them."""
    config, memo = state.config, state.memo
    key = (config, state.beliefs.version, _all_appraisals(state))
    if memo.conditions is None or memo.conditions[0] != key:
        ctx = RuleContext(state.beliefs, key[2], config.commitments)
        held = [r for r in config.reactive_rules if eval_condition(r.when, ctx)]
        memo.conditions = (key, held, triggered(config.argument_templates, ctx), {})
    return memo.conditions


def _derived(state: SimulationState, proc: AffectiveProcess) -> Derived:
    """The process's ``Derived``, kept in the ``_conditions`` entry under
    the process's own active appraisals (the flattened list of the
    entry's key cannot tell which process holds which appraisal)."""
    derived = _conditions(state)[3]
    entry = derived.get(proc.id)
    if entry is None or entry.appraisals != proc.active_appraisals:
        # A copy of the appraisals, so the key does not follow the list.
        entry = derived[proc.id] = Derived(list(proc.active_appraisals))
    return entry


def _inject(state: SimulationState, tendency: ActionTendency) -> None:
    tendency.id = state.next_tendency_id()
    state.tendency_pool.append(tendency)
    state.trace.append(
        tick=state.world.tick,
        kind="TendencyInjected",
        payload={
            "tendency": tendency.id,
            "process": tendency.source_process,
            "action": tendency.action,
            "option": tendency.action,
            "label": tendency.label,
            "base_urgency": tendency.base_urgency,
        },
        layer="reactive" if tendency.origin == "reactive" else "deliberative",
    )


def _drop_plan_tendencies(state: SimulationState) -> None:
    # Plan-step tendencies are refreshed, not accumulated: the current
    # intention supersedes the previous injection silently.
    state.tendency_pool = [t for t in state.tendency_pool if t.origin != "plan"]


def follow_plan(state: SimulationState) -> None:
    """Inject the standing plan's next step as a fresh tendency; it
    replaces the previous step's tendency."""
    if state.world.abandoned or state.plan is None:
        return
    if state.plan_cursor >= len(state.plan):
        return
    task_proc = state.task_process()
    if task_proc is None:
        return
    _drop_plan_tendencies(state)
    _inject(
        state,
        ActionTendency(
            action=state.plan[state.plan_cursor],
            source_process=task_proc.id,
            base_urgency=task_proc.urgency,
            created_tick=state.world.tick,
            label="task_step",
            origin="plan",
        ),
    )


def deliberative_step(state: SimulationState) -> None:
    """One slow-layer pass: step each process one phase in place (in
    priority-rank order) and trace what it changed, rebuild the argument
    case over the proposed options, and generate or repair the task plan."""
    now = state.world.tick
    # One plan serves the affective processes and the standing intention;
    # stepping the processes changes neither the world nor the goal.
    planning = state.task_process() is not None and not state.world.abandoned
    plan = _task_plan(state) if planning else None
    focus: tuple[str, str] | None = None

    for proc in state.processes:
        phase, target = proc.phase, proc.attention_target
        # prepare_action only appends, so what the step adds is the tail.
        n_candidates = len(proc.candidate_goals)
        dropped, new_apps, new_tends = run_affective_cycle(
            proc,
            state.beliefs,
            plan=plan,
            tick=now,
            commitments=state.config.commitments,
            derived=_derived(state, proc),
        )

        if proc.phase != phase and focus is None:
            focus = (proc.id, phase)
        if proc.attention_target != target:
            state.trace.append(
                tick=now,
                kind="AttentionShift",
                payload={"process": proc.id, "target": proc.attention_target},
            )
        for appraisal in dropped:
            state.trace.append(
                tick=now,
                kind="AppraisalChange",
                payload=_appraisal_payload(appraisal, active=False),
            )
        for appraisal in new_apps:
            state.trace.append(
                tick=now,
                kind="AppraisalChange",
                payload=_appraisal_payload(appraisal, active=True),
            )
        adopted = proc.candidate_goals[n_candidates:]
        for candidate in adopted:
            state.set_belief(f"proposed({candidate})", True)
        for candidate in adopted:
            state.trace.append(
                tick=now,
                kind="GoalChange",
                payload={
                    "process": proc.id,
                    "state": candidate,
                    "option": option_for_state((proc,), candidate, candidate),
                },
            )
        for tendency in new_tends:
            if tendency.origin == "plan":
                _drop_plan_tendencies(state)
            _inject(state, tendency)

    if focus is not None:
        payload = state.memo.focus_payloads.get(focus)
        if payload is None:
            payload = state.memo.focus_payloads[focus] = {
                "process": focus[0], "phase": focus[1], "focus": True}
        state.trace.append(tick=now, kind="AttentionShift", payload=payload)

    # The fresh plan becomes the committed task goal's intention, then the
    # argument case over everything now proposed (the fresh plan step
    # must be covered by the case before selection happens this tick).
    if planning:
        state.plan = plan
        state.plan_cursor = 0
        follow_plan(state)

    state.memo.deliberated = (state.trace.head(), _rebuild_case(state))


def _task_plan(state: SimulationState) -> tuple[str, ...] | None:
    """``plan_tidy_task`` for the current world and goal variant, searched
    once per variant of each world in the memo, and only as far as the
    whole legs that cover the next ``deliberation_period`` steps."""
    plans, variant = _world_memo(state).plans, state.goal_variant
    if variant not in plans:
        plans[variant] = plan_tidy_task(
            state.world, state.goal, variant,
            min_steps=state.config.deliberation_period)
    return plans[variant]


def _appraisal_payload(appraisal, active: bool) -> dict:
    return {
        "process": appraisal.source_process,
        "atom": appraisal.atom,
        "valence": appraisal.valence,
        "magnitude": appraisal.magnitude,
        "label": appraisal.label,
        "active": active,
    }


def _rebuild_case(state: SimulationState) -> ForceTable:
    """Build the argument case over the live options; return its force
    table, tallied once per build.

    The memo key holds the set of live ``(option, source process)``
    pairs, which fixes the options and their sources.  On a reuse no
    OptionSet is traced: the last build traced the same payload.  The
    trigger values come from ``_conditions``.
    """
    now, ttl = state.world.tick, state.config.tendency_ttl
    # A loop, not a comprehension: one frame fewer on Python 3.11.
    live: set[tuple[str, str]] = set()
    for t in state.tendency_pool:
        if not t.expired(now, ttl):
            live.add((t.action, t.source_process))
    templates, memo = state.config.argument_templates, state.memo
    fired = _conditions(state)[2]
    key = (live, templates, fired)
    if memo.case is not None:
        built, sticky, overrides, args, table = memo.case
        if (built == key and sticky == state.sticky_arguments
                and overrides == state.weight_overrides):
            state.arguments = args
            return table
    sources: dict[str, set[str]] = {}
    for option, source in live:
        sources.setdefault(option, set()).add(source)
    options = sorted(sources)
    args = build_case(options, templates, fired,
                      weight_overrides=state.weight_overrides, option_sources=sources)
    fresh_ids = {a.id for a in args}
    for sticky in state.sticky_arguments:
        if sticky.id not in fresh_ids:
            args.append(sticky)
    active = active_set(args)
    table = tally(args, active)
    memo.case = (key, list(state.sticky_arguments),
                 dict(state.weight_overrides), args, table)
    state.arguments = args
    _emit_option_set(state, options, active)
    return table


def _emit_option_set(state: SimulationState, options: list[str],
                     active: set[str]) -> None:
    payload = {
        "options": list(options),
        "arguments": [
            {"id": a.id, "option": a.option, "polarity": a.polarity,
             "weight": a.weight, "active": a.id in active}
            for a in state.arguments
        ],
    }
    if payload == state.last_option_set:
        return
    state.last_option_set = payload
    state.trace.append(tick=state.world.tick, kind="OptionSet", payload=payload)


def recompute_forces(state: SimulationState) -> None:
    """Purge expired tendencies, then give every pooled tendency its force
    (under the force rule of ``arguments``) and reasons from its option's
    row of the force table: the moment of action.  A force that overflows
    raises :class:`NonFiniteForce`, so no infinite force reaches the trace.
    The table is that of this tick's deliberation when nothing has been
    traced since; otherwise the case is looked up here.

    A tendency's urgency and option are fixed at injection, and a build
    replaces the table rather than change it, so only a tendency not yet
    read off this very table is folded: one injected since, or every one
    after a build.
    """
    now = state.world.tick
    ttl = state.config.tendency_ttl
    # Nothing traced since (metacognition found nothing): nothing was
    # injected, and the purge drops only what that look-up left out.
    deliberated = state.memo.deliberated
    table = (deliberated[1] if deliberated is not None
             and deliberated[0] == state.trace.head() else None)
    kept: list[ActionTendency] = []
    for tendency in state.tendency_pool:
        if tendency.expired(now, ttl):
            state.trace.append(
                tick=now,
                kind="TendencyExpired",
                payload={"tendency": tendency.id, "option": tendency.action},
            )
        else:
            kept.append(tendency)
    state.tendency_pool = kept
    if table is None:
        # Options injected since the last deliberation must be covered too.
        table = _rebuild_case(state)
    for tendency in state.tendency_pool:
        if tendency.folded is table:
            continue  # its urgency, option and table are as at that fold
        weights, reasons = table.get(tendency.action, ((), ()))
        # From the urgency, one add at a time (see arguments): not sum().
        net = tendency.base_urgency
        for weight in weights:
            net += weight
        if not math.isfinite(net):
            raise NonFiniteForce(
                f"force on option {tendency.action!r} overflows: its urgency and "
                "argument weights sum past the largest float"
            )
        tendency.force = round(max(0.0, net), 9)
        tendency.supporting_arguments = reasons
        tendency.folded = table


def _select_tendency(state: SimulationState) -> ActionTendency | None:
    """Pick the maximal-force pooled tendency, or trace NoTendency and
    return None.

    Only tendencies with strictly positive force can drive behaviour; a
    fully suppressed pool selects nothing, just like an empty one.  Ties
    break to the more committed (lower-rank) source process, then to the
    lexicographically smallest action encoding.
    """
    now = state.world.tick
    # The first of the least (-force, rank, action), as min() would pick,
    # with the ranks looked up only on a tie of forces.
    best = None
    for t in state.tendency_pool:
        force = t.force
        if not force > 0:
            continue
        if best is None or force > best.force or (
                force == best.force
                and (state.process_rank(t.source_process), t.action)
                < (state.process_rank(best.source_process), best.action)):
            best = t
    if best is None:
        state.trace.append(tick=now, kind="NoTendency",
                           payload=state.memo.no_tendency_payload)
        return None
    state.trace.append(
        tick=now,
        kind="OptionSelected",
        payload={
            "option": best.action,
            "process": best.source_process,
            "force": best.force,
            "tendency": best.id,
        },
        reasons=best.supporting_arguments,
    )
    return best


def metacognition(state: SimulationState) -> None:
    """Monitor the trace since the last pass and answer each finding with
    control; when an answer asked for replanning, deliberate once more,
    after the cursor has moved past this pass."""
    findings = monitor(state.trace, state.config.commitments, state.monitor_cursor,
                       world=state.world, goal=state.goal)
    replan = False
    for finding in findings:
        replan |= control(finding, state.config.countermeasures, state)
    state.monitor_cursor = state.trace.head()
    if replan:
        deliberative_step(state)


def act(state: SimulationState) -> dict:
    """Select, execute exactly one world action, advance the plan cursor;
    return the tick's metrics row."""
    now, memo = state.world.tick, state.memo
    forces: dict[str, float] = {p.id: 0.0 for p in state.processes}
    for tendency in state.tendency_pool:
        pid = tendency.source_process
        forces[pid] = max(forces.get(pid, 0.0), tendency.force)
    # Forces are finite and never -0.0, so equal dicts print alike.
    if forces == memo.forces:
        forces = memo.forces
    else:
        memo.forces = forces

    tendency = _select_tendency(state)
    selected = "idle" if tendency is None else tendency.action
    executed, error = selected, None
    before = state.world
    applied = selected if W.is_world_action(selected) else "idle"
    try:
        state.world = W.apply_action(before, applied)
    except IllegalAction as exc:
        executed, error, applied = "idle", exc.reason, "idle"
        state.world = W.apply_action(before, "idle")
    fallback = tendency is None or error is not None
    if tendency is None:
        payload = memo.idle_payload  # idle cannot fail, so it is always this
    else:
        payload = {"action": executed, "option": tendency.action,
                   "process": tendency.source_process, "tendency": tendency.id,
                   "fallback": fallback}
        if error is not None:
            payload["error"] = error
        if state.bct_profile == "ceos":
            payload["os_tendency"] = tendency.id
        else:
            payload["momentary_need"] = tendency.force
    state.trace.append(tick=now, kind="ActionExecuted", payload=payload)
    if state.world.abandoned:
        # Walking out discharges every impulse; the agent is disengaged.
        state.tendency_pool = []

    plan, cursor = state.plan, state.plan_cursor
    if plan and cursor < len(plan) and not fallback and executed == plan[cursor]:
        state.plan_cursor += 1

    known = memo.world
    if (applied == "idle" and known is not None and known.world is before
            and known.goal is state.goal):
        known.world = state.world  # an idle changes only the tick
    else:
        known = _world_memo(state)
    status = known.status
    return {
        "tick": now,
        "selected_action": selected,
        "executed_action": executed,
        "winning_process": "" if tendency is None else tendency.source_process,
        "forces": forces,
        "misplaced_count": status.misplaced_count,
        "strict_tidy": status.strict,
        "relaxed_tidy": status.relaxed,
        "idle": executed == "idle",
    }


def tick(state: SimulationState) -> dict:
    """Advance the simulation by exactly one world action; return the
    tick's metrics row.  A tick of a steady cycle is replayed (``_watch``)."""
    if not REPLAY:
        return _compute(state)
    cycle = state.memo.cycle
    if cycle is not None and cycle.stamp != _stamp(state):
        cycle = state.memo.cycle = None  # changed since the last tick
    if cycle is None or cycle.key is not None:
        cycle = _watch(state, cycle)
    if cycle is None:
        return _compute(state)
    if cycle.key is None:
        return _replay(state, cycle)
    first, counts = len(state.trace.events), _counts(state)
    row = _compute(state)
    cycle.records.append(_record(state, state.trace.events[first:], row, counts))
    cycle.stamp = _stamp(state, cycle.records[-1][4])
    return row


def _compute(state: SimulationState) -> dict:
    fire_events(state)
    perceive(state)
    for tendency in reactive_step(state):
        _inject(state, tendency)
    if state.world.tick % state.config.deliberation_period == 0:
        deliberative_step(state)
    else:
        follow_plan(state)
    if state.metacognition_enabled:
        metacognition(state)
    recompute_forces(state)
    return act(state)


# -- the steady cycle ----------------------------------------------------------


def _counts(state: SimulationState) -> list[int]:
    return [state._tendency_counter, state.countermeasures_fired,
            state.trace.inconsistencies]


def _procs(state: SimulationState) -> list[tuple]:
    return [(p.phase, p.attention_target, p.active_appraisals, p.candidate_goals)
            for p in state.processes]


def _stamp(state: SimulationState, procs: list[tuple] | None = None) -> tuple:
    """What changing the state between two ticks changes: every field but
    the memo (which holds the stamp), the belief version, the trace head
    and the ``_procs``."""
    values = list(_FIELDS(state))
    values[_MEMO] = None
    return values, state.beliefs.version, state.trace.head(), procs or _procs(state)


# ``attrgetter``, not ``vars``: CPython reads the attributes of an object
# more slowly once ``vars`` has given it an instance dict.  Every field,
# the memo too: CPython 3.11 never reuses a freed tuple of 20 items.
_FIELDS = attrgetter(*[f.name for f in fields(SimulationState)])
_MEMO = [f.name for f in fields(SimulationState)].index("memo")
_PROCESS = attrgetter(*[f.name for f in fields(AffectiveProcess)])


def _key(state: SimulationState) -> list:
    """The state but its memo and counters, its ticks relative to the
    current one and its ids to the tendency counter, with its place in the
    deliberation cadence: from two states with equal keys the same ticks
    follow, moved on, while no world event fires."""
    now, ids, trace = state.world.tick, state._tendency_counter, state.trace
    cursor, head, unread = state.monitor_cursor, trace.head(), []
    if state.metacognition_enabled:  # the monitor reads what follows the cursor
        unread = [[e.tick - now, e.seq, e.layer, e.kind, e.reasons,
                   shifted(e.payload, -now, lambda name: shift_id(name, -ids),
                           payload_refs(e.payload))] for e in trace.since(cursor)]
        cursor = [cursor[0] - now, cursor[1]]
    # Lists, not tuples: CPython keeps freed small tuples allocated.
    return [now % state.config.deliberation_period, W.but_tick(state.world),
            state.beliefs.snapshot(),
            [[list(v) if type(v) is list else v for v in _PROCESS(p)]
             for p in state.processes],
            [[t.action, t.source_process, t.base_urgency, t.created_tick - now, t.label,
              t.origin, shift_id(t.id, -ids), t.force, t.supporting_arguments]
             for t in state.tendency_pool],
            list(state.arguments), list(state.sticky_arguments), state.goal_variant,
            state.plan, state.plan_cursor, state.last_option_set, cursor,
            [head[0] - now, head[1]], unread, state.config, state.goal, state.events,
            state.bct_profile, state.metacognition_enabled, dict(state.weight_overrides)]


def _watch(state: SimulationState, cycle: Cycle | None) -> Cycle | None:
    """Before a tick that is not replayed: end a recorded period, replayed
    from now on if the key repeats and otherwise dropped; then, with none
    recorded and no world event to come, record from a repeat of the look
    of one of the ``RECENT`` ticks before (a longer period than one that
    failed first)."""
    memo, world, failed = state.memo, state.world, 0
    now, recent = world.tick, memo.recent
    # A few values of the key, hashed: the key is taken only where they repeat.
    look = hash((now % state.config.deliberation_period, world.agent_pos,
                 world.agent_holding, state.plan_cursor, state.goal_variant,
                 len(state.tendency_pool), *[p.phase for p in state.processes]))
    periods = ([len(recent) - i for i, seen in enumerate(recent) if seen == look]
               if look in recent else ())
    recent.append(look)
    if len(recent) > RECENT:
        del recent[0]
    if cycle is not None:
        if now < cycle.start + cycle.period:
            return cycle
        if _key(state) == cycle.key:
            cycle.key, memo.recent = None, []
            cycle.counter = state._tendency_counter - cycle.counter
            _share(cycle.records)
            return cycle
        failed, memo.cycle = cycle.period, None
    if periods and all(event.fire_tick < now for event in state.events):
        period = min([p for p in periods if p > failed] or periods)
        memo.cycle = Cycle(now, period, _key(state), state._tendency_counter)
    return memo.cycle


def _record(state: SimulationState, events: list[TraceEvent], row: dict,
            counts: list[int]) -> list:
    """A tick as it left the state, from its events, row and ``_counts``
    before it: the events and their ``payload_refs``, the row but its
    tick, the world, processes and other fields, the monitor cursor
    relative to the next tick, what the tick added to the counts, and the
    pool with each tendency's force and reasons."""
    cursor, pool = state.monitor_cursor, state.tendency_pool
    return [events, [payload_refs(e.payload) for e in events],
            {key: value for key, value in row.items() if key != "tick"}, state.world,
            _procs(state), (state.arguments, state.sticky_arguments, state.goal_variant,
                            state.plan, state.plan_cursor, state.last_option_set),
            [state.world.tick - cursor[0], cursor[1]],
            [b - a for a, b in zip(counts, _counts(state))], list(pool),
            [(t.force, t.supporting_arguments) for t in pool]]


def _share(records: list[list]) -> None:
    """Make each part of a record that a replay only reads one object with
    an equal part of an earlier record (a world equal but its tick)."""
    for i in (1, 2, 3, 4, 5, 6, 7, 9):
        kept = []
        for record in records:
            value = W.but_tick(record[i]) if i == 3 else record[i]
            for other in kept:
                if other[0] == value:
                    record[i] = other[1]
                    break
            else:
                kept.append((value, record[i]))


class _Renamed(dict):
    """Tendency id -> the id ``ids`` numbers on, each made once."""

    def __init__(self, ids: int) -> None:
        super().__init__()
        self.ids = ids

    def __missing__(self, name: str) -> str:
        new = self[name] = shift_id(name, self.ids)
        return new


def _replay(state: SimulationState, cycle: Cycle) -> dict:
    """The tick as the record one period back, moved on by a period's
    ticks and tendency ids: its events traced, its row returned and every
    field but the memo set as the computed tick sets it.  The record then
    holds this tick's events and pool."""
    now, period, ids = state.world.tick, cycle.period, cycle.counter
    k = (now - cycle.start) % period
    if not k:  # one string per id, as ``_inject`` shares it: the pool's first
        cycle.names = _Renamed(ids)
        cycle.names.update((shift_id(t.id, -ids), t.id) for t in state.tendency_pool)
    rename, record = cycle.names.__getitem__, cycle.records[k]
    events, refs, row, world, procs, others, cursor, added, pool, forces = record
    record[0] = events = [
        TraceEvent(now, e.seq, e.layer, e.kind, shifted(e.payload, period, rename, keys)
                   if keys else e.payload, e.reasons) for e, keys in zip(events, refs)]
    state.trace.extend(events)
    for event in events:
        if event.kind == "BeliefChange":
            state.beliefs.set(event.payload["atom"], event.payload["value"], now)
    last = cycle.records[k - 1]  # as the state stands
    if procs is not last[4]:
        for proc, (phase, target, appraisals, goals) in zip(state.processes, procs):
            proc.phase, proc.attention_target = phase, target
            proc.active_appraisals, proc.candidate_goals = appraisals, goals
    if others is not last[5]:
        (state.arguments, state.sticky_arguments, state.goal_variant, state.plan,
         state.plan_cursor, state.last_option_set) = others
    live = {t.id: t for t in state.tendency_pool}
    state.tendency_pool = record[8] = pool = [live.get(rename(t.id)) or ActionTendency(
        t.action, t.source_process, t.base_urgency, t.created_tick + period, t.label,
        t.origin, rename(t.id)) for t in pool]
    for tendency, (force, reasons) in zip(pool, forces):
        tendency.force, tendency.supporting_arguments, tendency.folded = force, reasons, None
    if state.metacognition_enabled:  # else it never moves
        state.monitor_cursor = (now + 1 - cursor[0], cursor[1])
    state._tendency_counter += added[0]
    state.countermeasures_fired += added[1]
    state.trace.inconsistencies += added[2]
    state.world = world._replace(tick=now + 1)
    cycle.stamp = _stamp(state, procs)
    return {"tick": now, **row}
