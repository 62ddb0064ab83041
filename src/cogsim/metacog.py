"""Reasoning trace plus metacognitive monitoring and control.

The trace is an append-only record of typed mental events.  Monitoring
re-reads it from a cursor and checks appraisals, candidate goals, and
injected tendencies against the commitments implied by the initial
goal; each violation becomes an InconsistencyDetected event.  Control
answers a finding with the first matching entry of a pre-programmed
countermeasure library: either re-describing the situation (a con
argument against the violating option, weighted by the commitment) or
replanning against the relaxed goal variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import world as W
from .arguments import Argument, argument_id
from .errors import OutOfOrder
from .affect import ActionTendency, Appraisal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .agent import SimulationState

LAYERS = frozenset({"world", "reactive", "deliberative", "metacognitive"})

EVENT_KINDS = frozenset(
    {
        "WorldEventFired",
        "BeliefChange",
        "AttentionShift",
        "AppraisalChange",
        "GoalChange",
        "OptionSet",
        "OptionSelected",
        "TendencyInjected",
        "TendencyExpired",
        "ActionExecuted",
        "InconsistencyDetected",
        "CountermeasureApplied",
        "DeliberationRequested",
        "NoTendency",
    }
)

MONITORED_KINDS = frozenset({"AppraisalChange", "GoalChange", "TendencyInjected"})


@dataclass(slots=True)
class TraceEvent:
    """One traced mental event; a run appends thousands.

    Slotted, so an event is one object with no instance dict, and not
    frozen: a frozen ``__init__`` sets every field through
    ``object.__setattr__``.  Nothing mutates an event once appended.
    """

    tick: int
    seq: int
    layer: str
    kind: str
    payload: dict
    reasons: tuple[str, ...] = ()


class ReasoningTrace:
    """Append-only event sequence with (tick, seq) ordering."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def append(self, tick: int, layer: str, kind: str, payload: dict,
               reasons: tuple[str, ...] = ()) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {kind}")
        if layer not in LAYERS:
            raise ValueError(f"unknown trace layer: {layer}")
        if self.events:
            last = self.events[-1]
            if tick < last.tick:
                raise OutOfOrder(f"tick {tick} after tick {last.tick}")
            seq = last.seq + 1 if tick == last.tick else 0
        else:
            seq = 0
        event = TraceEvent(tick, seq, layer, kind, payload, tuple(reasons))
        self.events.append(event)
        return event

    def since(self, cursor: tuple[int, int]) -> list[TraceEvent]:
        """Events strictly after the (tick, seq) cursor, in trace order.

        One pass that reads every event and tests only its tick; the
        few events at or after the cursor's tick are then cut at its
        seq.  The pass stays a full read, not a bisection, while
        ``bench/test_bench.py::test_events_scanned_counts_the_events_monitor_reads``
        asserts that the unpatched scan doubles with the horizon
        (ROADMAP item 1, step 1 moves that control).
        """
        tick, seq = cursor
        recent = [e for e in self.events if e.tick >= tick]
        return [e for e in recent if e.tick > tick or e.seq > seq]

    def head(self) -> tuple[int, int]:
        if not self.events:
            return (-1, -1)
        last = self.events[-1]
        return (last.tick, last.seq)


@dataclass(frozen=True)
class Commitment:
    """A fixed valence requirement on an evaluation atom.

    Commitments encode what the initial, self-determined goal implies
    and never change during a run.
    """

    atom: str
    required_valence: str
    origin: str = "initial_goal"
    weight: float = 1.0


@dataclass(frozen=True)
class CountermeasureSpec:
    """A library entry: an inconsistency pattern plus a response.

    ``matches``: {"kind": "appraisal"|"goal"|"tendency"|"any",
                  "atom": ATOM or "*"}
    ``action``:  {"kind": "redescription", "template": TEMPLATE_ID}
               | {"kind": "replanning", "goal_variant": "relaxed"}
    """

    id: str
    matches: dict
    action: dict


@dataclass(frozen=True)
class Inconsistency:
    commitment: Commitment
    item_kind: str  # "appraisal" | "goal" | "tendency"
    atom: str
    option: str
    detail: str


@dataclass(frozen=True)
class GoalChange:
    """A newly adopted candidate goal, as seen by the monitor."""

    state: str
    source_process: str
    option: str = ""


def _opposes(valence: str, required: str) -> bool:
    return valence != required


def check_consistency(
    item,
    commitments: list[Commitment],
    world: W.WorldState | None = None,
    goal: W.GoalSpec | None = None,
) -> Inconsistency | None:
    """Check one appraisal, goal change, or tendency against the
    commitments; returns the violation or None.

    A tendency violates when its action abandons the task or undoes a
    correct placement — the single-action rollouts after which neither
    tidiness predicate stays reachable.
    """
    if isinstance(item, Appraisal):
        for c in commitments:
            if c.atom == item.atom and _opposes(item.valence, c.required_valence):
                return Inconsistency(
                    commitment=c,
                    item_kind="appraisal",
                    atom=item.atom,
                    option=item.atom,
                    detail=f"{item.valence} appraisal of {item.atom} "
                    f"opposes committed valence {c.required_valence}",
                )
        return None

    if isinstance(item, GoalChange):
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

    if isinstance(item, ActionTendency):
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


def _item_from_event(event: TraceEvent):
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
            tick=event.tick,
            label=p.get("label", ""),
        )
    if event.kind == "GoalChange":
        if "state" not in p:
            return None  # goal-variant switches carry no desire
        return GoalChange(
            state=p["state"],
            source_process=p.get("process") or "",
            option=p.get("option", ""),
        )
    if event.kind == "TendencyInjected":
        return ActionTendency(
            action=p["action"],
            source_process=p["process"],
            base_urgency=p.get("base_urgency", 0.0),
            created_tick=event.tick,
            option=p.get("option", p["action"]),
            label=p.get("label", ""),
        )
    return None


def monitor(
    trace: ReasoningTrace,
    commitments: list[Commitment],
    since: tuple[int, int],
    world: W.WorldState | None = None,
    goal: W.GoalSpec | None = None,
) -> list[Inconsistency]:
    """Analyse flagged trace kinds after the cursor; one finding per
    violating event, recorded into the trace as InconsistencyDetected."""
    findings: list[Inconsistency] = []
    for event in trace.since(since):
        if event.kind not in MONITORED_KINDS:
            continue
        item = _item_from_event(event)
        if item is None:
            continue
        finding = check_consistency(item, commitments, world=world, goal=goal)
        if finding is None:
            continue
        findings.append(finding)
        trace.append(
            tick=trace.head()[0],
            layer="metacognitive",
            kind="InconsistencyDetected",
            payload={
                "commitment_atom": finding.commitment.atom,
                "required_valence": finding.commitment.required_valence,
                "item_kind": finding.item_kind,
                "atom": finding.atom,
                "option": finding.option,
                "detail": finding.detail,
                "source_event": [event.tick, event.seq],
            },
        )
    return findings


def _matches(pattern: dict, finding: Inconsistency) -> bool:
    kind = pattern.get("kind", "any")
    if kind not in ("any", finding.item_kind):
        return False
    atom = pattern.get("atom", "*")
    return atom in ("*", finding.atom, finding.option)


def _violating_option(finding: Inconsistency, state: "SimulationState") -> str:
    """The option a redescription should argue against.

    Appraisal findings name an evaluation atom; when some process knows
    that atom as a response state, the argued-against option is that
    response's action.
    """
    if finding.item_kind == "appraisal":
        for proc in state.processes:
            for option in proc.options:
                if option.state == finding.atom:
                    return option.action
    return finding.option


def control(
    finding: Inconsistency,
    library: list[CountermeasureSpec],
    state: "SimulationState",
) -> "SimulationState":
    """Answer one finding with the first matching library entry.

    With no match the failure is still observable: a
    CountermeasureApplied event with outcome "none" is recorded.
    """
    now = state.world.tick
    entry = next((c for c in library if _matches(c.matches, finding)), None)
    if entry is None:
        state.trace.append(
            tick=now,
            layer="metacognitive",
            kind="CountermeasureApplied",
            payload={"countermeasure": None, "outcome": "none",
                     "finding_atom": finding.atom},
        )
        return state

    action = entry.action
    if action["kind"] == "redescription":
        template_id = action["template"]
        template = next(
            t for t in state.config.argument_templates if t.id == template_id
        )
        weight = state.weight_overrides.get(template_id, finding.commitment.weight)
        option = _violating_option(finding, state)
        new_arg = Argument(
            id=argument_id(template_id, option),
            option=option,
            polarity="con",
            weight=weight,
            grounds=template.grounds or (finding.commitment.atom,),
            source_process=template.process,
        )
        state.upsert_argument(new_arg)
        state.countermeasures_fired += 1
        state.trace.append(
            tick=now,
            layer="metacognitive",
            kind="CountermeasureApplied",
            payload={
                "countermeasure": entry.id,
                "outcome": "redescription",
                "argument": new_arg.id,
                "option": option,
                "weight": weight,
            },
        )
        return state

    if action["kind"] == "replanning":
        variant = action.get("goal_variant", "relaxed")
        changed = state.goal_variant != variant
        state.goal_variant = variant
        if changed:
            state.trace.append(
                tick=now,
                layer="metacognitive",
                kind="GoalChange",
                payload={"process": None, "variant": variant},
            )
            state.set_belief("goal_variant", variant)
        state.pending_deliberation = True
        state.countermeasures_fired += 1
        state.trace.append(
            tick=now,
            layer="metacognitive",
            kind="DeliberationRequested",
            payload={"reason": f"replanning:{entry.id}"},
        )
        state.trace.append(
            tick=now,
            layer="metacognitive",
            kind="CountermeasureApplied",
            payload={
                "countermeasure": entry.id,
                "outcome": "replanning",
                "goal_variant": variant,
            },
        )
        return state

    raise ValueError(f"unknown countermeasure action: {action}")
