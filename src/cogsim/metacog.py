"""Reasoning trace plus metacognitive monitoring and control.

The trace is an append-only record of typed mental events.  Monitoring
reads the events after a cursor and checks each traced appraisal,
candidate goal, and injected tendency against the commitments implied
by the initial goal; each violation becomes an InconsistencyDetected
event.  The check reads the traced event itself, so a finding can be
checked again from the trace alone.
Control answers a finding with the first matching entry of a
pre-programmed countermeasure library: either re-describing the
situation (a con argument against the violating option, weighted by
the commitment) or replanning against the relaxed goal variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import world as W
from .affect import option_for_state
from .arguments import Argument, argument_id
from .errors import OutOfOrder, UnknownEntity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .agent import SimulationState

# Each trace event kind: the layers that trace it, the default first (a
# tendency's layer follows its origin, and control's goal-variant switch
# is metacognitive), and the key sets its payloads have, each sorted.
# ``append`` admits the kinds and layers listed here, and ``runner``
# builds one trace line formatter per key set.
TRACE_KINDS: dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = {
    "WorldEventFired": (("world",), (("effect", "fire_tick"),)),
    "EventRejected": (("world",), (("code", "effect", "fire_tick", "reason"),)),
    "BeliefChange": (("world",), (("atom", "value"),)),
    "ActionExecuted": (("world",), (
        ("action", "fallback", "option", "process", "tendency"),  # nothing selected
        ("action", "fallback", "momentary_need", "option", "process", "tendency"),
        ("action", "error", "fallback", "momentary_need", "option", "process",
         "tendency"),  # refused
        ("action", "fallback", "option", "os_tendency", "process", "tendency"),  # ceos
        ("action", "error", "fallback", "option", "os_tendency", "process",
         "tendency"),  # ceos, refused
    )),
    "NoTendency": (("reactive",), ((),)),
    "TendencyInjected": (("deliberative", "reactive"), (
        ("action", "base_urgency", "label", "option", "process", "tendency"),)),
    "AttentionShift": (("deliberative",), (
        ("process", "target"),
        ("focus", "phase", "process"),  # the phase a deliberation left
    )),
    "AppraisalChange": (("deliberative",), (
        ("active", "atom", "label", "magnitude", "process", "valence"),)),
    "GoalChange": (("deliberative", "metacognitive"), (
        ("option", "process", "state"),  # a candidate goal
        ("process", "variant"),  # control's switch of goal variant
    )),
    "OptionSet": (("deliberative",), (("arguments", "options"),)),
    "OptionSelected": (("deliberative",), (("force", "option", "process", "tendency"),)),
    "TendencyExpired": (("deliberative",), (("option", "tendency"),)),
    "InconsistencyDetected": (("metacognitive",), (
        ("atom", "commitment_atom", "detail", "item_kind", "option",
         "required_valence", "source_event"),)),
    "CountermeasureApplied": (("metacognitive",), (
        ("argument", "countermeasure", "option", "outcome", "weight"),  # redescription
        ("countermeasure", "goal_variant", "outcome"),  # replanning
        ("countermeasure", "finding_atom", "outcome"),  # no library entry matched
    )),
    "DeliberationRequested": (("metacognitive",), (("reason",),)),
}

MONITORED_KINDS = frozenset({"AppraisalChange", "GoalChange", "TendencyInjected"})

# The payload keys whose value names a tick ("tick"), an event as its
# [tick, seq] ("event") or a tendency id ("id"); no other payload value
# names either.  A replayed tick (see ``agent``) moves exactly these.
PAYLOAD_REFS = {"fire_tick": "tick", "source_event": "event",
                "tendency": "id", "os_tendency": "id"}


def shift_id(tendency_id: str, ids: int) -> str:
    """The tendency id ``ids`` numbers on."""
    return f"td{int(tendency_id[2:]) + ids:05d}"


def payload_refs(payload: dict) -> tuple[str, ...]:
    """The ``PAYLOAD_REFS`` keys set in ``payload``, not to None, as the one
    tuple of ``_REF_SETS`` that lists them."""
    return _REF_SETS[tuple([key for key in PAYLOAD_REFS if payload.get(key) is not None])]


# Each subset of PAYLOAD_REFS, in order, to itself.
_REF_SETS = {keys: keys for keys in (
    tuple(key for i, key in enumerate(PAYLOAD_REFS) if mask >> i & 1)
    for mask in range(1 << len(PAYLOAD_REFS)))}


def shifted(payload: dict, ticks: int, rename, keys: tuple[str, ...]) -> dict:
    """``payload`` itself, or with ``keys`` (its ``payload_refs``) a copy
    whose value under each is moved ``ticks`` on or, an id, ``rename``d."""
    if not keys:
        return payload
    # Key by key: ``dict(payload)`` allocates a new keys table, where the
    # literal that built the payload may reuse a freed one.
    out = {key: value for key, value in payload.items()}
    for key in keys:
        value, ref = out[key], PAYLOAD_REFS[key]
        out[key] = (value + ticks if ref == "tick" else rename(value) if ref == "id"
                    else [value[0] + ticks, value[1]])
    return out


@dataclass(slots=True)
class TraceEvent:
    """One traced mental event; a run appends thousands.

    Slotted, so an event is one object with no instance dict, and not
    frozen: a frozen ``__init__`` sets every field through
    ``object.__setattr__``.  Nothing mutates an event once appended.
    The payload is read-only too: a steady tick passes the payload it
    would build equal to an earlier one again, so one payload may be
    shared by several events of the same run, never by two runs.
    """

    tick: int
    seq: int
    layer: str
    kind: str
    payload: dict
    reasons: tuple[str, ...] = ()


class ReasoningTrace:
    """Append-only event sequence with (tick, seq) ordering.

    ``drain`` takes the oldest events out, so ``events`` may hold only
    the tail of what was appended; order and seq numbering still run
    from the head, which a drain leaves where it was.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        # The last event's (tick, seq), so that neither ``append`` nor
        # ``head`` reads an event back.
        self._head = (-1, -1)
        # The InconsistencyDetected events ``monitor`` has recorded; a
        # drain does not take them back.
        self.inconsistencies = 0

    def append(self, tick: int, kind: str, payload: dict,
               reasons: tuple[str, ...] = (), layer: str | None = None) -> TraceEvent:
        """Append one event, traced by ``layer`` or else by the kind's
        default layer in ``TRACE_KINDS``; an unknown kind, or a layer the
        table does not list for the kind, is a ValueError."""
        entry = TRACE_KINDS.get(kind)
        if entry is None:
            raise ValueError(f"unknown trace event kind: {kind}")
        layers = entry[0]
        if layer is None:
            layer = layers[0]
        elif layer not in layers:
            raise ValueError(f"unknown trace layer for {kind}: {layer}")
        last_tick, last_seq = self._head
        if tick < last_tick:
            raise OutOfOrder(f"tick {tick} after tick {last_tick}")
        seq = last_seq + 1 if tick == last_tick else 0
        event = TraceEvent(tick, seq, layer, kind, payload, tuple(reasons))
        self.events.append(event)
        self._head = (tick, seq)
        return event

    def extend(self, events: list[TraceEvent]) -> None:
        """Append events already numbered after the head, as they are."""
        if events:
            self.events += events
            self._head = (events[-1].tick, events[-1].seq)

    def since(self, cursor: tuple[int, int]) -> list[TraceEvent]:
        """Events strictly after the (tick, seq) cursor, in trace order.

        ``append`` keeps the events strictly increasing in (tick, seq),
        and the monitor's cursor trails the head by the few events of
        one tick, so the walk goes back from the end while the events
        are after the cursor and returns that tail: k + 1 reads and a
        slice of the k events returned, not a search of the whole trace.
        """
        events = self.events
        tick, seq = cursor
        start = len(events)
        while start:
            event = events[start - 1]
            if event.tick < tick or (event.tick == tick and event.seq <= seq):
                break
            start -= 1
        return events[start:]

    def head(self) -> tuple[int, int]:
        """The last event's (tick, seq); (-1, -1) before the first append.
        A drain leaves it as it was."""
        return self._head

    def drain(self, cursor: tuple[int, int]) -> list[TraceEvent]:
        """Take out and return the events at or before the (tick, seq)
        cursor, in trace order.  They are deleted from ``events`` in
        place, since the monitor's ``since`` still needs every later one.
        """
        events = self.events
        cut = len(events) - len(self.since(cursor))
        drained = events[:cut]
        del events[:cut]
        return drained


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


@dataclass(slots=True)
class Inconsistency:
    """One monitor finding: the commitment an event violates, what kind of
    item it was, its atom and option, and why.

    The monitor builds one per violation, so the record is slotted and,
    as ``TraceEvent``, not frozen.  A finding is read-only by convention;
    two equal findings compare equal, but a finding is not hashable.
    """

    commitment: Commitment
    item_kind: str  # "appraisal" | "goal" | "tendency"
    atom: str
    option: str
    detail: str


def check_consistency(
    event: TraceEvent,
    commitments: list[Commitment],
    world: W.WorldState | None = None,
    goal: W.GoalSpec | None = None,
) -> Inconsistency | None:
    """Check one traced appraisal, goal change, or tendency against the
    commitments; returns the violation or None.

    Reads only ``active``, ``atom`` and ``valence`` of an AppraisalChange,
    ``state`` and ``option`` of a GoalChange, and ``action`` and
    ``option`` of a TendencyInjected; any other kind asserts nothing.  A
    tendency violates when its action abandons the task or undoes a
    correct placement — the single-action rollouts after which neither
    tidiness predicate stays reachable.
    """
    p = event.payload
    if event.kind == "AppraisalChange":
        if not p.get("active", True):
            return None  # a withdrawn appraisal asserts nothing
        atom, valence = p["atom"], p["valence"]
        for c in commitments:
            if c.atom == atom and valence != c.required_valence:
                return Inconsistency(c, "appraisal", atom, atom,
                                     f"{valence} appraisal of {atom} opposes "
                                     f"committed valence {c.required_valence}")
        return None

    if event.kind == "GoalChange":
        if "state" not in p:
            return None  # goal-variant switches carry no desire
        state = p["state"]
        for c in commitments:
            if c.atom == state and c.required_valence == "negative":
                return Inconsistency(c, "goal", state, p.get("option") or state,
                                     f"desiring {state} contradicts the "
                                     f"commitment against it")
        return None

    if event.kind != "TendencyInjected":
        return None
    for c in commitments:
        if c.required_valence == "positive":
            break
    else:
        return None
    action = p["action"]
    if action == "abandon":
        detail = "abandoning leaves the committed goal unreachable"
    else:
        kind, arg = W.split_action(action)
        if kind != "pick_up" or world is None or goal is None:
            return None
        obj = world.objects.get(arg or "")
        if obj is None or not W.placed_ok(world, obj, goal.strict.get(obj.kind, ())):
            return None
        detail = f"picking up {obj.id} undoes a correct placement"
    return Inconsistency(c, "tendency", action, p.get("option") or action, detail)


def monitor(
    trace: ReasoningTrace,
    commitments: list[Commitment],
    since: tuple[int, int],
    world: W.WorldState | None = None,
    goal: W.GoalSpec | None = None,
) -> list[Inconsistency]:
    """Analyse flagged trace kinds after the cursor; one finding per
    violating event, recorded into the trace as InconsistencyDetected
    and counted in ``trace.inconsistencies``."""
    findings: list[Inconsistency] = []
    for event in trace.since(since):
        if event.kind not in MONITORED_KINDS:
            continue
        finding = check_consistency(event, commitments, world=world, goal=goal)
        if finding is None:
            continue
        findings.append(finding)
        trace.append(
            tick=trace.head()[0],
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
        trace.inconsistencies += 1
    return findings


def _matches(pattern: dict, finding: Inconsistency) -> bool:
    kind = pattern.get("kind", "any")
    if kind not in ("any", finding.item_kind):
        return False
    atom = pattern.get("atom", "*")
    return atom in ("*", finding.atom, finding.option)


def control(
    finding: Inconsistency,
    library: list[CountermeasureSpec],
    state: "SimulationState",
) -> bool:
    """Answer one finding with the first matching library entry; return
    True when the answer asks for a same-tick replanning pass.

    A redescription upserts a con argument as a sticky argument.  One
    that equals the standing argument (the last sticky one, also last in
    the case) reuses it: no argument is built and neither list changes,
    so the case memo finds its sticky arguments by identity.  Every
    application, reused or not, is traced as CountermeasureApplied and
    counted in ``countermeasures_fired``.  With no match the failure is
    still observable: a CountermeasureApplied event with outcome "none"
    is recorded.
    """
    now = state.world.tick
    for entry in library:
        if _matches(entry.matches, finding):
            break
    else:
        state.trace.append(
            tick=now,
            kind="CountermeasureApplied",
            payload={"countermeasure": None, "outcome": "none",
                     "finding_atom": finding.atom},
        )
        return False

    action = entry.action
    if action["kind"] == "redescription":
        template_id = action["template"]
        for template in state.config.argument_templates:
            if template.id == template_id:
                break
        else:
            raise UnknownEntity(f"unknown argument template: {template_id}")
        weight = state.weight_overrides.get(template_id, finding.commitment.weight)
        # The option to argue against.  An appraisal finding names an
        # evaluation atom; when some process knows that atom as a response
        # state, the option is that response's action (the first declared).
        option = finding.option
        if finding.item_kind == "appraisal":
            option = option_for_state(state.config.processes, finding.atom, option)
        arg_id = argument_id(template_id, option)
        grounds = template.grounds or (finding.commitment.atom,)
        sticky, args = state.sticky_arguments, state.arguments
        standing = sticky[-1] if sticky else None
        # A re-application reuses the last sticky argument when it is also
        # the case's last and equals the one it would build: upserting that
        # would leave both lists equal to what they are.  The weight is read
        # off the same override or commitment each time, so identity finds
        # it, and it keeps 0.0 and -0.0 apart, which print differently.
        if not (standing is not None and args and args[-1] is standing
                and standing.id == arg_id and standing.option == option
                and standing.polarity == "con" and standing.weight is weight
                and standing.grounds == grounds
                and standing.source_process == template.process
                and standing.undercuts is None):
            standing = Argument(
                id=arg_id,
                option=option,
                polarity="con",
                weight=weight,
                grounds=grounds,
                source_process=template.process,
            )
            state.upsert_argument(standing)
        state.countermeasures_fired += 1
        # The same entry and standing argument give the same payload: the
        # argument's id, option and weight are the ones that payload holds.
        last = state.memo.redescription
        if last is not None and last[0] is entry and last[1] is standing:
            payload = last[2]
        else:
            payload = {
                "countermeasure": entry.id,
                "outcome": "redescription",
                "argument": standing.id,
                "option": option,
                "weight": weight,
            }
            state.memo.redescription = (entry, standing, payload)
        state.trace.append(
            tick=now,
            kind="CountermeasureApplied",
            payload=payload,
        )
        return False

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
        state.countermeasures_fired += 1
        state.trace.append(
            tick=now,
            kind="DeliberationRequested",
            payload={"reason": f"replanning:{entry.id}"},
        )
        state.trace.append(
            tick=now,
            kind="CountermeasureApplied",
            payload={
                "countermeasure": entry.id,
                "outcome": "replanning",
                "goal_variant": variant,
            },
        )
        return True

    raise ValueError(f"unknown countermeasure action: {action}")
