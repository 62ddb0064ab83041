"""Affective processes: the iterative attend / evaluate / prepare cycle.

Each process is a motive.  It directs attention at the most salient
recent belief change its appraisal rules care about, evaluates the
attended situation or option as positive or negative (appraisals carry
a magnitude; a neutral evaluation is simply not an appraisal), and
then prepares action: it lists states that would flip its negative
appraisals or sustain its positive ones, keeps the achievable ones as
candidate goals (for declared options, every one), and emits one
action tendency per candidate, whose option is its action.  The
tendency's force, its base urgency under the argument case's force rule
(see ``arguments``), is what competes at the moment of action.

Attending and evaluating read the process's rules only through
``rule_truths``: the salience target, which appraisals lose their
grounds and which rules would form one.  Those depend on the beliefs,
the process's own appraisals, its rules and the commitments alone; what
preparing reads (``tendency_specs``), on the appraisals and options.  A
caller that keeps both in a ``Derived`` while those stay equal
(``agent`` does, per process) passes it to ``run_affective_cycle``, and
no condition is evaluated and no appraisal scanned again; a step that
changes nothing leaves the appraisal list as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rules import BeliefStore, Condition, RuleContext, eval_condition

PHASES = ("attending", "evaluating", "preparing")


@dataclass(frozen=True)
class Appraisal:
    """A positive or negative evaluation of one atom, with magnitude > 0;
    the tick of its ``AppraisalChange`` event says when it formed."""

    atom: str
    valence: str  # "positive" | "negative"
    magnitude: float
    source_process: str
    label: str = ""
    rule_id: str = ""


@dataclass(frozen=True)
class AppraisalRule:
    id: str
    process: str
    when: Condition
    subject: str
    valence: str
    magnitude: float
    label: str = ""


@dataclass(frozen=True)
class ProcessOption:
    """A response the process knows about: a state worth wanting.

    ``flips`` lists appraisal atoms the state would improve; a positive
    appraisal of the state itself also re-triggers the option, at which
    point the emitted tendency carries ``commit_label`` (an intention
    has formed) instead of ``label`` (a mere proposal).
    """

    state: str
    action: str
    label: str = ""
    commit_label: str = ""
    flips: tuple[str, ...] = ()
    sustains: tuple[str, ...] = ()


@dataclass(slots=True)
class ActionTendency:
    """A proposed action carrying affective force.

    Its option, which the case argues about and the trace names, is its
    action.  Slotted (no ``__dict__``), as one is built per injection.
    Read-only by convention, apart from the id that ``_inject`` sets and
    the force, reasons and ``folded`` that ``recompute_forces`` writes.
    """

    action: str
    source_process: str
    base_urgency: float
    created_tick: int
    label: str = ""
    origin: str = "affect"  # "affect" | "reactive" | "plan"
    id: str = ""
    force: float = 0.0
    supporting_arguments: tuple[str, ...] = ()
    # The force table that force and supporting_arguments were read off.
    folded: dict | None = field(default=None, compare=False, repr=False)

    def expired(self, now: int, ttl: int) -> bool:
        return now - self.created_tick > ttl


@dataclass
class AffectiveProcess:
    id: str
    priority_rank: int
    goal_ref: str
    phase: str = "attending"
    attention_target: str | None = None
    active_appraisals: list[Appraisal] = field(default_factory=list)
    candidate_goals: list[str] = field(default_factory=list)
    rules: tuple[AppraisalRule, ...] = ()
    options: tuple[ProcessOption, ...] = ()
    urgency: float = 0.5
    os_role: bool = False


# What ``rule_truths`` and ``tendency_specs`` give; see there.
RuleTruths = tuple[str | None, tuple[Appraisal, ...], tuple[Appraisal, ...],
                   tuple[AppraisalRule, ...]]
TendencySpecs = tuple[tuple[tuple[str, str, float, str, str], ...], float | None]


@dataclass(slots=True)
class Derived:
    """What the phase steps of one process derive from its active
    appraisals as they stand (``appraisals``), each filled on first use:
    the rule truths, which read the beliefs too, and the tendency specs."""

    appraisals: list[Appraisal]
    truths: RuleTruths | None = None
    specs: TendencySpecs | None = None


def option_for_state(processes, atom: str, default: str) -> str:
    """The action of the first option, over ``processes`` in order, whose
    response state is ``atom``; ``default`` when none is."""
    for proc in processes:
        for option in proc.options:
            if option.state == atom:
                return option.action
    return default


def rule_truths(
    proc: AffectiveProcess, beliefs: BeliefStore, commitments: list
) -> RuleTruths:
    """What attending and evaluating read of the process's rules: the
    target salience picks from the rules that hold; the active appraisals
    whose rule holds (or is none of the process's) and those whose rule
    does not, in list order; and, in declaration order, each rule that
    holds with no appraisal of its own at its magnitude.

    All read only the beliefs (their version also fixes when each atom
    last changed), the process's own active appraisals, its rules and
    the commitments; so a caller may keep them while those stay equal.
    """
    appraisals = proc.active_appraisals
    ctx = RuleContext(beliefs, appraisals, commitments)
    held = [eval_condition(rule.when, ctx) for rule in proc.rules]
    held_by_id = {rule.id: holds for rule, holds in zip(proc.rules, held)}
    by_rule = {a.rule_id: a for a in appraisals}
    fresh = []
    for rule, holds in zip(proc.rules, held):
        existing = by_rule.get(rule.id)
        if holds and (existing is None or existing.magnitude != rule.magnitude):
            fresh.append(rule)
    return (_salience_pick(proc, beliefs, held),
            tuple([a for a in appraisals if held_by_id.get(a.rule_id, True)]),
            tuple([a for a in appraisals if not held_by_id.get(a.rule_id, True)]),
            tuple(fresh))


def _salience_pick(
    proc: AffectiveProcess, beliefs: BeliefStore, held: list[bool]
) -> str | None:
    """Target of attention: the most recent belief change with the
    largest matching rule magnitude, over the rules that hold; ties break
    by rule declaration order."""
    best_key: tuple[int, float, int] | None = None
    best_atom: str | None = None
    for index, rule in enumerate(proc.rules):
        if not held[index]:
            continue
        if rule.when.atoms:
            # max keeps the first of equally recent atoms.
            atom = max(rule.when.atoms, key=beliefs.last_changed)
            recency = beliefs.last_changed(atom)
        else:
            atom = rule.subject
            recency = -1
        key = (recency, rule.magnitude, -index)
        if best_key is None or key > best_key:
            best_key = key
            best_atom = atom
    return best_atom


def run_affective_cycle(
    proc: AffectiveProcess,
    beliefs: BeliefStore,
    plan: tuple[str, ...] | None = None,
    tick: int = 0,
    commitments: list | None = None,
    derived: Derived | None = None,
) -> tuple[list[Appraisal], list[Appraisal], list[ActionTendency]]:
    """Execute exactly one phase step of the process, in place, and
    return what it changed: the appraisals it dropped, the appraisals it
    formed and the tendencies it emitted.

    ``derived`` is kept for the process as it stands before the step;
    what it lacks, the step derives and fills in.  A phase with nothing
    applicable is a no-op step: attending with no salient target leaves
    the process where it is, and preparing with no active appraisal
    simply cycles back to attending.
    """
    if derived is None:
        derived = Derived(proc.active_appraisals)
    phase = proc.phase
    if phase != "attending" and phase != "evaluating":  # preparing
        proc.phase = "attending"
        if not proc.active_appraisals:
            return [], [], []
        if derived.specs is None:
            derived.specs = tendency_specs(proc)
        return [], [], prepare_action(proc, plan, tick=tick, specs=derived.specs)

    # The step reassigns proc.active_appraisals and never mutates the
    # list, so the truths are those of the appraisals before it.
    truths = derived.truths
    if truths is None:
        truths = derived.truths = rule_truths(proc, beliefs, commitments or [])
    target, kept, dropped, fresh = truths

    if phase == "attending":
        if target is not None:
            proc.attention_target = target
            proc.phase = "evaluating"
        return [], [], []

    # evaluating
    target = proc.attention_target
    if dropped:  # the grounds for these appraisals are gone
        proc.active_appraisals = list(kept)
    new_appraisals: list[Appraisal] = []
    for rule in fresh:
        if target != rule.subject and target not in rule.when.atoms:
            continue
        appraisal = Appraisal(
            atom=rule.subject,
            valence=rule.valence,
            magnitude=rule.magnitude,
            source_process=proc.id,
            label=rule.label,
            rule_id=rule.id,
        )
        proc.active_appraisals = [
            a for a in proc.active_appraisals if a.rule_id != rule.id
        ]
        proc.active_appraisals.append(appraisal)
        new_appraisals.append(appraisal)
    proc.phase = "preparing"
    return list(dropped), new_appraisals, []


def tendency_specs(proc: AffectiveProcess) -> TendencySpecs:
    """What ``prepare_action`` derives from the process's own active
    appraisals: for each option, in declaration order, that an appraisal
    triggers, its response state, its action, the strongest triggering
    magnitude, its label (``commit_label`` once a positive appraisal of
    the state itself has formed) and the origin "affect"; and the
    strongest negative magnitude when the process serves the task goal,
    else None.
    """
    appraisals = proc.active_appraisals
    options = []
    for option in proc.options:
        triggers = [
            a.magnitude
            for a in appraisals
            if (a.valence == "negative" and a.atom in option.flips)
            or (a.valence == "positive" and a.atom in option.sustains)
            or (a.valence == "positive" and a.atom == option.state)
        ]
        if not triggers:
            continue
        committed = any(
            a.valence == "positive" and a.atom == option.state for a in appraisals
        )
        label = option.commit_label if committed and option.commit_label else option.label
        options.append((option.state, option.action, max(triggers), label, "affect"))
    negatives = [a.magnitude for a in appraisals if a.valence == "negative"]
    task = max(negatives) if proc.goal_ref == "task" and negatives else None
    return tuple(options), task


def prepare_action(
    proc: AffectiveProcess, plan: tuple[str, ...] | None = None, tick: int = 0,
    specs: TendencySpecs | None = None,
) -> list[ActionTendency]:
    """Turn the process's appraisals into concrete action tendencies.

    Three steps: list desirable states, keep the achievable ones as
    candidate goals, and emit a tendency for each candidate's first
    action with base urgency equal to the strongest triggering
    appraisal.  An empty result is legal when nothing is achievable.
    The task goal is achievable iff ``plan``, the task plan for the
    current world, exists: the planner keeps only steps it has applied.
    ``specs`` is what ``tendency_specs`` gives for the process as it
    stands; without it, they are derived afresh.
    """
    options, task = tendency_specs(proc) if specs is None else specs
    if task is not None and plan is not None:
        options += (("task_goal", plan[0], task, "task_step", "plan"),)
    tendencies: list[ActionTendency] = []
    for state, action, urgency, label, origin in options:
        # Every desirable state is a candidate goal: declared options have
        # no world model, so achievability cannot rule them out, and the
        # conflict filter only concerns the process's own goal, which a
        # declared response never contradicts.
        if state not in proc.candidate_goals:
            proc.candidate_goals.append(state)
        tendencies.append(
            ActionTendency(
                action=action,
                source_process=proc.id,
                base_urgency=urgency,
                created_tick=tick,
                label=label,
                origin=origin,
            )
        )
    return tendencies
