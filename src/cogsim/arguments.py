"""Arguments for and against options, and their aggregation.

Argument templates are instantiated against concrete options whenever
their trigger condition holds.  Each argument may undercut at most one
other argument; an argument is *active* iff no active argument
undercuts it, which over an acyclic undercut relation has a unique
solution computable in topological order.

:func:`tally` is the one pass over a case that every score reads, and
it fixes the force rule: starting from a tendency's base urgency (or
from 0.0 for an ``aggregate`` score), add each active pro weight and
subtract each active con weight about the option, one at a time in case
order (not ``sum()``, which compensates from Python 3.12).  A tendency's
force is floored at zero; every score is rounded to 9 places.  Inactive
arguments contribute nothing but stay in the explanation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import CyclicUndercut
from .rules import Condition, RuleContext, eval_condition


@dataclass(frozen=True)
class Argument:
    id: str
    option: str
    polarity: str  # "pro" | "con"
    weight: float
    grounds: tuple[str, ...] = ()
    source_process: str = ""
    undercuts: str | None = None


@dataclass(frozen=True)
class ArgumentTemplate:
    """A rule that yields one argument per option it matches.

    ``option_selector`` forms:
        {"option": ID}            exactly that option id
        {"action": ID}            alias of the above (reads better in data)
        {"from_process": PID}     options proposed by tendencies of PID
        {"any": true}             every option under consideration
    ``undercuts_template`` names another template: the instantiated
    argument undercuts that template's argument *for the same option*.
    """

    id: str
    process: str
    polarity: str
    weight: float
    option_selector: dict
    trigger: Condition | None = None
    undercuts_template: str | None = None
    grounds: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseReport:
    """Scores, ranking and per-argument explanation for one decision."""

    scores: dict[str, float]
    ranking: tuple[str, ...]
    recommended: str
    explanation: tuple[tuple[str, str, str, float, bool], ...] = ()
    # explanation rows: (argument id, option, polarity, weight, active)


def argument_id(template_id: str, option: str) -> str:
    return f"{template_id}@{option}"


def _selector_matches(
    selector: dict, option: str, option_sources: dict[str, set[str]] | None
) -> bool:
    if "option" in selector:
        return option == selector["option"]
    if "action" in selector:
        return option == selector["action"]
    if "from_process" in selector:
        sources = (option_sources or {}).get(option, set())
        return selector["from_process"] in sources
    if selector.get("any"):
        return True
    return False


def triggered(templates: list[ArgumentTemplate], context: RuleContext) -> list[bool]:
    """Whether each template's trigger holds, in template order; a
    template without a trigger always holds."""
    # A list: tuple() over a generator sizes its tuple by a guess and
    # shrinks it, parking one tuple per call in CPython's free lists.
    return [t.trigger is None or eval_condition(t.trigger, context) for t in templates]


def build_case(
    options: list[str],
    templates: list[ArgumentTemplate],
    fired: list[bool],
    weight_overrides: dict[str, float] | None = None,
    option_sources: dict[str, set[str]] | None = None,
) -> list[Argument]:
    """Instantiate every (template, option) pair whose trigger holds.

    ``fired`` is :func:`triggered` of ``templates``: whether each
    template's trigger holds, in template order.  Argument ids are
    deterministic functions of (template id, option id), so rebuilding
    the case over the same inputs reproduces the same arguments in the
    same order.
    """
    overrides = weight_overrides or {}
    out: list[Argument] = []
    produced: set[str] = set()
    for template, holds in zip(templates, fired):
        if not holds:
            continue
        for option in options:
            if not _selector_matches(template.option_selector, option, option_sources):
                continue
            arg_id = argument_id(template.id, option)
            produced.add(arg_id)
            out.append(
                Argument(
                    id=arg_id,
                    option=option,
                    polarity=template.polarity,
                    weight=overrides.get(template.id, template.weight),
                    grounds=template.grounds,
                    source_process=template.process,
                    undercuts=(
                        argument_id(template.undercuts_template, option)
                        if template.undercuts_template
                        else None
                    ),
                )
            )
    # An undercut edge only exists if its target was actually produced.
    return [
        a if (a.undercuts is None or a.undercuts in produced)
        else replace(a, undercuts=None)
        for a in out
    ]


def active_set(args: list[Argument]) -> set[str]:
    """Ids of active arguments: those no active argument undercuts.

    Evaluated in topological order of the undercut edges; a cycle
    raises :class:`CyclicUndercut`.
    """
    by_id = {a.id: a for a in args}
    # undercutters[target] = ids attacking target
    undercutters: dict[str, list[str]] = {a.id: [] for a in args}
    for a in args:
        if a.undercuts is not None and a.undercuts in by_id:
            undercutters[a.undercuts].append(a.id)

    status: dict[str, bool] = {}
    visiting: set[str] = set()
    return {a.id for a in args if _resolve(a.id, undercutters, status, visiting)}


def _resolve(
    arg_id: str,
    undercutters: dict[str, list[str]],
    status: dict[str, bool],
    visiting: set[str],
) -> bool:
    """Whether ``arg_id`` is active, memoized in ``status``; ``visiting``
    holds the ids on the current path, to detect a cycle."""
    if arg_id in status:
        return status[arg_id]
    if arg_id in visiting:
        raise CyclicUndercut(f"undercut cycle through {arg_id}")
    visiting.add(arg_id)
    active = not any(
        _resolve(u, undercutters, status, visiting) for u in undercutters[arg_id]
    )
    visiting.discard(arg_id)
    status[arg_id] = active
    return active


# option -> (its active weights in case order, a con weight negated;
#            the ids that explain choosing it); no active argument, no row
ForceTable = dict[str, tuple[tuple[float, ...], tuple[str, ...]]]


def tally(args: list[Argument], active: set[str]) -> ForceTable:
    """The force table of a case whose active ids are ``active``.  An
    option's reasons are its active pro ids, or all its active ids if
    none argues for it, so no option the case mentions goes unexplained."""
    rows: dict[str, tuple[list[float], list[str], list[str]]] = {}
    for a in args:
        if a.id not in active:
            continue
        weights, pros, ids = rows.setdefault(a.option, ([], [], []))
        ids.append(a.id)
        if a.polarity == "pro":
            weights.append(a.weight)
            pros.append(a.id)
        else:
            weights.append(-a.weight)
    return {opt: (tuple(w), tuple(pros or ids)) for opt, (w, pros, ids) in rows.items()}


def aggregate(options: list[str], args: list[Argument]) -> CaseReport:
    """Rank options by their scores under the force rule; ties break to
    the smallest option id, so repeated runs agree on the recommendation.
    No options to rank is a :class:`ValueError`."""
    if not options:
        raise ValueError("aggregate needs at least one option to rank")
    active = active_set(args)
    table = tally(args, active)
    scores: dict[str, float] = {}
    for opt in options:
        net = 0.0
        for weight in table.get(opt, ((), ()))[0]:
            net += weight
        scores[opt] = round(net, 9)
    ranking = tuple(sorted(scores, key=lambda opt: (-scores[opt], opt)))
    return CaseReport(
        scores=scores,
        ranking=ranking,
        recommended=ranking[0],
        explanation=tuple(
            (a.id, a.option, a.polarity, a.weight, a.id in active) for a in args
        ),
    )
