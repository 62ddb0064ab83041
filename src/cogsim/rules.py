"""Belief store and the small declarative condition language.

A condition is a JSON object.  :func:`compile_condition` checks it
against the grammar below, once, and returns a :class:`Condition`;
:func:`eval_condition` evaluates that against a :class:`RuleContext`
(beliefs, active appraisals and commitments).  The grammar lists the
exact key set of every form:

    {"const": true|false}
    {"all": [cond, ...]}          {"any": [cond, ...]}          {"not": cond}
    {"belief": ATOM}                      (truthiness of the stored value)
    {"belief": ATOM, "equals": V}
    {"belief": ATOM, "gt"|"gte"|"lt"|"lte": NUMBER}
    {"belief": ATOM, "in": [V, ...]}
    {"appraisal": {"atom": ATOM?, "valence": "positive"|"negative"?,
                   "min_magnitude": NUMBER?}}
    {"commitment": {"atom": ATOM?}}

ATOM is a string and ``?`` marks an optional key; an omitted
``appraisal`` or ``commitment`` key matches anything.  A belief test
takes at most one comparator.  Any other key, a second form in the same
object, a value of another type or nesting deeper than
``MAX_CONDITION_DEPTH`` levels is malformed.

A missing belief atom evaluates as ``None`` so equality checks against
``null`` are expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


class BeliefStore:
    """Atoms with values and the tick at which each last changed.

    ``version`` counts the changes of value, so two reads of the store
    under the same version see the same values.
    """

    def __init__(self) -> None:
        self._atoms: dict[str, Any] = {}
        self._changed: dict[str, int] = {}
        self.version = 0

    def get(self, atom: str, default: Any = None) -> Any:
        return self._atoms.get(atom, default)

    def set(self, atom: str, value: Any, tick: int) -> bool:
        """Store a value; returns True iff the value actually changed."""
        if atom in self._atoms and self._atoms[atom] == value:
            return False
        self._atoms[atom] = value
        self._changed[atom] = tick
        self.version += 1
        return True

    def last_changed(self, atom: str) -> int:
        return self._changed.get(atom, -1)

    def snapshot(self) -> tuple:
        """The values, the atoms in the order they last changed, and
        whether each changed in the tick of the one before it: all that a
        reader compares of the change ticks, each between -1 (never) and
        the current tick."""
        changed = self._changed
        order = sorted(changed, key=changed.get)
        ticks = [changed[atom] for atom in order]
        return dict(self._atoms), order, list(map(int.__eq__, ticks, ticks[1:]))


@dataclass(slots=True)
class RuleContext:
    """Everything a condition may inspect; slotted, as one is built per
    evaluation pass."""

    beliefs: BeliefStore
    appraisals: list = field(default_factory=list)
    commitments: list = field(default_factory=list)


@dataclass(frozen=True)
class Condition:
    """A compiled condition: ``doc``, its source, which serialization and
    equality use; ``atoms``, the belief atoms it reads in first-occurrence
    order; and ``test(operand, ctx)``, which evaluates the parsed form."""

    doc: dict
    atoms: tuple[str, ...] = field(compare=False)
    test: Callable[[Any, RuleContext], bool] = field(compare=False, repr=False)
    operand: Any = field(compare=False, repr=False)


def eval_condition(cond: Condition, ctx: RuleContext) -> bool:
    """Evaluate a compiled condition against the context."""
    return cond.test(cond.operand, ctx)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_atom(value: Any) -> bool:
    return isinstance(value, str)


# Belief comparators: (comparison of the stored value with the operand,
# check of the operand at compile time).
_COMPARATORS = {
    "equals": (lambda a, b: a == b, lambda b: True),
    "gt": (lambda a, b: isinstance(a, (int, float)) and a > b, _is_number),
    "gte": (lambda a, b: isinstance(a, (int, float)) and a >= b, _is_number),
    "lt": (lambda a, b: isinstance(a, (int, float)) and a < b, _is_number),
    "lte": (lambda a, b: isinstance(a, (int, float)) and a <= b, _is_number),
    "in": (lambda a, b: a in b, lambda b: isinstance(b, list)),
}
# The optional keys of an appraisal or commitment test, with their checks.
_WANT_KEYS = {
    "appraisal": {
        "atom": _is_atom,
        "valence": lambda v: v in ("positive", "negative"),
        "min_magnitude": _is_number,
    },
    "commitment": {"atom": _is_atom},
}


def _const(value: bool, ctx: RuleContext) -> bool:
    return value


# The connectives and the appraisal test are loops that stop at the first
# deciding part, evaluated in place: no generator per call.
def _all(parts: tuple[Condition, ...], ctx: RuleContext) -> bool:
    for part in parts:
        if not part.test(part.operand, ctx):
            return False
    return True


def _any(parts: tuple[Condition, ...], ctx: RuleContext) -> bool:
    for part in parts:
        if part.test(part.operand, ctx):
            return True
    return False


def _not(part: Condition, ctx: RuleContext) -> bool:
    return not eval_condition(part, ctx)


def _belief(test: tuple, ctx: RuleContext) -> bool:
    atom, op, operand = test
    value = ctx.beliefs.get(atom)
    if op is None:
        return bool(value)  # a bare belief test
    return _COMPARATORS[op][0](value, operand)


def _appraisal(want: tuple, ctx: RuleContext) -> bool:
    atom, valence, floor = want
    for app in ctx.appraisals:
        if ((atom is None or app.atom == atom)
                and (valence is None or app.valence == valence)
                and app.magnitude >= floor):
            return True
    return False


def _commitment(atom: str | None, ctx: RuleContext) -> bool:
    return any(atom is None or c.atom == atom for c in ctx.commitments)


MAX_CONDITION_DEPTH = 100
# Longest repr of a sub-document that a compile error quotes.
MAX_QUOTED_CHARS = 40


def _quote(value: Any) -> str:
    text = repr(value)
    if len(text) <= MAX_QUOTED_CHARS:
        return text
    return text[:MAX_QUOTED_CHARS - 3] + "..."


def compile_condition(doc: Any) -> Condition:
    """Check ``doc`` against the grammar and compile it.

    Raises ValueError on a malformed document, so a compiled condition
    evaluates without error: evaluation takes two Python frames per
    level of nesting, so the depth bound keeps it clear of the
    interpreter's recursion limit.  The error's message is the reason,
    with any sub-document it quotes cut to ``MAX_QUOTED_CHARS``.
    """
    return _compile(doc, MAX_CONDITION_DEPTH)


def _compile(doc: Any, depth: int) -> Condition:
    if depth < 1:
        raise ValueError(f"nested deeper than {MAX_CONDITION_DEPTH} levels")
    if not isinstance(doc, dict) or not doc:
        raise ValueError(f"expected a non-empty object: {_quote(doc)}")
    keys = doc.keys()
    if keys == {"const"}:
        if not isinstance(doc["const"], bool):
            raise ValueError(f"const needs a boolean: {_quote(doc['const'])}")
        return Condition(doc, (), _const, doc["const"])
    if keys == {"all"} or keys == {"any"}:
        (form,) = keys
        if not isinstance(doc[form], list):
            raise ValueError(f"{form} needs a list: {_quote(doc[form])}")
        parts = tuple(_compile(sub, depth - 1) for sub in doc[form])
        atoms = tuple(dict.fromkeys(atom for part in parts for atom in part.atoms))
        return Condition(doc, atoms, _all if form == "all" else _any, parts)
    if keys == {"not"}:
        part = _compile(doc["not"], depth - 1)
        return Condition(doc, part.atoms, _not, part)
    if "belief" in keys:
        atom = doc["belief"]
        if not _is_atom(atom):
            raise ValueError(f"belief atom must be a string: {_quote(atom)}")
        ops = keys - {"belief"}
        if not ops:
            return Condition(doc, (atom,), _belief, (atom, None, None))
        if len(ops) > 1 or not ops <= _COMPARATORS.keys():
            raise ValueError(
                f"a belief test takes one comparator: {_quote(sorted(ops))}")
        (op,) = ops
        if not _COMPARATORS[op][1](doc[op]):
            raise ValueError(f"malformed {op} operand: {_quote(doc[op])}")
        return Condition(doc, (atom,), _belief, (atom, op, doc[op]))
    if len(keys) == 1 and keys <= _WANT_KEYS.keys():
        (form,) = keys
        want, checks = doc[form], _WANT_KEYS[form]
        if not isinstance(want, dict) or not all(
            key in checks and checks[key](value) for key, value in want.items()
        ):
            raise ValueError(f"malformed {form}: {_quote(want)}")
        if form == "commitment":
            return Condition(doc, (), _commitment, want.get("atom"))
        want = (want.get("atom"), want.get("valence"), want.get("min_magnitude", 0.0))
        return Condition(doc, (), _appraisal, want)
    raise ValueError(f"unknown condition form: {_quote(sorted(keys))}")
