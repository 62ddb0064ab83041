"""Belief store and the small declarative condition language.

Conditions are plain JSON-style dicts and are evaluated against a
:class:`RuleContext` (beliefs, active appraisals, commitments, and — when a
condition is tested for a concrete option — the option id).  The grammar:

    {"const": true|false}
    {"all": [cond, ...]}          {"any": [cond, ...]}          {"not": cond}
    {"belief": ATOM, "equals": V}
    {"belief": ATOM, "gt"|"gte"|"lt"|"lte": NUMBER}
    {"belief": ATOM, "in": [V, ...]}
    {"appraisal": {"atom": ATOM, "valence": "positive"|"negative",
                   "min_magnitude": NUMBER?}}
    {"commitment": {"atom": ATOM}}

A missing belief atom evaluates as ``None`` so equality checks against
``null`` are expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class BeliefStore:
    """Atoms with values and the tick at which each last changed."""

    def __init__(self) -> None:
        self._atoms: dict[str, Any] = {}
        self._changed: dict[str, int] = {}

    def get(self, atom: str, default: Any = None) -> Any:
        return self._atoms.get(atom, default)

    def set(self, atom: str, value: Any, tick: int) -> bool:
        """Store a value; returns True iff the value actually changed."""
        if atom in self._atoms and self._atoms[atom] == value:
            return False
        self._atoms[atom] = value
        self._changed[atom] = tick
        return True

    def last_changed(self, atom: str) -> int:
        return self._changed.get(atom, -1)

    def atoms(self) -> list[str]:
        return list(self._atoms)

    def items(self) -> list[tuple[str, Any]]:
        return list(self._atoms.items())

    def copy(self) -> "BeliefStore":
        dup = BeliefStore()
        dup._atoms = dict(self._atoms)
        dup._changed = dict(self._changed)
        return dup


@dataclass
class RuleContext:
    """Everything a condition may inspect."""

    beliefs: BeliefStore
    appraisals: list = field(default_factory=list)
    commitments: list = field(default_factory=list)
    option: str | None = None


_COMPARATORS = {
    "equals": lambda a, b: a == b,
    "gt": lambda a, b: isinstance(a, (int, float)) and a > b,
    "gte": lambda a, b: isinstance(a, (int, float)) and a >= b,
    "lt": lambda a, b: isinstance(a, (int, float)) and a < b,
    "lte": lambda a, b: isinstance(a, (int, float)) and a <= b,
    "in": lambda a, b: a in b,
}


def eval_condition(cond: Any, ctx: RuleContext) -> bool:
    """Evaluate a condition dict against the context."""
    if cond is None:
        return True
    if isinstance(cond, bool):
        return cond
    if not isinstance(cond, dict):
        raise ValueError(f"malformed condition: {cond!r}")

    if "const" in cond:
        return bool(cond["const"])
    if "all" in cond:
        return all(eval_condition(c, ctx) for c in cond["all"])
    if "any" in cond:
        return any(eval_condition(c, ctx) for c in cond["any"])
    if "not" in cond:
        return not eval_condition(cond["not"], ctx)
    if "belief" in cond:
        value = ctx.beliefs.get(cond["belief"])
        for op, fn in _COMPARATORS.items():
            if op in cond:
                return fn(value, cond[op])
        # Bare belief test: truthiness of the stored value.
        return bool(value)
    if "appraisal" in cond:
        want = cond["appraisal"]
        floor = want.get("min_magnitude", 0.0)
        for app in ctx.appraisals:
            if app.atom != want.get("atom", app.atom):
                continue
            if "valence" in want and app.valence != want["valence"]:
                continue
            if app.magnitude >= floor:
                return True
        return False
    if "commitment" in cond:
        want = cond["commitment"]
        return any(c.atom == want.get("atom", c.atom) for c in ctx.commitments)
    raise ValueError(f"unknown condition form: {sorted(cond)}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def referenced_atoms(cond: Any) -> list[str]:
    """Belief atoms a condition reads, in declaration order, deduplicated.

    Raises ValueError on every form :func:`eval_condition` can fail on
    (and on sub-conditions that are not objects), so a condition that
    passes here evaluates without error.
    """
    out: list[str] = []

    def walk(c: Any) -> None:
        if not isinstance(c, dict):
            raise ValueError(f"malformed condition: {c!r}")
        known = "const" in c
        if "belief" in c:
            known = True
            atom = c["belief"]
            if not isinstance(atom, str):
                raise ValueError(f"belief atom must be a string: {atom!r}")
            for op in ("gt", "gte", "lt", "lte"):
                if op in c and not _is_number(c[op]):
                    raise ValueError(f"{op} needs a number: {c[op]!r}")
            if "in" in c and not isinstance(c["in"], list):
                raise ValueError(f"in needs a list: {c['in']!r}")
            if atom not in out:
                out.append(atom)
        for key in ("all", "any"):
            if key in c:
                known = True
                subs = c[key]
                if not isinstance(subs, list):
                    raise ValueError(f"{key} needs a list: {subs!r}")
                for sub in subs:
                    walk(sub)
        if "not" in c:
            known = True
            walk(c["not"])
        for key in ("appraisal", "commitment"):
            if key in c:
                known = True
                want = c[key]
                if not isinstance(want, dict):
                    raise ValueError(f"{key} needs an object: {want!r}")
                if "min_magnitude" in want and not _is_number(want["min_magnitude"]):
                    raise ValueError("min_magnitude needs a number")
        if not known:
            raise ValueError(f"unknown condition form: {sorted(c)}")

    walk(cond)
    return out
