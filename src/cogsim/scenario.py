"""Scenario documents: parse, validate, instantiate, serialize.

A scenario is a single UTF-8 JSON document with exactly the top-level
keys {meta, ontology, starting_state, events, goal, agent, bct_profile}.
The schema is closed: unknown keys anywhere are rejected with a
SchemaError naming the offending path.  Optional inner fields fall back
to engine defaults (8x8 grid, deliberation every 3 ticks, tendencies
live 2 ticks).

Validation never raises; it returns a report of coded errors and
warnings.  Instantiation turns a clean spec plus a seed into a complete
initial simulation state; any randomized ("scattered") placement is a
pure function of the seed.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from typing import Any, Callable, NamedTuple

from . import world as W
from .affect import AffectiveProcess, AppraisalRule, ProcessOption
from .agent import ReactiveRule, SimulationState
from .arguments import ArgumentTemplate
from .errors import InvalidSpec, ParseError, SchemaError
from .metacog import Commitment, CountermeasureSpec, ReasoningTrace
from .rules import BeliefStore, Condition, compile_condition

FORMAT_VERSION = 1
DEFAULT_GRID = (8, 8)
# Validation counts a grid's free cells, and each search of the planner
# may visit every cell: at this bound, validating a document and running
# it for 60 ticks take seconds at most.
MAX_GRID_CELLS = 128 * 128
DEFAULT_DELIBERATION_PERIOD = 3
DEFAULT_TENDENCY_TTL = 2


@dataclass(frozen=True)
class Meta:
    name: str
    description: str = ""
    format_version: int = FORMAT_VERSION


@dataclass(frozen=True)
class Ontology:
    object_kinds: tuple[str, ...]
    fixtures: tuple[W.Fixture, ...]


@dataclass(frozen=True)
class StartingState:
    grid: tuple[int, int]
    agent: tuple[int, int]
    # Each location is "scattered" or a location string.
    objects: tuple[W.ObjectState, ...] = ()
    scatter_region: tuple[tuple[int, int], tuple[int, int]] | None = None
    facts: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class ProcessDecl:
    id: str
    rank: int
    goal: str
    urgency: float = 0.5
    os: bool = False
    options: tuple[ProcessOption, ...] = ()


@dataclass(frozen=True)
class AgentConfig:
    processes: tuple[ProcessDecl, ...] = ()
    reactive_rules: tuple[ReactiveRule, ...] = ()
    appraisal_rules: tuple[AppraisalRule, ...] = ()
    argument_templates: tuple[ArgumentTemplate, ...] = ()
    countermeasures: tuple[CountermeasureSpec, ...] = ()
    commitments: tuple[Commitment, ...] = ()
    deliberation_period: int = DEFAULT_DELIBERATION_PERIOD
    tendency_ttl: int = DEFAULT_TENDENCY_TTL


@dataclass(frozen=True)
class ScenarioSpec:
    meta: Meta
    ontology: Ontology
    starting_state: StartingState
    events: tuple[W.WorldEvent, ...]
    goal: W.GoalSpec
    agent: AgentConfig
    bct_profile: str

    @cached_property
    def _report(self) -> ValidationReport:
        # Kept outside the fields, as RoomLayout keeps its fixture cells:
        # nothing changes a spec once it is built, so one pass serves the
        # CLI's check and every instantiation of it.
        return _validate(self)


@dataclass
class ValidationReport:
    errors: list[tuple[str, str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str, str]] = field(default_factory=list)

    def error(self, code: str, location: str, message: str) -> None:
        self.errors.append((code, location, message))

    def warn(self, code: str, location: str, message: str) -> None:
        self.warnings.append((code, location, message))

    def ok(self) -> bool:
        return not self.errors


# -- field tables -------------------------------------------------------------
#
# A converter has ``load(value, path)``, which checks one JSON value and
# returns the attribute it becomes, raising SchemaError at ``path``, and
# ``dump``, its inverse.  A _Record names a class and one _Field per JSON
# key, in document order; it parses and renders any record from that
# table, and is itself the converter of a record held under a key.

_REQUIRED = object()
_ABSENT = object()


class _Conv(NamedTuple):
    load: Callable[[Any, str], Any]
    dump: Callable[[Any], Any] = lambda value: value  # tuples dump as lists


class _Field(NamedTuple):
    """A JSON key, its converter and attribute (by default the key), and
    the default for an absent key: _REQUIRED, a value, a function of the
    attributes parsed so far, or _ABSENT (the class default; a None
    attribute is left out of the document)."""

    key: str
    conv: Any
    default: Any = _REQUIRED
    attr: str = ""


class _Record:
    def __init__(self, cls, *fields: _Field, one_of: str | None = None):
        self.cls = cls
        self.fields = fields
        self.keys = frozenset(f.key for f in fields)
        self.required = [f.key for f in fields if f.default is _REQUIRED]
        self.one_of = one_of  # message for an object without exactly one key

    def walk(self, obj, path: str):
        if not isinstance(obj, dict):
            raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
        for key in obj:
            if key not in self.keys:
                raise SchemaError(f"{path}.{key}", "unknown key")
        for key in self.required:
            if key not in obj:
                raise SchemaError(path, f"missing required key: {key}")
        values = {}
        for key, conv, default, attr in self.fields:
            attr = attr or key
            if key in obj:
                values[attr] = conv.load(obj[key], f"{path}.{key}")
            elif callable(default):
                values[attr] = default(values)
            elif default is not _ABSENT:
                values[attr] = default
        return self.cls(**values)

    def load(self, value, path: str):
        if not isinstance(value, dict):
            raise SchemaError(path, "expected an object")
        if self.one_of and len(value) != 1 and value.keys() <= self.keys:
            raise SchemaError(path, self.one_of)
        return self.walk(value, _inner(path))

    def dump(self, value) -> dict:
        doc = {}
        for key, conv, default, attr in self.fields:
            attr = attr or key
            got = value.get(attr) if self.cls is dict else getattr(value, attr)
            if got is not None or default is not _ABSENT:
                doc[key] = conv.dump(got)
        return doc

    def many(self) -> _Conv:
        """The converter of a list of these records, loaded as a tuple.
        An item is named ``[<id>]`` when it has a string id, as validation
        names it, and ``[<index>]`` otherwise."""

        def load(value, path):
            if not isinstance(value, list):
                raise SchemaError(path, "expected a list")
            inner = _inner(path)
            return tuple(self.walk(item, f"{inner}[{_item_name(item, i)}]")
                         for i, item in enumerate(value))

        return _Conv(load, lambda value: [self.dump(item) for item in value])


def _item_name(item, index: int):
    name = item.get("id") if isinstance(item, dict) else None
    return name if isinstance(name, str) else index


def _inner(path: str) -> str:
    # A top-level section's type error names "$.key"; paths inside it don't.
    return path[2:] if path.startswith("$.") else path


def _tagged(noun: str, variants: dict[str, _Record]) -> _Conv:
    """An object whose "kind" names the dict record it is parsed as."""

    def load(value, path):
        if not isinstance(value, dict):
            raise SchemaError(path, "expected an object")
        if "kind" not in value:
            raise SchemaError(path, "missing required key: kind")
        kind = _STR.load(value["kind"], f"{path}.kind")
        if kind not in variants:
            raise SchemaError(f"{path}.kind", f"unknown {noun}: {kind}")
        return variants[kind].walk(value, path)

    return _Conv(load, lambda value: variants[value["kind"]].dump(value))


def _checked(conv: _Conv, invalid: Callable[[Any], bool], message: str) -> _Conv:
    """``conv``, then ``message``, formatted with the value, if ``invalid``."""

    def load(value, path):
        value = conv.load(value, path)
        if invalid(value):
            raise SchemaError(_inner(path), message.format(value))
        return value

    return _Conv(load, conv.dump)


def _value(ok: Callable[[Any], bool], message: str, convert=None) -> _Conv:
    """A JSON value for which ``ok`` holds, then ``convert(value, path)``.

    JSON values have exact builtin types, and a boolean is no integer,
    so the checks below compare ``type(value)``.
    """

    def load(value, path):
        if not ok(value):
            raise SchemaError(path, message)
        return value if convert is None else convert(value, path)

    return _Conv(load)


def _load_condition(value, path: str) -> Condition:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected a condition object")
    try:
        return compile_condition(value)
    except ValueError as exc:
        raise SchemaError(path, f"malformed condition: {exc}") from None


def _to_float(value, path: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(path, "number out of range") from None


_STR = _value(lambda v: type(v) is str, "expected a string")
_INT = _value(lambda v: type(v) is int, "expected an integer")
_NUMBER = _value(lambda v: type(v) in (int, float), "expected a number", _to_float)
_BOOL = _value(lambda v: type(v) is bool, "expected a boolean")
_OPT_INT = _value(lambda v: v is None or type(v) is int, "expected an integer or null")
_OPT_STR = _value(lambda v: v is None or type(v) is str, "expected a string or null")
_ANY = _value(lambda v: True, "")
_CELL = _value(lambda v: type(v) is list and len(v) == 2
               and all(type(x) is int for x in v),
               "expected a [x, y] integer pair", lambda v, path: tuple(v))
_REGION = _value(lambda v: type(v) is list and len(v) == 2,
                 "expected [[x0, y0], [x1, y1]]",
                 lambda v, path: (_CELL.load(v[0], f"{path}[0]"),
                                  _CELL.load(v[1], f"{path}[1]")))
_STR_LIST = _value(lambda v: type(v) is list and all(type(x) is str for x in v),
                   "expected a list of strings", lambda v, path: tuple(v))
_KIND_MAP = _value(lambda v: type(v) is dict, "expected an object",
                   lambda v, path: {kind: _STR_LIST.load(allowed, f"{path}.{kind}")
                                    for kind, allowed in v.items()})
_FACTS = _Conv(_value(lambda v: type(v) is dict, "expected an object",
                      lambda v, path: tuple(sorted(v.items()))).load, dict)
_CONDITION = _Conv(_load_condition, lambda cond: cond.doc)
_ID_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")
_ID = _checked(_STR, lambda v: not _ID_PATTERN.match(v),
               "ids must be lowercase snake_case, got {!r}")
_IDS = _Conv(lambda value, path: tuple(
    _ID.load(entry, path) for entry in _STR_LIST.load(value, path)
))
_VALENCE = _checked(_STR, lambda v: v not in ("positive", "negative"),
                    "must be 'positive' or 'negative'")
_WEIGHT = _checked(_NUMBER, lambda v: v < 0, "must be >= 0")
_PERIOD = _checked(_INT, lambda v: v < 1, "must be >= 1")
_KIND = _Field("kind", _STR)

# A location is "scattered" or one of {"cell": [x, y]}, {"slot": ID} and
# {"fixture": ID}; the spec holds "cell:x,y", "slot:ID" or "fixture:ID".
_LOCATION_FORM = _Record(
    dict, _Field("cell", _CELL, _ABSENT), _Field("slot", _STR, _ABSENT),
    _Field("fixture", _STR, _ABSENT),
    one_of="location needs exactly one of cell/slot/fixture",
)


def _load_location(value, path: str) -> str:
    if value == "scattered":
        return value
    if not isinstance(value, dict):
        raise SchemaError(path, "expected 'scattered' or a location object")
    ((kind, where),) = _LOCATION_FORM.load(value, path).items()
    return W.cell_loc(where) if kind == "cell" else f"{kind}:{where}"


def _dump_location(location: str):
    if location == "scattered":
        return location
    kind, _, where = location.partition(":")
    return {kind: W.parse_cell(location) if kind == "cell" else where}


_LOCATION = _Conv(_load_location, _dump_location)
_DEFAULT_PROCESSES = (ProcessDecl(id="proc0", rank=0, goal="task"),)


def _load_processes(value, path: str) -> tuple[ProcessDecl, ...]:
    # An agent that declares no process gets a single task process.
    return _PROCESSES.load(value, path) or _DEFAULT_PROCESSES


_META = _Record(
    Meta,
    _Field("name", _STR),
    _Field("description", _STR, ""),
    _Field("format_version", _checked(_INT, lambda v: v != FORMAT_VERSION,
                                      "unsupported version: {}")),
)
_FIXTURE = _Record(
    W.Fixture,
    _Field("id", _ID),
    _Field("cell", _CELL),
    _Field("accepts", _STR),
    _Field("slots", _IDS, ()),
    _Field("capacity", _checked(_OPT_INT, lambda v: v is not None and v < 1,
                                "must be >= 1 or null"), None),
)
_ONTOLOGY = _Record(
    Ontology,
    _Field("object_kinds", _STR_LIST, ()),
    _Field("fixtures", _FIXTURE.many(), ()),
)
_OBJECT = _Record(
    W.ObjectState,
    _Field("id", _ID),
    _Field("kind", _STR),
    _Field("location", _LOCATION),
)
_STARTING_STATE = _Record(
    StartingState,
    _Field("grid", _CELL, DEFAULT_GRID),
    _Field("agent", _CELL, (0, 0)),
    _Field("objects", _OBJECT.many(), ()),
    _Field("facts", _FACTS, ()),
    _Field("scatter_region", _REGION, _ABSENT),
)
# Event effects stay dicts; the fixture and the spawned kind are checked
# against the ontology once the whole document is parsed.
_EFFECT = _tagged("effect", {
    "break_fixture": _Record(dict, _KIND, _Field("fixture", _ANY)),
    "spawn_object": _Record(dict, _KIND, _Field("object", _Record(
        dict,
        _Field("id", _ID),
        _Field("kind", _ANY),
        _Field("location", _checked(_LOCATION, lambda v: v == "scattered",
                                    "spawned objects need a concrete location")),
    ))),
    "remove_object": _Record(dict, _KIND, _Field("object_id", _STR)),
})
_EVENT = _Record(
    W.WorldEvent,
    _Field("fire_tick", _checked(_INT, lambda v: v < 0, "must be non-negative")),
    _Field("effect", _EFFECT),
)
_GOAL = _Record(
    W.GoalSpec,
    _Field("strict", _KIND_MAP),
    _Field("relaxed", _KIND_MAP, lambda got: dict(got["strict"])),
    _Field("deadline_tick", _OPT_INT, None),
)
_OPTION = _Record(
    ProcessOption,
    _Field("state", _STR),
    _Field("action", _STR),
    _Field("label", _STR, lambda got: got["state"]),
    _Field("commit_label", _STR, ""),
    _Field("flips", _STR_LIST, ()),
    _Field("sustains", _STR_LIST, ()),
)
_PROCESSES = _Record(
    ProcessDecl,
    _Field("id", _ID),
    _Field("rank", _INT),
    _Field("goal", _STR),
    _Field("urgency", _NUMBER, 0.5),
    _Field("os", _BOOL, False),
    _Field("options", _OPTION.many(), ()),
).many()
_REACTIVE_RULE = _Record(
    ReactiveRule,
    _Field("id", _ID),
    _Field("when", _CONDITION),
    _Field("action", _STR),
    _Field("urgency", _NUMBER),
    _Field("label", _STR, ""),
)
_APPRAISAL_RULE = _Record(
    AppraisalRule,
    _Field("id", _ID),
    _Field("process", _STR),
    _Field("when", _CONDITION),
    _Field("subject", _STR),
    _Field("valence", _VALENCE),
    _Field("magnitude", _checked(_NUMBER, lambda v: v <= 0, "must be > 0")),
    _Field("label", _STR, ""),
)
# The option-selector forms arguments.build_case understands.
_SELECTOR = _Record(
    dict, _Field("option", _STR, _ABSENT), _Field("action", _STR, _ABSENT),
    _Field("from_process", _STR, _ABSENT), _Field("any", _BOOL, _ABSENT),
    one_of="option selector needs exactly one of option/action/from_process/any",
)
_ARGUMENT_TEMPLATE = _Record(
    ArgumentTemplate,
    _Field("id", _ID),
    _Field("process", _STR),
    _Field("polarity", _checked(_STR, lambda v: v not in ("pro", "con"),
                                "must be 'pro' or 'con'")),
    _Field("weight", _WEIGHT),
    _Field("options", _SELECTOR, attr="option_selector"),
    _Field("when", _CONDITION, lambda got: compile_condition({"const": True}),
           attr="trigger"),
    _Field("undercuts", _OPT_STR, _ABSENT, attr="undercuts_template"),
    _Field("grounds", _STR_LIST, ()),
)
_COUNTERMEASURE = _Record(
    CountermeasureSpec,
    _Field("id", _ID),
    _Field("matches", _Record(
        dict, _Field("kind", _STR, _ABSENT), _Field("atom", _STR, _ABSENT)
    )),
    _Field("action", _tagged("countermeasure", {
        "redescription": _Record(dict, _KIND, _Field("template", _STR)),
        "replanning": _Record(dict, _KIND, _Field("goal_variant", _STR, _ABSENT)),
    })),
)
_COMMITMENT = _Record(
    Commitment,
    _Field("atom", _STR),
    _Field("valence", _VALENCE, attr="required_valence"),
    _Field("origin", _STR, "initial_goal"),
    _Field("weight", _WEIGHT, 1.0),
)
_AGENT = _Record(
    AgentConfig,
    _Field("processes", _Conv(_load_processes, _PROCESSES.dump), _DEFAULT_PROCESSES),
    _Field("reactive_rules", _REACTIVE_RULE.many(), ()),
    _Field("appraisal_rules", _APPRAISAL_RULE.many(), ()),
    _Field("argument_templates", _ARGUMENT_TEMPLATE.many(), ()),
    _Field("countermeasures", _COUNTERMEASURE.many(), ()),
    _Field("commitments", _COMMITMENT.many(), ()),
    _Field("deliberation_period", _PERIOD, DEFAULT_DELIBERATION_PERIOD),
    _Field("tendency_ttl", _PERIOD, DEFAULT_TENDENCY_TTL),
)
_SCENARIO = _Record(
    ScenarioSpec,
    _Field("meta", _META),
    _Field("ontology", _ONTOLOGY),
    _Field("starting_state", _STARTING_STATE),
    _Field("events", _EVENT.many()),
    _Field("goal", _GOAL),
    _Field("agent", _AGENT),
    _Field("bct_profile", _checked(_STR, lambda v: v not in ("prime", "ceos"),
                                   "must be 'prime' or 'ceos', got {!r}")),
)


# -- parsing and serialization ------------------------------------------------


class _NonFinite(Exception):
    """A number literal that is not a finite float: ``NaN``, ``Infinity``,
    ``-Infinity`` (which Python's JSON reader accepts) or an overflow."""


def _finite_float(token: str) -> float:
    """A JSON float literal or constant, which must be finite."""
    value = float(token)
    if not math.isfinite(value):
        raise _NonFinite(token)
    return value


def _literal_position(document: str, token: str) -> int:
    """Offset of the first bare ``token`` outside any JSON string."""
    pattern = r'"(?:[^"\\]|\\.)*"|(?<![\w.+-])' + re.escape(token) + r"(?![\w.+-])"
    for match in re.finditer(pattern, document):
        if not match.group().startswith('"'):
            return match.start()
    return 0


def parse_scenario(document: str) -> ScenarioSpec:
    """Parse a scenario document into a spec, applying defaults.

    Malformed JSON, a non-finite number included, raises ParseError with
    the line and column, and so does nesting too deep for the JSON
    reader (reported at the document's start); schema problems (wrong
    types, unknown keys, undeclared entities in an event) raise
    SchemaError with the offending path.
    """
    try:
        data = json.loads(
            document, parse_constant=_finite_float, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    except RecursionError:
        raise ParseError(1, 1, "nested too deeply") from None
    except _NonFinite as exc:
        token = exc.args[0]
        at = json.JSONDecodeError(
            f"non-finite number {token} is not allowed",
            document,
            _literal_position(document, token),
        )
        raise ParseError(at.lineno, at.colno, at.msg) from None
    if not isinstance(data, dict):
        raise SchemaError("$", "top level must be an object")
    spec = _SCENARIO.walk(data, "$")

    fixtures = [f.id for f in spec.ontology.fixtures]
    for i, event in enumerate(spec.events):
        effect = event.effect
        if effect["kind"] == "break_fixture" and effect["fixture"] not in fixtures:
            raise SchemaError(f"events[{i}].effect",
                              f"undeclared fixture: {effect['fixture']}")
        if (
            effect["kind"] == "spawn_object"
            and effect["object"]["kind"] not in spec.ontology.object_kinds
        ):
            raise SchemaError(f"events[{i}].effect.object.kind",
                              f"undeclared kind: {effect['object']['kind']}")
    return spec


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Render a spec back to document text; parsing it reproduces the spec."""
    return json.dumps(_SCENARIO.dump(spec), indent=2) + "\n"


# -- validation ---------------------------------------------------------------


def validate_scenario(spec: ScenarioSpec) -> ValidationReport:
    """Cross-check the spec; problems become report entries, never raises.

    The checks run once per spec object; each call returns a copy of
    their report.
    """
    report = spec._report
    return ValidationReport(list(report.errors), list(report.warnings))


def _validate(spec: ScenarioSpec) -> ValidationReport:
    report = ValidationReport()
    onto = spec.ontology
    fixture_ids = {f.id for f in onto.fixtures}
    slot_ids: set[str] = set()
    start = spec.starting_state
    width, height = start.grid
    if width * height > MAX_GRID_CELLS:
        report.error("GRID_TOO_LARGE", "starting_state.grid",
                     f"{width}x{height} grid has more than {MAX_GRID_CELLS} cells")
        return report
    layout = W.RoomLayout(width, height, onto.fixtures)

    seen_cells: set[tuple[int, int]] = set()
    seen_fixtures: set[str] = set()
    for f in onto.fixtures:
        # The layout and place find a fixture or slot by its id alone, so
        # a second fixture of one id, or a slot named as a fixture, could
        # never be the target of a placement.
        if f.id in seen_fixtures:
            report.error("DUPLICATE_FIXTURE", f"ontology.fixtures[{f.id}]",
                         f"fixture {f.id} declared twice")
        seen_fixtures.add(f.id)
        for slot in f.slots:
            if slot in slot_ids:
                report.error("DUPLICATE_SLOT", f"ontology.fixtures[{f.id}]",
                             f"slot {slot} declared twice")
            if slot in fixture_ids:
                report.error("DUPLICATE_SLOT", f"ontology.fixtures[{f.id}]",
                             f"slot {slot} has the id of fixture {slot}")
            slot_ids.add(slot)
        if f.slots and f.capacity is not None:
            report.error("SLOT_CONFLICT", f"ontology.fixtures[{f.id}]",
                         f"fixture {f.id} is slot-addressed: capacity does not apply")
        if not layout.in_bounds(f.cell):
            report.error("OUT_OF_BOUNDS", f"ontology.fixtures[{f.id}]",
                         f"fixture cell {f.cell} outside the {width}x{height} grid")
        if f.cell in seen_cells:
            report.error("CELL_CONFLICT", f"ontology.fixtures[{f.id}]",
                         f"cell {f.cell} already occupied by another fixture")
        seen_cells.add(f.cell)

    if not layout.in_bounds(start.agent):
        report.error("OUT_OF_BOUNDS", "starting_state.agent",
                     "agent starts outside the grid")
    elif start.agent in seen_cells:
        report.error("CELL_CONFLICT", "starting_state.agent",
                     "agent starts on a fixture cell")

    # The starting objects, then the events in firing order (by tick, then
    # in schedule order), replay through the world's own check of effects.
    def replay(world: W.WorldState, effect: dict, loc: str) -> W.WorldState:
        world, _, rejected = W.step_events(world, (W.WorldEvent(world.tick, effect),))
        for _, code, reason in rejected:
            report.error(code, loc, reason)
        return world

    world = W.WorldState(tick=0, layout=layout, agent_pos=start.agent)
    for obj in start.objects:
        loc = f"starting_state.objects[{obj.id}]"
        world = replay(world, {"kind": "spawn_object", "object": {
            "id": obj.id, "kind": obj.kind, "location": obj.location}}, loc)
        if obj.kind not in onto.object_kinds:
            report.error("DANGLING_REF", loc, f"undeclared kind: {obj.kind}")

    scattered = sum(o.location == "scattered" for o in start.objects)
    if scattered:
        free = len(_scatter_cells(spec))
        if free < scattered:
            report.error("SCATTER_SPACE", "starting_state",
                         f"{scattered} scattered objects but only {free} free cells")

    for i, event in sorted(enumerate(spec.events), key=lambda e: e[1].fire_tick):
        if event.fire_tick != world.tick:
            # The agent can move objects from tick 0 on, so which slots are
            # held is known only within one fire tick: objects lose their place.
            objects = {o.id: W.ObjectState(o.id, o.kind, "scattered")
                       for o in world.objects.values()}
            world = replace(world, tick=event.fire_tick, objects=objects)
        world = replay(world, event.effect, f"events[{i}].effect")
        if (
            spec.goal.deadline_tick is not None
            and event.fire_tick > spec.goal.deadline_tick
        ):
            report.warn("UNREACHABLE_EVENT", f"events[{i}]",
                        "fires after the goal deadline")

    for which, mapping in (("strict", spec.goal.strict), ("relaxed", spec.goal.relaxed)):
        for kind, allowed in mapping.items():
            if kind not in onto.object_kinds:
                report.error("DANGLING_REF", f"goal.{which}.{kind}",
                             f"undeclared kind: {kind}")
            for fixture_id in allowed:
                if fixture_id not in fixture_ids:
                    report.error("DANGLING_REF", f"goal.{which}.{kind}",
                                 f"undeclared fixture: {fixture_id}")
    if not spec.goal.entails():
        report.error("GOAL_ENTAILMENT", "goal",
                     "a strict placement is excluded by the relaxed predicate")

    agent = spec.agent
    process_ids = [p.id for p in agent.processes]
    if len(set(process_ids)) != len(process_ids):
        report.error("DUPLICATE_PROCESS", "agent.processes",
                     "process ids must be unique")
    ranks = [p.rank for p in agent.processes]
    if len(set(ranks)) != len(ranks):
        report.error("DUPLICATE_PRIORITY", "agent.processes",
                     "priority ranks must be unique")
    if sum(1 for p in agent.processes if p.os) > 1:
        report.error("MULTIPLE_OS", "agent.processes",
                     "at most one process may be the operational-system owner")
    if sum(1 for p in agent.processes if p.goal == "task") > 1:
        report.error("MULTIPLE_TASK", "agent.processes",
                     "at most one process may own the task goal")
    if agent.reactive_rules and not agent.processes:
        report.error("NO_OS_PROCESS", "agent.reactive_rules",
                     "reactive rules need a process to attribute tendencies to")
    # A run finds each of these by id: a second declaration would be
    # listed twice in an option set, or overwrite the first's rule truth.
    for section in ("reactive_rules", "appraisal_rules", "argument_templates",
                    "countermeasures"):
        ids: set[str] = set()
        for item in getattr(agent, section):
            if item.id in ids:
                report.error("DUPLICATE_ID", f"agent.{section}[{item.id}]",
                             f"{item.id} declared twice")
            ids.add(item.id)

    for rule in agent.appraisal_rules:
        if rule.process not in process_ids:
            report.error("DANGLING_REF", f"agent.appraisal_rules[{rule.id}]",
                         f"undeclared process: {rule.process}")

    template_ids = {t.id for t in agent.argument_templates}
    owned: set[str] = set()
    for template in agent.argument_templates:
        owned.add(template.process)
        if template.process not in process_ids:
            report.error("DANGLING_REF", f"agent.argument_templates[{template.id}]",
                         f"undeclared process: {template.process}")
        if (
            template.undercuts_template is not None
            and template.undercuts_template not in template_ids
        ):
            report.error("DANGLING_REF", f"agent.argument_templates[{template.id}]",
                         f"undeclared undercut target: {template.undercuts_template}")
    if _undercut_cycle(agent.argument_templates):
        report.error("CYCLIC_UNDERCUT", "agent.argument_templates",
                     "undercut relation among templates is cyclic")
    for process in agent.processes:
        if process.id not in owned:
            report.warn("NO_TEMPLATES", f"agent.processes[{process.id}]",
                        "process advances no argument templates")

    # A world action on an entity that nothing creates is accepted, since a
    # run refuses it like any illegal action and idles; but the id is most
    # likely misspelt, so it is reported.
    object_ids = {o.id for o in start.objects} | {
        e.effect["object"]["id"] for e in spec.events
        if e.effect["kind"] == "spawn_object"}
    actions = [(f"agent.reactive_rules[{r.id}]", r.action) for r in agent.reactive_rules]
    actions += [(f"agent.processes[{p.id}].options[{o.state}]", o.action)
                for p in agent.processes for o in p.options]
    for loc, action in actions:
        if not W.is_world_action(action):
            continue
        kind, arg = W.split_action(action)
        if kind == "pick_up" and arg not in object_ids:
            report.warn("DANGLING_REF", loc, f"undeclared object: {arg}")
        elif kind == "place" and arg not in fixture_ids and arg not in slot_ids:
            report.warn("DANGLING_REF", loc, f"undeclared fixture or slot: {arg}")

    for cm in agent.countermeasures:
        if cm.action["kind"] == "redescription":
            if cm.action["template"] not in template_ids:
                report.error("DANGLING_REF", f"agent.countermeasures[{cm.id}]",
                             f"undeclared template: {cm.action['template']}")
        elif cm.action.get("goal_variant", "relaxed") not in ("strict", "relaxed"):
            report.error("DANGLING_REF", f"agent.countermeasures[{cm.id}]",
                         "unknown goal variant")

    declared_atoms = {r.subject for r in agent.appraisal_rules}
    for commitment in agent.commitments:
        if commitment.atom not in declared_atoms:
            report.error(
                "COMMITMENT_ATOM",
                f"agent.commitments[{commitment.atom}]",
                "commitment atom is not the subject of any appraisal rule",
            )

    return report


def _undercut_cycle(templates) -> bool:
    graph = {t.id: t.undercuts_template for t in templates}
    for start in graph:
        seen = set()
        node = start
        while node is not None:
            if node in seen:
                return True
            seen.add(node)
            node = graph.get(node)
    return False


# -- instantiation ------------------------------------------------------------


def _scatter_cells(spec: ScenarioSpec) -> list[tuple[int, int]]:
    start = spec.starting_state
    width, height = start.grid
    region = start.scatter_region or ((0, 0), (width - 1, height - 1))
    (x0, y0), (x1, y1) = region
    blocked = {f.cell for f in spec.ontology.fixtures}
    cells = []
    for y in range(max(0, y0), min(height - 1, y1) + 1):
        for x in range(max(0, x0), min(width - 1, x1) + 1):
            if (x, y) not in blocked:
                cells.append((x, y))
    return cells


def instantiate(spec: ScenarioSpec, seed: int) -> SimulationState:
    """Build the complete initial simulation state.

    Scattered objects draw distinct floor cells from the declared
    scatter region without replacement; the draw is a pure function of
    the seed.  A spec with validation errors raises InvalidSpec; the
    checks run once per spec, however often it is validated or
    instantiated.
    """
    report = spec._report
    if not report.ok():
        raise InvalidSpec(f"scenario has {len(report.errors)} validation error(s)")

    start = spec.starting_state
    layout = W.RoomLayout(
        width=start.grid[0], height=start.grid[1], fixtures=spec.ontology.fixtures
    )

    rng = random.Random(seed)
    scattered = [o for o in start.objects if o.location == "scattered"]
    cells = _scatter_cells(spec)
    drawn = rng.sample(cells, len(scattered)) if scattered else []
    placement = dict(zip((o.id for o in scattered), drawn))
    objects = {
        o.id: replace(o, location=W.cell_loc(placement[o.id]))
        if o.location == "scattered" else o
        for o in start.objects
    }

    world = W.WorldState(
        tick=0,
        layout=layout,
        agent_pos=start.agent,
        agent_holding=None,
        objects=objects,
        broken_fixtures=frozenset(),
        abandoned=False,
        facts=dict(start.facts),
    )

    processes = [
        AffectiveProcess(
            id=decl.id,
            priority_rank=decl.rank,
            goal_ref=decl.goal,
            rules=tuple(r for r in spec.agent.appraisal_rules if r.process == decl.id),
            options=decl.options,
            urgency=decl.urgency,
            os_role=decl.os,
        )
        for decl in sorted(spec.agent.processes, key=lambda decl: decl.rank)
    ]

    return SimulationState(
        world=world,
        beliefs=BeliefStore(),
        processes=processes,
        trace=ReasoningTrace(),
        config=spec.agent,
        goal=spec.goal,
        events=spec.events,
        bct_profile=spec.bct_profile,
    )


# -- bundled assets -----------------------------------------------------------

BUNDLED = ("room_tidy", "room_tidy_redescription", "non_smoking", "office_cake")


def bundled_document(name: str) -> str:
    """Raw text of a bundled scenario asset."""
    return (
        resources.files("cogsim").joinpath(f"assets/{name}.json").read_text("utf-8")
    )


def load_bundled(name: str) -> ScenarioSpec:
    return parse_scenario(bundled_document(name))
