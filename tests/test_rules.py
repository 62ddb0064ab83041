"""The condition language: compilation, evaluation and belief atoms.

Generated condition documents are grammar trees and single-key
perturbations of them.  A tree always compiles; a perturbation either
fails to compile with ValueError or compiles into a condition that
evaluates without error.  Every compiled condition evaluates as a
direct reading of its document does, and lists its belief atoms in
first-occurrence order.
"""

import copy
import pickle

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim.affect import Appraisal
from cogsim.metacog import Commitment
from cogsim.rules import (
    MAX_CONDITION_DEPTH,
    BeliefStore,
    RuleContext,
    compile_condition,
    eval_condition,
)

ATOMS = ("a", "b", "c")
VALENCES = ("positive", "negative")
NUMBERS = st.one_of(st.integers(-2, 2), st.floats(-2, 2, allow_nan=False))
VALUES = st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(["x", "y"]))
JUNK = (None, True, 0, 2.5, "", "x", [], [1], {}, {"a": 1}, {"const": True})
JUNK_KEYS = ("eq", "x", "atom", "valence", "const", "belief", "all", "not", "in", "gt")

atom = st.sampled_from(ATOMS)
leaf = st.one_of(
    st.fixed_dictionaries({"const": st.booleans()}),
    st.fixed_dictionaries({"belief": atom}),
    st.fixed_dictionaries({"belief": atom, "equals": VALUES}),
    st.sampled_from(("gt", "gte", "lt", "lte")).flatmap(
        lambda op: st.fixed_dictionaries({"belief": atom, op: NUMBERS})
    ),
    st.fixed_dictionaries({"belief": atom, "in": st.lists(VALUES, max_size=3)}),
    st.fixed_dictionaries({"appraisal": st.fixed_dictionaries({}, optional={
        "atom": atom, "valence": st.sampled_from(VALENCES), "min_magnitude": NUMBERS,
    })}),
    st.fixed_dictionaries({"commitment": st.fixed_dictionaries({}, optional={
        "atom": atom,
    })}),
)
trees = st.recursive(
    leaf,
    lambda sub: st.one_of(
        st.fixed_dictionaries({"all": st.lists(sub, max_size=3)}),
        st.fixed_dictionaries({"any": st.lists(sub, max_size=3)}),
        st.fixed_dictionaries({"not": sub}),
    ),
    max_leaves=8,
)


def nodes(doc):
    """Every object in the document, the document included, in pre-order."""
    out = [doc]
    for value in doc.values():
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, dict):
                out.extend(nodes(child))
    return out


@st.composite
def documents(draw):
    """(a grammar tree, False), or (the tree with one key of one of its
    objects set to junk or removed, True)."""
    doc = draw(trees)
    if draw(st.booleans()):
        return doc, False
    node = draw(st.sampled_from(nodes(doc)))
    key = draw(st.sampled_from(sorted(node) + list(JUNK_KEYS)))
    if draw(st.booleans()):
        node.pop(key, None)
    else:
        node[key] = draw(st.sampled_from(JUNK))
    return doc, True


contexts = st.fixed_dictionaries({
    "beliefs": st.dictionaries(atom, VALUES),
    "appraisals": st.lists(st.tuples(atom, st.sampled_from(VALENCES), NUMBERS),
                           max_size=3),
    "commitments": st.lists(atom, max_size=2),
})


def rule_context(drawn) -> RuleContext:
    beliefs = BeliefStore()
    for name, value in drawn["beliefs"].items():
        beliefs.set(name, value, 0)
    return RuleContext(
        beliefs=beliefs,
        appraisals=[Appraisal(a, v, m, "p") for a, v, m in drawn["appraisals"]],
        commitments=[Commitment(a, "positive") for a in drawn["commitments"]],
    )


def read(doc, drawn) -> bool:
    """The document's truth value, read directly off the grammar."""
    if "const" in doc:
        return doc["const"]
    if "all" in doc:
        return all(read(sub, drawn) for sub in doc["all"])
    if "any" in doc:
        return any(read(sub, drawn) for sub in doc["any"])
    if "not" in doc:
        return not read(doc["not"], drawn)
    if "belief" in doc:
        value = drawn["beliefs"].get(doc["belief"])
        number = isinstance(value, (int, float))
        if "equals" in doc:
            return value == doc["equals"]
        if "in" in doc:
            return value in doc["in"]
        for op, holds in (("gt", lambda x, y: x > y), ("gte", lambda x, y: x >= y),
                          ("lt", lambda x, y: x < y), ("lte", lambda x, y: x <= y)):
            if op in doc:
                return number and holds(value, doc[op])
        return bool(value)
    if "appraisal" in doc:
        want = doc["appraisal"]
        return any(
            want.get("atom", a) == a and want.get("valence", v) == v
            and m >= want.get("min_magnitude", 0.0)
            for a, v, m in drawn["appraisals"]
        )
    want = doc["commitment"]
    return any(want.get("atom", a) == a for a in drawn["commitments"])


def belief_atoms(doc) -> list:
    """Belief atoms in first-occurrence order, deduplicated."""
    seen = [node["belief"] for node in nodes(doc) if "belief" in node]
    return list(dict.fromkeys(seen))


@seed(20211015)
@settings(max_examples=150, deadline=None, database=None)
@given(case=documents(), drawn=contexts)
def test_documents_are_rejected_or_evaluate_as_read(case, drawn):
    doc, perturbed = case
    try:
        cond = compile_condition(doc)
    except ValueError:
        assert perturbed
        return
    # Parallel callers send parsed scenarios to worker processes.
    for each in (cond, pickle.loads(pickle.dumps(cond))):
        assert eval_condition(each, rule_context(drawn)) == read(doc, drawn)
    assert list(cond.atoms) == belief_atoms(doc)
    assert cond.doc is doc


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"const": "x"},
        {"const": True, "belief": "a"},
        {"belief": "a", "equals": True, "eq": 1},
        {"belief": "a", "equals": True, "gt": 0},
        {"belief": "a", "gt": True},
        {"belief": "a", "in": "ab"},
        {"belief": 1},
        {"all": {"const": True}},
        {"all": [True]},
        {"not": None},
        {"appraisal": {"atom": "a", "magnitude": 1}},
        {"appraisal": {"valence": "neutral"}},
        {"appraisal": {"atom": None}},
        {"appraisal": {"min_magnitude": None}},
        {"commitment": {"atom": "a", "valence": "positive"}},
        {"commitment": "a"},
    ],
)
def test_malformed_documents_raise(doc):
    with pytest.raises(ValueError):
        compile_condition(doc)


@pytest.mark.parametrize("form", ["not", "all", "any"])
def test_nesting_is_bounded(form):
    """A condition MAX_CONDITION_DEPTH levels deep compiles and evaluates;
    one level more is malformed."""

    def nested(levels):
        doc = {"belief": "a"}
        for _ in range(levels - 1):
            doc = {form: doc if form == "not" else [doc]}
        return doc

    cond = compile_condition(nested(MAX_CONDITION_DEPTH))
    beliefs = BeliefStore()
    beliefs.set("a", True, 0)
    want = form != "not" or MAX_CONDITION_DEPTH % 2 == 1
    assert eval_condition(cond, RuleContext(beliefs)) is want
    assert cond.atoms == ("a",)
    with pytest.raises(ValueError, match="nested deeper"):
        compile_condition(nested(MAX_CONDITION_DEPTH + 1))


def test_equality_uses_the_source_document():
    doc = {"all": [{"belief": "b"}, {"not": {"belief": "a", "gt": 1}}, {"belief": "b"}]}
    cond = compile_condition(doc)
    assert cond == compile_condition(copy.deepcopy(doc))
    assert cond != compile_condition({"belief": "b"})
    assert cond.atoms == ("b", "a")


class RecordingBeliefs(BeliefStore):
    """A belief store that records the atoms read, in order."""

    def __init__(self, values):
        super().__init__()
        self.read = []
        for name, value in values.items():
            self.set(name, value, 0)

    def get(self, atom, default=None):
        self.read.append(atom)
        return super().get(atom, default)


@pytest.mark.parametrize("form, values, want, read", [
    ("all", {"a": 1, "b": 0, "c": 1}, False, ["a", "b"]),
    ("all", {"a": 1, "b": 1, "c": 1}, True, ["a", "b", "c"]),
    ("any", {"a": 0, "b": 1, "c": 0}, True, ["a", "b"]),
    ("any", {"a": 0, "b": 0, "c": 0}, False, ["a", "b", "c"]),
])
def test_a_connective_reads_its_parts_in_order_up_to_the_deciding_one(
        form, values, want, read):
    beliefs = RecordingBeliefs(values)
    cond = compile_condition({form: [{"belief": name} for name in "abc"]})
    assert eval_condition(cond, RuleContext(beliefs)) is want
    assert beliefs.read == read


class PulledList(list):
    """A list that counts the items its last iteration pulled."""

    def __iter__(self):
        self.pulled = 0
        for item in super().__iter__():
            self.pulled += 1
            yield item


@pytest.mark.parametrize("want, holds, pulled", [
    ({"valence": "negative"}, True, 1),
    ({"atom": "b"}, True, 2),
    ({"atom": "b", "min_magnitude": 0.9}, False, 3),
    ({}, True, 1),
])
def test_an_appraisal_test_stops_at_the_first_match(want, holds, pulled):
    appraisals = PulledList([Appraisal("a", "negative", 0.5, "p"),
                             Appraisal("b", "positive", 0.5, "p"),
                             Appraisal("b", "positive", 0.5, "p")])
    cond = compile_condition({"appraisal": want})
    assert eval_condition(cond, RuleContext(BeliefStore(), appraisals)) is holds
    assert appraisals.pulled == pulled
