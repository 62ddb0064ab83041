import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.arguments import (
    Argument,
    ArgumentTemplate,
    active_set,
    aggregate,
    argument_id,
    build_case,
    triggered,
)
from cogsim.errors import CyclicUndercut
from cogsim.rules import BeliefStore, RuleContext, compile_condition

from helpers import brute_force_active_set, brute_force_scores, random_argument_instance


def arg(i, option="x", polarity="pro", weight=1.0, undercuts=None):
    return Argument(
        id=i, option=option, polarity=polarity, weight=weight, undercuts=undercuts
    )


class TestActiveSet:
    def test_singleton_without_undercut_is_active(self):
        assert active_set([arg("a")]) == {"a"}

    def test_undercutter_defeats_target(self):
        args = [arg("a"), arg("b", undercuts="a")]
        assert active_set(args) == {"b"}

    def test_reinstatement_chain(self):
        # Computed by brute force over all 2^3 activation assignments:
        # c undercuts b undercuts a leaves {c, a} as the only fixed point.
        args = [arg("a"), arg("b", undercuts="a"), arg("c", undercuts="b")]
        assert brute_force_active_set(args) == {"a", "c"}
        assert active_set(args) == {"a", "c"}

    def test_cycle_raises(self):
        args = [arg("a", undercuts="b"), arg("b", undercuts="a")]
        with pytest.raises(CyclicUndercut):
            active_set(args)

    def test_exhaustive_small_instances(self):
        # All undercut arrangements on <= 4 arguments: each argument
        # targets one earlier argument or nothing, which covers every
        # acyclic single-target shape up to relabeling.
        for n in range(1, 5):
            for targets in itertools.product(*[range(-1, i) for i in range(n)]):
                args = []
                for i, t in enumerate(targets):
                    args.append(
                        arg(f"a{i}", undercuts=None if t < 0 else f"a{t}")
                    )
                assert active_set(args) == brute_force_active_set(args)


class TestAggregate:
    def test_weighted_netting(self):
        args = [
            arg("p1", "x", "pro", 0.6),
            arg("p2", "x", "pro", 0.5),
            arg("c1", "x", "con", 0.8),
            arg("p3", "y", "pro", 0.2),
        ]
        report = aggregate(["x", "y"], args)
        assert report.scores == {"x": pytest.approx(0.3), "y": pytest.approx(0.2)}
        assert report.ranking == ("x", "y")
        assert report.recommended == "x"

    def test_no_options_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one option"):
            aggregate([], [])
        with pytest.raises(ValueError, match="at least one option"):
            aggregate([], [arg("p1", "x", "pro", 0.6)])

    def test_all_zero_weights_tie_breaks_lexicographically(self):
        args = [arg("p1", "b", "pro", 0.0), arg("p2", "a", "pro", 0.0)]
        report = aggregate(["b", "a"], args)
        assert report.recommended == "a"
        assert report.ranking == ("a", "b")

    def test_explanation_lists_every_argument_once(self):
        args = [arg("a"), arg("b", undercuts="a"), arg("c", "y", "con", 0.4)]
        report = aggregate(["x", "y"], args)
        assert sorted(row[0] for row in report.explanation) == ["a", "b", "c"]
        flags = {row[0]: row[4] for row in report.explanation}
        assert flags == {"a": False, "b": True, "c": True}

    def test_inactive_arguments_contribute_nothing(self):
        args = [arg("a", "x", "pro", 5.0), arg("b", "x", "pro", 0.1, undercuts="a")]
        report = aggregate(["x"], args)
        assert report.scores["x"] == pytest.approx(0.1)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240817)
        for _ in range(300):
            options, args = random_argument_instance(rng)
            report = aggregate(options, args)
            assert report.scores == brute_force_scores(options, args)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50.0), st.integers(0, 2**31 - 1))
    def test_ranking_invariant_under_positive_scaling(self, scale, seed):
        rng = random.Random(seed)
        options, args = random_argument_instance(rng)
        scaled = [
            Argument(
                id=a.id,
                option=a.option,
                polarity=a.polarity,
                weight=a.weight * scale,
                undercuts=a.undercuts,
            )
            for a in args
        ]
        assert aggregate(options, args).ranking == aggregate(options, scaled).ranking
        assert (
            aggregate(options, args).recommended
            == aggregate(options, scaled).recommended
        )

    def test_additivity_outside_undercut_chains(self):
        rng = random.Random(7)
        options, args = random_argument_instance(rng)
        before = aggregate(options, args)
        extra = arg("extra", options[0], "pro", 0.7)
        after = aggregate(options, args + [extra])
        for option in options:
            expected = before.scores[option] + (0.7 if option == options[0] else 0.0)
            assert after.scores[option] == pytest.approx(expected)


class TestBuildCase:
    def _context(self):
        beliefs = BeliefStore()
        beliefs.set("stressed", True, 0)
        return RuleContext(beliefs=beliefs, appraisals=[], commitments=[])

    def test_one_argument_per_matching_pair(self):
        templates = [
            ArgumentTemplate(
                id="calming",
                process="p1",
                polarity="pro",
                weight=0.6,
                option_selector={"option": "smoke"},
                trigger=compile_condition({"belief": "stressed", "equals": True}),
            ),
            ArgumentTemplate(
                id="never",
                process="p1",
                polarity="con",
                weight=1.0,
                option_selector={"any": True},
                trigger=compile_condition({"const": False}),
            ),
        ]
        fired = triggered(templates, self._context())
        args = build_case(["smoke", "wait"], templates, fired)
        assert [a.id for a in args] == [argument_id("calming", "smoke")]
        assert args[0].weight == 0.6

    def test_deterministic_ids_and_order(self):
        templates = [
            ArgumentTemplate(
                id=f"t{i}",
                process="p1",
                polarity="pro",
                weight=0.1,
                option_selector={"any": True},
            )
            for i in range(3)
        ]
        first = build_case(["a", "b"], templates, triggered(templates, self._context()))
        second = build_case(["a", "b"], templates, triggered(templates, self._context()))
        assert first == second
        assert [a.id for a in first] == [
            "t0@a", "t0@b", "t1@a", "t1@b", "t2@a", "t2@b",
        ]

    def test_no_trigger_no_arguments(self):
        templates = [
            ArgumentTemplate(
                id="t",
                process="p1",
                polarity="pro",
                weight=1.0,
                option_selector={"any": True},
                trigger=compile_condition({"belief": "absent_atom", "equals": True}),
            )
        ]
        assert build_case(["x"], templates, triggered(templates, self._context())) == []

    def test_weight_override_replaces_template_weight(self):
        templates = [
            ArgumentTemplate(
                id="t",
                process="p1",
                polarity="pro",
                weight=1.0,
                option_selector={"option": "x"},
            )
        ]
        args = build_case(
            ["x"], templates, triggered(templates, self._context()),
            weight_overrides={"t": 0.25},
        )
        assert args[0].weight == 0.25

    def test_template_undercut_binds_same_option(self):
        templates = [
            ArgumentTemplate(
                id="base",
                process="p1",
                polarity="pro",
                weight=1.0,
                option_selector={"any": True},
            ),
            ArgumentTemplate(
                id="cut",
                process="p2",
                polarity="con",
                weight=1.0,
                option_selector={"option": "x"},
                undercuts_template="base",
            ),
        ]
        args = build_case(["x", "y"], templates, triggered(templates, self._context()))
        by_id = {a.id: a for a in args}
        assert by_id["cut@x"].undercuts == "base@x"
        active = active_set(args)
        assert "base@x" not in active
        assert "base@y" in active

    def test_from_process_selector(self):
        templates = [
            ArgumentTemplate(
                id="t",
                process="p1",
                polarity="pro",
                weight=0.5,
                option_selector={"from_process": "proc0"},
            )
        ]
        args = build_case(
            ["a", "b"],
            templates,
            triggered(templates, self._context()),
            option_sources={"a": {"proc0"}, "b": {"proc1"}},
        )
        assert [a.option for a in args] == ["a"]
