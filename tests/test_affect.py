import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim.affect import (
    ActionTendency,
    AffectiveProcess,
    Appraisal,
    AppraisalRule,
    ProcessOption,
    prepare_action,
    run_affective_cycle,
)
from cogsim.arguments import Argument
from cogsim.errors import NonFiniteForce
from cogsim.rules import BeliefStore, compile_condition

from helpers import (
    bfs_distance,
    compute_force,
    recompute_over,
    supporting_argument_ids,
)


def tendency(base=0.5, option="x"):
    return ActionTendency(
        action=option, source_process="p1", base_urgency=base, created_tick=0
    )


def arg(i, option="x", polarity="pro", weight=1.0):
    return Argument(id=i, option=option, polarity=polarity, weight=weight)


def force(t, active):
    """The force ``recompute_forces`` gives ``t`` when the whole case,
    ``active``, is active."""
    (judged,) = recompute_over([t], active, {a.id for a in active})
    return judged.force


def bits(x):
    """``x`` told apart from every other value, -0.0 from 0.0 included."""
    return type(x), repr(x)


# Weights and urgencies up to the overflow edge, and mid-sized ones whose
# sums lose low bits when added in another order.
WEIGHTS = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.floats(min_value=-1e17, max_value=1e17),
    st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e16, 1e308, -1e308)),
)


class TestComputeForce:
    """A pooled tendency's force and reasons as ``recompute_forces``
    reads them off the force table."""

    def test_no_arguments_is_base_urgency(self):
        assert force(tendency(0.5), []) == 0.5

    def test_floor_at_zero(self):
        active = [arg("p", weight=0.6), arg("c", polarity="con", weight=1.5)]
        assert force(tendency(0.5), active) == 0.0

    def test_net_sum(self):
        active = [
            arg("p1", weight=0.6),
            arg("p2", weight=0.5),
            arg("c1", polarity="con", weight=0.8),
        ]
        assert force(tendency(0.2), active) == pytest.approx(0.5)

    def test_other_options_do_not_count(self):
        active = [arg("p1", option="y", weight=9.0)]
        assert force(tendency(0.5), active) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0, max_value=5),
        st.lists(
            st.tuples(st.sampled_from(("pro", "con")), st.floats(0, 3)), max_size=8
        ),
        st.floats(min_value=0, max_value=3),
    )
    def test_monotonicity_in_added_arguments(self, base, rows, extra_weight):
        active = [
            arg(f"a{i}", polarity=pol, weight=w) for i, (pol, w) in enumerate(rows)
        ]
        before = force(tendency(base), active)
        with_pro = force(tendency(base), active + [arg("xp", weight=extra_weight)])
        with_con = force(
            tendency(base), active + [arg("xc", polarity="con", weight=extra_weight)]
        )
        assert with_pro >= before >= with_con
        assert before >= 0.0

    @seed(0xF0CE)
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(("x", "y")), st.sampled_from(("pro", "con")),
                      WEIGHTS, st.booleans()),
            max_size=8,
        ),
        st.lists(st.tuples(st.sampled_from(("x", "y", "z")), WEIGHTS),
                 min_size=1, max_size=4),
    )
    def test_matches_the_reference_bit_for_bit(self, rows, pool):
        args = [arg(f"a{i}", option=option, polarity=polarity, weight=weight)
                for i, (option, polarity, weight, _) in enumerate(rows)]
        active = {a.id for a, row in zip(args, rows) if row[3]}
        active_args = [a for a in args if a.id in active]
        tendencies = [tendency(base, option) for option, base in pool]

        expected, expected_error = [], None
        for t in tendencies:
            try:
                expected.append((bits(compute_force(t, active_args)),
                                 supporting_argument_ids(t, active_args)))
            except NonFiniteForce as exc:
                expected_error = str(exc)
                break
        error = None
        try:
            recompute_over(tendencies, args, active)
        except NonFiniteForce as exc:
            error = str(exc)
        assert error == expected_error
        assert [(bits(t.force), t.supporting_arguments)
                for t in tendencies[:len(expected)]] == expected


def process(rules=(), options=(), goal_ref="mood", rank=1):
    return AffectiveProcess(
        id="p1",
        priority_rank=rank,
        goal_ref=goal_ref,
        rules=tuple(rules),
        options=tuple(options),
    )


def rule(id, atom, subject, valence, magnitude, label=""):
    return AppraisalRule(
        id=id,
        process="p1",
        when=compile_condition({"belief": atom, "equals": True}),
        subject=subject,
        valence=valence,
        magnitude=magnitude,
        label=label,
    )


class TestAffectiveCycle:
    def test_phase_alternation_never_evaluates_twice_in_a_row(self):
        beliefs = BeliefStore()
        beliefs.set("upset", True, 0)
        proc = process(
            rules=[rule("r1", "upset", "situation", "negative", 0.7)],
            options=[ProcessOption(state="fix", action="fix", flips=("situation",))],
        )
        phases = []
        for tick in range(6):
            run_affective_cycle(proc, beliefs, tick=tick)
            phases.append(proc.phase)
        # attending -> evaluating -> preparing -> attending ...
        assert phases == [
            "evaluating", "preparing", "attending",
            "evaluating", "preparing", "attending",
        ]

    def test_no_matching_rule_is_a_noop(self):
        beliefs = BeliefStore()
        proc = process(rules=[rule("r1", "upset", "situation", "negative", 0.7)])
        _, appraisals, tendencies = run_affective_cycle(proc, beliefs, tick=0)
        assert proc.phase == "attending"
        assert proc.attention_target is None
        assert appraisals == [] and tendencies == []

    def test_evaluation_emits_appraisal_for_attended_target(self):
        beliefs = BeliefStore()
        beliefs.set("upset", True, 3)
        proc = process(rules=[rule("r1", "upset", "situation", "negative", 0.7, "bad")])
        run_affective_cycle(proc, beliefs, tick=3)
        assert proc.attention_target == "upset"
        _, new, _ = run_affective_cycle(proc, beliefs, tick=4)
        assert [a.atom for a in new] == ["situation"]
        assert new[0].valence == "negative"
        assert new[0].magnitude == 0.7
        assert new[0].label == "bad"
        assert new[0].source_process == "p1"

    def test_attention_prefers_most_recent_change_then_magnitude(self):
        beliefs = BeliefStore()
        beliefs.set("old_issue", True, 0)
        beliefs.set("new_issue", True, 5)
        proc = process(
            rules=[
                rule("r_old", "old_issue", "old", "negative", 0.9),
                rule("r_new", "new_issue", "new", "negative", 0.2),
            ]
        )
        run_affective_cycle(proc, beliefs, tick=5)
        assert proc.attention_target == "new_issue"

    def test_withdrawn_grounds_drop_the_appraisal(self):
        beliefs = BeliefStore()
        beliefs.set("upset", True, 0)
        proc = process(rules=[rule("r1", "upset", "situation", "negative", 0.7)])
        run_affective_cycle(proc, beliefs, tick=0)
        run_affective_cycle(proc, beliefs, tick=1)
        assert len(proc.active_appraisals) == 1
        beliefs.set("upset", False, 2)
        run_affective_cycle(proc, beliefs, tick=2)  # prepare
        run_affective_cycle(proc, beliefs, tick=3)  # attend (no-op)
        proc.phase = "evaluating"
        _, new, _ = run_affective_cycle(proc, beliefs, tick=4)
        assert proc.active_appraisals == []
        assert new == []

    def test_the_step_reports_the_dropped_appraisal(self):
        beliefs = BeliefStore()
        beliefs.set("upset", True, 0)
        proc = process(rules=[rule("r1", "upset", "situation", "negative", 0.7)])
        run_affective_cycle(proc, beliefs, tick=0)
        _, formed, _ = run_affective_cycle(proc, beliefs, tick=1)
        run_affective_cycle(proc, beliefs, tick=2)
        run_affective_cycle(proc, beliefs, tick=3)
        beliefs.set("upset", False, 4)
        dropped, new, tendencies = run_affective_cycle(proc, beliefs, tick=4)
        assert dropped == formed and new == [] and tendencies == []

    def test_evaluation_reads_the_appraisals_from_before_the_step(self):
        # r2 needs the appraisal r1 forms; in the step that forms it, the
        # rules still see the appraisals from before, so r2 waits a cycle.
        beliefs = BeliefStore()
        beliefs.set("upset", True, 0)
        worry = AppraisalRule(
            id="r2",
            process="p1",
            when=compile_condition({"all": [
                {"belief": "upset", "equals": True},
                {"appraisal": {"atom": "situation"}},
            ]}),
            subject="worry",
            valence="negative",
            magnitude=0.5,
        )
        proc = process(rules=[rule("r1", "upset", "situation", "negative", 0.7), worry])
        run_affective_cycle(proc, beliefs, tick=0)
        _, new, _ = run_affective_cycle(proc, beliefs, tick=1)
        assert [a.atom for a in new] == ["situation"]
        run_affective_cycle(proc, beliefs, tick=2)
        run_affective_cycle(proc, beliefs, tick=3)
        _, new, _ = run_affective_cycle(proc, beliefs, tick=4)
        assert [a.atom for a in new] == ["worry"]
        assert [a.atom for a in proc.active_appraisals] == ["situation", "worry"]


class TestPrepareAction:
    def test_proposal_then_commitment_labels(self):
        # An option flipping a negative appraisal is first proposed under
        # its plain label; once the state itself is appraised positively,
        # the emitted tendency carries the commit label.
        beliefs = BeliefStore()
        proc = process(
            options=[
                ProcessOption(
                    state="treat",
                    action="treat",
                    label="proposal",
                    commit_label="intention",
                    flips=("situation",),
                )
            ]
        )
        proc.active_appraisals = [
            Appraisal("situation", "negative", 0.7, "p1")
        ]
        proc.phase = "preparing"
        tendencies = prepare_action(proc, tick=1)
        assert [t.label for t in tendencies] == ["proposal"]
        assert tendencies[0].base_urgency == 0.7
        assert proc.candidate_goals == ["treat"]

        proc.active_appraisals.append(Appraisal("treat", "positive", 0.8, "p1"))
        tendencies = prepare_action(proc, tick=3)
        assert [t.label for t in tendencies] == ["intention"]
        assert tendencies[0].base_urgency == 0.8

    def test_no_triggering_appraisal_empty_output(self):
        proc = process(
            options=[ProcessOption(state="s", action="s", flips=("other",))]
        )
        proc.active_appraisals = [Appraisal("situation", "negative", 0.7, "p1")]
        proc.phase = "preparing"
        assert prepare_action(proc, tick=0) == []

    def test_task_goal_first_action_matches_shortest_path(self, small_world, small_goal):
        # The emitted first action must start a shortest route to the
        # nearest misplaced object (checked against an independent BFS).
        from cogsim.planner import plan_tidy_task

        plan = plan_tidy_task(small_world, small_goal, "strict")
        proc = process(goal_ref="task")
        proc.active_appraisals = [Appraisal("situation", "negative", 0.8, "p1")]
        proc.phase = "preparing"
        tendencies = prepare_action(proc, plan=plan)
        assert len(tendencies) == 1
        first = tendencies[0].action
        # book_1 at (0,1) is adjacent to the agent: shortest plan starts
        # with an immediate pick-up.
        goals = {(0, 1), (1, 1), (0, 2)}
        assert bfs_distance(small_world.layout, small_world.agent_pos, goals) == 0
        assert first == "pick_up:book_1"
        assert tendencies[0].origin == "plan"
