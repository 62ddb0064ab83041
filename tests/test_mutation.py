"""Mutation fuzzing of the bundled scenarios.

A mutant replaces one node of a bundled document with a small JSON
value, or with a value of the node's own JSON type
(``typed_mutant_values``), which more often gives a document that
validates and runs.  It is either rejected by ``parse_scenario`` with a
coded error, or ``validate_scenario`` returns a report without raising.
Every mutant then goes through ``cogsim run`` for 60 ticks: a rejected
one exits 1, an invalid one exits 2, and a clean one runs (exit 0) or
stops on a ``CogsimError`` (exit 2).  Any other exception escapes ``cli.main`` and
fails the test.  A clean mutant also runs in-process, once as is and
once forgetting its memo before every stage: both write the same bytes,
or both stop on the same ``CogsimError`` type.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim.cli import main
from cogsim.errors import ParseError, SchemaError
from cogsim.runner import RunConfig
from cogsim.scenario import parse_scenario, validate_scenario

from helpers import (
    MUTANT_VALUES,
    forgetful,
    mutant_document,
    mutation_sites,
    run_bytes,
    typed_mutant_values,
    typed_mutation_sites,
)

SITES = st.sampled_from(mutation_sites())
VALUES = st.sampled_from(MUTANT_VALUES)
TYPED_MUTANTS = st.sampled_from(typed_mutation_sites()).flatmap(
    lambda site: st.sampled_from(typed_mutant_values(*site)).map(
        lambda value: (*site, value)))


@seed(20211015)
@settings(max_examples=300, deadline=None, database=None)
@given(site=SITES, value=VALUES)
def test_mutant_is_rejected_or_runs_to_the_horizon(tmp_path_factory, site, value):
    _check_mutant(tmp_path_factory, mutant_document(*site, value))


@seed(20211015)
@settings(max_examples=200, deadline=None, database=None)
@given(mutant=TYPED_MUTANTS)
def test_typed_mutant_is_rejected_or_runs_to_the_horizon(tmp_path_factory, mutant):
    _check_mutant(tmp_path_factory, mutant_document(*mutant))


def _check_mutant(tmp_path_factory, text: str) -> None:
    try:
        spec = parse_scenario(text)
        report = validate_scenario(spec)
    except (ParseError, SchemaError):
        report = None

    directory = tmp_path_factory.mktemp("mutant")
    scenario = directory / "mutant.json"
    scenario.write_text(text, encoding="utf-8")
    code = main(
        ["run", str(scenario), "--ticks", "60", "--seed", "1",
         "--trace", str(directory / "t.jsonl"), "--metrics", str(directory / "m.csv")]
    )
    if report is None:
        assert code == 1
    elif not report.ok():
        assert code == 2
    else:
        assert code in (0, 2)
        config = RunConfig(ticks=60, seed=1)
        kept = run_bytes(spec, config)
        with forgetful():
            assert run_bytes(spec, config) == kept


@pytest.mark.parametrize(
    "name, path, value, where",
    [
        # A non-string selector once reached set membership at run time.
        ("room_tidy", ("agent", "argument_templates", 0, "options", "from_process"),
         [1], "agent.argument_templates[serves_tidy_goal].options.from_process"),
        # A non-string template once reached set membership in validate.
        ("room_tidy_redescription", ("agent", "countermeasures", 0, "action", "template"),
         [1], "agent.countermeasures[recommit_to_tidy].action.template"),
        # A list-valued fixture once reached set membership in parse.
        ("room_tidy", ("events", 0, "effect", "fixture"), [1], "events[0].effect"),
    ],
)
def test_unhashable_references_are_schema_errors(name, path, value, where):
    with pytest.raises(SchemaError) as err:
        parse_scenario(mutant_document(name, path, value))
    assert err.value.path == where

