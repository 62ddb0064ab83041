import dataclasses
import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cogsim import world as W
from cogsim.errors import InvalidSpec, ParseError, SchemaError
from cogsim.scenario import (
    BUNDLED,
    bundled_document,
    instantiate,
    load_bundled,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)

from helpers import MUTANT_VALUES, mutant_document, mutation_sites

MINIMAL = {
    "meta": {"name": "minimal", "format_version": 1},
    "ontology": {
        "object_kinds": ["book"],
        "fixtures": [
            {"id": "shelf_1", "cell": [0, 0], "accepts": "book", "slots": ["s1"]}
        ],
    },
    "starting_state": {
        "agent": [1, 1],
        "objects": [{"id": "book_1", "kind": "book", "location": {"cell": [2, 1]}}]
    },
    "events": [],
    "goal": {"strict": {"book": ["shelf_1"]}},
    "agent": {},
    "bct_profile": "prime",
}


def minimal_doc(**edits):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(edits)
    return json.dumps(doc)


class TestParse:
    def test_minimal_document_gets_defaults(self):
        spec = parse_scenario(minimal_doc())
        assert spec.starting_state.grid == (8, 8)
        assert spec.agent.deliberation_period == 3
        assert spec.agent.tendency_ttl == 2
        assert [p.id for p in spec.agent.processes] == ["proc0"]
        assert spec.goal.relaxed == spec.goal.strict

    def test_malformed_json_gives_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("{\n  \"meta\": ,\n}")
        assert err.value.line == 2

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_scenario(minimal_doc(extra_key={}))
        assert "extra_key" in err.value.path

    def test_missing_top_level_key_rejected(self):
        doc = json.loads(minimal_doc())
        del doc["goal"]
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps(doc))

    def test_wrong_format_version_rejected(self):
        doc = json.loads(minimal_doc())
        doc["meta"]["format_version"] = 2
        with pytest.raises(SchemaError, match="version"):
            parse_scenario(json.dumps(doc))

    def test_undeclared_fixture_in_event_rejected_at_path(self):
        doc = json.loads(minimal_doc())
        doc["events"] = [
            {"fire_tick": 3, "effect": {"kind": "break_fixture", "fixture": "ghost"}}
        ]
        with pytest.raises(SchemaError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "events[0].effect"

    def test_bundled_room_tidy_has_break_event(self):
        spec = load_bundled("room_tidy")
        effects = [e.effect for e in spec.events]
        assert {"kind": "break_fixture", "fixture": "shelf_1"} in effects

    def test_closed_schema_rejects_randomly_injected_keys(self):
        rng = random.Random(2024)
        doc = json.loads(minimal_doc())
        containers = [
            doc,
            doc["meta"],
            doc["ontology"],
            doc["ontology"]["fixtures"][0],
            doc["starting_state"],
            doc["starting_state"]["objects"][0],
            doc["agent"],
        ]
        for trial in range(40):
            target = rng.choice(containers)
            key = f"injected_{trial}"
            target[key] = True
            with pytest.raises(SchemaError):
                parse_scenario(json.dumps(doc))
            del target[key]

    def test_bad_profile_rejected(self):
        with pytest.raises(SchemaError, match="bct_profile"):
            parse_scenario(minimal_doc(bct_profile="other"))

    def test_ids_must_be_snake_case(self):
        doc = json.loads(minimal_doc())
        doc["ontology"]["fixtures"][0]["id"] = "Shelf-One"
        with pytest.raises(SchemaError, match="snake_case"):
            parse_scenario(json.dumps(doc))

    def test_spawned_objects_need_concrete_locations(self):
        doc = json.loads(minimal_doc())
        doc["events"] = [
            {
                "fire_tick": 1,
                "effect": {
                    "kind": "spawn_object",
                    "object": {"id": "book_9", "kind": "book",
                               "location": "scattered"},
                },
            }
        ]
        with pytest.raises(SchemaError, match="concrete"):
            parse_scenario(json.dumps(doc))


class TestValidate:
    def test_bundled_assets_validate_clean(self):
        for name in BUNDLED:
            report = validate_scenario(load_bundled(name))
            assert report.errors == [], name
            assert report.warnings == [], name

    def test_cyclic_undercut_detected(self):
        doc = json.loads(minimal_doc())
        doc["agent"] = {
            "processes": [{"id": "p", "rank": 0, "goal": "task"}],
            "argument_templates": [
                {"id": "a", "process": "p", "polarity": "pro", "weight": 1.0,
                 "options": {"any": True}, "undercuts": "b"},
                {"id": "b", "process": "p", "polarity": "pro", "weight": 1.0,
                 "options": {"any": True}, "undercuts": "a"},
            ],
        }
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert any(code == "CYCLIC_UNDERCUT" for code, _, _ in report.errors)

    def test_goal_entailment_violation_detected(self):
        doc = json.loads(minimal_doc())
        doc["ontology"]["fixtures"].append(
            {"id": "table_1", "cell": [2, 0], "accepts": "book"}
        )
        doc["goal"] = {
            "strict": {"book": ["shelf_1"]},
            "relaxed": {"book": ["table_1"]},
        }
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert any(code == "GOAL_ENTAILMENT" for code, _, _ in report.errors)

    def test_duplicate_priorities_detected(self):
        doc = json.loads(minimal_doc())
        doc["agent"] = {
            "processes": [
                {"id": "a", "rank": 0, "goal": "task"},
                {"id": "b", "rank": 0, "goal": "mood"},
            ]
        }
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert any(code == "DUPLICATE_PRIORITY" for code, _, _ in report.errors)

    def test_commitment_needs_declared_evaluation_atom(self):
        doc = json.loads(minimal_doc())
        doc["agent"] = {
            "processes": [{"id": "p", "rank": 0, "goal": "task"}],
            "commitments": [{"atom": "mystery", "valence": "positive"}],
        }
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert any(code == "COMMITMENT_ATOM" for code, _, _ in report.errors)

    def test_unreachable_event_warns(self):
        doc = json.loads(minimal_doc())
        doc["goal"]["deadline_tick"] = 5
        doc["events"] = [
            {"fire_tick": 9, "effect": {"kind": "break_fixture", "fixture": "shelf_1"}}
        ]
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert report.errors == []
        assert any(code == "UNREACHABLE_EVENT" for code, _, _ in report.warnings)

    def test_process_without_templates_warns(self):
        report = validate_scenario(parse_scenario(minimal_doc()))
        assert any(code == "NO_TEMPLATES" for code, _, _ in report.warnings)

    @pytest.mark.parametrize("action, dangling", [
        ("pick_up:book_1", False), ("pick_up:book_2", False), ("pick_up:ghost", True),
        ("place:shelf_1", False), ("place:s1", False), ("place:nowhere", True),
        ("move:north", False), ("pick_up", False), ("eat_cake", False),
    ])
    def test_a_world_action_on_an_entity_nothing_creates_warns(self, action, dangling):
        doc = json.loads(minimal_doc())
        doc["events"] = [{"fire_tick": 2, "effect": {"kind": "spawn_object", "object": {
            "id": "book_2", "kind": "book", "location": {"cell": [2, 2]}}}}]
        doc["agent"] = {
            "processes": [{"id": "p", "rank": 0, "goal": "mood", "options": [
                {"state": "calm", "action": action}]}],
            "reactive_rules": [{"id": "r", "when": {"const": True}, "action": action,
                                "urgency": 0.5}],
        }
        report = validate_scenario(parse_scenario(json.dumps(doc)))
        assert report.errors == []
        dangling_at = [loc for code, loc, _ in report.warnings if code == "DANGLING_REF"]
        want = ["agent.reactive_rules[r]", "agent.processes[p].options[calm]"]
        assert dangling_at == (want if dangling else [])

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_actions_name_declared_entities(self, name):
        report = validate_scenario(load_bundled(name))
        assert all(code != "DANGLING_REF" for code, _, _ in report.warnings)


class TestInstantiate:
    def test_same_seed_same_state(self):
        spec = load_bundled("room_tidy")
        first = instantiate(spec, 42)
        second = instantiate(spec, 42)
        assert first.world == second.world
        assert [p.id for p in first.processes] == [p.id for p in second.processes]

    def test_scattered_objects_get_distinct_floor_cells(self):
        spec = load_bundled("room_tidy")
        state = instantiate(spec, 1)
        scattered = [
            o for o in state.world.objects.values() if o.kind == "book"
        ]
        cells = [W.parse_cell(o.location) for o in scattered]
        assert len(set(cells)) == len(cells)
        blocked = state.world.layout.fixture_cells
        for cell in cells:
            assert cell is not None and cell not in blocked
        # draw is without replacement from the declared region
        (x0, y0), (x1, y1) = spec.starting_state.scatter_region
        for x, y in cells:
            assert x0 <= x <= x1 and y0 <= y <= y1

    def test_fixed_starting_state_ignores_seed(self):
        spec = parse_scenario(minimal_doc())
        assert instantiate(spec, 1).world == instantiate(spec, 999).world

    def test_invalid_spec_rejected(self):
        doc = json.loads(minimal_doc())
        doc["agent"] = {
            "processes": [
                {"id": "a", "rank": 0, "goal": "task"},
                {"id": "b", "rank": 0, "goal": "mood"},
            ]
        }
        spec = parse_scenario(json.dumps(doc))
        with pytest.raises(InvalidSpec):
            instantiate(spec, 1)

    def test_an_invalid_spec_stays_invalid_whatever_a_report_holder_does(self):
        doc = json.loads(minimal_doc())
        doc["goal"]["strict"]["ghost"] = ["shelf_1"]
        spec = parse_scenario(json.dumps(doc))
        report = validate_scenario(spec)
        errors = list(report.errors)
        assert errors
        report.errors.clear()
        assert validate_scenario(spec).errors == errors
        with pytest.raises(InvalidSpec):
            instantiate(spec, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_assets_round_trip(self, name):
        original = parse_scenario(bundled_document(name))
        rendered = serialize_scenario(original)
        assert parse_scenario(rendered) == original

    def test_minimal_round_trips_with_defaults_applied(self):
        spec = parse_scenario(minimal_doc())
        assert parse_scenario(serialize_scenario(spec)) == spec

    def test_edited_spec_round_trips(self):
        spec = load_bundled("room_tidy")
        nobreak = dataclasses.replace(spec, events=())
        assert parse_scenario(serialize_scenario(nobreak)) == nobreak

    @seed(20211015)
    @settings(max_examples=500, deadline=None, database=None)
    @given(site=st.sampled_from(mutation_sites()), value=st.sampled_from(MUTANT_VALUES))
    def test_parsed_mutants_round_trip(self, site, value):
        try:
            spec = parse_scenario(mutant_document(*site, value))
        except (ParseError, SchemaError):
            return
        assert parse_scenario(serialize_scenario(spec)) == spec
