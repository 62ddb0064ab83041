import hashlib
import json
import weakref
from pathlib import Path

import pytest

import cogsim
from cogsim import cli, scenario
from cogsim.cli import main
from cogsim.scenario import bundled_document

ASSETS = Path(cogsim.__file__).parent / "assets"


@pytest.fixture
def room_tidy_path(tmp_path):
    path = tmp_path / "room_tidy.json"
    path.write_text(bundled_document("room_tidy"), encoding="utf-8")
    return str(path)


@pytest.fixture
def redescription_path(tmp_path):
    path = tmp_path / "room_tidy_redescription.json"
    path.write_text(bundled_document("room_tidy_redescription"), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    @pytest.mark.parametrize("name", scenario.BUNDLED)
    def test_bundled_scenario_passes(self, name, capsys):
        assert main(["validate", str(ASSETS / f"{name}.json")]) == 0
        assert capsys.readouterr().out == f"{name}: OK\n"

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 1

    def test_an_action_on_an_undeclared_object_warns(self, tmp_path, capsys):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["reactive_rules"].append({"id": "ghost_rule", "when": {"const": True},
                                               "action": "pick_up:ghost", "urgency": 2.0})
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("WARNING DANGLING_REF @ agent.reactive_rules[ghost_rule]: "
                "undeclared object: ghost\n") in out
        assert "room_tidy: OK (" in out

    def test_cyclic_undercuts_exit_2_with_code(self, tmp_path, capsys):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["argument_templates"][0]["undercuts"] = "fixing_is_unpleasant"
        doc["agent"]["argument_templates"][1]["undercuts"] = "serves_tidy_goal"
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "CYCLIC_UNDERCUT" in capsys.readouterr().out

    def test_malformed_condition_exits_1_before_any_run(self, tmp_path, capsys):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["appraisal_rules"][0]["when"] = {}
        path = tmp_path / "bad_condition.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        code = main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert ("agent.appraisal_rules[untidiness_bothers].when: "
                "malformed condition") in err

    @pytest.mark.parametrize(
        "name, section, index, when",
        [
            # An extra comparator key was ignored: the first one known won.
            ("office_cake", "appraisal_rules", 0,
             {"belief": "situation_cake_offer", "equals": True, "eq": 1}),
            ("room_tidy", "appraisal_rules", 0,
             {"belief": "misplaced_count", "gt": 0, "equals": 3}),
            # A non-boolean const was read as its truthiness.
            ("office_cake", "argument_templates", 3, {"const": "x"}),
            # Unknown keys inside appraisal and commitment tests were ignored.
            ("office_cake", "argument_templates", 0,
             {"appraisal": {"atom": "current_situation", "valence": "negative",
                            "magnitude": 0.5}}),
            ("room_tidy", "argument_templates", 0,
             {"commitment": {"atom": "tidy_room", "valence": "positive"}}),
        ],
    )
    def test_condition_typo_exits_1(self, tmp_path, capsys, name, section, index, when):
        doc = json.loads(bundled_document(name))
        item = doc["agent"][section][index]
        item["when"] = when
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"agent.{section}[{item['id']}].when: malformed condition" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "record, key",
        [(("argument_templates", 0), "weight"), (("processes", 0), "urgency")],
    )
    def test_non_finite_number_exits_1(self, tmp_path, capsys, record, key, literal):
        # Python's JSON reader takes these (1e999 as infinity); the trace
        # lines of a run would then not be JSON.  The same word earlier in
        # a string must not be taken for the literal's position.
        doc = json.loads(bundled_document("room_tidy"))
        doc["meta"]["description"] = f"{literal} in text"
        section, index = record
        doc["agent"][section][index][key] = "@"
        text = json.dumps(doc, indent=2).replace('"@"', literal)
        line = text.count("\n", 0, text.index(f": {literal}")) + 1
        path = tmp_path / "non_finite.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert f"line {line}, column " in capsys.readouterr().err
        trace = tmp_path / "t.jsonl"
        code = main(["run", str(path), "--trace", str(trace),
                     "--metrics", str(tmp_path / "m.csv")])
        assert code == 1
        assert not trace.exists()
        err = capsys.readouterr().err
        assert f"non-finite number {literal} is not allowed" in err

    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["processes"][0]["urgency"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "agent.processes[proc0].urgency: number out of range" in err

    def test_non_finite_words_inside_strings_are_text(self, tmp_path):
        doc = json.loads(bundled_document("room_tidy"))
        doc["meta"]["description"] = "NaN Infinity -Infinity 1e999"
        path = tmp_path / "words.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 1

    def test_undecodable_file_exits_1_in_every_command(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        for argv in (["validate"], ["run"],
                     ["sweep", "--template", "t", "--weights", "1"]):
            assert main([argv[0], str(path), *argv[1:]]) == 1
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_deeply_nested_json_exits_1_in_every_command(self, tmp_path, capsys):
        # Python's JSON reader recurses once per bracket.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        outputs = ["--trace", str(tmp_path / "t.jsonl"),
                   "--metrics", str(tmp_path / "m.csv")]
        for argv in (["validate"], ["run", *outputs],
                     ["sweep", "--template", "t", "--weights", "1",
                      "--out", str(tmp_path / "s.csv")]):
            assert main([argv[0], str(path), *argv[1:]]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: line 1, column 1: nested too deeply\n")
        assert list(tmp_path.iterdir()) == [path]

    # Evaluation takes two Python frames per level of a condition, so
    # 700 nested "not"s passed validation and then crashed the run.
    @pytest.mark.parametrize("depth, code", [(60, 0), (700, 1)])
    def test_deeply_nested_condition(self, tmp_path, capsys, depth, code):
        doc = json.loads(bundled_document("office_cake"))
        rule = doc["agent"]["appraisal_rules"][0]
        when, rule["when"] = rule["when"], "@"
        nested = '{"not": ' * depth + json.dumps(when) + "}" * depth
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc).replace('"@"', nested), encoding="utf-8")
        assert main(["validate", str(path)]) == code
        assert main(["run", str(path), "--ticks", "5",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == code
        err = capsys.readouterr().err
        if code:
            assert err == 2 * (f"error: {path}: "
                               "agent.appraisal_rules[offer_is_awkward].when: "
                               "malformed condition: nested deeper than 100 levels\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("when", [
        {"const": "x" * 10_000},
        {"x" * 10_000: True},
        {"belief": "a", "gt": "x" * 10_000},
        {"appraisal": {"atom": "x" * 10_000, "valence": "up"}},
        {"any": "x" * 10_000},
    ])
    def test_a_long_string_in_a_condition_is_quoted_short(self, tmp_path, capsys, when):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["appraisal_rules"][0]["when"] = when
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 300
        assert ("agent.appraisal_rules[untidiness_bothers].when: "
                "malformed condition: ") in err

    @staticmethod
    def _with_events(tmp_path, events, starting_slot=None):
        """room_tidy with the events added and, given ``starting_slot``,
        its starting book_1 in that slot."""
        doc = json.loads(bundled_document("room_tidy"))
        if starting_slot is not None:
            doc["starting_state"]["objects"][0]["location"] = {"slot": starting_slot}
        doc["events"] += events
        path = tmp_path / "events.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    # Object events are checked in the order they fire: by tick, then in
    # schedule order, whatever their order in the document.
    @pytest.mark.parametrize("reverse", [False, True])
    def test_removing_an_object_twice_exits_2(self, tmp_path, capsys, reverse):
        events = [{"fire_tick": t, "effect": {"kind": "remove_object",
                                              "object_id": "book_1"}}
                  for t in (2, 4)]
        path = self._with_events(tmp_path, events[::-1] if reverse else events)
        assert main(["validate", path]) == 2
        late = 1 if reverse else 2  # index of the tick-4 event
        assert capsys.readouterr().out == (
            f"ERROR DANGLING_REF @ events[{late}].effect: undeclared object: book_1\n")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_removing_a_spawned_object_is_valid_and_runs(self, tmp_path, reverse):
        events = [
            {"fire_tick": 2, "effect": {"kind": "spawn_object", "object": {
                "id": "toy_9", "kind": "toy", "location": {"cell": [1, 1]}}}},
            {"fire_tick": 4, "effect": {"kind": "remove_object", "object_id": "toy_9"}},
        ]
        path = self._with_events(tmp_path, events[::-1] if reverse else events)
        assert main(["validate", path]) == 0
        assert main(["run", path, "--ticks", "60",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 0

    def test_spawning_a_present_object_exits_2(self, tmp_path, capsys):
        path = self._with_events(tmp_path, [
            {"fire_tick": 2, "effect": {"kind": "spawn_object", "object": {
                "id": "book_1", "kind": "toy", "location": {"cell": [1, 1]}}}},
        ])
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == (
            "ERROR DUPLICATE_OBJECT @ events[1].effect: object already present: book_1\n")

    @pytest.mark.parametrize("location, message", [
        ({"slot": "nope"}, "DANGLING_REF @ events[1].effect: undeclared slot: nope"),
        ({"fixture": "nope"},
         "DANGLING_REF @ events[1].effect: undeclared fixture: nope"),
        ({"cell": [99, 99]},
         "OUT_OF_BOUNDS @ events[1].effect: object placed on unusable cell (99, 99)"),
        ({"cell": [3, 0]},  # the shelf's cell
         "OUT_OF_BOUNDS @ events[1].effect: object placed on unusable cell (3, 0)"),
        ({"slot": "shelf_slot_2"},
         "WRONG_KIND @ events[1].effect: fixture shelf_1 does not accept kind toy"),
        ({"fixture": "table_1"},
         "WRONG_KIND @ events[1].effect: fixture table_1 does not accept kind toy"),
    ])
    def test_spawning_onto_an_unusable_location_exits_2(self, tmp_path, capsys,
                                                        location, message):
        # The same checks as an object in the starting state.
        path = self._with_events(tmp_path, [
            {"fire_tick": 1, "effect": {"kind": "spawn_object", "object": {
                "id": "toy_9", "kind": "toy", "location": location}}},
        ])
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", path, "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("reverse", [False, True])
    def test_spawning_a_removed_object_is_valid_and_runs(self, tmp_path, reverse):
        events = [
            {"fire_tick": 2, "effect": {"kind": "remove_object", "object_id": "book_1"}},
            {"fire_tick": 4, "effect": {"kind": "spawn_object", "object": {
                "id": "book_1", "kind": "toy", "location": {"cell": [1, 1]}}}},
        ]
        path = self._with_events(tmp_path, events[::-1] if reverse else events)
        assert main(["validate", path]) == 0
        assert main(["run", path, "--ticks", "60",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 0

    @staticmethod
    def _spawn(tick, obj_id, slot="shelf_slot_1"):
        return {"fire_tick": tick, "effect": {"kind": "spawn_object", "object": {
            "id": obj_id, "kind": "book", "location": {"slot": slot}}}}

    @staticmethod
    def _remove(tick, obj_id):
        return {"fire_tick": tick, "effect": {"kind": "remove_object",
                                              "object_id": obj_id}}

    # Nothing moves an object between the events of one fire tick, nor
    # before the events of tick 0.
    @pytest.mark.parametrize("starting_slot, events, message", [
        (None, [_spawn(1, "book_8"), _spawn(1, "book_9")],
         "SLOT_CONFLICT @ events[2].effect: slot shelf_slot_1 already holds book_8"),
        ("shelf_slot_1", [_spawn(0, "book_9")],
         "SLOT_CONFLICT @ events[1].effect: slot shelf_slot_1 already holds book_1"),
    ], ids=["two_spawns_in_one_tick", "tick_0_spawn_onto_a_starting_object"])
    def test_spawning_into_a_held_slot_exits_2(self, tmp_path, capsys, starting_slot,
                                               events, message):
        path = self._with_events(tmp_path, events, starting_slot)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", path, "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("starting_slot, events", [
        (None, [_spawn(1, "book_8"), _spawn(1, "book_9", "shelf_slot_2")]),
        (None, [_spawn(1, "book_8"), _remove(1, "book_8"), _spawn(1, "book_9")]),
        ("shelf_slot_1", [_remove(0, "book_1"), _spawn(0, "book_9")]),
        ("shelf_slot_1", [_spawn(0, "book_9", "shelf_slot_2")]),
    ], ids=["other_slot", "freed_by_a_removal", "starting_object_removed",
            "tick_0_other_slot"])
    def test_spawning_into_a_free_slot_is_valid_and_runs(self, tmp_path, starting_slot,
                                                         events):
        path = self._with_events(tmp_path, events, starting_slot)
        assert main(["validate", path]) == 0
        assert main(["run", path, "--ticks", "60",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 0

    def test_a_starting_object_in_a_fixture_of_another_kind_exits_2(self, tmp_path,
                                                                     capsys):
        # The planner never takes an object back out of a fixture, so a toy
        # on the book shelf would keep the strict goal out of reach.
        doc = json.loads(bundled_document("room_tidy"))
        doc["starting_state"]["objects"].append(
            {"id": "toy_9", "kind": "toy", "location": {"slot": "shelf_slot_1"}})
        path = tmp_path / "toy_on_shelf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = ("WRONG_KIND @ starting_state.objects[toy_9]: "
                   "fixture shelf_1 does not accept kind toy")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("capacity, events, message", [
        (1, [], "SLOT_CONFLICT @ starting_state.objects[toy_2]: "
                "fixture box_1 is full (capacity 1)"),
        (2, [{"fire_tick": 0, "effect": {"kind": "spawn_object", "object": {
            "id": "toy_9", "kind": "toy", "location": {"fixture": "box_1"}}}}],
         "SLOT_CONFLICT @ events[1].effect: fixture box_1 is full (capacity 2)"),
        (2, [], None),
    ], ids=["starting_objects", "spawn", "within_capacity"])
    def test_a_bulk_fixture_holds_at_most_its_capacity(self, tmp_path, capsys,
                                                         capacity, events, message):
        # As for place: apply_action refuses an object into a full fixture.
        # Validation knows what the box holds only up to the tick-0 events.
        doc = json.loads(bundled_document("room_tidy"))
        for fixture in doc["ontology"]["fixtures"]:
            if fixture["id"] == "box_1":
                fixture["capacity"] = capacity
        for obj in doc["starting_state"]["objects"]:
            if obj["kind"] == "toy":
                obj["location"] = {"fixture": "box_1"}
        doc["events"] += events
        path = tmp_path / "box_capacity.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", str(path), "--ticks", "60", "--trace", str(tmp_path / "t.jsonl"),
                "--metrics", str(tmp_path / "m.csv")]
        if message is None:
            assert main(["validate", str(path)]) == 0
            assert main(argv) == 0
            return
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_a_capacity_below_one_exits_1(self, tmp_path, capsys, capacity):
        # A box that can never hold a toy is a schema error, as a negative
        # fire tick is.
        doc = json.loads(bundled_document("room_tidy"))
        for fixture in doc["ontology"]["fixtures"]:
            if fixture["id"] == "box_1":
                fixture["capacity"] = capacity
        path = tmp_path / "box_capacity.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = "ontology.fixtures[box_1].capacity: must be >= 1 or null"
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", scenario.BUNDLED)
    def test_ontology_relations_is_an_unknown_key(self, tmp_path, capsys, name):
        # The engine read no relation, so the schema no longer has them.
        doc = json.loads(bundled_document(name))
        doc["ontology"]["relations"] = ["on", "in", "held"]
        path = tmp_path / "relations.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "ontology.relations: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("starting, events, message", [
        (True, [], "SLOT_CONFLICT @ starting_state.objects[book_1]: "
                   "fixture shelf_1 is slot-addressed: name a slot"),
        (False, [{"fire_tick": 1, "effect": {"kind": "spawn_object", "object": {
            "id": "book_9", "kind": "book", "location": {"fixture": "shelf_1"}}}}],
         "SLOT_CONFLICT @ events[1].effect: "
         "fixture shelf_1 is slot-addressed: name a slot"),
    ], ids=["starting_object", "spawn"])
    def test_a_slot_addressed_fixture_takes_objects_only_in_its_slots(
            self, tmp_path, capsys, starting, events, message):
        # As for place: a book put on the shelf outside its slots would
        # count as placed.
        doc = json.loads(bundled_document("room_tidy"))
        if starting:
            doc["starting_state"]["objects"][0]["location"] = {"fixture": "shelf_1"}
        doc["events"] += events
        path = tmp_path / "on_the_shelf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    # The shelf breaks at tick 12; a break fired earlier in the same tick
    # counts, as it does for the run.
    @pytest.mark.parametrize("tick, message", [
        (11, None),
        (12, "BROKEN_FIXTURE @ events[1].effect: fixture shelf_1 is broken"),
        (13, "BROKEN_FIXTURE @ events[1].effect: fixture shelf_1 is broken"),
    ], ids=["before_the_break", "same_tick_after_the_break", "after_the_break"])
    def test_spawning_into_a_broken_fixture_exits_2(self, tmp_path, capsys, tick,
                                                     message):
        # As for place: a book spawned on the broken shelf would count as
        # placed.
        path = self._with_events(tmp_path, [self._spawn(tick, "book_9", "shelf_slot_2")])
        argv = ["run", path, "--ticks", "60", "--trace", str(tmp_path / "t.jsonl"),
                "--metrics", str(tmp_path / "m.csv")]
        if message is None:
            assert main(["validate", path]) == 0
            assert main(argv) == 0
            return
        assert main(["validate", path]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_capacity_on_a_slot_addressed_fixture_exits_2(self, tmp_path, capsys):
        # Each slot holds one object, so nothing would ever read it.
        doc = json.loads(bundled_document("room_tidy"))
        for fixture in doc["ontology"]["fixtures"]:
            if fixture["id"] == "shelf_1":
                fixture["capacity"] = 3
        path = tmp_path / "shelf_capacity.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = ("SLOT_CONFLICT @ ontology.fixtures[shelf_1]: "
                   "fixture shelf_1 is slot-addressed: capacity does not apply")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("clash, message", [
        ("fixture", "DUPLICATE_FIXTURE @ ontology.fixtures[box_1]: "
                    "fixture box_1 declared twice"),
        ("slot", "DUPLICATE_SLOT @ ontology.fixtures[shelf_1]: "
                 "slot box_1 has the id of fixture box_1"),
    ], ids=["fixture_declared_twice", "slot_named_as_a_fixture"])
    def test_a_fixture_id_taken_twice_exits_2(self, tmp_path, capsys, clash, message):
        # The layout and place find a target by its id alone: a second box
        # could never be counted, and place would put into the box what
        # the planner meant for the slot.
        doc = json.loads(bundled_document("room_tidy"))
        fixtures = doc["ontology"]["fixtures"]
        if clash == "fixture":
            fixtures.append({"id": "box_1", "cell": [6, 6], "accepts": "toy"})
        else:
            next(f for f in fixtures if f["id"] == "shelf_1")["slots"][0] = "box_1"
        path = tmp_path / "id_twice.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR {message}\n"
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_spawning_into_a_slot_filled_before_the_tick_is_skipped(self, tmp_path):
        # Validation cannot know which slots are held after tick 0; the run
        # skips the spawn and traces why, so the slot keeps one object.
        path = self._with_events(tmp_path, [self._spawn(1, "book_9")], "shelf_slot_1")
        assert main(["validate", path]) == 0
        trace = tmp_path / "t.jsonl"
        assert main(["run", path, "--seed", "1", "--trace", str(trace),
                     "--metrics", str(tmp_path / "m.csv")]) == 0
        events = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
        rejected = [(e["tick"], e["payload"]["code"], e["payload"]["reason"])
                    for e in events if e["kind"] == "EventRejected"]
        assert rejected == [(1, "SLOT_CONFLICT", "slot shelf_slot_1 already holds book_1")]
        assert not [e for e in events if e["kind"] == "BeliefChange"
                    and e["payload"]["atom"] == "location(book_9)"]


class TestRunCommand:
    def test_run_writes_trace_and_metrics(self, room_tidy_path, tmp_path, capsys):
        trace = tmp_path / "out.trace.jsonl"
        metrics = tmp_path / "out.metrics.csv"
        code = main(
            ["run", room_tidy_path, "--ticks", "60", "--seed", "1",
             "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relaxed=yes" in out and "countermeasures=1" in out
        lines = trace.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert set(events[0]) == {"tick", "seq", "layer", "kind", "payload", "reasons"}
        header = metrics.read_text().splitlines()[0]
        assert header == (
            "tick,selected_action,winning_process,force_proc0,force_proc1,"
            "force_proc2,misplaced_count,strict_tidy,relaxed_tidy"
        )

    def test_metacognition_off_reports_abandonment(self, room_tidy_path, tmp_path, capsys):
        code = main(
            ["run", room_tidy_path, "--ticks", "60", "--seed", "1", "--no-metacog",
             "--trace", str(tmp_path / "t.jsonl"), "--metrics", str(tmp_path / "m.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "abandoned=yes" in out
        assert "strict=no" in out and "relaxed=no" in out

    def test_identical_invocations_hash_identically(self, room_tidy_path, tmp_path):
        digests = []
        for n in (1, 2):
            trace = tmp_path / f"t{n}.jsonl"
            main(
                ["run", room_tidy_path, "--ticks", "60", "--seed", "9",
                 "--trace", str(trace), "--metrics", str(tmp_path / f"m{n}.csv")]
            )
            digests.append(hashlib.sha256(trace.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("command, options", [
        ("run", ["--set-weight", "nope=1.0"]),
        ("sweep", ["--template", "nope", "--weights", "1"]),
        ("sweep", ["--template", "serves_tidy_goal", "--weights", "1",
                   "--set-weight", "nope=1.0"]),
    ], ids=["run_override", "sweep_template", "sweep_override"])
    def test_unknown_template_exits_2(self, room_tidy_path, tmp_path, capsys,
                                      command, options):
        outputs = (["--trace", str(tmp_path / "t.jsonl"), "--metrics", str(tmp_path / "m.csv")]
                   if command == "run" else ["--out", str(tmp_path / "s.csv")])
        assert main([command, room_tidy_path, *options, *outputs]) == 2
        assert capsys.readouterr().err == "error: unknown argument template: nope\n"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_weight_override_exits_2(self, room_tidy_path, tmp_path, raw):
        trace = tmp_path / "t.jsonl"
        code = main(
            ["run", room_tidy_path, "--set-weight", f"serves_tidy_goal={raw}",
             "--trace", str(trace), "--metrics", str(tmp_path / "m.csv")]
        )
        assert code == 2
        assert not trace.exists()

    def test_overflowing_force_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # Each weight is finite; the two pro arguments for "smoke" sum past
        # the largest float.  The outputs go to the working directory.
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", str(ASSETS / "non_smoking.json"),
             "--set-weight", "relief_appeal=1.7e308",
             "--set-weight", "calming_now=1.7e308"]
        )
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        written = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert not any(
            "Infinity" in p.read_text() or "inf" in p.read_text() for p in written
        )

    def test_set_weight_lists_are_not_shared_between_calls(
        self, room_tidy_path, monkeypatch
    ):
        # The parser is built once; each call must still get its own list.
        # cmd_run is looked up when main runs, so the stand-in is used.
        seen = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args) or 0)
        for pairs in (["a=1"], ["b=2", "c=3"], []):
            argv = ["run", room_tidy_path]
            for pair in pairs:
                argv += ["--set-weight", pair]
            assert main(argv) == 0
        assert [args.set_weight for args in seen] == [["a=1"], ["b=2", "c=3"], []]

    # A document validation accepts runs to the horizon: an action on an
    # undeclared or removed object, or on an unknown placement target, is
    # refused like any illegal action, and the refusal is traced.
    @pytest.mark.parametrize("action, when, events, error", [
        ("pick_up:ghost", {"const": True}, [], "unknown object: ghost"),
        ("place:nowhere", {"belief": "holding"}, [],
         "unknown placement target: nowhere"),
        ("pick_up:book_1", {"const": True},
         [{"fire_tick": 3, "effect": {"kind": "remove_object", "object_id": "book_1"}}],
         "unknown object: book_1"),
    ], ids=["unknown_object", "unknown_target", "removed_object"])
    def test_an_action_on_an_unknown_entity_is_refused_and_traced(
            self, tmp_path, capsys, action, when, events, error):
        doc = json.loads(bundled_document("room_tidy"))
        doc["agent"]["reactive_rules"].append(
            {"id": "odd_rule", "when": when, "action": action, "urgency": 2.0})
        doc["events"] += events
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        trace = tmp_path / "t.jsonl"
        assert main(["run", str(path), "--trace", str(trace),
                     "--metrics", str(tmp_path / "m.csv")]) == 0
        assert "room_tidy: ticks=60 " in capsys.readouterr().out
        refused = [e["payload"] for e in map(json.loads, trace.read_text().splitlines())
                   if e["kind"] == "ActionExecuted" and e["payload"].get("error") == error]
        assert refused and {"action": "idle", "option": action}.items() <= refused[0].items()

    def test_bad_ticks_exit_2(self, room_tidy_path):
        assert main(["run", room_tidy_path, "--ticks", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--trace", "t.jsonl", "--metrics", "m.csv"],
    ["sweep", "--template", "commitment_guard", "--weights", "0,1,2", "--out", "s.csv"],
], ids=["run", "sweep"])
def test_a_command_checks_its_spec_once(redescription_path, tmp_path, monkeypatch,
                                       argv):
    checked = []
    check = scenario._validate
    monkeypatch.setattr(scenario, "_validate",
                        lambda spec: checked.append(spec) or check(spec))
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    assert main([command, redescription_path, "--ticks", "20", *options]) == 0
    assert len(checked) == 1


class TestSweepCommand:
    def test_sweep_rows_in_input_order(self, redescription_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", "0.0,0.5,1.0,1.5", "--ticks", "40", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "weight,final_strict,final_relaxed,abandoned,countermeasures_fired"
        )
        weights = [line.split(",")[0] for line in lines[1:]]
        assert weights == ["0.0", "0.5", "1.0", "1.5"]
        abandoned = [int(line.split(",")[3]) for line in lines[1:]]
        assert abandoned == sorted(abandoned, reverse=True)

    def test_each_weight_is_written_as_given(self, redescription_path, tmp_path):
        # A weight is an input, not a computed float: two weights that agree
        # to nine places stay apart, and a tiny one is not written as 0.
        weights = [1e-10, 0.0, 0.1234567891, 0.1234567894]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", redescription_path, "--template", "commitment_guard",
                     "--weights", ",".join(map(str, weights)), "--ticks", "5",
                     "--out", str(out)]) == 0
        cells = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert [float(cell) for cell in cells] == weights

    def test_each_run_is_freed_before_the_next_starts(
        self, redescription_path, tmp_path, monkeypatch
    ):
        start = cli.start
        states = []

        def spying(spec, config):
            assert all(ref() is None for ref in states)
            state = start(spec, config)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(cli, "start", spying)
        code = main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", "0.0,1.0,2.0", "--ticks", "10",
             "--out", str(tmp_path / "sweep.csv")]
        )
        assert code == 0 and len(states) == 3

    def test_single_default_weight_matches_run_outcome(
        self, redescription_path, tmp_path, capsys
    ):
        out = tmp_path / "one.csv"
        main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", "1.0", "--ticks", "40", "--seed", "1", "--out", str(out)]
        )
        capsys.readouterr()
        main(
            ["run", redescription_path, "--ticks", "40", "--seed", "1",
             "--set-weight", "commitment_guard=1.0",
             "--trace", str(tmp_path / "t.jsonl"),
             "--metrics", str(tmp_path / "m.csv")]
        )
        summary = capsys.readouterr().out
        row = out.read_text().splitlines()[1].split(",")
        assert ("abandoned=yes" in summary) == (row[3] == "1")

    def test_empty_weights_exit_2_and_no_file(self, redescription_path, tmp_path):
        out = tmp_path / "none.csv"
        code = main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", "", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["nan", "0.5,inf", "1e999,1.0"])
    def test_non_finite_weights_exit_2_and_no_file(
        self, redescription_path, tmp_path, weights
    ):
        out = tmp_path / "non_finite.csv"
        code = main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", weights, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_non_finite_base_weight_exits_2(self, redescription_path, tmp_path):
        out = tmp_path / "non_finite.csv"
        code = main(
            ["sweep", redescription_path, "--template", "commitment_guard",
             "--weights", "0.5", "--set-weight", "commitment_guard=nan",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_both_weight_options_print_one_message(self, redescription_path,
                                                   tmp_path, capsys):
        run = main(["run", redescription_path, "--set-weight", "commitment_guard=nan",
                    "--trace", str(tmp_path / "t.jsonl"),
                    "--metrics", str(tmp_path / "m.csv")])
        run_err = capsys.readouterr().err
        sweep = main(["sweep", redescription_path, "--template", "commitment_guard",
                      "--weights", "nan", "--out", str(tmp_path / "s.csv")])
        assert run == sweep == 2
        assert run_err == capsys.readouterr().err == (
            "error: weights must be finite and non-negative\n")

    def test_unknown_template_exit_2(self, redescription_path, tmp_path):
        code = main(
            ["sweep", redescription_path, "--template", "ghost",
             "--weights", "0.5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_sweeping_the_relaxed_goal_counterweight(self, room_tidy_path, tmp_path):
        # Weakening the argument against giving up re-opens the path to
        # abandonment even with the countermeasure active: the abandoned
        # column must stay non-increasing in the weight.
        out = tmp_path / "relax.csv"
        code = main(
            ["sweep", room_tidy_path, "--template", "room_can_still_look_tidy",
             "--weights", "0.0,0.5,1.0,1.5", "--ticks", "40", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        abandoned = [
            int(line.split(",")[3]) for line in out.read_text().splitlines()[1:]
        ]
        assert abandoned == sorted(abandoned, reverse=True)
        assert abandoned[0] == 1 and abandoned[-1] == 0


class TestOutputFiles:
    """Outputs replace whatever the paths held, byte for byte."""

    JUNK = bytes(range(256)) * 4096  # 1 MB, every byte value, "\r" included

    @staticmethod
    def run_argv(scenario, trace, metrics, ticks=60):
        return ["run", scenario, "--ticks", str(ticks), "--seed", "3",
                "--trace", str(trace), "--metrics", str(metrics)]

    @staticmethod
    def sweep_argv(scenario, out):
        return ["sweep", scenario, "--template", "commitment_guard",
                "--weights", "0.0,1.0", "--ticks", "20", "--out", str(out)]

    def test_outputs_over_junk_equal_fresh_outputs(self, redescription_path, tmp_path):
        fresh = [tmp_path / name for name in ("t.jsonl", "m.csv", "s.csv")]
        reused = [tmp_path / f"old_{name}" for name in ("t.jsonl", "m.csv", "s.csv")]
        for path in reused:
            path.write_bytes(self.JUNK)
        inodes = [path.stat().st_ino for path in reused]
        for trace, metrics, sweep in (fresh, reused):
            assert main(self.run_argv(redescription_path, trace, metrics)) == 0
            assert main(self.sweep_argv(redescription_path, sweep)) == 0
        for new, old in zip(fresh, reused):
            assert old.read_bytes() == new.read_bytes()
            assert b"\r" not in new.read_bytes()
        assert [path.stat().st_ino for path in reused] == inodes

    def test_shorter_rerun_leaves_no_old_tail(self, room_tidy_path, tmp_path):
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.csv"
        assert main(self.run_argv(room_tidy_path, trace, metrics, ticks=60)) == 0
        long_size = trace.stat().st_size
        assert main(self.run_argv(room_tidy_path, trace, metrics, ticks=5)) == 0
        fresh_trace, fresh_metrics = tmp_path / "ft.jsonl", tmp_path / "fm.csv"
        assert main(self.run_argv(room_tidy_path, fresh_trace, fresh_metrics, ticks=5)) == 0
        assert trace.read_bytes() == fresh_trace.read_bytes()
        assert metrics.read_bytes() == fresh_metrics.read_bytes()
        assert trace.stat().st_size < long_size
        assert len(metrics.read_text().splitlines()) == 6

    @pytest.mark.parametrize("error", [KeyError("weight"), KeyboardInterrupt()])
    def test_failed_write_leaves_no_old_tail(self, tmp_path, error):
        class Broken(dict):
            def __getitem__(self, key):
                raise error

        summary = {"final_strict": True, "final_relaxed": True,
                   "abandoned": False, "countermeasures_fired": 0}
        out = tmp_path / "s.csv"
        out.write_bytes(self.JUNK)
        # Enough rows to flush past the text layer's buffer before the failure.
        with pytest.raises(type(error)):
            cli.write_sweep([(1.0, summary)] * 5000 + [(1.0, Broken())], str(out))
        assert out.read_bytes() == b""

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_run_to_dev_null(self, room_tidy_path):
        assert main(self.run_argv(room_tidy_path, "/dev/null", "/dev/null")) == 0

    @pytest.mark.parametrize("existing", [False, True])
    def test_one_file_for_both_outputs_exits_2_and_opens_nothing(
            self, room_tidy_path, tmp_path, capsys, existing):
        # The same path twice, and two names of one file.
        out = tmp_path / "out.txt"
        if existing:
            out.write_bytes(self.JUNK)
        (tmp_path / "link").symlink_to(out)
        for metrics in (out, tmp_path / "link"):
            assert main(self.run_argv(room_tidy_path, out, metrics)) == 2
            assert capsys.readouterr().err == (
                f"error: --metrics names the same file as --trace: {metrics}\n")
        if existing:
            assert out.read_bytes() == self.JUNK
        else:
            assert not out.exists()

    def test_an_output_over_the_scenario_exits_2_and_opens_nothing(
            self, redescription_path, tmp_path, capsys):
        scenario = Path(redescription_path)
        document = scenario.read_bytes()
        other = tmp_path / "other.csv"
        for argv, option in [
            (self.run_argv(redescription_path, scenario, other), "--trace"),
            (self.run_argv(redescription_path, other, scenario), "--metrics"),
            (self.sweep_argv(redescription_path, scenario), "--out"),
        ]:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {option} names the same file as the scenario: {scenario}\n")
        assert scenario.read_bytes() == document
        assert not other.exists()

    @pytest.mark.parametrize("target", ["missing_dir/out", "."])
    def test_unwritable_path_exits_1(self, room_tidy_path, redescription_path,
                                     tmp_path, capsys, target):
        # A path under a missing directory, and a directory itself.
        bad = tmp_path / target
        assert main(self.run_argv(room_tidy_path, bad, tmp_path / "m.csv")) == 1
        assert "error: cannot write outputs: " in capsys.readouterr().err
        assert main(self.sweep_argv(redescription_path, bad)) == 1
        assert f"error: cannot write {bad}: " in capsys.readouterr().err
