"""Golden contract: the exact bytes the command line writes.

Each bundled scenario is run at 60 ticks with seed 1 under the default
configuration, without metacognition and under the CEOS profile; the
sha256 of its trace JSONL and metrics CSV is pinned below, as is the
sweep CSV of the README example.  A refactor must leave every digest
unchanged; a change that means to alter behaviour re-pins them and says
why.
"""

import hashlib
import json

import pytest

from cogsim.cli import main
from cogsim.runner import (RunConfig, run_simulation, summary_line, write_metrics,
                           write_trace)
from cogsim.scenario import BUNDLED, bundled_document, load_bundled, parse_scenario

CONFIGS = {
    "default": [],
    "no_metacog": ["--no-metacog"],
    "ceos": ["--bct", "ceos"],
}

# (scenario, config) -> (trace sha256, metrics sha256)
RUN_DIGESTS = {
    ("room_tidy", "ceos"): (
        "f3a0e4a3fae4a012cb7ab25c7bd3e1001ffc8e4271a78ce2480515b4b9274cd6",
        "85886b54413a74a8538bf761a9a562c07061c87c655dd09378b06f763dcb21c6",
    ),
    ("room_tidy", "default"): (
        "f3a0e4a3fae4a012cb7ab25c7bd3e1001ffc8e4271a78ce2480515b4b9274cd6",
        "85886b54413a74a8538bf761a9a562c07061c87c655dd09378b06f763dcb21c6",
    ),
    ("room_tidy", "no_metacog"): (
        "a84cb0eaa592881db340d62a4447af0f75192c478070237ca4b15ac4dfeb1cc4",
        "0e22518ce5c486264595452b346a6a60e0943a7c9502552c85659da634bdec4a",
    ),
    ("room_tidy_redescription", "ceos"): (
        "b781235e9ec4ac2dc93d790ddbcc22e9d22c70f890f00528edfb1e424c3791ba",
        "be799a32c5849c164786434bdeb6caf328e30e01cff6a0d67697ecc845c6c3e5",
    ),
    ("room_tidy_redescription", "default"): (
        "ee1db5e6d84e9806eacb8d700586923bfe76f940f52f1e12b1d9ca39f00e7758",
        "be799a32c5849c164786434bdeb6caf328e30e01cff6a0d67697ecc845c6c3e5",
    ),
    ("room_tidy_redescription", "no_metacog"): (
        "48df240d20a6eaa219a9ef86258bf3661bdc2cfa31e4f8ad6cccda8eb396771a",
        "0e22518ce5c486264595452b346a6a60e0943a7c9502552c85659da634bdec4a",
    ),
    ("non_smoking", "ceos"): (
        "122130f888f40c3aef0575da0d0cdcdb1d15c1777233da5609568e4b595e4e6c",
        "dc32b753b4d44c72737a927079012ed0944b4a0208c3ccdac944b47ea6b83035",
    ),
    ("non_smoking", "default"): (
        "f44d9a2eb5eaf9663ce0381ecd00ee0e3c106caed34e071e5069f98c54cbf0d1",
        "dc32b753b4d44c72737a927079012ed0944b4a0208c3ccdac944b47ea6b83035",
    ),
    ("non_smoking", "no_metacog"): (
        "b516cc3012cf9742792508692b5c1fe0520c9b92504db5d2c038efaafcbf9a90",
        "dedc5b336d16383d0c3033fab9d751626c3f046b879c873d56ce692b71f20355",
    ),
    ("office_cake", "ceos"): (
        "8ca59279e222134f49577594f6f8dc32a4c6fd33dcf20dc8fb0c1fcce961b0b2",
        "9d786e0d8c0f207549751019236bd84f6b757064ce461f51d4507376c4ef4120",
    ),
    ("office_cake", "default"): (
        "8ca59279e222134f49577594f6f8dc32a4c6fd33dcf20dc8fb0c1fcce961b0b2",
        "9d786e0d8c0f207549751019236bd84f6b757064ce461f51d4507376c4ef4120",
    ),
    ("office_cake", "no_metacog"): (
        "6d78544af4c05888e036bc5a550db428d7a59359950a2f94a52d4caed6947f2f",
        "51ead6aa06990d680d84cd89f584750e1cf977fe2a8ce5ebc4e1fecd71921c7b",
    ),
}
SWEEP_DIGEST = "f8748d807e6c88199f236861d58e069a5e349da2e11036c5c7ad546c4300839c"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario_path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(bundled_document(name), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_run_outputs_match_pinned_digests(tmp_path, capsys, name, config):
    trace = tmp_path / "out.trace.jsonl"
    metrics = tmp_path / "out.metrics.csv"
    code = main(
        ["run", _scenario_path(tmp_path, name), "--ticks", "60", "--seed", "1",
         *CONFIGS[config], "--trace", str(trace), "--metrics", str(metrics)]
    )
    assert code == 0
    assert (_sha256(trace), _sha256(metrics)) == RUN_DIGESTS[(name, config)]


def test_readme_sweep_matches_pinned_digest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", _scenario_path(tmp_path, "room_tidy_redescription"),
         "--template", "commitment_guard", "--weights", "0,0.5,1.0,1.5,2.0",
         "--out", str(out)]
    )
    assert code == 0
    assert _sha256(out) == SWEEP_DIGEST


# Weight overrides of the one-cell scenarios: each of their four argument
# templates at each of these weights, 60 ticks at seed 1.  The trace and
# metrics bytes of all 24 runs, in this order, go into one digest.
ONE_CELL_WEIGHTS = (0.0, 1.5, 3.0)
ONE_CELL_DIGEST = "80d007fe6ac4c5974edc3d50fc14aff943be5a882681b086e7a8d57978a63a41"


def test_one_cell_weight_overrides_match_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    trace = tmp_path / "out.trace.jsonl"
    metrics = tmp_path / "out.metrics.csv"
    for name in ("non_smoking", "office_cake"):
        path = _scenario_path(tmp_path, name)
        for template in load_bundled(name).agent.argument_templates:
            for weight in ONE_CELL_WEIGHTS:
                code = main(
                    ["run", path, "--ticks", "60", "--seed", "1",
                     "--set-weight", f"{template.id}={weight}",
                     "--trace", str(trace), "--metrics", str(metrics)]
                )
                assert code == 0
                digest.update(trace.read_bytes())
                digest.update(metrics.read_bytes())
    assert digest.hexdigest() == ONE_CELL_DIGEST


# Each bundled scenario with its processes declared in reverse order, run
# for 200 ticks at seed 1 under each configuration and written by the
# kept-run writers.  The engine steps the processes in rank order; only
# the option look-up of a redescription and the metrics columns follow
# the declaration.  (trace, metrics, summary line) sha256, pinned from an
# engine that sorted the processes at each deliberation and read its
# declared list everywhere else.
REVERSED_CONFIGS = {
    "default": RunConfig(ticks=200),
    "no_metacog": RunConfig(ticks=200, metacognition_enabled=False),
    "ceos": RunConfig(ticks=200, bct_profile="ceos"),
}
REVERSED_DIGESTS = {
    ("non_smoking", "ceos"): (
        "b72f8e8527b254d5d1df8324eb764607aa1c62649b7fd5072bd243b2bbd6949d",
        "90620beda3e45c52547775c860b8057fb49f5c5a50b27c62e0b956eb6a46e32c",
        "a59abd7f462b5f134ce9f8ff27b9f62a25087993ad96fe49213616a99263159d",
    ),
    ("non_smoking", "default"): (
        "b76ae7eca9aed5ea7504c8efc7850194e9f459c4ff392ae3f18413ca06edf67e",
        "90620beda3e45c52547775c860b8057fb49f5c5a50b27c62e0b956eb6a46e32c",
        "a59abd7f462b5f134ce9f8ff27b9f62a25087993ad96fe49213616a99263159d",
    ),
    ("non_smoking", "no_metacog"): (
        "385b5c6e2f9557b8bc9c65a1a22caafc78f1d63ae729b428b5346562fe02a96c",
        "90312b3971808fcd273686283294b75982ee0bae384f3aa2e800a3ec87b7a5e1",
        "4f60c90cab6fb7a695ff96fb5e36035de21bcdde6ab1597d17061e05a3fc8b8e",
    ),
    ("office_cake", "ceos"): (
        "cb73bbcdb58668f1db48d55091819d7425f74ad61f29f845c3d8155e920e6ba4",
        "9cf3d5d346dbc1e7bfb5a1f12b385bd7cbeda707a175e9fe7dac0d792e55b552",
        "3cefb5e2f7792fa0d09f5016a4d08cf782c8b0a11387cef30107462897224df0",
    ),
    ("office_cake", "default"): (
        "cb73bbcdb58668f1db48d55091819d7425f74ad61f29f845c3d8155e920e6ba4",
        "9cf3d5d346dbc1e7bfb5a1f12b385bd7cbeda707a175e9fe7dac0d792e55b552",
        "3cefb5e2f7792fa0d09f5016a4d08cf782c8b0a11387cef30107462897224df0",
    ),
    ("office_cake", "no_metacog"): (
        "181b806a6357027fd22c99b251b28690bafef2c27cb9494bdae156efb8ef5750",
        "a9787ed2cd74494eef159eba7547175fe8207d895761241d199d5c03b9096f7f",
        "32e3e9d1e90816fe55e510f4aca9b1781ce94405e747fa9209bf6fd91d0428b0",
    ),
    ("room_tidy", "ceos"): (
        "d914b4d6bd4020d7815811efd8b689ce1bfc3c3dad0b16ad8e98c53aee431f7b",
        "3179aaa84c6093ba16055b5d418570d37017fed7e0d99a469d124477a042fdba",
        "11317b7bd8301e537a12d7e2215a5aa79cda12b2d0f045abb7c684177f1c3876",
    ),
    ("room_tidy", "default"): (
        "d914b4d6bd4020d7815811efd8b689ce1bfc3c3dad0b16ad8e98c53aee431f7b",
        "3179aaa84c6093ba16055b5d418570d37017fed7e0d99a469d124477a042fdba",
        "11317b7bd8301e537a12d7e2215a5aa79cda12b2d0f045abb7c684177f1c3876",
    ),
    ("room_tidy", "no_metacog"): (
        "1d2c7eff511e388fc88a21a27f0aa462ba34cde771699a5c62665d92646a8e55",
        "faf8d2cb50114ff59c34c247f0ea75eea8269a8b8b3873bacd63d8ed4465f547",
        "4ed4b3e42e1ac7e59e6031cb907be6a3e41866e50be3d1d1fefb90a8881a7cbb",
    ),
    ("room_tidy_redescription", "ceos"): (
        "5387b995c146c3e8469327211f73b45270ec46c6eab11b8125eeb311b2260b68",
        "875d2226194e128fdf2cce0edc030b8a34e0698edd90a09b15922e3a1b0819f3",
        "97ddeaa6c525a8b7829d20552946f4345925c7e9b351b9687e9b8e9fffed2e37",
    ),
    ("room_tidy_redescription", "default"): (
        "2d30beff1286617a6bc2ae9ae3c2b2b5100ce94f838f945cbefa389f43b6a03d",
        "875d2226194e128fdf2cce0edc030b8a34e0698edd90a09b15922e3a1b0819f3",
        "97ddeaa6c525a8b7829d20552946f4345925c7e9b351b9687e9b8e9fffed2e37",
    ),
    ("room_tidy_redescription", "no_metacog"): (
        "23ab54505812079bca9d06adb5c969a94dce9740e78d96c2c25eaaa4983017c0",
        "faf8d2cb50114ff59c34c247f0ea75eea8269a8b8b3873bacd63d8ed4465f547",
        "d2e9ae43cf86c5623e68c4133afdae4ebfc77b11a26c67e4f532a75f86c9808d",
    ),
}


@pytest.mark.parametrize("config", sorted(REVERSED_CONFIGS))
@pytest.mark.parametrize("name", BUNDLED)
def test_reversed_process_declarations_match_pinned_digests(tmp_path, name, config):
    doc = json.loads(bundled_document(name))
    doc["agent"]["processes"].reverse()
    result = run_simulation(parse_scenario(json.dumps(doc)), REVERSED_CONFIGS[config])
    trace = tmp_path / "out.trace.jsonl"
    metrics = tmp_path / "out.metrics.csv"
    write_trace(result.state, str(trace))
    write_metrics(result, str(metrics))
    summary = hashlib.sha256(summary_line(result.summary).encode()).hexdigest()
    assert (_sha256(trace), _sha256(metrics), summary) == REVERSED_DIGESTS[(name, config)]
