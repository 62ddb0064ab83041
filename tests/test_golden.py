"""Golden contract: the exact bytes the command line writes.

Each bundled scenario is run at 60 ticks with seed 1 under the default
configuration, without metacognition and under the CEOS profile; the
sha256 of its trace JSONL and metrics CSV is pinned below, as is the
sweep CSV of the README example.  A refactor must leave every digest
unchanged; a change that means to alter behaviour re-pins them and says
why.
"""

import hashlib

import pytest

from cogsim.cli import main
from cogsim.scenario import BUNDLED, bundled_document, load_bundled

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
