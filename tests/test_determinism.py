"""Run output does not depend on Python's string hashing.

Sets and dicts keyed by strings iterate in an order that changes with
``PYTHONHASHSEED``; nothing that reaches the trace or the metrics may
follow that order.  Each bundled scenario is run at 200 ticks through
the command line, in each mode (default, ``--no-metacog`` and
``--bct ceos``), and the README sweep is run too, in two interpreters
with different hash seeds; their files must match byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import cogsim
from cogsim.scenario import BUNDLED

ASSETS = Path(cogsim.__file__).parent / "assets"
SRC = Path(cogsim.__file__).parents[1]

SCRIPT = """
import sys
from cogsim.cli import main
assets, out = sys.argv[1:3]
modes = {"default": [], "no_metacog": ["--no-metacog"], "ceos": ["--bct", "ceos"]}
for name in sys.argv[3:]:
    for mode, flags in modes.items():
        argv = ["run", f"{assets}/{name}.json", "--ticks", "200", *flags,
                "--trace", f"{out}/{name}.{mode}.trace.jsonl",
                "--metrics", f"{out}/{name}.{mode}.metrics.csv"]
        assert main(argv) == 0, (name, mode)
argv = ["sweep", f"{assets}/room_tidy_redescription.json", "--template",
        "commitment_guard", "--weights", "0,0.5,1.0,1.5,2.0", "--out", f"{out}/sweep.csv"]
assert main(argv) == 0, "sweep"
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    runs = {}
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        runs[out] = subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(ASSETS), str(out), *BUNDLED],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
    for out, proc in runs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    first, second = runs
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 3 * 2 * len(BUNDLED) + 1
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
