"""Regenerate pins.json: the outputs every benchmark input must reproduce.

    python3 bench/pin.py

Runs every input any workload seed can draw (each tidy scatter seed,
each long-horizon scatter seed, each sweep row) with the program in
``src/`` and records the sha256 of its trace JSONL and metrics CSV, or
the text of its sweep CSV row together with the sha256 of that run's
trace JSONL and metrics CSV, with the ticks and trace events it
produced.  Re-pin only for a change that is meant to alter simulated
behaviour; a speed-only change must leave this file untouched.
"""

from __future__ import annotations

import json
import sys

import run_bench as rb


def main() -> int:
    rb.use_checkout_src()
    rb.OUT.mkdir(exist_ok=True)
    names = rb.TIDY_SCENARIOS + tuple(sorted(rb.SWEEP_TEMPLATES))
    env = rb.set_up(names, {"runs": {}, "sweep_rows": {}, "sweep_header": ""})
    runs = {}
    ops = [rb.TidyRun(env, name, s) for name in rb.TIDY_SCENARIOS
           for s in range(rb.TIDY_SEEDS)]
    ops += [rb.LongRun(env, s) for s in range(rb.LONG_SEEDS)]
    for op in ops:
        digests = op.digests(op.run())
        ticks = len(rb.METRICS_FILE.read_text(encoding="utf-8").splitlines()) - 1
        events = len(rb.TRACE_FILE.read_text(encoding="utf-8").splitlines())
        runs[op.key] = digests + [ticks, events]

    header, rows = None, {}
    for scenario, templates in rb.SWEEP_TEMPLATES.items():
        spec = env.specs[scenario]
        for template in templates:
            for weight in rb.SWEEP_WEIGHTS:
                status = rb.SweepRun(env, scenario, template, [weight]).run()
                if status != 0:
                    raise RuntimeError(f"sweep exited {status}")
                head, row = rb.SWEEP_FILE.read_text(encoding="utf-8").splitlines(True)
                header = header or head
                run = env.runner.run_simulation(
                    spec, rb.sweep_config(env.runner, template, weight))
                rows[f"{scenario}/{template}/{weight}"] = [
                    row, len(run.metrics), len(run.state.trace.events),
                    *rb.simulation_digests(env.runner, run)]

    pins = {"runs": runs, "sweep_header": header, "sweep_rows": rows}
    rb.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"pinned {len(runs)} runs and {len(rows)} sweep rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
