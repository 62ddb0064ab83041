"""cogsim benchmark: closed-loop workloads, end to end and per layer.

Run from the repository root; the program is imported from ``src/``:

    python3 bench/run_bench.py --workload tidy_seeds --seed 7 --seconds 35 --trace 0

One client in one process, with no threads: each operation starts when
the previous one has returned.  The workload seed draws the inputs
(scatter seeds, weight vectors); cogsim only ever sees those inputs.
Every operation's output files are hashed and compared with the digests
pinned in ``pins.json``; a mismatch or an exception is a failed
operation.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over a fixed prefix
of the operation pool and reports per-layer metrics from the spans that
``spans.Tracer`` records around cogsim's functions.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import Tracer, cogsim_modules

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ASSETS = SRC / "cogsim" / "assets"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

TRACE_FILE = OUT / "trace.jsonl"
METRICS_FILE = OUT / "metrics.csv"
SWEEP_FILE = OUT / "sweep.csv"

TIDY_SCENARIOS = ("room_tidy", "room_tidy_redescription")
TIDY_SEEDS = 256  # scatter seeds are drawn from range(TIDY_SEEDS)
TIDY_DRAWS = 64  # scatter seeds per scenario in one pool
LONG_SCENARIO = "room_tidy_redescription"
LONG_TICKS = 1600  # the trace passes 10k events
LONG_SEEDS = 32
LONG_DRAWS = 16
SWEEP_TEMPLATES = {
    "non_smoking": ("relief_appeal", "calming_now", "keeps_commitment",
                    "broken_commitment"),
    "office_cake": ("social_pressure", "friendly_gesture", "keeps_sugar_goal",
                    "undermines_sugar_goal"),
}
SWEEP_WEIGHTS = tuple(str(k / 4) for k in range(13))  # "0.0" .. "3.0"
SWEEP_WIDTH = 5  # weights per sweep
SWEEP_OPS = 32

SETUP_REPEATS = 15


# -- the program under test ---------------------------------------------------


def use_checkout_src() -> None:
    """Make ``import cogsim`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_cogsim():
    """Import cogsim afresh from ``src/`` and return ``cogsim.cli``."""
    for module in cogsim_modules():
        del sys.modules[module.__name__]
    cogsim = importlib.import_module("cogsim")
    if SRC not in Path(cogsim.__file__).resolve().parents:
        raise ImportError(f"cogsim imported from {cogsim.__file__}, not {SRC}")
    return importlib.import_module("cogsim.cli")


def prepare(scenario_module, names) -> dict:
    """Parse, validate and instantiate each named bundled scenario."""
    specs = {}
    for name in names:
        spec = scenario_module.parse_scenario(
            (ASSETS / f"{name}.json").read_text(encoding="utf-8")
        )
        report = scenario_module.validate_scenario(spec)
        if not report.ok():
            raise RuntimeError(f"{name}: {report.errors}")
        scenario_module.instantiate(spec, 1)
        specs[name] = spec
    return specs


@dataclass
class Env:
    """The imported program plus the pinned outputs."""

    cli: object
    runner: object
    scenario: object
    specs: dict
    pins: dict


def set_up(names, pins) -> Env:
    """Import cogsim afresh and ``prepare`` the scenarios: what setup_s times."""
    cli = import_cogsim()
    scenario = sys.modules["cogsim.scenario"]
    specs = prepare(scenario, names)
    return Env(cli, sys.modules["cogsim.runner"], scenario, specs, pins)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- machine speed ---------------------------------------------------------------
#
# On a shared host the same operation's time swings by up to 1.9x within
# tens of seconds, and most of the swing is shared by all Python code
# running at the time.  So every time reported is scaled to one fixed
# machine speed: the speed at which ``reference()`` takes REF_MS.  While
# a Clock is open, a timer signal
# times the reference every SAMPLE_S seconds in the main thread (the
# fastest of REF_RUNS runs, which drops interrupts and a cold cache); a
# measurement is multiplied by REF_MS over the mean of the samples taken
# during it and the REF_WINDOW samples before it, and the time spent in
# the signal handler is taken out of the measurement.

REF_MS = 1.0
SAMPLE_S = 0.05
REF_WINDOW = 4
REF_RUNS = 2


def reference() -> int:
    """Fixed work of the kind cogsim does (small tuples, dict lookups,
    string building and splitting, a keyed sort) that never changes."""
    seen: dict[tuple[int, int], str] = {}
    total = 0
    for i in range(1200):
        key = (i % 37, i % 53)
        label = f"cell:{key[0]},{key[1]}"
        if seen.get(key) != label:
            seen[key] = label
        total += len(label.split(":", 1)[1])
    return total + len(sorted(seen.items(), key=lambda kv: (kv[0][1], kv[0][0])))


class Clock:
    """Host time scaled to the reference speed; a context manager."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per reference run
        self.handler_s = 0.0
        self.factors: list[float] = []

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REF_RUNS):
            begin = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - begin)
        self.samples.append(best)
        self.handler_s += time.perf_counter() - start

    def start(self) -> tuple[int, float, float]:
        return len(self.samples), self.handler_s, time.perf_counter()

    def stop(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(host seconds, scaled seconds) since ``mark = start()``."""
        end = time.perf_counter()
        first, handler_s, begin = mark
        host = end - begin - (self.handler_s - handler_s)
        window = self.samples[max(0, first - REF_WINDOW):]
        factor = REF_MS / 1e3 / statistics.fmean(window)
        self.factors.append(factor)
        return host, host * factor


# -- operations ----------------------------------------------------------------
#
# An operation has ``run(ticks=None)``, timed, and ``digests(output)``,
# untimed, plus the pinned ``expected`` digests and the ``ticks`` and
# trace ``events`` a correct run produces.


class CliRun:
    """An in-process ``cogsim`` command; its summary line is discarded."""

    argv: list[str]

    def run(self, ticks: int | None = None):
        argv = self.argv + ([] if ticks is None else ["--ticks", str(ticks)])
        with contextlib.redirect_stdout(io.StringIO()):
            return self.env.cli.main(argv)


class TidyRun(CliRun):
    """``cogsim run`` of one tidy scenario for one scatter seed."""

    def __init__(self, env: Env, scenario: str, scatter_seed: int) -> None:
        self.env = env
        self.key = f"{scenario}/{scatter_seed}"
        self.argv = ["run", str(ASSETS / f"{scenario}.json"),
                     "--seed", str(scatter_seed),
                     "--trace", str(TRACE_FILE), "--metrics", str(METRICS_FILE)]
        pin = env.pins["runs"].get(self.key, [None, None, 0, 0])
        self.expected, self.ticks, self.events = pin[:2], pin[2], pin[3]

    def digests(self, status) -> list:
        if status != 0:
            return [f"exit status {status}"]
        return [sha256_file(TRACE_FILE), sha256_file(METRICS_FILE)]


class LongRun:
    """``run_simulation`` of the redescription room for LONG_TICKS ticks."""

    def __init__(self, env: Env, scatter_seed: int) -> None:
        self.env = env
        self.seed = scatter_seed
        self.key = f"{LONG_SCENARIO}@{LONG_TICKS}/{scatter_seed}"
        pin = env.pins["runs"].get(self.key, [None, None, 0, 0])
        self.expected, self.ticks, self.events = pin[:2], pin[2], pin[3]

    def run(self, ticks: int | None = None):
        runner = self.env.runner
        config = runner.RunConfig(ticks=ticks or LONG_TICKS, seed=self.seed)
        return runner.run_simulation(self.env.specs[LONG_SCENARIO], config)

    def digests(self, result) -> list:
        return simulation_digests(self.env.runner, result)


def simulation_digests(runner, result) -> list:
    """sha256 of the trace JSONL and metrics CSV of one simulation."""
    runner.write_trace(result.state, str(TRACE_FILE))
    runner.write_metrics(result, str(METRICS_FILE))
    return [sha256_file(TRACE_FILE), sha256_file(METRICS_FILE)]


def sweep_config(runner, template: str, weight: str):
    """The RunConfig ``cogsim sweep`` uses for one weight, all else default."""
    return runner.RunConfig(weight_overrides={template: float(weight)})


class SweepRun(CliRun):
    """``cogsim sweep`` of one abstract scenario over one weight vector.

    The sweep CSV holds only each run's outcome, so ``digests`` also
    re-runs each weight's simulation, untimed, and hashes its trace and
    metrics: those pin the forces, arguments and rules the sweep used.
    """

    def __init__(self, env: Env, scenario: str, template: str, weights) -> None:
        self.env = env
        self.scenario, self.template, self.weights = scenario, template, weights
        self.argv = ["sweep", str(ASSETS / f"{scenario}.json"),
                     "--template", template, "--weights", ",".join(weights),
                     "--out", str(SWEEP_FILE)]
        rows = env.pins["sweep_rows"]
        pins = [rows.get(f"{scenario}/{template}/{w}", ["", 0, 0, None, None])
                for w in weights]
        text = env.pins["sweep_header"] + "".join(p[0] for p in pins)
        self.expected = [hashlib.sha256(text.encode("utf-8")).hexdigest()]
        self.expected += [digest for p in pins for digest in p[3:5]]
        self.ticks = sum(p[1] for p in pins)
        self.events = sum(p[2] for p in pins)

    def digests(self, status) -> list:
        if status != 0:
            return [f"exit status {status}"]
        out = [sha256_file(SWEEP_FILE)]
        runner, spec = self.env.runner, self.env.specs[self.scenario]
        for weight in self.weights:
            config = sweep_config(runner, self.template, weight)
            out += simulation_digests(runner, runner.run_simulation(spec, config))
        return out


# -- workloads -----------------------------------------------------------------


def tidy_pool(env: Env, seed: int) -> list:
    rng = random.Random(seed)
    draws = {name: rng.sample(range(TIDY_SEEDS), TIDY_DRAWS) for name in TIDY_SCENARIOS}
    return [TidyRun(env, name, draws[name][i])
            for i in range(TIDY_DRAWS) for name in TIDY_SCENARIOS]


def long_pool(env: Env, seed: int) -> list:
    rng = random.Random(seed)
    return [LongRun(env, s) for s in rng.sample(range(LONG_SEEDS), LONG_DRAWS)]


def sweep_pool(env: Env, seed: int) -> list:
    rng = random.Random(seed)
    pool = []
    for i in range(SWEEP_OPS):
        scenario = sorted(SWEEP_TEMPLATES)[i % len(SWEEP_TEMPLATES)]
        template = rng.choice(SWEEP_TEMPLATES[scenario])
        weights = [rng.choice(SWEEP_WEIGHTS) for _ in range(SWEEP_WIDTH)]
        pool.append(SweepRun(env, scenario, template, weights))
    return pool


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]  # what set-up parses, validates, instantiates
    pool: Callable[[Env, int], list]  # operations drawn from the workload seed
    horizon: int  # ticks of one operation, halved for the linearity probe
    pass_ops: int  # operations in one traced or untraced pass
    mem_ops: int  # operations in the tracemalloc pass


WORKLOADS = {
    # cli run of both room scenarios at 60 ticks: planner and world.
    "tidy_seeds": Workload(TIDY_SCENARIOS, tidy_pool, 60, 40, 8),
    # One growing trace: metacog's monitor rescans it on every tick.
    "long_horizon": Workload((LONG_SCENARIO,), long_pool, LONG_TICKS, 1, 1),
    # cli sweep of the one-cell scenarios: arguments, affect, rules.
    "affect_sweep": Workload(tuple(sorted(SWEEP_TEMPLATES)), sweep_pool, 60, 8, 4),
}


# -- measurement ---------------------------------------------------------------


def attempt(op, clock: Clock, tracer: Tracer | None = None):
    """Run one operation; return (host s, scaled s, correct).  The times
    are None when the operation raised."""
    try:
        mark = clock.start()
        output = op.run()
        host, scaled = clock.stop(mark)
        if tracer is not None:
            tracer.enabled = False
        try:
            return host, scaled, op.digests(output) == op.expected
        finally:
            if tracer is not None:
                tracer.enabled = True
    except Exception:
        traceback.print_exc()
        return None, None, False


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "us_per_event": "us",
    "peak_mem_mb": "MB",
}


def end_to_end(wl: Workload, pool: list, setup_s: list,
               seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed operations."""
    peak_mb, mem_ops, mem_failed = peak_memory(wl, pool)  # also the warm-up
    host: list[float] = []
    samples: list[float] = []
    ticks = events = failed = attempted = 0
    with Clock() as clock:
        gc.collect()
        deadline = time.perf_counter() + seconds
        while attempted == 0 or time.perf_counter() < deadline:
            op = pool[attempted % len(pool)]
            attempted += 1
            host_s, scaled_s, ok = attempt(op, clock)
            failed += not ok
            if scaled_s is not None:
                host.append(host_s)
                samples.append(scaled_s)
                ticks += op.ticks
                events += op.events
    if not samples:
        raise RuntimeError("every operation raised")
    total = sum(samples)
    values = {
        "setup_s": statistics.median(setup_s),
        "ticks_per_s": ticks / total,
        "run_ms_p50": statistics.median(samples) * 1e3,
        "run_ms_p90": p90(samples) * 1e3,
        "us_per_event": total / events * 1e6,
        "peak_mem_mb": peak_mb,
    }
    print(f"# {len(samples)} timed operations over {len(pool)} distinct inputs; "
          f"set-up timed {len(setup_s)} times; memory over {mem_ops} operations")
    print(f"# unscaled host time: run_ms_p50 {statistics.median(host) * 1e3:.3f} "
          f"run_ms_p90 {p90(host) * 1e3:.3f} ticks_per_s {ticks / sum(host):.1f}; "
          f"median speed factor {statistics.median(clock.factors):.3f}")
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, attempted + mem_ops, failed + mem_failed


def peak_memory(wl: Workload, pool: list) -> tuple[float, int, int]:
    """Median over the first ``mem_ops`` operations of each one's
    tracemalloc peak, in MB, untimed; plus attempted and failed.  The
    peak is read when the operation returns, before its outputs are
    checked.  Run before the timed loop, it is also the warm-up."""
    peaks, failed = [], 0
    tracemalloc.start()
    try:
        for op in pool[: wl.mem_ops]:
            gc.collect()  # the same collector state before every operation
            tracemalloc.reset_peak()
            try:
                output = op.run()
                peaks.append(tracemalloc.get_traced_memory()[1])
                failed += op.digests(output) != op.expected
            except Exception:
                traceback.print_exc()
                failed += 1
            output = None  # or it would count in the next operation's peak
    finally:
        tracemalloc.stop()
    if not peaks:
        raise RuntimeError("every operation raised")
    return statistics.median(peaks) / 1e6, len(peaks), failed


def run_pass(wl: Workload, env: Env, ops: list, clock: Clock,
             tracer: Tracer | None = None) -> tuple[float, float, int]:
    """Prepare the workload's scenarios and run ``ops``: one pass.
    Returns (host s, scaled s, failed operations)."""
    gc.collect()
    if tracer is not None:
        tracer.run_id = 0
    mark = clock.start()
    prepare(env.scenario, wl.scenarios)
    host, scaled = clock.stop(mark)
    failed = 0
    for index, op in enumerate(ops, start=1):
        if tracer is not None:
            tracer.run_id = index
        host_s, scaled_s, ok = attempt(op, clock, tracer)
        host += host_s or 0.0
        scaled += scaled_s or 0.0
        failed += not ok
    return host, scaled, failed


CALLS = ("planner.plan_tidy_task", "planner.bfs_path", "planner.simulate_whatif",
         "world.apply_action", "world.passable", "world.evaluate_goal",
         "metacog.monitor", "metacog.control", "arguments.build_case",
         "arguments.active_set", "affect.compute_force", "rules.eval_condition",
         "agent.tick", "agent.deliberative_step")
SELF_TIMES = {
    **{f"{name}.self_s": name for name in (
        "planner.plan_tidy_task", "world.apply_action", "metacog.monitor",
        "metacog.control", "arguments.build_case", "arguments.active_set",
        "affect.run_affective_cycle", "agent.tick", "agent.perceive",
        "agent.deliberative_step", "runner.run_simulation", "runner.write_trace",
        "runner.write_metrics", "cli.main")},
    "scenario.parse_s": "scenario.parse_scenario",
    "scenario.validate_s": "scenario.validate_scenario",
    "scenario.instantiate_s": "scenario.instantiate",
}
DERIVED_UNITS = {
    "planner.plans_per_deliberation": "ratio",
    "metacog.events_scanned": "count",
    "metacog.scan_useful_ratio": "ratio",
    "runner.trace_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "metacog.events_scanned_per_tick.full": "events/tick",
    "metacog.events_scanned_per_tick.half": "events/tick",
    "planner.plans_per_deliberation.full": "ratio",
    "planner.plans_per_deliberation.half": "ratio",
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    return ([(f"{name}.calls", "count") for name in CALLS]
            + [(name, "s") for name in SELF_TIMES]
            + list(DERIVED_UNITS.items()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def linearity(tracer: Tracer, run: int) -> tuple[float, float]:
    """(trace events the monitor read per tick, plans per deliberation)."""
    _, _, by_run = tracer.summary()
    return (
        _ratio(tracer.events_scanned[run], by_run["agent.tick", run]),
        _ratio(by_run["planner.plan_tidy_task", run],
               by_run["agent.deliberative_step", run]),
    )


def per_layer(wl: Workload, env: Env, pool: list,
              seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics, attempted and failed operations."""
    ops = pool[: wl.pass_ops]
    untraced, traced, passes = [], [], []
    attempted = failed = 0
    with Clock() as clock:
        run_pass(wl, env, ops, clock)  # warm-up, untimed
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            _, scaled, bad = run_pass(wl, env, ops, clock)
            untraced.append(scaled)
            tracer = Tracer()
            tracer.install()
            try:
                host, scaled, bad_traced = run_pass(wl, env, ops, clock, tracer)
            finally:
                tracer.restore()
            traced.append(scaled)
            attempted += 2 * len(ops)
            failed += bad + bad_traced
            calls, self_s, _ = tracer.summary()
            exact = (calls, tracer.events_scanned, tracer.events_new)
            passes.append((exact, {k: v * scaled / host for k, v in self_s.items()}))
            if len(passes) == 1:
                first = tracer
                tracer.write_spans(OUT / "spans.jsonl")

    # The first operation again at half the horizon, in its own tracer.
    probe = Tracer()
    probe.install()
    try:
        ops[0].run(ticks=wl.horizon // 2)
    finally:
        probe.restore()

    # The exact counts must repeat: a pass that differs from the first fails.
    differing = sum(p[0] != passes[0][0] for p in passes[1:])
    if differing:
        print(f"error: exact counts of {differing} traced passes differ from "
              "the first", file=sys.stderr)
    failed += differing
    calls = passes[0][0][0]
    metrics = {f"{name}.calls": (calls[name], "count") for name in CALLS}
    for metric, name in SELF_TIMES.items():
        metrics[metric] = (statistics.median(p[1].get(name, 0.0) for p in passes), "s")
    scanned = sum(first.events_scanned.values())
    full = linearity(first, 1)
    half = linearity(probe, 0)
    derived = {
        "planner.plans_per_deliberation": _ratio(
            calls["planner.plan_tidy_task"], calls["agent.deliberative_step"]),
        "metacog.events_scanned": scanned,
        "metacog.scan_useful_ratio": _ratio(sum(first.events_new.values()), scanned),
        "runner.trace_bytes": first.trace_bytes,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "metacog.events_scanned_per_tick.full": full[0],
        "metacog.events_scanned_per_tick.half": half[0],
        "planner.plans_per_deliberation.full": full[1],
        "planner.plans_per_deliberation.half": half[1],
    }
    metrics.update({name: (value, DERIVED_UNITS[name]) for name, value in derived.items()})
    print(f"# {len(passes)} traced and {len(untraced)} untraced passes of "
          f"{len(ops)} operations each")
    return metrics, attempted, failed


def time_set_up(wl: Workload, pins: dict) -> tuple[list, Env]:
    """Scaled seconds of SETUP_REPEATS set-ups, and the last set-up."""
    setup_s = []
    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            mark = clock.start()
            env = set_up(wl.scenarios, pins)
            setup_s.append(clock.stop(mark)[1])
    return setup_s, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    use_checkout_src()
    try:
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        setup_s, env = time_set_up(wl, pins)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up cogsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    pool = wl.pool(env, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, attempted, failed = per_layer(wl, env, pool, args.seconds)
    else:
        metrics, attempted, failed = end_to_end(wl, pool, setup_s, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6f} {unit}")
    print(f"# attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
