"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import bisect
import json
import sys

import pytest

import run_bench as rb
from spans import Tracer, cogsim_modules


@pytest.fixture(scope="module")
def env():
    rb.use_checkout_src()
    rb.OUT.mkdir(exist_ok=True)
    pins = json.loads(rb.PINS.read_text(encoding="utf-8"))
    names = rb.TIDY_SCENARIOS + tuple(sorted(rb.SWEEP_TEMPLATES))
    return rb.set_up(names, pins)


def sample_ops(env, seed=5):
    """Two tidy runs, one sweep and one long run, drawn as the workloads do."""
    return (rb.tidy_pool(env, seed)[:2] + rb.sweep_pool(env, seed)[:1]
            + rb.long_pool(env, seed)[:1])


def bindings() -> dict:
    out = {(m.__name__, attr): value
           for m in cogsim_modules() for attr, value in vars(m).items()}
    out["RoomLayout.passable"] = vars(sys.modules["cogsim.world"].RoomLayout)["passable"]
    return out


def test_traced_and_untraced_runs_give_the_pinned_digests(env):
    for op in sample_ops(env):
        assert op.digests(op.run()) == op.expected
        tracer = Tracer()
        tracer.install()
        try:
            output = op.run()
            tracer.enabled = False
            assert op.digests(output) == op.expected
        finally:
            tracer.restore()


def test_every_binding_is_patched_and_then_restored(env):
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = bindings()
        for key in [("cogsim.metacog", "monitor"), ("cogsim.agent", "monitor"),
                    ("cogsim.runner", "tick"), ("cogsim.agent", "eval_condition"),
                    ("cogsim.affect", "eval_condition"),
                    ("cogsim.arguments", "eval_condition"), ("cogsim", "monitor"),
                    "RoomLayout.passable"]:
            assert during[key] is not before[key], key
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_exact_counts_repeat_between_traced_runs(env):
    ops = sample_ops(env)
    results = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for run_id, op in enumerate(ops):
                tracer.run_id = run_id
                op.run()
        finally:
            tracer.restore()
        calls, _, by_run = tracer.summary()
        results.append((calls, by_run, tracer.events_scanned, tracer.events_new))
    assert results[0] == results[1]
    calls = results[0][0]
    assert calls["agent.tick"] == sum(op.ticks for op in ops)
    assert calls["world.passable"] > 0 and calls["rules.eval_condition"] > 0


def test_events_scanned_counts_the_events_monitor_reads(env, monkeypatch):
    """With the full rescan, reads per tick double with the horizon; with
    a cursor found by bisection they stay flat, near the new events."""
    op = rb.long_pool(env, 5)[0]

    def traced(ticks):
        tracer = Tracer()
        tracer.install()
        try:
            op.run(ticks=ticks)
        finally:
            tracer.restore()
        return tracer

    rescan = [rb.linearity(traced(t), 0)[0] for t in (200, 400)]
    assert rescan[1] > 1.8 * rescan[0]

    def since(self, cursor):
        start = bisect.bisect_right(self.events, cursor,
                                    key=lambda e: (e.tick, e.seq))
        return self.events[start:]

    monkeypatch.setattr(sys.modules["cogsim.metacog"].ReasoningTrace, "since", since)
    tracers = [traced(t) for t in (200, 400)]
    bisected = [rb.linearity(t, 0)[0] for t in tracers]
    assert bisected[1] < rescan[1] / 10
    assert bisected[1] == pytest.approx(bisected[0], rel=0.25)
    assert tracers[1].events_new[0] <= tracers[1].events_scanned[0]


def test_spans_nest_and_self_time_excludes_children(env):
    tracer = Tracer()
    tracer.install()
    try:
        rb.tidy_pool(env, 1)[0].run()
    finally:
        tracer.restore()
    spans = tracer.spans
    assert spans[0][2] == "cli.main" and spans[0][0] == -1
    assert all(parent < index for index, (parent, *_) in enumerate(spans))
    calls, self_s, _ = tracer.summary()
    assert calls["cli.main"] == 1 and calls["agent.tick"] == 60
    assert sum(self_s.values()) == pytest.approx(spans[0][4] - spans[0][3])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((rb.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == rb.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == rb.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(rb.WORKLOADS)


def test_scaled_time_uses_the_reference_speed():
    with rb.Clock() as clock:
        mark = clock.start()
        rb.reference()
        host, scaled = clock.stop(mark)
    assert host > 0 and scaled > 0
    assert scaled / host == pytest.approx(clock.factors[-1])
