"""Run loop and stable file exporters.

A run executes tick() up to the configured horizon, stopping early
once the strict goal holds and the agent has idled five ticks in a row
after having actually done something.  Trace files are JSON Lines (one
event per line, sorted keys), metrics files are CSV with LF endings;
neither contains wall-clock data, so identical configuration and seed
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .agent import SimulationState, tick
from .scenario import ScenarioSpec, instantiate

QUIESCENT_IDLE_TICKS = 5


@dataclass
class RunConfig:
    ticks: int = 60
    seed: int = 1
    bct_profile: str | None = None
    metacognition_enabled: bool = True
    weight_overrides: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    state: SimulationState
    metrics: list[dict]
    summary: dict


def run_simulation(spec: ScenarioSpec, config: RunConfig) -> RunResult:
    state = instantiate(spec, config.seed)
    if config.bct_profile is not None:
        state.bct_profile = config.bct_profile
    state.metacognition_enabled = config.metacognition_enabled
    state.weight_overrides = dict(config.weight_overrides)

    metrics: list[dict] = []
    idle_streak = 0
    acted = False
    for _ in range(config.ticks):
        tick(state)
        stats = state.last_tick_stats
        metrics.append(stats)
        if stats["idle"]:
            idle_streak += 1
        else:
            idle_streak = 0
            acted = True
        if stats["strict_tidy"] and acted and idle_streak >= QUIESCENT_IDLE_TICKS:
            break

    summary = {
        "scenario": spec.meta.name,
        "ticks_executed": len(metrics),
        "final_strict": bool(metrics[-1]["strict_tidy"]) if metrics else False,
        "final_relaxed": bool(metrics[-1]["relaxed_tidy"]) if metrics else False,
        "abandoned": state.world.abandoned,
        "countermeasures_fired": state.countermeasures_fired,
        "routing_violations": state.routing_violations,
        "inconsistencies": sum(
            1 for e in state.trace.events if e.kind == "InconsistencyDetected"
        ),
    }
    return RunResult(state=state, metrics=metrics, summary=summary)


# One encoder for every trace line; json.dumps with these options would
# build a new one per call.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def trace_lines(state: SimulationState) -> list[str]:
    encode = _TRACE_ENCODER.encode
    return [
        encode(
            {
                "tick": event.tick,
                "seq": event.seq,
                "layer": event.layer,
                "kind": event.kind,
                "payload": event.payload,
                "reasons": list(event.reasons),
            }
        )
        for event in state.trace.events
    ]


def write_trace(state: SimulationState, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in trace_lines(state))


def metrics_header(state: SimulationState) -> list[str]:
    process_columns = [f"force_{p.id}" for p in state.processes]
    return (
        ["tick", "selected_action", "winning_process"]
        + process_columns
        + ["misplaced_count", "strict_tidy", "relaxed_tidy"]
    )


def write_metrics(result: RunResult, path: str) -> None:
    header = metrics_header(result.state)
    process_ids = [p.id for p in result.state.processes]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in result.metrics:
            cells = [
                str(row["tick"]),
                row["selected_action"],
                row["winning_process"],
            ]
            cells += [_fmt(row["forces"].get(pid, 0.0)) for pid in process_ids]
            cells += [
                str(row["misplaced_count"]),
                "1" if row["strict_tidy"] else "0",
                "1" if row["relaxed_tidy"] else "0",
            ]
            fh.write(",".join(cells) + "\n")


def _fmt(value: float) -> str:
    return repr(round(float(value), 9))


def write_sweep(rows: list[dict], path: str) -> None:
    header = ["weight", "final_strict", "final_relaxed", "abandoned",
              "countermeasures_fired"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    [
                        _fmt(row["weight"]),
                        "1" if row["final_strict"] else "0",
                        "1" if row["final_relaxed"] else "0",
                        "1" if row["abandoned"] else "0",
                        str(row["countermeasures_fired"]),
                    ]
                )
                + "\n"
            )


def summary_line(summary: dict) -> str:
    return (
        f"{summary['scenario']}: ticks={summary['ticks_executed']} "
        f"strict={'yes' if summary['final_strict'] else 'no'} "
        f"relaxed={'yes' if summary['final_relaxed'] else 'no'} "
        f"abandoned={'yes' if summary['abandoned'] else 'no'} "
        f"countermeasures={summary['countermeasures_fired']}"
    )
