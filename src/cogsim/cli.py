"""Command-line entry point: validate, run, and sweep scenarios.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation or
configuration problem.  A failing check raises ``_Failure`` with its
code and its stderr text, and ``main`` alone prints it.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from pathlib import Path

from .errors import CogsimError, ParseError, SchemaError
from .runner import (
    RunConfig,
    drained,
    metrics_sink,
    run_ticks,
    start,
    summarize,
    summary_line,
    trace_sink,
    write_sweep,
)
from .scenario import parse_scenario, validate_scenario


class _Failure(Exception):
    """A command's failure: ``main`` prints the text (``str``) to stderr
    and exits with ``code``."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _load_spec(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(1, f"error: cannot read {path}: {exc}")
    try:
        return parse_scenario(text)
    except (ParseError, SchemaError) as exc:
        raise _Failure(1, f"error: {path}: {exc}")


def _report_lines(label: str, entries: list[tuple[str, str, str]]) -> list[str]:
    """One line per validation report entry."""
    return [f"{label} {code} @ {location}: {message}"
            for code, location, message in entries]


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.scenario)
    report = validate_scenario(spec)
    for line in (_report_lines("ERROR", report.errors)
                 + _report_lines("WARNING", report.warnings)):
        print(line)
    if not report.ok():
        return 2
    suffix = f" ({len(report.warnings)} warning(s))" if report.warnings else ""
    print(f"{spec.meta.name}: OK{suffix}")
    return 0


def _check_weights(weights: list[float]) -> None:
    """Every weight must be finite and non-negative: the one message both
    weight options share."""
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise _Failure(2, "error: weights must be finite and non-negative")


def _check_template(template: str, spec) -> None:
    """``spec`` must declare the argument template: the one message both
    template options share."""
    if not any(t.id == template for t in spec.agent.argument_templates):
        raise _Failure(2, f"error: unknown argument template: {template}")


def _parse_weight_overrides(pairs: list[str], spec) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _Failure(
                2, f"error: --set-weight expects TEMPLATE=WEIGHT, got {pair!r}")
        template, raw = pair.split("=", 1)
        try:
            weight = float(raw)
        except ValueError:
            raise _Failure(2, f"error: weight is not a number: {raw!r}")
        _check_weights([weight])
        _check_template(template, spec)
        out[template] = weight
    return out


def _checked_spec(args: argparse.Namespace):
    if args.ticks < 1:
        raise _Failure(2, "error: --ticks must be >= 1")
    spec = _load_spec(args.scenario)
    report = validate_scenario(spec)
    if not report.ok():
        raise _Failure(2, "\n".join(_report_lines("ERROR", report.errors)))
    return spec


def _file_key(path: str):
    """What tells apart the file at ``path``: a regular file's device and
    inode, the resolved path of a file not there yet, and None for what
    is no regular file (``/dev/null``, a pipe), which any number of
    outputs may share."""
    try:
        info = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (info.st_dev, info.st_ino) if stat.S_ISREG(info.st_mode) else None


def _check_outputs(scenario: str, outputs: dict[str, str]) -> None:
    """No output (by option) may name the same file as the scenario or as
    another output, whose bytes it would overwrite.  Checked before any
    file is opened."""
    seen = {_file_key(scenario): "the scenario"}
    for option, path in outputs.items():
        key = _file_key(path)
        if key is None:
            continue
        if key in seen:
            raise _Failure(
                2, f"error: {option} names the same file as {seen[key]}: {path}")
        seen[key] = option


def _run_config(args: argparse.Namespace, overrides: dict[str, float]) -> RunConfig:
    return RunConfig(
        ticks=args.ticks,
        seed=args.seed,
        bct_profile=args.bct,
        metacognition_enabled=not args.no_metacog,
        weight_overrides=overrides,
    )


def cmd_run(args: argparse.Namespace) -> int:
    stem = Path(args.scenario).stem
    trace_path = args.trace or f"{stem}.trace.jsonl"
    metrics_path = args.metrics or f"{stem}.metrics.csv"
    _check_outputs(args.scenario, {"--trace": trace_path, "--metrics": metrics_path})
    spec = _checked_spec(args)
    overrides = _parse_weight_overrides(args.set_weight, spec)
    try:
        with (trace_sink(trace_path) as sink,
              metrics_sink(metrics_path, [p.id for p in spec.agent.processes]) as rows):
            state = start(spec, _run_config(args, overrides))
            for row in run_ticks(state, args.ticks):
                rows(row)
                batch = drained(state)
                if batch:
                    sink(batch)
            sink(state.trace.events)
    except OSError as exc:
        raise _Failure(1, f"error: cannot write outputs: {exc}")
    print(summary_line(summarize(spec, state, row)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_outputs(args.scenario, {"--out": args.out})
    spec = _checked_spec(args)
    if not args.weights.strip():
        raise _Failure(2, "error: --weights is empty")
    try:
        weights = [float(w) for w in args.weights.split(",")]
    except ValueError:
        raise _Failure(2, f"error: malformed --weights: {args.weights!r}")
    _check_weights(weights)
    _check_template(args.template, spec)
    base_overrides = _parse_weight_overrides(args.set_weight, spec)

    runs = [(weight, _sweep_summary(args, spec, base_overrides, weight))
            for weight in weights]
    try:
        write_sweep(runs, args.out)
    except OSError as exc:
        raise _Failure(1, f"error: cannot write {args.out}: {exc}")
    print(f"{spec.meta.name}: swept {args.template} over {len(runs)} weight(s)")
    return 0


def _sweep_summary(args: argparse.Namespace, spec, base_overrides: dict[str, float],
                   weight: float) -> dict:
    """Run the sweep at one weight, dropping its rows and trace events, and
    return its summary, which alone outlives the call: so the run's state
    is freed before the next run."""
    overrides = dict(base_overrides)
    overrides[args.template] = weight
    state = start(spec, _run_config(args, overrides))
    for row in run_ticks(state, args.ticks):
        drained(state)
    return summarize(spec, state, row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogsim",
        description="Deterministic cognitive-agent simulations over declarative "
        "scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario document")
    p_validate.add_argument("scenario")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario")
        p.add_argument("--ticks", type=int, default=60)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--bct", choices=("prime", "ceos"), default=None)
        p.add_argument("--no-metacog", action="store_true")
        p.add_argument("--set-weight", action="append", default=[],
                       metavar="TEMPLATE=W")

    p_run = sub.add_parser("run", help="run one simulation, write trace + metrics")
    common(p_run)
    p_run.add_argument("--trace", default=None)
    p_run.add_argument("--metrics", default=None)

    p_sweep = sub.add_parser("sweep", help="run once per weight for one template")
    common(p_sweep)
    p_sweep.add_argument("--template", required=True)
    p_sweep.add_argument("--weights", required=True,
                         help="comma-separated non-negative weights")
    p_sweep.add_argument("--out", default="sweep.csv")

    return parser


# Built once: a parser holds reference cycles, so one built per call
# would leave garbage for the cyclic collector on every in-process run.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # Looked up at call time, so a rebinding of a cmd_* name takes effect.
    command = {"validate": cmd_validate, "run": cmd_run, "sweep": cmd_sweep}
    try:
        return command[args.command](args)
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except CogsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
