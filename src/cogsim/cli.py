"""Command-line entry point: validate, run, and sweep scenarios.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation or
configuration problem.
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


def _load_spec(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, 1
    try:
        return parse_scenario(text), 0
    except (ParseError, SchemaError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, 1


def _print_entries(label: str, entries: list[tuple[str, str, str]], out) -> None:
    """One line per validation report entry, to the stream ``out``."""
    for code, location, message in entries:
        print(f"{label} {code} @ {location}: {message}", file=out)


def cmd_validate(args: argparse.Namespace) -> int:
    spec, status = _load_spec(args.scenario)
    if spec is None:
        return status
    report = validate_scenario(spec)
    _print_entries("ERROR", report.errors, sys.stdout)
    _print_entries("WARNING", report.warnings, sys.stdout)
    if report.ok():
        suffix = f" ({len(report.warnings)} warning(s))" if report.warnings else ""
        print(f"{spec.meta.name}: OK{suffix}")
        return 0
    return 2


def _weights_ok(weights: list[float]) -> bool:
    """True when every weight is finite and non-negative; otherwise print
    the one message both weight options share."""
    if all(math.isfinite(w) and w >= 0 for w in weights):
        return True
    print("error: weights must be finite and non-negative", file=sys.stderr)
    return False


def _template_known(template: str, spec) -> bool:
    """True when ``spec`` declares the argument template; otherwise print
    the one message both template options share."""
    if any(t.id == template for t in spec.agent.argument_templates):
        return True
    print(f"error: unknown argument template: {template}", file=sys.stderr)
    return False


def _parse_weight_overrides(pairs: list[str], spec) -> dict[str, float] | None:
    out: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            print(f"error: --set-weight expects TEMPLATE=WEIGHT, got {pair!r}",
                  file=sys.stderr)
            return None
        template, raw = pair.split("=", 1)
        try:
            weight = float(raw)
        except ValueError:
            print(f"error: weight is not a number: {raw!r}", file=sys.stderr)
            return None
        if not _weights_ok([weight]):
            return None
        if not _template_known(template, spec):
            return None
        out[template] = weight
    return out


def _checked_spec(args: argparse.Namespace):
    if args.ticks < 1:
        print("error: --ticks must be >= 1", file=sys.stderr)
        return None, 2
    spec, status = _load_spec(args.scenario)
    if spec is None:
        return None, status
    report = validate_scenario(spec)
    if not report.ok():
        _print_entries("ERROR", report.errors, sys.stderr)
        return None, 2
    return spec, 0


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


def _outputs_clash(scenario: str, outputs: dict[str, str]) -> bool:
    """True, after saying so, when an output (by option) names the same
    file as the scenario or as another output, whose bytes it would
    overwrite.  Checked before any file is opened."""
    seen = {_file_key(scenario): "the scenario"}
    for option, path in outputs.items():
        key = _file_key(path)
        if key is None:
            continue
        if key in seen:
            print(f"error: {option} names the same file as {seen[key]}: {path}",
                  file=sys.stderr)
            return True
        seen[key] = option
    return False


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
    if _outputs_clash(args.scenario, {"--trace": trace_path, "--metrics": metrics_path}):
        return 2
    spec, status = _checked_spec(args)
    if spec is None:
        return status
    overrides = _parse_weight_overrides(args.set_weight, spec)
    if overrides is None:
        return 2
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
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(summary_line(summarize(spec, state, row)))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if _outputs_clash(args.scenario, {"--out": args.out}):
        return 2
    spec, status = _checked_spec(args)
    if spec is None:
        return status
    if not args.weights.strip():
        print("error: --weights is empty", file=sys.stderr)
        return 2
    try:
        weights = [float(w) for w in args.weights.split(",")]
    except ValueError:
        print(f"error: malformed --weights: {args.weights!r}", file=sys.stderr)
        return 2
    if not _weights_ok(weights):
        return 2
    if not _template_known(args.template, spec):
        return 2
    base_overrides = _parse_weight_overrides(args.set_weight, spec)
    if base_overrides is None:
        return 2

    runs = [(weight, _sweep_summary(args, spec, base_overrides, weight))
            for weight in weights]
    try:
        write_sweep(runs, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
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
    except CogsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
