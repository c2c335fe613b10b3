"""Command line front end: parse a .pnet file, run synthesis, emit the
report and optional artifacts.

Exit codes: 0 success, 2 unreadable or invalid input (including a
non-safe plant and a blown budget in reach or over-states), 3
synthesis impossible for the model, 4 a border state no over-state can
express (rerun with --fallback to forbid it by an exact constraint), 5
the closed loop failed verification.  Success is a closed loop that is
`isomorphic`: the authorized states the plant reaches through
authorized states, with all their firings among them.  An output file
that cannot be written exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .dotexport import closed_loop_to_dot, rg_to_dot
from .errors import (
    ForbiddenInitialMarking,
    InitialMarkingViolation,
    OverseerError,
    PnetError,
    SafenessViolation,
    StageFailure,
    StateBudgetExceeded,
    UncontrollableBreach,
    UncoverableState,
)
from .net import DEFAULT_STATE_BUDGET
from .pipeline import PipelineOptions, run_pipeline
from .pnet import parse_net_file, serialize_net
from .synthesis import assemble_controlled_net

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_UNCOVERABLE = 4
EXIT_VERIFY = 5


def _at_least_one(text: str) -> int:
    """An int argument of 1 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="overseer",
        description="Synthesize a maximally permissive control-place "
                    "supervisor for a safe Petri net.",
    )
    p.add_argument("net", metavar="NET.pnet", help="input net description")
    p.add_argument("--out", metavar="FILE",
                   help="write the controlled net as .pnet")
    p.add_argument("--report", metavar="FILE",
                   help="write the report here (a .json twin is written "
                        "alongside)")
    p.add_argument("--dot-rg", metavar="FILE",
                   help="write the plant reachability graph as DOT")
    p.add_argument("--dot-controlled", metavar="FILE",
                   help="write the closed-loop state graph as DOT")
    p.add_argument("--state-budget", metavar="N", type=_at_least_one,
                   default=DEFAULT_STATE_BUDGET,
                   help="abort when the plant has more than N states, "
                        "or the over-state search holds more than N "
                        "minimal transversals; N >= 1 (default %(default)s)")
    p.add_argument("--fallback", action="store_true",
                   help="forbid each border state no over-state covers "
                        "by its own exact constraint instead of failing")
    return p


def _exit_code_for(exc: OverseerError) -> int:
    cause = exc.cause if isinstance(exc, StageFailure) else exc
    if isinstance(cause, (ForbiddenInitialMarking, UncontrollableBreach,
                          InitialMarkingViolation)):
        return EXIT_IMPOSSIBLE
    if isinstance(cause, UncoverableState):
        return EXIT_UNCOVERABLE
    if isinstance(cause, (PnetError, SafenessViolation, StateBudgetExceeded)):
        return EXIT_INPUT
    return EXIT_VERIFY


def _report_paths(path_arg: str) -> tuple[Path, Path]:
    path = Path(path_arg)
    if path.suffix == ".json":
        return path.with_suffix(".txt"), path
    return path, path.with_suffix(".json")


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args keeps no state in it, and
    # building it costs more than the whole pipeline on a small net
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    options = PipelineOptions(
        state_budget=args.state_budget,
        fallback=args.fallback,
    )

    try:
        doc = parse_net_file(args.net)
    except (OSError, UnicodeDecodeError) as exc:
        print("overseer: error: cannot read %s: %s" % (args.net, exc),
              file=sys.stderr)
        return EXIT_INPUT
    except PnetError as exc:
        print("overseer: error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT

    try:
        result = run_pipeline(doc, options)
    except OverseerError as exc:
        print("overseer: error: %s" % exc, file=sys.stderr)
        return _exit_code_for(exc)

    report = result.report
    text = report.render_text()
    sys.stdout.write(text)

    # path, then a callable rendering its content
    outputs = []
    if args.report:
        text_path, json_path = _report_paths(args.report)
        outputs += [(text_path, lambda: text), (json_path, report.render_json)]
    if args.dot_rg:
        outputs.append((args.dot_rg,
                        lambda: rg_to_dot(result.rg, result.partition)))
    if args.dot_controlled:
        outputs.append((args.dot_controlled, lambda: closed_loop_to_dot(
            result.rg, result.controller, result.closed)))
    if args.out:
        if result.controller.k == 0 or result.controller.is_binary():
            outputs.append((args.out, lambda: serialize_net(
                assemble_controlled_net(doc.net, result.controller))))
        else:
            print("overseer: warning: controller needs weighted arcs; "
                  "%s not written" % args.out, file=sys.stderr)
    for path, render in outputs:
        try:
            Path(path).write_text(render(), encoding="utf-8")
        except OSError as exc:
            print("overseer: error: cannot write %s: %s" % (path, exc),
                  file=sys.stderr)
            return EXIT_INPUT

    if result.closed.isomorphic:
        return EXIT_OK
    print("overseer: error: closed loop is not isomorphic to the "
          "authorized behavior", file=sys.stderr)
    return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
