"""Command line front end: parse a .pnet file, run synthesis, emit the
report and optional artifacts.

Exit codes: 0 success, 2 unreadable or invalid input (including a
non-safe plant and a blown budget in reach or over-states), 3
synthesis impossible for the model, 4 a border state no over-state can
express (rerun with --fallback to forbid it by an exact constraint), 5
the closed loop failed verification.  A failed parse or stage exits
with the `exit_code` its error carries (see errors.py); a file that
cannot be read or written exits 2.  Success is a closed loop that is
`isomorphic`: the authorized states the plant reaches through
authorized states, with all their firings among them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from .dotexport import closed_loop_to_dot, rg_to_dot
from .errors import NonBinaryController, OverseerError, OverseerWarning
from .net import DEFAULT_STATE_BUDGET
from .pipeline import run_pipeline
from .pnet import parse_net_file, serialize_net
from .synthesis import assemble_controlled_net

EXIT_OK = 0
EXIT_INPUT = 2
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


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # one parser per process: parse_args keeps no state in it, and
    # building it costs more than the whole pipeline on a small net
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


def _report_paths(path_arg: str) -> tuple[Path, Path]:
    path = Path(path_arg)
    if path.suffix == ".json":
        return path.with_suffix(".txt"), path
    return path, path.with_suffix(".json")


def _warn(message, *_) -> None:
    """Print a warning; also takes the place of `warnings.showwarning`."""
    print("overseer: warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # each library warning is printed as it comes, in the CLI's
            # own form, whatever filters the caller has set
            warnings.simplefilter("always", OverseerWarning)
            warnings.showwarning = _warn
            doc = parse_net_file(args.net)
            result = run_pipeline(doc, state_budget=args.state_budget,
                                  fallback=args.fallback)
    except (OSError, UnicodeDecodeError) as exc:
        print("overseer: error: cannot read %s: %s" % (args.net, exc),
              file=sys.stderr)
        return EXIT_INPUT
    except OverseerError as exc:
        print("overseer: error: %s" % exc, file=sys.stderr)
        return exc.exit_code

    report = result.report
    text = report.render_text()
    sys.stdout.write(text)

    # path, then a callable rendering its content as pieces of text: the
    # DOT files come in blocks of lines, so that a large graph is never
    # held as one string
    outputs = []
    if args.report:
        text_path, json_path = _report_paths(args.report)
        outputs += [(text_path, lambda: [text]),
                    (json_path, lambda: [report.render_json()])]
    if args.dot_rg:
        outputs.append((args.dot_rg,
                        lambda: rg_to_dot(result.rg, result.partition)))
    if args.dot_controlled:
        outputs.append((args.dot_controlled, lambda: closed_loop_to_dot(
            result.rg, result.controller, result.closed)))
    if args.out:
        try:
            controlled = assemble_controlled_net(doc.net, result.controller,
                                                 result.closed)
        except NonBinaryController as exc:
            _warn("%s; %s not written" % (exc, args.out))
        else:
            outputs.append((args.out, lambda: [serialize_net(controlled)]))
    for path, render in outputs:
        try:
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(render())
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
