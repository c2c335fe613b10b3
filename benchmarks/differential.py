"""Differential run: one sha256 per command-line run over a fixed set of nets.

Runs `overseer.cli.main` in-process on the first N nets of the pipeline
benchmark's random pool (stream seed 0), on a malformed copy of each of
them, on k copies of two_machines for k = 2..K, on 4, 7 and 8 token
rings, on the bundled two_machines and drop_job nets, on 2 and 3
copies of drop_job, whose uncoverable border states the over-state
stage meets one copy at a time (exit 4, or exact rows under
--fallback), and on three nets that reach refuses at a level wide
enough for the array steps: 8 token rings and their one-component
twin under --state-budget 1000, and a fork that fires unsafely on a
level of 70 states.  A malformed copy has one word or character dropped,
replaced or added, drawn with the net's pool index as the seed, so that
most of them stop in the parser and the hashes cover its messages,
lines and columns.
Each net runs twice, with no flag and with --fallback, and always with
--report, --dot-rg, --dot-controlled and --out.  The hash of a run covers its
exit code, its stderr, both DOT files and the --out net, plus its
stdout and both reports with their timings removed, the JSON report
hashed by its content, not its layout, so two checkouts that behave
the same give the same file.  A file a run did not write
hashes as absent.

    python3 benchmarks/differential.py OUT.json [--pool N] [--max-k K]

Compare two checkouts by running each one's copy of this script and
diffing the two OUT.json files, e.g. `diff -u parent.json change.json`:
each run is one line, so the diff lists every run that changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "benchmarks"), str(ROOT / "tests")]

import overseer.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from netgen import copies  # noqa: E402
from overseer import PetriNet, parse_net, serialize_net  # noqa: E402
from overseer.net import support  # noqa: E402
from reach_bench import coupled, fork_counter_net, ring_net  # noqa: E402

NETS = ROOT / "src" / "overseer" / "nets"
MODES = {"plain": [], "fallback": ["--fallback"]}
# what a malformed copy of a net is made of: its pieces are quoted
# strings, names, runs of white space and single other characters, and
# a piece is dropped, replaced by a draw or given one in front
PIECE = re.compile(r'"[^"]*"|[A-Za-z_][A-Za-z0-9_]*|\s+|.', re.S)
DRAWS = ["{", "}", ";", "$", '"', "#", "\u00e9", "1", "\x0c", "\n", "in",
         "out", "places", "initial", "transition", "forbidden", "expr",
         "deadlock", "state", "true", "Z", "P1"]
FILES = ["report.txt", "report.json", "rg.dot", "closed.dot", "out.pnet"]
ARGV = ["net.pnet", "--report", "report.txt", "--dot-rg", "rg.dot",
        "--dot-controlled", "closed.dot", "--out", "out.pnet"]
BUDGET = ["--state-budget", "1000"]


def malformed(text, seed):
    """`text` with one piece dropped, replaced or preceded by a draw."""
    rng = random.Random(seed)
    pieces = PIECE.findall(text)
    k = rng.randrange(len(pieces))
    draw = rng.choice(DRAWS)
    pieces[k] = rng.choice(["", draw, draw + pieces[k],
                            " %s %s" % (draw, pieces[k])])
    return "".join(pieces)


def unsafe_fork():
    """fork_counter_net(8, 1) with one more transition, which takes the
    tokens of the first four switches set and puts one into the fifth
    switch's unset place.  It is first enabled on BFS level 4, of 70
    states, where that place is still marked: an unsafe firing."""
    fork = fork_counter_net(8, 1)
    return PetriNet("fork8_unsafe", fork.places,
                    (*fork.transitions, "spill"), (*fork.controllable, True),
                    [support(m) for m in fork.pre_masks] + [[8, 9, 10, 11]],
                    [support(m) for m in fork.post_masks] + [[4]], fork.m0)


def nets(pool, max_k):
    """(name, .pnet text, flags added to each run) of every input, in run
    order."""
    cases = run.random_pool(run.RANDOM_POOL_SEED, pool)
    for i, case in enumerate(cases):
        yield "random-%d" % i, case.text, []
    for i, case in enumerate(cases):
        yield "malformed-%d" % i, malformed(case.text, i), []
    for k in range(2, max_k + 1):
        yield "machines-%d" % k, workloads.machines(k, random.Random(k)), []
    # no level of ring_net(4) reaches `_VECTOR_FROM` states; ring_net(7)
    # takes two of its three narrow tail levels on the array step and
    # hands the last to the loop, and ring_net(8) takes all three there
    for k in (4, 7, 8):
        yield "rings-%d" % k, workloads.rings(k, random.Random(k)), []
    for name in ("two_machines", "drop_job"):
        yield name, (NETS / (name + ".pnet")).read_text(encoding="utf-8"), []
    drop_job = parse_net((NETS / "drop_job.pnet").read_text(encoding="utf-8"))
    for k in (2, 3):
        doc = copies(drop_job, k)
        yield "drop_job-%d" % k, serialize_net(doc.net, doc.spec), []
    # the 3^8 ring states pass the budget on the level of states 423 to
    # 927, which finds 784; the rings get no product step under it
    yield "rings-8-budget", serialize_net(ring_net(8)), BUDGET
    yield "rings-8-coupled-budget", serialize_net(coupled(ring_net(8))), \
        BUDGET
    yield "fork-unsafe", serialize_net(unsafe_fork()), []


def without_timings(text):
    """A text report with its timings emptied."""
    return re.sub(r"^timings\n(?:  .*\n)*", "timings\n", text, flags=re.M)


def json_content(text):
    """A JSON report's content without its timings, keys sorted, so that
    the file's layout stays out of the hash."""
    report = json.loads(text)
    report.pop("timings")
    return json.dumps(report, sort_keys=True)


def run_hash(flags):
    """Run the CLI on net.pnet in the current folder; the run's hash and
    exit code."""
    for name in FILES:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = overseer.cli.main(ARGV + flags)
    parts = [str(rc), err.getvalue(), without_timings(out.getvalue())]
    for name in FILES:
        path = Path(name)
        text = path.read_text(encoding="utf-8") if path.exists() else None
        if text is not None and name == "report.txt":
            text = without_timings(text)
        elif text is not None and name == "report.json":
            text = json_content(text)
        parts.append(text)
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest(), rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", metavar="OUT.json", help="where to write the hashes")
    ap.add_argument("--pool", type=int, default=6000,
                    help="random nets to run, from the start of the pool")
    ap.add_argument("--max-k", type=int, default=4,
                    help="most copies of two_machines to run")
    args = ap.parse_args()
    out = Path(args.out).resolve()

    hashes, codes = {}, Counter()
    # the runs name their files relative to a scratch folder, so that
    # messages naming them read the same from any checkout
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text, extra in nets(args.pool, args.max_k):
                Path("net.pnet").write_text(text, encoding="utf-8")
                for mode, flags in MODES.items():
                    hashes["%s %s" % (name, mode)], rc = run_hash(
                        flags + extra)
                    codes[mode, rc] += 1
        finally:
            os.chdir(home)
    out.write_text(json.dumps(hashes, indent=1) + "\n", encoding="utf-8")
    for mode in MODES:
        print("%-8s exit codes %s" % (mode, ", ".join(
            "%d: %d" % (rc, n) for (m, rc), n in sorted(codes.items())
            if m == mode)))
    print("%d runs hashed into %s" % (len(hashes), out))


if __name__ == "__main__":
    main()
