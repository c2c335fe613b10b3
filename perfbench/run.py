"""Pipeline benchmark for overseer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's nets are generated from
the seed (for random-batch, a fixed pool whose order the seed picks) and
written out as .pnet files; each is then run through the
public entry point, `overseer.cli.main([net, "--report", r.json])`,
in-process with stdout captured.  It is a closed loop: one caller, one
net at a time, one thread.  Every answer is checked, against closed-form
counts for the two families and against the independent oracle in
oracle.py for random nets.

With --trace 0 the whole time goes to an untraced run and the end-to-end
metrics are printed.  With --trace 1 the time is split between an
untraced run and a traced run of the same nets (see spans.py); the
per-layer metrics come from the traced run and their difference is
`trace.overhead_frac`.  README.md in this directory maps each per-layer
metric to the end-to-end metric it should move.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when every
answer check passed; a net counted in `failed` (an exception, exit 5,
or a closed loop the oracle rejects) does not fail the run.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
try:
    import overseer.cli as cli
    import oracle
    import spans
    import workloads
except ImportError as exc:
    sys.exit("pipeline benchmark: cannot import the program from %s: %s"
             % (ROOT, exc))
if ROOT / "src" not in Path(cli.__file__).resolve().parents:
    # an installed copy would be measured in place of this checkout
    sys.exit("pipeline benchmark: overseer was imported from %s, not from %s"
             % (cli.__file__, ROOT / "src"))

SETUP_REPEATS = 7
# random nets run before timing starts, so lazy imports and caches are warm
RANDOM_WARMUP = 50
# random-batch does a fixed amount of work rather than running until the
# time is up: a pool of RANDOM_POOL_PER_S nets per second of --seconds,
# drawn from one fixed stream, each net run RANDOM_PASSES times, one pass
# after another.  The seed picks the order of each pass.  So every run of
# the same code attempts the same nets and fails on the same ones, and
# each net's time is the median of its passes, which keeps one call the
# host slowed down out of the tail.
RANDOM_POOL_SEED = 0
RANDOM_WARMUP_SEED = 1
RANDOM_POOL_PER_S = 200
RANDOM_PASSES = 3
# On a shared virtual machine the speed drifts by up to a third within ten
# seconds, in CPU time as much as in wall time, so every timing is scaled
# by the speed of a fixed reference job run around it: a breadth-first
# search over 8 token rings (6561 states), the same dict-and-int churn as
# the pipeline's inner loops, with a working set large enough to feel
# cache contention too.  Times are reported in seconds at the speed where that
# job takes REFERENCE_S; the raw wall times are kept in the run's summary.
REFERENCE_RINGS = 8
REFERENCE_S = 0.04
# A call whose wall time exceeds its CPU time by more than this much, and
# by more than HELD_OFF_FRAC of it, spent that time off the processor: the
# host preempted it.  Such a call is run again, at most HELD_OFF_RETRIES
# times, and the last run counts.  On random-batch about 1% of calls are
# held off, and they alone made up the tail.
HELD_OFF_S = 5e-4
HELD_OFF_FRAC = 0.2
HELD_OFF_RETRIES = 3
# Set-up is scaled the same way, by the time a fresh interpreter takes to
# import numpy, which is most of what importing overseer.cli costs.  That
# time halves and doubles with the host's state (file cache, load) while
# the ratio between the two imports holds within a few percent; the time
# of a bare interpreter start moved by a quarter against it.
REFERENCE_IMPORT_S = 0.15
# calls between two reference samples span at least this long; the
# garbage those calls left behind is collected there too, outside the
# timed calls, as a fresh `overseer` process would leave it to its exit
SPEED_WINDOW_S = 0.25

# Closed-form answers of the families; `edges` and `closed_edges` are only
# visible to the traced run, which sees the graphs themselves.
FAMILIES = {
    "machines-k3": ("machines", 3, {
        "places": 21, "reachable": 12 ** 3, "border": 375,
        "closed": 5 ** 3, "constraints": 6,
    }),
    "rings-k9": ("rings", 9, {
        "places": 27, "reachable": 3 ** 9, "border": 0,
        "closed": 3 ** 9, "constraints": 0,
        "edges": 9 * 3 ** 9, "closed_edges": 9 * 3 ** 9,
    }),
}
WORKLOADS = [*FAMILIES, "random-batch"]

# pipeline stage (as named in the report's timings) -> spans inside it
STAGE_SPANS = {
    "reach": ["net.reach"],
    "partition": ["partition.partition"],
    "over-states": ["overstates.union", "overstates.prune",
                    "overstates.minimal"],
    "cover": ["cover.build", "cover.select", "cover.check"],
    "synthesize": ["synthesis.matrix", "synthesis.synthesize",
                   "synthesis.empty"],
    "verify": ["synthesis.verify"],
}


class Call(NamedTuple):
    """Outcome of one cli.main call."""

    seconds: float  # wall time
    cpu: float  # CPU time of this process
    rc: int | str  # exit code, or the name of the exception raised
    report_bytes: int
    failed: bool  # counted in `failed`; the run stays correct
    wrong: str | None  # an answer check that fails the run
    control: int | None  # control places, for exit-0 nets


class Speed:
    """Times a fixed reference job; `advance` returns the factor that
    takes a wall time measured since the previous sample to the speed at
    which the job takes `nominal` seconds."""

    def __init__(self, job, nominal):
        self.job = job
        self.nominal = nominal
        self.last = self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.job()
        return time.perf_counter() - t0

    def advance(self) -> float:
        now = self.sample()
        factor = self.nominal / ((self.last + now) / 2)
        self.last = now
        return factor


def call_speed():
    """Speed of the reference job for calls.  The job is built here rather
    than from the program's own net model, so that it stays the same job
    whatever the program becomes."""
    k = REFERENCE_RINGS
    pre = [1 << (3 * r + i) for r in range(k) for i in range(3)]
    post = [1 << (3 * r + (i + 1) % 3) for r in range(k) for i in range(3)]
    m0 = sum(1 << 3 * r for r in range(k))
    return Speed(lambda: oracle.explore(pre, post, m0, 3 ** k), REFERENCE_S)


def _answers_of(doc):
    part = doc["partition"]
    closed = doc["closed_loop"]
    return {
        "places": len(doc["net"]["places"]),
        "reachable": part["reachable_count"],
        "border": part["border_count"],
        "closed": closed["state_count"],
        "constraints": len(doc["controller"]["constraints"]),
    }


def _projections(doc):
    """Plant states of the closed loop, as formatted in the report."""
    closed = doc["closed_loop"]
    return ((set(doc["partition"]["authorized"])
             - set(closed["missing_authorized"]))
            | set(closed["extra_states"]))


def check_family(answers, rc, doc):
    """(failed, wrong) for one family net."""
    if not isinstance(rc, int) or rc == 5:
        return True, "exit %s, expected 0" % rc
    if rc != 0:
        return False, "exit %s, expected 0" % rc
    got = _answers_of(doc)
    diff = {k: (got[k], v) for k, v in answers.items() if k in got and got[k] != v}
    if diff or not doc["closed_loop"]["isomorphic"]:
        return True, "answers differ (got, expected): %s" % diff
    return False, None


def check_random(case, expected, rc, doc):
    """(failed, wrong) for one random net, judged by the oracle.

    Exit 4 is taken on trust when the oracle says a supervisor exists:
    the oracle does not model over-states."""
    if not isinstance(rc, int) or rc == 5:
        return True, None
    if rc == 3:
        return False, (None if expected is None
                       else "exit 3 but the initial marking is authorized")
    if expected is None:
        return False, "exit %d but the initial marking is forbidden" % rc
    if rc == 4:
        return False, None
    if rc != 0:
        return False, "unexpected exit %d" % rc
    authorized, reachable = expected
    ok = (set(doc["partition"]["authorized"])
          == {case.format(m) for m in authorized}
          and _projections(doc) == {case.format(m) for m in reachable}
          and doc["closed_loop"]["state_count"] == len(reachable))
    return not ok, None


def family_source(workload, seed, workdir):
    """Endless calls on the family's one net; each call is its own sample."""
    kind, k, answers = FAMILIES[workload]
    text = getattr(workloads, kind)(k, random.Random(seed))
    path = workdir / "net.pnet"
    path.write_text(text, encoding="utf-8")
    for i in itertools.count():
        yield i, path, lambda rc, doc: check_family(answers, rc, doc)


def random_pool(stream_seed, count):
    """The first `count` nets of a random stream."""
    rng = random.Random(stream_seed)
    return [workloads.random_case(rng) for _ in range(count)]


def random_source(pool, seed, passes, workdir):
    """`passes` passes over the pool, each in an order the seed picks;
    a net's sample key is its place in the pool.  The oracle's answers
    are worked out as the nets come up, so the pool stays small."""
    rng = random.Random(seed)
    path = workdir / "net.pnet"
    for _ in range(passes):
        order = list(range(len(pool)))
        rng.shuffle(order)
        for key in order:
            case = pool[key]
            expected = oracle.supervised(case, workloads.GEN_BUDGET)
            path.write_text(case.text, encoding="utf-8")
            yield key, path, (lambda rc, doc, case=case, expected=expected:
                              check_random(case, expected, rc, doc))


def run_one(path, check, report, tracer=None):
    for p in (report, report.with_suffix(".txt")):
        p.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    argv = [str(path), "--report", str(report)]
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
    except Exception as exc:  # a crash is a counted failure, not a stop
        rc = type(exc).__name__
    seconds = time.perf_counter() - t0
    cpu = time.process_time() - c0
    doc = None
    nbytes = len(out.getvalue().encode("utf-8"))
    if report.exists():
        raw = report.read_bytes()
        nbytes += len(raw)
        doc = json.loads(raw)
    failed, wrong = check(rc, doc)
    control = (len(doc["controller"]["control_places"])
               if rc == 0 and doc is not None else None)
    return Call(seconds, cpu, rc, nbytes, failed, wrong, control), doc


def held_off(call):
    return call.seconds - call.cpu > max(HELD_OFF_S, HELD_OFF_FRAC * call.cpu)


def measure(workload, seed, seconds, workdir, tracer=None):
    """Run a family's net until `seconds` have passed, or random-batch's
    fixed work for `seconds`.  Returns the calls, their sample keys,
    their times at reference speed, the number of calls run again
    because the host held them off, and, when traced, each call's report
    timings."""
    report = workdir / "r.json"
    if workload in FAMILIES:
        warm = family_source(workload, seed + 1, workdir)
        steps = 1
        work = family_source(workload, seed, workdir)
        deadline = seconds
    else:
        steps = RANDOM_WARMUP
        warm = random_source(random_pool(RANDOM_WARMUP_SEED, steps),
                             seed, 1, workdir)
        count = max(1, round(seconds * RANDOM_POOL_PER_S))
        work = random_source(random_pool(RANDOM_POOL_SEED, count),
                             seed, RANDOM_PASSES, workdir)
        deadline = float("inf")
    for _ in range(steps):
        run_one(*next(warm)[1:], report)
    if tracer is not None:
        tracer.spans.clear()
    calls, keys, scaled, timings, window = [], [], [], {}, []
    retries = 0
    gc.collect()
    speed = call_speed()
    window_end = time.perf_counter() + SPEED_WINDOW_S
    deadline += time.perf_counter()
    for i, (key, path, check) in enumerate(work):
        if calls and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.net = i
        for attempt in range(HELD_OFF_RETRIES + 1):
            mark = len(tracer.spans) if tracer is not None else 0
            call, doc = run_one(path, check, report, tracer)
            if not held_off(call) or attempt == HELD_OFF_RETRIES:
                break
            retries += 1
            if tracer is not None:
                del tracer.spans[mark:]
        calls.append(call)
        keys.append(key)
        window.append(call)
        if tracer is not None and doc is not None:
            timings[i] = {t["stage"]: t["seconds"] for t in doc["timings"]}
        if time.perf_counter() >= window_end:
            _scale(window, speed, scaled)
            window_end = time.perf_counter() + SPEED_WINDOW_S
    _scale(window, speed, scaled)
    return calls, keys, scaled, retries, timings


def _scale(window, speed, scaled):
    if window:
        gc.collect()
        factor = speed.advance()
        scaled.extend(c.seconds * factor for c in window)
        window.clear()


def setup_seconds():
    """Median time, at reference speed, for a fresh interpreter to
    import overseer.cli; and the raw wall times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def python(code):
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    python("import overseer.cli")  # leaves bytecode caches warm
    speed = Speed(lambda: python("import numpy"), REFERENCE_IMPORT_S)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        python("import overseer.cli")
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.advance())
    return statistics.median(scaled), raw


def tail(times):
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_net(times, keys):
    """The median time of each sample key's calls."""
    grouped = collections.defaultdict(list)
    for key, t in zip(keys, times):
        grouped[key].append(t)
    return [statistics.median(ts) for ts in grouped.values()]


def timing(times, keys):
    """net_s_p50, net_s_tail and nets_per_s of one list of call times:
    the percentiles are taken over each net's median time."""
    nets = per_net(times, keys)
    return {
        "net_s_p50": statistics.median(nets),
        "net_s_tail": tail(nets)[0],
        "nets_per_s": len(times) / sum(times),
    }


def end_to_end(calls, keys, scaled, setup_s):
    return {
        **timing(scaled, keys),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": statistics.fmean(c.report_bytes for c in calls),
        "setup_s": setup_s,
    }


def verdicts(calls):
    """failed_frac, and control places per exit-0 net."""
    control = [c.control for c in calls if c.control is not None]
    return {
        "failed_frac": sum(c.failed for c in calls) / len(calls),
        "control_places": statistics.fmean(control) if control else 0.0,
    }


def per_layer(tracer, untraced, traced):
    """Per-net means over the traced nets; None marks a metric whose
    function the program no longer calls (see spans.py).  `untraced` and
    `traced` are call times at reference speed, for the overhead."""
    nets = tracer.calls("cli.main")
    seconds, counts = tracer.totals()
    own = tracer.self_seconds()
    have = tracer.wrapped | {"cli.main"}

    def secs(*names):
        if not have.intersection(names):
            return None
        return sum(seconds.get(n, 0.0) for n in names) / nets

    def self_secs(name):
        return own.get(name, 0.0) / nets if name in have else None

    def count(*names, key, per=nets):
        if not have.intersection(names):
            return None
        return sum(counts.get(n, {}).get(key, 0) for n in names) / per

    def per_call(name, key):
        return count(name, key=key, per=max(tracer.calls(name), 1))

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    common = min(len(untraced), len(traced))
    base = sum(untraced[:common])
    m = {
        "cli.main_s": secs("cli.main"),
        "cli.self_s": self_secs("cli.main"),
        "pipeline.self_s": self_secs("pipeline.run"),
        "pnet.parse_s": secs("pnet.parse"),
        "pnet.input_bytes": count("pnet.parse", key="input_bytes"),
        "net.reach_s": secs("net.reach"),
        "net.states": count("net.reach", key="states"),
        "net.edges": count("net.reach", key="edges"),
        "partition.partition_s": secs("partition.partition"),
        "partition.forbidden": count("partition.partition", key="forbidden"),
        "partition.authorized": count("partition.partition", key="authorized"),
        "partition.border": count("partition.partition", key="border"),
        "overstates.overstates_s": secs(*STAGE_SPANS["over-states"]),
        "overstates.candidates": count("overstates.union", key="candidates"),
        "overstates.survivors": count("overstates.prune", key="survivors"),
        "overstates.minimal": count("overstates.minimal", key="minimal"),
        "cover.cover_s": secs(*STAGE_SPANS["cover"]),
        "cover.rows": count("cover.build", key="rows"),
        "cover.cols": count("cover.build", key="cols"),
        "cover.selected": count("cover.select", key="selected"),
        "synthesis.synthesize_s": secs(*STAGE_SPANS["synthesize"]),
        "synthesis.control_places": count(
            "synthesis.synthesize", "synthesis.empty", key="control_places"),
        "synthesis.verify_s": secs("synthesis.verify"),
        "synthesis.closed_states": count("synthesis.verify", key="closed_states"),
        "synthesis.closed_edges": count("synthesis.verify", key="closed_edges"),
        "report.render_text_s": secs("report.render_text"),
        "report.render_json_s": secs("report.render_json"),
        "report.render_text_calls": (tracer.calls("report.render_text") / nets
                                     if "report.render_text" in have else None),
        "report.text_bytes": per_call("report.render_text", "text_bytes"),
        "report.json_bytes": per_call("report.render_json", "json_bytes"),
        "trace.overhead_frac": sum(traced[:common]) / base - 1,
    }
    m["net.states_per_s"] = ratio(m["net.states"], m["net.reach_s"])
    m["overstates.useful_ratio"] = ratio(m["overstates.minimal"],
                                         m["overstates.candidates"])
    return m


def cross_check(tracer, timings):
    """Each stage's span total must fit inside the pipeline's own timing
    of that stage and account for most of it.  Returns the problems."""
    per_net: dict[int, dict[str, float]] = {}
    for s in tracer.spans:
        per_net.setdefault(s.net, {}).setdefault(s.name, 0.0)
        per_net[s.net][s.name] += s.seconds
    problems = []
    for stage, names in STAGE_SPANS.items():
        if not all(n in tracer.wrapped for n in names):
            continue
        nets = [i for i, t in timings.items() if stage in t]
        if not nets:
            continue
        program = sum(timings[i][stage] for i in nets)
        spans = sum(per_net.get(i, {}).get(n, 0.0) for i in nets for n in names)
        # report timings are rounded to the microsecond
        slack = 1e-6 * len(nets)
        if not (0.5 * program - 20 * slack <= spans <= program + slack):
            problems.append("stage %s: spans %.6f s, report %.6f s"
                            % (stage, spans, program))
    return problems


def check_traced_counts(workload, tracer):
    """Edge counts only the traced run can see, for the families."""
    if workload not in FAMILIES:
        return []
    answers = FAMILIES[workload][2]
    seen = {"edges": ("net.reach", "edges"),
            "closed_edges": ("synthesis.verify", "closed_edges")}
    problems = []
    for key, (name, field) in seen.items():
        if key not in answers or name not in tracer.wrapped:
            continue
        got = {s.counts.get(field) for s in tracer.spans if s.name == name}
        if got != {answers[key]}:
            problems.append("%s: got %s, expected %d" % (key, sorted(got, key=str),
                                                        answers[key]))
    return problems


def environment(workload, seed, args):
    import numpy
    from overseer.net import reachability_backend

    n_places = FAMILIES[workload][2]["places"] if workload in FAMILIES else 10
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reachability_backend": reachability_backend(n_places),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = declared_metrics(args.trace)
    env = environment(args.workload, args.seed, args)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("tmp-%d" % os.getpid())
    workdir.mkdir()
    problems = []
    wall = {}
    try:
        if args.trace:
            calls, keys, scaled, retries, _ = measure(
                args.workload, args.seed, args.seconds / 2, workdir)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _, traced_scaled, _, timings = measure(
                    args.workload, args.seed, args.seconds / 2, workdir, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(tracer, scaled, traced_scaled)
            metrics.update(verdicts(calls))
            problems += cross_check(tracer, timings)
            problems += check_traced_counts(args.workload, tracer)
            problems += sorted({c.wrong for c in traced if c.wrong})
        else:
            setup_s, wall["setup_s"] = setup_seconds()
            calls, keys, scaled, retries, _ = measure(
                args.workload, args.seed, args.seconds, workdir)
            metrics = end_to_end(calls, keys, scaled, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += sorted({c.wrong for c in calls if c.wrong})
    if set(metrics) != set(declared):
        problems.append("metrics %s do not match BENCHMARK.json %s"
                        % (sorted(metrics), sorted(declared)))
    failed = sum(c.failed for c in calls)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared.get(name, "")}
                    for name, value in metrics.items()},
    }
    exits = collections.Counter(str(c.rc) for c in calls)
    times = [c.seconds for c in calls]
    summary = {
        "env": env,
        "exit_codes": exits,
        "samples": len(times),
        "held_off_retries": retries,
        "tail_percentile": tail(per_net(times, keys))[1],
        "wall": {**timing(times, keys), **wall},
        "speed_factor_median": statistics.median(
            x / c.seconds for x, c in zip(scaled, calls)),
        **verdicts(calls),
        "problems": problems,
    }
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        (OUT / ("%s-spans.json" % tag)).write_text(
            json.dumps(tracer.to_json()), encoding="utf-8")
    (OUT / ("%s.json" % tag)).write_text(
        json.dumps({**summary, "result": result}, indent=1), encoding="utf-8")

    print("env %s" % json.dumps(env, sort_keys=True))
    print("exit codes %s over %d untraced nets; net_s_tail is p%.2f; "
          "%d calls run again after the host held them off"
          % (json.dumps(exits, sort_keys=True), len(times),
             summary["tail_percentile"], retries))
    print("wall time, before scaling to reference speed: %s"
          % json.dumps(summary["wall"]))
    print("failed_frac %.6f (%d of %d nets, seed %d); control places per "
          "exit-0 net %.4f" % (summary["failed_frac"], failed, len(calls),
                               args.seed, summary["control_places"]))
    for name, value in metrics.items():
        shown = "absent" if value is None else "%.6g" % value
        print("%-28s %14s %s" % (name, shown, declared.get(name, "")))
    for p in problems:
        print("check failed: %s" % p)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
