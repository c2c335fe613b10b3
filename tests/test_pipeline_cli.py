"""Pipeline orchestration and command-line behavior."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import overseer.errors
import overseer.net
import overseer.overstates
import overseer.pipeline
import overseer.report
from overseer import (
    BadStateSpec,
    Marking,
    NetDocument,
    PetriNet,
    build_reachability_graph,
    canonical_digest,
    parse_net,
    parse_net_file,
    predicate,
    run_pipeline,
)
from overseer.cli import main
from overseer.errors import (
    OverseerError,
    PnetError,
    StageFailure,
    StateBudgetExceeded,
    UncoverableState,
    UnknownPlaceName,
)

from overseer.net import support

from netgen import copies, disjoint_union

ROOT = Path(__file__).parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
import run as bench_run  # noqa: E402

THREE_STEP = """\
# B is only reachable through the forbidden A
net three_step
places Q A B
initial Q
transition c1 controllable { in Q ; out A }
transition c2 controllable { in A ; out B }
forbidden {
  expr "A & !B"
}
"""

# G starts either the forbidden H with all five pairs Ai Bi intact, or H
# with one pair traded for Di.  7 states, but the border state has
# 2^5 minimal over-states: H plus one place of each pair.
PAIRS = """\
net pairs
places G H D1 D2 D3 D4 D5 A1 B1 A2 B2 A3 B3 A4 B4 A5 B5
initial G A1 B1 A2 B2 A3 B3 A4 B4 A5 B5
transition z controllable { in G ; out H }
%s
forbidden {
  expr "H & !D1 & !D2 & !D3 & !D4 & !D5"
}
""" % "\n".join(
    "transition u%d controllable { in G A%d B%d ; out H D%d }" % (i, i, i, i)
    for i in range(1, 6)
)


def test_pipeline_two_machines(two_machines):
    result = run_pipeline(two_machines)
    r = result.report.to_dict()
    assert r["partition"]["reachable_count"] == 12
    assert r["partition"]["authorized_count"] == 5
    assert r["cover"]["selected"] == ["P4P6", "P2P7"]
    assert r["closed_loop"]["isomorphic"]
    assert result.closed.state_count == 5


def test_pipeline_three_copies_of_two_machines(two_machines):
    result = run_pipeline(copies(two_machines, 3))
    r = result.report.to_dict()
    assert r["partition"]["reachable_count"] == 12 ** 3
    assert len(r["over_states"]["minimal"]) == 12
    assert len(r["controller"]["constraints"]) == 6
    assert result.closed.state_count == 5 ** 3
    assert r["closed_loop"]["isomorphic"]


def test_pipeline_no_forbidden_states():
    doc = parse_net(
        "net free\nplaces A B\ninitial A\n"
        "transition t controllable { in A ; out B }\n"
        "transition r controllable { in B ; out A }\n"
    )
    result = run_pipeline(doc)
    r = result.report.to_dict()
    assert r["controller"]["no_constraints"]
    assert result.controller.k == 0
    assert r["closed_loop"]["isomorphic"]
    assert "no constraints needed" in result.report.render_text()


def test_pipeline_report_deterministic(two_machines_path):
    a = run_pipeline(parse_net_file(two_machines_path)).report
    b = run_pipeline(parse_net_file(two_machines_path)).report
    assert a.digest() == b.digest()
    da, db = a.to_dict(), b.to_dict()
    da.pop("timings"), db.pop("timings")
    assert da == db
    # text agrees apart from the wall-clock lines
    strip = lambda text: [
        line for line in text.splitlines()
        if not line.rstrip().endswith(" ms")
    ]
    assert strip(a.render_text()) == strip(b.render_text())


def test_report_payload_encoded_once_per_rendering(two_machines,
                                                    monkeypatch):
    report = run_pipeline(two_machines).report
    encoded = []
    dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        encoded.append((sorted(obj), sorted(obj.get("partition", ()))))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    text = report.render_text()
    twin = json.loads(report.render_json())
    # the sections once, for the digest and the JSON text together; then
    # only the digest and the timings, for the JSON text
    sections = sorted(set(twin) - {"digest", "timings"})
    assert encoded == [(sections, sorted(twin["partition"])),
                       (["digest", "timings"], [])]
    assert text.splitlines()[-1] == "canonical digest: %s" % twin["digest"]
    assert twin["digest"] == report.digest() == report.to_dict()["digest"]


def _canonical_json_checked(report, monkeypatch):
    """The report's canonical encoding, checked byte for byte against
    one `json.dumps` of its payload without timings.  Returns whether
    the partition's name lists went through the encoder."""
    payload = report.to_dict()
    del payload["digest"], payload["timings"]
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    partitions = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        partitions.append(set(obj["partition"]))
        return dumps(obj, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(json, "dumps", spy)
        assert overseer.report._canonical_json(payload) == expected
    assert len(partitions) == 1
    return "authorized" in partitions[0]


@pytest.mark.parametrize("odd", ['"', "\\", "\u00e9", "\t"])
def test_names_json_must_escape_take_the_encoder(odd, two_machines,
                                                 monkeypatch):
    """A place name holding a quote, a backslash, a non-ASCII letter or
    a tab sends the name lists through the encoder, with the same
    bytes as before."""
    net = two_machines.net
    plain = run_pipeline(two_machines).partition
    rg = build_reachability_graph(net)
    places = ["%s%s%d" % (p, odd, i) for i, p in enumerate(net.places)]
    renamed = PetriNet(
        net.name, places, net.transitions, net.controllable,
        [support(m) for m in net.pre_masks],
        [support(m) for m in net.post_masks], net.m0)
    spec = BadStateSpec(explicit=[Marking(net.n_places, m)
                                  for m in rg.masks_of(plain.m_f)])
    report = run_pipeline(NetDocument(renamed, spec)).report
    part = report.to_dict()["partition"]
    assert part["authorized"] and part["border"] and part["forbidden"]
    assert _canonical_json_checked(report, monkeypatch)


def test_report_lists_name_the_first_states(two_machines):
    """Past 256 states a partition list holds the names of the first
    256 in id order, the per-border-state counts are cut with the border
    list, the totals stay, and the text line says it is cut."""
    result = run_pipeline(copies(two_machines, 3))
    rg, part, table = result.rg, result.partition, result.table
    report = result.report.to_dict()
    listed, cover = report["partition"], report["cover"]
    uncut_counts = {"authorized": 125, "forbidden": 1603, "border": 375}
    for key, ids in (("authorized", part.m_a), ("forbidden", part.m_f),
                     ("border", part.m_b)):
        assert listed[key + "_count"] == len(ids) == uncut_counts[key]
        names = rg.net.format_masks(rg.masks_of(ids))
        assert listed[key] == names[:256]
    assert cover["cover_counts"] == table.counts[:256]
    assert cover["final_counts"] == [c or 1
                                     for c in table.final_counts()[:256]]
    lines = result.report.render_text().splitlines()
    head = {line.split(" (")[0].strip(): line for line in lines}
    assert head["forbidden states"].startswith(
        "  forbidden states (1603, first 256): ")
    assert head["border states"].startswith(
        "  border states (375, first 256): ")
    assert head["candidate cover counts"].startswith(
        "  candidate cover counts (first 256): [")
    assert head["authorized states"] == "  authorized states (125): %s" % (
        " ".join(listed["authorized"]))


def test_json_report_is_the_digest_encoding(two_machines):
    """The JSON file parses to `to_dict()`; without its digest it hashes
    to the digest, and its keys come sorted, then digest and timings."""
    report = run_pipeline(two_machines).report
    text = report.render_json()
    twin = json.loads(text)
    assert twin == report.to_dict()
    digest = twin.pop("digest")
    assert canonical_digest(twin) == digest == report.digest()
    keys = list(json.loads(text))
    assert keys == sorted(keys[:-2]) + ["digest", "timings"]
    assert text.endswith("}\n") and text.count("\n") == 1


# The canonical digests of the bundled nets and of two copies of
# two_machines.  A change that moves one changes the report and must
# say so.
GOLDEN_DIGESTS = {
    "two_machines":
        "a1c53636cdf1fbe5355a3621c1645511cc976dcd96bd930fff3777205cf0ced4",
    "drop_job --fallback":
        "032c5957c7ee7f5c933cc02702032ddb93bf244f67671d798b8b1743f87b34ca",
    "two_machines x2":
        "55faf8517e7685bbb800b66c571d8105f9ffda45b1ddef7cb5db57f84230223d",
}


def test_golden_digests(two_machines, drop_job):
    digests = {
        "two_machines": run_pipeline(two_machines).report.digest(),
        "drop_job --fallback":
            run_pipeline(drop_job, fallback=True).report.digest(),
        "two_machines x2":
            run_pipeline(copies(two_machines, 2)).report.digest(),
    }
    assert digests == GOLDEN_DIGESTS


# sha256 of the text reports of the same three runs, with the timing
# lines (those ending in " ms") dropped: the digest does not cover the
# text layout.
GOLDEN_TEXT = {
    "two_machines":
        "2b3153c17cd17d3c2b6212cd14e52c13baf9227be347edaee83b806430fbc321",
    "drop_job --fallback":
        "e6273185fa77025ede00a7b15d07bf04fc716f4f415ff353b136e41d45fa028f",
    "two_machines x2":
        "dc725aea14b32508cf8e0b8ecf4482228d523db8b9ddda39977fcc14652bef96",
}


def _text_hash(report):
    kept = [line for line in report.render_text().splitlines()
            if not line.rstrip().endswith(" ms")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def test_golden_text_reports(two_machines, drop_job):
    hashes = {
        "two_machines": _text_hash(run_pipeline(two_machines).report),
        "drop_job --fallback":
            _text_hash(run_pipeline(drop_job, fallback=True).report),
        "two_machines x2":
            _text_hash(run_pipeline(copies(two_machines, 2)).report),
    }
    assert hashes == GOLDEN_TEXT


def test_predicate_parsed_once_per_run(two_machines_path, monkeypatch):
    calls = []
    tokenize = predicate._tokenize

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(predicate, "_tokenize", counting_tokenize)
    result = run_pipeline(parse_net_file(two_machines_path))
    assert result.closed.isomorphic
    assert len(calls) == 1


def test_state_bits_unpacked_once_per_run(two_machines, monkeypatch):
    calls = []
    original = overseer.net.bit_rows

    def counting_bit_rows(masks, width):
        calls.append(masks)
        return original(masks, width)

    # every module that holds the function under its own name
    for name, module in list(sys.modules.items()):
        if (name.startswith("overseer")
                and getattr(module, "bit_rows", None) is original):
            monkeypatch.setattr(module, "bit_rows", counting_bit_rows)
    result = run_pipeline(two_machines)
    assert result.controller.k == 2
    assert sum(masks is result.rg.masks for masks in calls) == 1


def test_pipeline_builds_no_markings(two_machines, drop_job, monkeypatch):
    built = []
    init = Marking.__init__

    def counting_init(self, width, mask):
        built.append(mask)
        init(self, width, mask)

    doc = copies(two_machines, 3)
    monkeypatch.setattr(Marking, "__init__", counting_init)
    result = run_pipeline(doc)
    assert result.closed.state_count == 5 ** 3
    result = run_pipeline(drop_job, fallback=True)
    assert result.report.to_dict()["fallback"]["used"]
    assert built == []


# the exit code of each error class, as the README's table gives it
EXIT_CODES = {
    "OverseerError": 5,
    "PnetError": 2,
    "PnetSyntaxError": 2,
    "UnknownPlaceName": 2,
    "SafenessViolation": 2,
    "StateBudgetExceeded": 2,
    "InitialMarkingViolation": 3,
    "ForbiddenInitialMarking": 3,
    "UncoverableState": 4,
    "NonBinaryController": 5,
    "VerificationFailure": 5,
}
ERROR_CLASSES = [c for c in vars(overseer.errors).values()
                 if isinstance(c, type) and issubclass(c, OverseerError)
                 and c is not StageFailure]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_errors_carry_their_exit_codes(cls):
    assert {c.__name__ for c in ERROR_CLASSES} == set(EXIT_CODES)
    err = cls("boom")
    assert err.exit_code == EXIT_CODES[cls.__name__]
    assert StageFailure("reach", err).exit_code == err.exit_code


def test_pipeline_state_budget_bounds_over_states():
    doc = parse_net(PAIRS)
    result = run_pipeline(doc)
    assert result.rg.n_states == 7
    r = result.report.to_dict()
    assert len(r["over_states"]["minimal"]) == 32
    assert r["closed_loop"]["isomorphic"]
    # 7 states fit a budget of 16, 32 transversals do not
    with pytest.raises(StageFailure) as err:
        run_pipeline(doc, state_budget=16)
    assert err.value.stage == "over-states"
    assert isinstance(err.value.cause, StateBudgetExceeded)


# a token ring whose last place is forbidden, to set beside other nets
RING = """\
net ring
places R1 R2 R3
initial R1
transition r1 controllable { in R1 ; out R2 }
transition r2 controllable { in R2 ; out R3 }
transition r3 uncontrollable { in R3 ; out R1 }
forbidden {
  expr "R3"
}
"""


def _outcome(doc, **kwargs):
    """The report digest of a run, or its failing stage, message and
    uncovered states."""
    try:
        return run_pipeline(doc, **kwargs).report.digest()
    except StageFailure as err:
        return err.stage, str(err), getattr(err.cause, "uncovered", None)


def _split_and_whole(monkeypatch, doc, **kwargs):
    """The outcome of a run, the number of engine calls it made, and the
    outcome of a run that takes the whole net as one component."""
    calls = []
    union = overseer.overstates._union

    def counting_union(border, authorized, budget):
        calls.append(border)
        return union(border, authorized, budget)

    with monkeypatch.context() as mp:
        mp.setattr(overseer.overstates, "_union", counting_union)
        split = _outcome(doc, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(PetriNet, "components",
                   property(lambda net: ((1 << net.n_places) - 1,)))
        whole = _outcome(doc, **kwargs)
    return split, len(calls), whole


def test_split_net_is_solved_per_component(two_machines, drop_job,
                                           monkeypatch):
    # three components whose authorized sets multiply: one engine call
    # each, and the answer of the whole.  drop_job's uncoverable border
    # state P1 stays uncoverable beside each of the 5 x 2 authorized
    # states of the others.
    doc = disjoint_union([two_machines, drop_job, parse_net(RING)], "split")
    assert len(doc.net.components) == 3
    split, calls, whole = _split_and_whole(monkeypatch, doc)
    assert calls == 3
    assert split == whole
    _, message, uncovered = split
    assert message == "cover: 10 border state(s) covered by no over-state"
    index = doc.net.place_index
    drop = sum(1 << index[p] for p in ("Q_1", "P1_1", "P2_1"))
    assert {m & drop for m in uncovered} == {1 << index["P1_1"]}
    split, calls, whole = _split_and_whole(monkeypatch, doc, fallback=True)
    assert calls == 3
    assert split == whole
    assert isinstance(split, str)


def test_coupled_spec_is_solved_whole(two_machines, monkeypatch):
    # the spec joins the copies, so the authorized set does not factor
    net = copies(two_machines, 2).net
    doc = NetDocument(net, BadStateSpec(expr="P2_0 & P7_1"))
    assert len(net.components) == 2
    split, calls, whole = _split_and_whole(monkeypatch, doc)
    assert calls == 1
    assert split == whole
    assert isinstance(split, str)


def test_untouched_places_join_a_component(two_machines_path, monkeypatch):
    # the marked place Q never changes: it joins the one real component,
    # so the net is one block and goes to the engine once, as a whole
    text = two_machines_path.read_text().replace(
        "places P1 P2 P3 P4 P5 P6 P7\ninitial P1 P3 P6",
        "places P1 P2 P3 P4 P5 P6 P7 Q\ninitial P1 P3 P6 Q")
    doc = parse_net(text)
    assert doc.net.components == ((1 << 8) - 1,)
    split, calls, whole = _split_and_whole(monkeypatch, doc)
    assert calls == 1
    assert split == whole
    assert isinstance(split, str)


def test_arcless_transition_joins_no_component(tmp_path, capsys):
    # `idle` has no arcs: it adds no block of its own, and it fires in
    # every state as a self-loop
    text = ("net idle\nplaces A B\ninitial A\n"
            "transition t controllable { in A ; out B }\n"
            "transition idle controllable { in ; out }\n"
            "forbidden { state B }\n")
    doc = parse_net(text)
    assert doc.net.components == (0b11,)
    rg = build_reachability_graph(doc.net)
    assert rg.edges.tolist() == [[0, 0, 1], [0, 1, 0], [1, 1, 1]]
    net = tmp_path / "idle.pnet"
    net.write_text(text)
    assert main([str(net)]) == 0
    captured = capsys.readouterr()
    assert "  isomorphic to authorized subgraph: yes\n" in captured.out
    assert captured.err == ""


def test_split_net_over_state_budget(monkeypatch):
    # PAIRS has 32 minimal over-states in 7 states, the ring 3 states:
    # the budget stops reach below 21 and over-states below 32, with or
    # without the split
    doc = disjoint_union([parse_net(PAIRS), parse_net(RING)], "pairs_ring")
    stages = []
    for budget in range(20, 34):
        split, calls, whole = _split_and_whole(monkeypatch, doc,
                                               state_budget=budget)
        assert split == whole
        stages.append(split if isinstance(split, str) else split[0])
    digest = run_pipeline(doc).report.digest()
    assert stages == ["reach"] + ["over-states"] * 11 + [digest] * 2


@pytest.mark.parametrize("budget", [0, -3])
def test_pipeline_state_budget_counts_m0(budget):
    # m0 counts against the budget, also on a net with no transition
    doc = parse_net("net still\nplaces A\ninitial A\n")
    assert run_pipeline(doc, state_budget=1).rg.n_states == 1
    with pytest.raises(StageFailure) as err:
        run_pipeline(doc, state_budget=budget)
    assert err.value.stage == "reach"
    assert isinstance(err.value.cause, StateBudgetExceeded)
    assert str(err.value.cause) == ("net still: state budget %d exhausted "
                                    "(raise --state-budget to explore "
                                    "further)" % budget)


def test_pipeline_uncoverable_without_fallback(drop_job):
    with pytest.raises(StageFailure) as err:
        run_pipeline(drop_job)
    assert isinstance(err.value.cause, UncoverableState)
    assert str(err.value) == "cover: 1 border state(s) covered by no over-state"
    assert err.value.cause.uncovered == (1 << drop_job.net.place_index["P1"],)


def test_pipeline_fallback_forbids_the_empty_marking():
    # the border state is the empty marking: no over-state covers it,
    # and its exact row -m(A) <= -1 forbids it and nothing else
    doc = parse_net("net drain\nplaces A\ninitial A\n"
                    "transition t controllable { in A ; out }\n"
                    'forbidden { expr "!A" }\n')
    with pytest.raises(StageFailure) as err:
        run_pipeline(doc)
    assert err.value.stage == "cover"
    assert err.value.cause.uncovered == (0,)
    assert err.value.exit_code == 4
    result = run_pipeline(doc, fallback=True)
    r = result.report.to_dict()
    assert r["fallback"]["uncovered"] == ["-"]
    assert r["controller"]["constraints"] == ["-m(A) <= -1"]
    assert result.closed.isomorphic
    assert result.closed.state_count == 1


def test_pipeline_fallback_forbids_only_the_uncovered_state(drop_job):
    result = run_pipeline(drop_job, fallback=True)
    r = result.report.to_dict()
    assert r["fallback"]["used"]
    assert r["fallback"]["uncovered"] == ["P1"]
    assert r["cover"]["selected"] == []
    assert r["cover"]["final_counts"] == [1]
    assert r["controller"]["constraints"] == ["-m(Q) + m(P1) - m(P2) <= 0"]
    assert r["closed_loop"]["isomorphic"]
    assert r["closed_loop"]["missing_authorized"] == []
    assert result.controller.is_binary()


def test_cli_success_writes_artifacts(tmp_path, two_machines_path, capsys):
    out = tmp_path / "controlled.pnet"
    report = tmp_path / "report.txt"
    rc = main([
        str(two_machines_path),
        "--out", str(out),
        "--report", str(report),
        "--dot-rg", str(tmp_path / "rg.dot"),
        "--dot-controlled", str(tmp_path / "closed.dot"),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "isomorphic to authorized subgraph: yes" in stdout

    controlled = parse_net(out.read_text())
    assert controlled.net.places[-2:] == ("Pc1", "Pc2")

    twin = json.loads((tmp_path / "report.json").read_text())
    assert twin["partition"]["authorized_count"] == 5
    assert twin["digest"]
    text = report.read_text()
    assert twin["digest"] in text

    rg_dot = (tmp_path / "rg.dot").read_text()
    assert rg_dot.count('fillcolor="gray25"') == 7
    assert rg_dot.count("peripheries=2") == 5
    assert hashlib.sha256(rg_dot.encode()).hexdigest() == \
        "6abaa2e6ef4373f7fb35881027e4d22950744ee461170a1ce895d6000c6cfeec"
    closed_dot = (tmp_path / "closed.dot").read_text()
    assert closed_dot.count(" -> ") == 5 + 1  # five firings plus init arrow
    assert hashlib.sha256(closed_dot.encode()).hexdigest() == \
        "83bb4641e4b215a699ef1be7e4563ca86df3e64fe1c3c1b439659f54c3cfe465"


def test_cli_report_json_path(tmp_path, two_machines_path):
    rc = main([str(two_machines_path),
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert (tmp_path / "r.json").exists()
    assert (tmp_path / "r.txt").exists()
    json.loads((tmp_path / "r.json").read_text())


def test_cli_missing_file(tmp_path, capsys):
    rc = main([str(tmp_path / "nope.pnet")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_undecodable_file(tmp_path, capsys):
    bad = tmp_path / "bad.pnet"
    bad.write_bytes(b"net n\nplaces A\xe9\n")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("overseer: error: cannot read %s: " % bad)
    assert "utf-8" in err


@pytest.mark.parametrize("expr, message", [
    ("A & (B", "missing ')' in predicate 'A & (B'"),
    ("A | Z", "unknown place 'Z' in forbidden expr 'A | Z'"),
])
def test_cli_expr_error_location(expr, message, tmp_path, capsys):
    bad = tmp_path / "bad.pnet"
    bad.write_text('net n\nplaces A B\nforbidden {\n  expr "%s"\n}\n' % expr)
    assert main([str(bad)]) == 2
    assert capsys.readouterr().err == "overseer: error: %s:4:8: %s\n" % (
        bad, message)


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pnet"
    bad.write_text("net x\nplaces A\ntransition t { in ; out }\n")
    rc = main([str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.pnet:3" in err


def test_cli_state_budget_exhausted(two_machines_path, capsys):
    rc = main([str(two_machines_path), "--state-budget", "4"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_state_budget_below_one_is_refused(budget, tmp_path, capsys):
    # one state, which no budget below 1 admits
    net = tmp_path / "still.pnet"
    net.write_text("net still\nplaces A\ninitial A\n")
    with pytest.raises(SystemExit) as exc:
        main([str(net), "--state-budget", budget])
    assert exc.value.code == 2
    assert ("argument --state-budget: must be at least 1, got %s" % budget
            in capsys.readouterr().err)



def test_cli_state_budget_must_be_an_int(two_machines_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(two_machines_path), "--state-budget", "abc"])
    assert exc.value.code == 2
    assert ("argument --state-budget: invalid int value: 'abc'"
            in capsys.readouterr().err)

def test_cli_over_state_budget(tmp_path, capsys):
    net = tmp_path / "pairs.pnet"
    net.write_text(PAIRS)
    rc = main([str(net), "--state-budget", "16"])
    assert rc == 2
    assert "over-states" in capsys.readouterr().err


def test_cli_exact_cover_is_unknown(two_machines_path, capsys):
    # the cover looks for fewer rows itself; no switch selects a path
    with pytest.raises(SystemExit) as exc:
        main([str(two_machines_path), "--exact-cover"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --exact-cover"
            in capsys.readouterr().err)


def test_unknown_place_in_forbidden_expr(tmp_path, capsys, two_machines):
    # a .pnet file fails at parse time
    text = ("net typo\nplaces A B\ninitial A\n"
            "transition t controllable { in A ; out B }\n"
            'forbidden { expr "B & Z" }\n')
    with pytest.raises(UnknownPlaceName):
        parse_net(text)
    path = tmp_path / "typo.pnet"
    path.write_text(text)
    assert main([str(path)]) == 2
    assert "unknown place 'Z'" in capsys.readouterr().err
    # a spec built through the library fails in the partition stage
    doc = NetDocument(two_machines.net, BadStateSpec(expr="P1 & Z"))
    with pytest.raises(StageFailure) as err:
        run_pipeline(doc)
    assert err.value.stage == "partition"
    assert isinstance(err.value.cause, UnknownPlaceName)
    assert err.value.exit_code == 2


def test_explicit_state_of_another_width_fails_at_partition():
    # a spec built through the library: 3 bits for a 2-place net
    net = parse_net("net n\nplaces A B\ninitial A\n"
                    "transition t controllable { in A ; out B }\n").net
    doc = NetDocument(net, BadStateSpec(explicit=(Marking(3, 2),)))
    with pytest.raises(StageFailure) as err:
        run_pipeline(doc)
    assert err.value.stage == "partition"
    assert isinstance(err.value.cause, PnetError)
    assert str(err.value) == ("partition: explicit bad marking has 3 bits, "
                              "net has 2 places")
    assert err.value.exit_code == 2


def test_cli_forbidden_initial_marking(tmp_path, capsys):
    bad = tmp_path / "doomed.pnet"
    bad.write_text(
        "net doomed\nplaces A B\ninitial A\n"
        "transition t controllable { in A ; out B }\n"
        'forbidden { expr "A" }\n'
    )
    rc = main([str(bad)])
    assert rc == 3
    assert "forbidden" in capsys.readouterr().err


def test_cli_uncoverable_is_exit_4(drop_job_path, capsys):
    rc = main([str(drop_job_path)])
    assert rc == 4
    assert "border state" in capsys.readouterr().err


def test_cli_fallback_turns_exit_4_into_0(drop_job_path, tmp_path, capsys):
    out = tmp_path / "ctl.pnet"
    rc = main([str(drop_job_path), "--fallback", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "    -m(Q) + m(P1) - m(P2) <= 0\n" in captured.out
    assert "isomorphic to authorized subgraph: yes" in captured.out
    # the exact row is binary, so the controlled net is written
    doc = parse_net(out.read_text())
    assert doc.net.places == ("Q", "P1", "P2", "Pc1")


# a net of the benchmark's random pool whose two uncoverable border
# states get exact rows with a weight-2 arc into t1 and t2
WEIGHTED = """\
net gen
places P1 P2 P3
initial P1 P2 P3
transition t1 controllable { in P1 P2 ; out }
transition t2 controllable { in P1 ; out }
transition t3 controllable { in P2 P3 ; out P2 P3 }
transition t4 uncontrollable { in P1 P3 ; out P1 }
transition t5 uncontrollable { in P1 P2 ; out P2 }
forbidden {
  expr "!P2"
}
"""


def test_cli_weighted_controller_is_not_written(tmp_path, capsys):
    net, out = tmp_path / "gen.pnet", tmp_path / "ctl.pnet"
    net.write_text(WEIGHTED)
    rc = main([str(net), "--fallback", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "    -m(P1) - m(P2) + m(P3) <= 0\n" \
        "    -m(P1) - m(P2) - m(P3) <= -1\n" in captured.out
    assert captured.err == ("overseer: warning: controller needs weighted "
                            "arcs; %s not written\n" % out)
    assert not out.exists()


# the fallback's exact rows make a binary controller whose control
# places each gather a second token: t4 fires from P1P2P3 and from P1P2
UNSAFE_OUT = """\
net gen
places P1 P2 P3
initial P1 P2 P3
transition t1 controllable { in P1 P3 ; out P3 }
transition t2 controllable { in P2 P3 ; out }
transition t3 controllable { in P3 ; out }
transition t4 controllable { in P2 ; out }
forbidden { expr "(P2) & !P3" }
"""


def test_cli_unsafe_controlled_net_is_not_written(tmp_path, capsys):
    net, out = tmp_path / "gen.pnet", tmp_path / "ctl.pnet"
    net.write_text(UNSAFE_OUT)
    rc = main([str(net), "--fallback", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "  max control marking: [2 2]\n" in captured.out
    assert captured.err == (
        "overseer: warning: a control place holds more than one token in "
        "the closed loop, so the controlled net is not safe; %s not "
        "written\n" % out)
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--fallback"]])
def test_cli_out_explores_to_the_closed_loop(flags, tmp_path, capsys):
    """Each net `--out` writes for the first nets of the benchmark's
    random pool is safe and reaches exactly the closed loop's plant
    states, each with one control marking."""
    net, out = tmp_path / "n.pnet", tmp_path / "out.pnet"
    written = 0
    for case in bench_run.random_pool(bench_run.RANDOM_POOL_SEED, 100):
        net.write_text(case.text)
        out.unlink(missing_ok=True)
        main([str(net), "--out", str(out)] + flags)
        if not out.exists():
            continue
        written += 1
        doc = parse_net(case.text)
        result = run_pipeline(doc, fallback=bool(flags))
        plant = (1 << doc.net.n_places) - 1
        controlled = build_reachability_graph(parse_net_file(out).net)
        assert sorted(m & plant for m in controlled.masks) \
            == sorted(result.rg.masks_of(result.closed.states))
    capsys.readouterr()
    assert written > 25


def test_cli_authorized_state_behind_forbidden_is_exit_0(tmp_path, capsys):
    # no supervisor keeps B, which the plant reaches only through the
    # forbidden A: the loop that stops at Q is the most that can be kept
    net = tmp_path / "three.pnet"
    net.write_text(THREE_STEP)
    rc = main([str(net), "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    closed = json.loads((tmp_path / "r.json").read_text())["closed_loop"]
    assert closed["missing_authorized"] == ["B"]
    assert closed["isomorphic"]


def test_cli_fallback_does_not_hide_unverified_loop(two_machines_path,
                                                    monkeypatch, capsys):
    # no border state is uncoverable, so the fallback is not used, and a
    # loop that fails fails as it does without --fallback: a bound
    # loosened by one lets it into forbidden states, and a bound
    # tightened by one makes it sound but blocks an authorized firing
    build = overseer.pipeline.build_constraint_matrix
    for row, change, finding in ((0, 1, "unexpected states: "),
                                 (1, -1, "edge mismatch: two_machines "
                                         "misses c1 at P1P3P6")):
        def changed(*args, row=row, change=change, **kwargs):
            weights, bounds = build(*args, **kwargs)
            bounds[row] += change
            return weights, bounds

        monkeypatch.setattr(overseer.pipeline, "build_constraint_matrix",
                            changed)
        for flags in ([], ["--fallback"]):
            assert main([str(two_machines_path)] + flags) == 5
            captured = capsys.readouterr()
            assert "isomorphic to authorized subgraph: no" in captured.out
            assert finding in captured.out
            assert "not isomorphic" in captured.err


def test_cli_fallback_with_uncontrollable_load_is_admissible(
        drop_job_path, tmp_path, capsys):
    # with load uncontrollable, P1 is still uncoverable; its exact row
    # blocks only drop at P1P2, so no uncontrollable firing is blocked
    net = tmp_path / "drop_u.pnet"
    net.write_text(drop_job_path.read_text().replace(
        "transition load controllable", "transition load uncontrollable"))
    assert main([str(net)]) == 4
    assert "border state" in capsys.readouterr().err
    rc = main([str(net), "--fallback", "--report", str(tmp_path / "r.json")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    closed = json.loads((tmp_path / "r.json").read_text())["closed_loop"]
    assert closed["admissibility_violations"] == []
    assert closed["isomorphic"]


@pytest.mark.parametrize("flag", ["--report", "--out", "--dot-rg",
                                  "--dot-controlled"])
def test_cli_unwritable_output_is_exit_2(flag, tmp_path, two_machines_path,
                                         capsys):
    path = tmp_path / "no" / "such" / "file"
    rc = main([str(two_machines_path), flag, str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("overseer: error: cannot write %s" % path)


TWO_MACHINES_EXPR = '  expr "(P2 & P7) | (P5 & P6)"\n'


@pytest.mark.parametrize("forbidden, rc, err", [
    # blanks after the last token end the predicate
    ('  expr "(P2 & P7) | (P5 & P6) "\n', 0, ""),
    # the plant never holds P1 and P2 alone: a warning, and the run unchanged
    (TWO_MACHINES_EXPR + "  state P1 P2\n", 0,
     "overseer: warning: explicit bad state P1P2 is not reachable; "
     "ignored\n"),
    ('  expr "true"\n', 3,
     "overseer: error: partition: initial marking P1P3P6 is forbidden; "
     "synthesis is impossible\n"),
], ids=["trailing-blank", "unreachable-state", "true"])
def test_cli_forbidden_block_variants(forbidden, rc, err, two_machines_path,
                                      tmp_path, capsys):
    text = two_machines_path.read_text()
    assert TWO_MACHINES_EXPR in text
    net = tmp_path / "variant.pnet"
    net.write_text(text.replace(TWO_MACHINES_EXPR, forbidden))
    assert main([str(net)]) == rc
    out, got = capsys.readouterr()
    assert got == err
    if rc == 0:
        assert out.splitlines()[-1] == (
            "canonical digest: %s" % GOLDEN_DIGESTS["two_machines"])
