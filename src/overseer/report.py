"""Synthesis report: one structured text document plus a JSON twin.

`build_report` writes the payload from the pipeline's stage results,
and `SynthesisReport` renders it, so this module alone names the
report's keys.  Text and JSON carry the same content in the same order.
The canonical digest is a sha256 over the content with the volatile
timings removed, so reruns on the same input are digest-identical
however long the stages took.
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import cached_property

from .synthesis import format_constraint

VOLATILE_KEYS = ("timings",)


# The partition's `authorized`, `forbidden` and `border` lists, and the
# cover's per-border-state counts, hold at most this many entries: those
# of the first states in id order.  The `*_count` beside each list gives
# the total, and `--dot-rg` names every state.
_LIST_LIMIT = 256


def _canonical_json(payload: dict) -> str:
    # compact and key-sorted, the volatile keys left out
    return json.dumps({k: v for k, v in payload.items()
                       if k not in VOLATILE_KEYS},
                      sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(payload: dict) -> str:
    return _sha256(_canonical_json(payload))


def _vec(values) -> str:
    return "[%s]" % " ".join(map(str, values))


class SynthesisReport:
    """What one run found: one JSON-ready payload dict with the sections
    `net`, `partition`, `over_states`, `cover`, `controller`,
    `fallback`, `closed_loop` and `timings`.  `closed_loop.isomorphic`
    is `ClosedLoopReport.isomorphic`: the closed loop keeps every
    state a supervisor can keep and no other.  `digest`, `to_dict`,
    `render_text` and `render_json` all read the payload.  The payload
    without its timings is encoded once, on first use, and both the
    digest and the JSON rendering are made from that encoding, so
    change nothing in the payload after that.  The partition's state
    lists and the cover's counts hold at most `_LIST_LIMIT` entries
    each, so they do not grow with the state space."""

    def __init__(self, payload: dict):
        self._payload = payload

    @cached_property
    def _canonical(self) -> str:
        return _canonical_json(self._payload)

    @cached_property
    def _digest(self) -> str:
        return _sha256(self._canonical)

    def digest(self) -> str:
        return self._digest

    def to_dict(self) -> dict:
        """The report as a new JSON-ready dict, digest included."""
        return {**copy.deepcopy(self._payload), "digest": self._digest}

    def render_json(self) -> str:
        """The digest's encoding with `digest` and the volatile keys
        added last: compact, on one line, the other keys sorted."""
        body = self._canonical[:-1]
        tail = json.dumps(
            {"digest": self._digest, **{k: self._payload[k]
                                        for k in VOLATILE_KEYS
                                        if k in self._payload}},
            sort_keys=True, separators=(",", ":"))
        return "%s,%s\n" % (body, tail[1:])

    def render_text(self) -> str:
        p = self._payload
        net, part, cover = p["net"], p["partition"], p["cover"]
        ctl, fb, cl = p["controller"], p["fallback"], p["closed_loop"]
        yn = {True: "yes", False: "no"}

        def listing(items):
            return " ".join(items) if items else "-"

        def states(key):
            names, total = part[key], part[key + "_count"]
            cut = ", first %d" % len(names) if len(names) < total else ""
            return "  %s states (%d%s): %s" % (key, total, cut,
                                               listing(names))

        def counts(label, values):
            # one count per border state, in the order listed above
            cut = (" (first %d)" % len(values)
                   if len(values) < part["border_count"] else "")
            return "  %s%s: %s" % (label, cut, _vec(values) if values else "-")

        out = []
        w = out.append
        w("supervisor synthesis report")
        w("===========================")
        w("")
        w("net")
        w("  name: %s" % net["name"])
        w("  places (%d): %s" % (len(net["places"]), " ".join(net["places"])))
        w("  transitions (%d): %s"
          % (len(net["transitions"]), " ".join(net["transitions"])))
        w("  controllable: %s" % listing(net["controllable"]))
        w("  initial: %s" % net["initial"])
        w("")
        w("state space")
        w("  reachable states: %d" % part["reachable_count"])
        w(states("forbidden"))
        w(states("authorized"))
        w(states("border"))
        w("")
        w("over-states")
        minimal = p["over_states"]["minimal"]
        w("  minimal elements (%d): %s" % (len(minimal), listing(minimal)))
        w("")
        w("cover")
        w(counts("candidate cover counts", cover["cover_counts"]))
        w("  selected over-states (%d): %s"
          % (len(cover["selected"]), listing(cover["selected"])))
        w(counts("final cover counts", cover["final_counts"]))
        w("")
        w("controller")
        if ctl["no_constraints"]:
            w("  no constraints needed: every reachable state is authorized")
        else:
            w("  constraints:")
            for c in ctl["constraints"]:
                w("    %s" % c)
            w("  weight rows:")
            for name, row in zip(ctl["control_places"], ctl["weight_rows"]):
                w("    %s: %s" % (name, _vec(row)))
            w("  control incidence:")
            for name, row in zip(ctl["control_places"],
                                 ctl["control_incidence"]):
                w("    %s: %s" % (name, _vec(row)))
            w("  control initial marking: %s" % _vec(ctl["control_initial"]))
            w("  bounds: %s" % _vec(ctl["bounds"]))
        if fb["used"]:
            w("")
            w("fallback")
            w("  border states no over-state covers (%d): %s"
              % (len(fb["uncovered"]), " ".join(fb["uncovered"])))
            w("  each has an exact constraint, after the selected ones")
        w("")
        w("verification")
        w("  closed-loop states: %d" % cl["state_count"])
        w("  place invariant holds: %s" % yn[cl["invariant_ok"]])
        w("  admissibility violations: %d"
          % len(cl["admissibility_violations"]))
        for v in cl["admissibility_violations"]:
            w("    %s" % v)
        w("  isomorphic to authorized subgraph: %s" % yn[cl["isomorphic"]])
        if cl["missing_authorized"]:
            w("  missing authorized states: %s"
              % " ".join(cl["missing_authorized"]))
        if cl["extra_states"]:
            w("  unexpected states: %s" % " ".join(cl["extra_states"]))
        for msg in cl["edge_mismatches"]:
            w("  edge mismatch: %s" % msg)
        if cl["max_control_marking"]:
            w("  max control marking: %s" % _vec(cl["max_control_marking"]))
        for note in cl["notes"]:
            w("  note: %s" % note)
        w("")
        w("timings")
        for t in p["timings"]:
            w("  %-12s %8.3f ms" % (t["stage"], t["seconds"] * 1000.0))
        w("")
        w("canonical digest: %s" % self.digest())
        return "\n".join(out) + "\n"


def build_report(net, rg, partition, table, controller, closed,
                 timings) -> SynthesisReport:
    """The report of one run: `table` is the cover table, or None when
    nothing is forbidden, and `timings` the (stage, seconds) pairs the
    stages took, to which a total is added.  The partition's
    `authorized`, `forbidden` and `border` lists name only their first
    `_LIST_LIMIT` states in id order, and `cover_counts` and
    `final_counts` hold the counts of those border states; only the
    listed states are named.  The closed loop's and the fallback's
    lists are complete."""
    fmt = net.format_masks

    def listed(ids):
        return fmt(rg.masks_of(ids[:_LIST_LIMIT]))

    if table is None:
        minimal, counts, final_counts, chosen, uncovered = [], [], [], [], []
    else:
        # the cover table's rows are the minimal over-states; a final
        # count of 0 is left only at an uncovered column, which its own
        # exact row covers, and no other
        minimal, counts = table.rows, table.counts[:_LIST_LIMIT]
        final_counts = [c or 1 for c in table.final_counts()[:_LIST_LIMIT]]
        chosen, uncovered = table.selected_rows(), table.uncovered
    # the controller's rows: those of chosen, then those of uncovered
    constraints = [
        format_constraint(net.places, row, bound)
        for row, bound in zip(controller.weights.tolist(),
                              controller.bounds.tolist())
    ]
    timings = timings + [("total", sum(t for _, t in timings))]
    return SynthesisReport({
        "net": {
            "name": net.name,
            "places": list(net.places),
            "transitions": list(net.transitions),
            "controllable": [t for t, c in zip(net.transitions,
                                               net.controllable) if c],
            "initial": net.format_mask(net.m0.mask),
        },
        "partition": {
            "reachable_count": rg.n_states,
            "forbidden_count": len(partition.m_f),
            "authorized_count": len(partition.m_a),
            "border_count": len(partition.m_b),
            "authorized": listed(partition.m_a),
            "forbidden": listed(partition.m_f),
            "border": listed(partition.m_b),
        },
        "over_states": {
            "minimal": fmt(minimal),
        },
        "cover": {
            "cover_counts": counts,
            "final_counts": final_counts,
            "selected": fmt(chosen),
        },
        "controller": {
            "no_constraints": not len(partition.m_f),
            "constraints": constraints,
            "weight_rows": controller.weights.tolist(),
            "control_places": list(controller.place_names),
            "control_incidence": controller.incidence.tolist(),
            "control_initial": controller.initial.tolist(),
            "bounds": controller.bounds.tolist(),
        },
        "fallback": {
            "used": bool(uncovered),
            "uncovered": fmt(uncovered),
        },
        "closed_loop": {
            "state_count": closed.state_count,
            "isomorphic": closed.isomorphic,
            "invariant_ok": closed.invariant_ok,
            "admissibility_violations": [
                v.format(net, controller)
                for v in closed.admissibility_violations
            ],
            "missing_authorized": fmt(closed.missing_authorized),
            "extra_states": fmt(closed.extra_states),
            "edge_mismatches": list(closed.edge_mismatches),
            "max_control_marking": list(closed.max_control_marking),
            "notes": list(closed.notes),
        },
        "timings": [{"stage": stage, "seconds": round(seconds, 6)}
                    for stage, seconds in timings],
    })
