"""Synthesis report: one structured text document plus a JSON twin.

Both carry the same content in the same order.  The canonical digest is
a sha256 over the content with volatile keys (timings, environment)
removed, so reruns on the same input are digest-identical no matter
which reachability kernel ran or how long the stages took.
"""

from __future__ import annotations

import copy
import hashlib
import json
from functools import cached_property

VOLATILE_KEYS = ("timings", "environment")


def canonical_digest(payload: dict) -> str:
    scrubbed = {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _vec(values) -> str:
    return "[%s]" % " ".join(str(int(v)) for v in values)


class SynthesisReport:
    """What one run found: one JSON-ready payload dict with the sections
    `net`, `partition`, `over_states`, `cover`, `controller`,
    `fallback`, `closed_loop`, `environment` and `timings`.  `digest`,
    `to_dict`, `render_text` and `render_json` all read it; the digest
    is taken on first use, so change nothing in the payload after
    that."""

    def __init__(self, payload: dict):
        self._payload = payload

    @cached_property
    def _digest(self) -> str:
        return canonical_digest(self._payload)

    def digest(self) -> str:
        return self._digest

    def to_dict(self) -> dict:
        """The report as a new JSON-ready dict, digest included."""
        return {**copy.deepcopy(self._payload), "digest": self._digest}

    def render_json(self) -> str:
        # no indent: json's C encoder serves only the compact layout
        return json.dumps({**self._payload, "digest": self._digest},
                          sort_keys=True) + "\n"

    def render_text(self) -> str:
        p = self._payload
        net, part, cover = p["net"], p["partition"], p["cover"]
        ctl, fb, cl = p["controller"], p["fallback"], p["closed_loop"]
        yn = {True: "yes", False: "no"}

        def listing(items):
            return " ".join(items) if items else "-"

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
        w("  forbidden states (%d): %s"
          % (part["forbidden_count"], listing(part["forbidden"])))
        w("  authorized states (%d): %s"
          % (part["authorized_count"], listing(part["authorized"])))
        w("  border states (%d): %s"
          % (part["border_count"], listing(part["border"])))
        w("")
        w("over-states")
        minimal = p["over_states"]["minimal"]
        w("  minimal elements (%d): %s" % (len(minimal), listing(minimal)))
        w("")
        w("cover")
        w("  columns: %s" % listing(cover["columns"]))
        w("  candidate cover counts: %s"
          % (_vec(cover["cover_counts"]) if cover["columns"] else "-"))
        w("  selected over-states (%d): %s"
          % (len(cover["selected"]), listing(cover["selected"])))
        w("  final cover counts: %s"
          % (_vec(cover["final_counts"]) if cover["columns"] else "-"))
        w("  selection mode: %s" % cover["selection_mode"])
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
            w("  OVER-RESTRICTIVE controller: %d border state(s) had no "
              "usable over-state" % len(fb["uncovered"]))
            w("  uncovered: %s" % " ".join(fb["uncovered"]))
            for c in fb["over_restrictive"]:
                w("  added full-state constraint: %s" % c)
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
        w("environment")
        env = p["environment"]
        for key in sorted(env):
            w("  %s: %s" % (key, env[key]))
        w("")
        w("timings")
        for t in p["timings"]:
            w("  %-12s %8.3f ms" % (t["stage"], t["seconds"] * 1000.0))
        w("")
        w("canonical digest: %s" % self.digest())
        return "\n".join(out) + "\n"
