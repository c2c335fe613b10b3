"""Synthesis report: one structured text document plus a JSON twin.

Both carry the same content in the same order.  The canonical digest is
a sha256 over the content with volatile keys (timings, environment)
removed, so reruns on the same input are digest-identical no matter
which reachability kernel ran or how long the stages took.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

VOLATILE_KEYS = ("timings", "environment")


def canonical_digest(payload: dict) -> str:
    scrubbed = {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _vec(values) -> str:
    return "[%s]" % " ".join(str(int(v)) for v in values)


@dataclass
class ClosedLoopSummary:
    state_count: int = 0
    isomorphic: bool = False
    invariant_ok: bool = False
    admissibility_violations: list[str] = field(default_factory=list)
    missing_authorized: list[str] = field(default_factory=list)
    extra_states: list[str] = field(default_factory=list)
    edge_mismatches: list[str] = field(default_factory=list)
    max_control_marking: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "state_count": self.state_count,
            "isomorphic": self.isomorphic,
            "invariant_ok": self.invariant_ok,
            "admissibility_violations": list(self.admissibility_violations),
            "missing_authorized": list(self.missing_authorized),
            "extra_states": list(self.extra_states),
            "edge_mismatches": list(self.edge_mismatches),
            "max_control_marking": [int(v) for v in self.max_control_marking],
            "notes": list(self.notes),
        }


@dataclass
class SynthesisReport:
    """What one run found.  `digest`, `render_text` and `render_json`
    read one payload, built when the first of them is called; change no
    field after that."""

    net_name: str = ""
    places: list[str] = field(default_factory=list)
    transitions: list[str] = field(default_factory=list)
    controllable: list[str] = field(default_factory=list)
    initial: str = "-"

    reachable_count: int = 0
    forbidden_count: int = 0
    authorized_count: int = 0
    border_count: int = 0
    authorized: list[str] = field(default_factory=list)
    forbidden: list[str] = field(default_factory=list)
    border: list[str] = field(default_factory=list)

    minimal: list[str] = field(default_factory=list)

    cover_columns: list[str] = field(default_factory=list)
    cover_counts: list[int] = field(default_factory=list)
    final_counts: list[int] = field(default_factory=list)
    selected: list[str] = field(default_factory=list)
    selection_mode: str = "greedy"

    constraints: list[str] = field(default_factory=list)
    weight_rows: list[list[int]] = field(default_factory=list)
    control_places: list[str] = field(default_factory=list)
    control_incidence: list[list[int]] = field(default_factory=list)
    control_initial: list[int] = field(default_factory=list)
    bounds: list[int] = field(default_factory=list)

    no_constraints: bool = False
    fallback_used: bool = False
    uncovered: list[str] = field(default_factory=list)
    over_restrictive: list[str] = field(default_factory=list)

    closed_loop: ClosedLoopSummary = field(default_factory=ClosedLoopSummary)

    environment: dict = field(default_factory=dict)
    timings: list[tuple[str, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as a new JSON-ready dict, digest included."""
        payload = {
            "net": {
                "name": self.net_name,
                "places": list(self.places),
                "transitions": list(self.transitions),
                "controllable": list(self.controllable),
                "initial": self.initial,
            },
            "partition": {
                "reachable_count": self.reachable_count,
                "forbidden_count": self.forbidden_count,
                "authorized_count": self.authorized_count,
                "border_count": self.border_count,
                "authorized": list(self.authorized),
                "forbidden": list(self.forbidden),
                "border": list(self.border),
            },
            "over_states": {
                "minimal": list(self.minimal),
            },
            "cover": {
                "columns": list(self.cover_columns),
                "cover_counts": [int(v) for v in self.cover_counts],
                "final_counts": [int(v) for v in self.final_counts],
                "selected": list(self.selected),
                "selection_mode": self.selection_mode,
            },
            "controller": {
                "no_constraints": self.no_constraints,
                "constraints": list(self.constraints),
                "weight_rows": [[int(v) for v in row]
                                for row in self.weight_rows],
                "control_places": list(self.control_places),
                "control_incidence": [[int(v) for v in row]
                                      for row in self.control_incidence],
                "control_initial": [int(v) for v in self.control_initial],
                "bounds": [int(v) for v in self.bounds],
            },
            "fallback": {
                "used": self.fallback_used,
                "uncovered": list(self.uncovered),
                "over_restrictive": list(self.over_restrictive),
            },
            "closed_loop": self.closed_loop.to_dict(),
            "environment": dict(self.environment),
            "timings": [
                {"stage": s, "seconds": round(float(v), 6)}
                for s, v in self.timings
            ],
        }
        payload["digest"] = canonical_digest(payload)
        return payload

    @cached_property
    def _payload(self) -> dict:
        # built on first use, once the report is assembled: the digest
        # and both renderings share it, so the payload is encoded once
        # for the digest and once for the JSON text
        return self.to_dict()

    def digest(self) -> str:
        return self._payload["digest"]

    def render_json(self) -> str:
        # no indent: json's C encoder serves only the compact layout
        return json.dumps(self._payload, sort_keys=True) + "\n"

    def render_text(self) -> str:
        yn = {True: "yes", False: "no"}
        out = []
        w = out.append
        w("supervisor synthesis report")
        w("===========================")
        w("")
        w("net")
        w("  name: %s" % self.net_name)
        w("  places (%d): %s" % (len(self.places), " ".join(self.places)))
        w("  transitions (%d): %s"
          % (len(self.transitions), " ".join(self.transitions)))
        w("  controllable: %s"
          % (" ".join(self.controllable) if self.controllable else "-"))
        w("  initial: %s" % self.initial)
        w("")
        w("state space")
        w("  reachable states: %d" % self.reachable_count)
        w("  forbidden states (%d): %s"
          % (self.forbidden_count,
             " ".join(self.forbidden) if self.forbidden else "-"))
        w("  authorized states (%d): %s"
          % (self.authorized_count,
             " ".join(self.authorized) if self.authorized else "-"))
        w("  border states (%d): %s"
          % (self.border_count, " ".join(self.border) if self.border else "-"))
        w("")
        w("over-states")
        w("  minimal elements (%d): %s"
          % (len(self.minimal),
             " ".join(self.minimal) if self.minimal else "-"))
        w("")
        w("cover")
        w("  columns: %s"
          % (" ".join(self.cover_columns) if self.cover_columns else "-"))
        w("  candidate cover counts: %s"
          % (_vec(self.cover_counts) if self.cover_columns else "-"))
        w("  selected over-states (%d): %s"
          % (len(self.selected),
             " ".join(self.selected) if self.selected else "-"))
        w("  final cover counts: %s"
          % (_vec(self.final_counts) if self.cover_columns else "-"))
        w("  selection mode: %s" % self.selection_mode)
        w("")
        w("controller")
        if self.no_constraints:
            w("  no constraints needed: every reachable state is authorized")
        else:
            w("  constraints:")
            for c in self.constraints:
                w("    %s" % c)
            w("  weight rows:")
            for name, row in zip(self.control_places, self.weight_rows):
                w("    %s: %s" % (name, _vec(row)))
            w("  control incidence:")
            for name, row in zip(self.control_places, self.control_incidence):
                w("    %s: %s" % (name, _vec(row)))
            w("  control initial marking: %s" % _vec(self.control_initial))
            w("  bounds: %s" % _vec(self.bounds))
        if self.fallback_used:
            w("")
            w("fallback")
            w("  OVER-RESTRICTIVE controller: %d border state(s) had no "
              "usable over-state" % len(self.uncovered))
            w("  uncovered: %s" % " ".join(self.uncovered))
            for c in self.over_restrictive:
                w("  added full-state constraint: %s" % c)
        w("")
        w("verification")
        w("  closed-loop states: %d" % self.closed_loop.state_count)
        w("  place invariant holds: %s" % yn[self.closed_loop.invariant_ok])
        w("  admissibility violations: %d"
          % len(self.closed_loop.admissibility_violations))
        for v in self.closed_loop.admissibility_violations:
            w("    %s" % v)
        w("  isomorphic to authorized subgraph: %s"
          % yn[self.closed_loop.isomorphic])
        if self.closed_loop.missing_authorized:
            w("  missing authorized states: %s"
              % " ".join(self.closed_loop.missing_authorized))
        if self.closed_loop.extra_states:
            w("  unexpected states: %s"
              % " ".join(self.closed_loop.extra_states))
        for msg in self.closed_loop.edge_mismatches:
            w("  edge mismatch: %s" % msg)
        if self.closed_loop.max_control_marking:
            w("  max control marking: %s"
              % _vec(self.closed_loop.max_control_marking))
        for note in self.closed_loop.notes:
            w("  note: %s" % note)
        w("")
        w("environment")
        for key in sorted(self.environment):
            w("  %s: %s" % (key, self.environment[key]))
        w("")
        w("timings")
        for stage, seconds in self.timings:
            w("  %-12s %8.3f ms" % (stage, seconds * 1000.0))
        w("")
        w("canonical digest: %s" % self.digest())
        return "\n".join(out) + "\n"
