"""Spans around the benchmark's calls into each overseer module.

`Tracer.install` replaces the functions that `overseer.cli` and
`overseer.pipeline` call with wrappers that record a span, plus a few
counts taken from the arguments and the return value, and `restore`
puts the originals back.  A function the program no longer calls
through that name is left alone, and the metrics built from it read as
absent.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import overseer.cli
import overseer.pipeline
import overseer.report


def _table_counts(args, tbl):
    return {"rows": len(tbl.rows), "cols": len(tbl.cols)}


# (module or class, attribute, span name, counts taken from (args, result))
TARGETS = [
    (overseer.cli, "parse_net_file", "pnet.parse",
     lambda args, doc: {"input_bytes": os.path.getsize(args[0])}),
    (overseer.cli, "run_pipeline", "pipeline.run", None),
    (overseer.pipeline, "build_reachability_graph", "net.reach",
     lambda args, rg: {"states": rg.n_states, "edges": len(rg.edges)}),
    (overseer.pipeline, "partition_states", "partition.partition",
     lambda args, p: {"forbidden": len(p.m_f), "authorized": len(p.m_a),
                      "border": len(p.m_b)}),
    (overseer.pipeline, "overstate_union", "overstates.union",
     lambda args, cand: {"candidates": len(cand)}),
    (overseer.pipeline, "prune_authorized", "overstates.prune",
     lambda args, kept: {"survivors": len(kept)}),
    (overseer.pipeline, "minimal_elements", "overstates.minimal",
     lambda args, minimal: {"minimal": len(minimal)}),
    (overseer.pipeline, "build_cover_table", "cover.build", _table_counts),
    (overseer.pipeline, "select_final_cover", "cover.select",
     lambda args, tbl: {"selected": sum(tbl.selected)}),
    (overseer.pipeline, "check_final_coverage", "cover.check", None),
    (overseer.pipeline, "build_constraint_matrix", "synthesis.matrix", None),
    (overseer.pipeline, "synthesize", "synthesis.synthesize",
     lambda args, ctrl: {"control_places": ctrl.k}),
    (overseer.pipeline, "empty_controller", "synthesis.empty",
     lambda args, ctrl: {"control_places": ctrl.k}),
    (overseer.pipeline, "verify_closed_loop", "synthesis.verify",
     lambda args, closed: {"closed_states": closed.state_count,
                           "closed_edges": len(closed.edges)}),
    (overseer.report.SynthesisReport, "render_text", "report.render_text",
     lambda args, text: {"text_bytes": len(text.encode("utf-8"))}),
    (overseer.report.SynthesisReport, "render_json", "report.render_json",
     lambda args, text: {"json_bytes": len(text.encode("utf-8"))}),
]


@dataclass(slots=True)
class Span:
    net: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.net = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(self.net, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            # counted after the span closes, so the layer's own time
            # excludes it; the caller's self time absorbs it
            if count is not None:
                s.counts = count(args, result)
            return result
        return traced

    def install(self):
        for owner, attr, name, count in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))
            self.wrapped.add(name)

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus time spent in child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.seconds - child[s.id]
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
        """Per span name: total seconds, and summed counts."""
        seconds: dict[str, float] = {}
        counts: dict[str, dict[str, int]] = {}
        for s in self.spans:
            seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
            bucket = counts.setdefault(s.name, {})
            for key, value in s.counts.items():
                bucket[key] = bucket.get(key, 0) + value
        return seconds, counts

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_json(self) -> dict:
        """Spans as rows under a header, to keep the file small."""
        return {
            "fields": ["net", "id", "parent", "name", "start", "end",
                       "counts", "error"],
            "spans": [[s.net, s.id, s.parent, s.name, s.start, s.end,
                       s.counts, s.error] for s in self.spans],
        }
