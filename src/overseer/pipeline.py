"""End-to-end synthesis pipeline.

Stages: reachability graph, state partition, minimal over-states,
cover selection, controller synthesis, closed-loop verification, report
assembly.  States cross the stage boundaries as int masks.  Any stage
error is re-raised as a StageFailure naming the stage; the original
exception rides along as the cause, and its exit code with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cover import (
    CoverTable,
    build_cover_table,
    check_final_coverage,
    select_final_cover,
)
from .errors import OverseerError, StageFailure, UncoverableState, VerificationFailure
from .net import (
    DEFAULT_STATE_BUDGET,
    ReachabilityGraph,
    build_reachability_graph,
)
from .overstates import (
    minimal_elements,
    overstate_union,
    prune_authorized,
)
from .partition import StatePartition, partition_states
from .pnet import NetDocument
from .report import SynthesisReport
from .synthesis import (
    ClosedLoopReport,
    Controller,
    build_constraint_matrix,
    empty_controller,
    format_constraint,
    synthesize,
    verify_closed_loop,
)


@dataclass
class PipelineResult:
    doc: NetDocument
    rg: ReachabilityGraph
    partition: StatePartition
    table: CoverTable | None
    controller: Controller
    closed: ClosedLoopReport
    report: SynthesisReport


class _Stages:
    """Tiny timing helper; keeps the per-stage wall clock for the report."""

    def __init__(self):
        self.timings: list[tuple[str, float]] = []

    def run(self, name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except OverseerError as exc:
            raise StageFailure(name, exc) from exc
        self.timings.append((name, time.perf_counter() - t0))
        return result


def run_pipeline(doc: NetDocument, state_budget: int = DEFAULT_STATE_BUDGET,
                 fallback: bool = False) -> PipelineResult:
    net = doc.net
    stages = _Stages()

    rg = stages.run(
        "reach",
        lambda: build_reachability_graph(net, budget=state_budget),
    )
    partition = stages.run(
        "partition", lambda: partition_states(rg, doc.spec)
    )

    border = rg.masks_of(partition.m_b)

    table: CoverTable | None = None
    if len(partition.m_f):
        authorized = rg.masks_of(partition.m_a)

        def _overstate_stage():
            cand = overstate_union(border, authorized,
                                   budget=state_budget)
            # the union is already an antichain that no authorized state
            # covers: a minimal transversal of one border state holds
            # no over-state of another, or it would not be minimal.  So
            # the pruning and the antichain below keep every candidate.
            kept = prune_authorized(cand, authorized)
            if len(kept) != len(cand):
                raise VerificationFailure(
                    "an over-state lies inside an authorized state"
                )
            return minimal_elements(kept)

        minimal = stages.run("over-states", _overstate_stage)

        def _cover_stage():
            tbl = build_cover_table(minimal, border)
            uncovered = tbl.uncovered
            if uncovered and not fallback:
                raise UncoverableState(
                    "%d border state(s) covered by no over-state"
                    % len(uncovered), uncovered=uncovered,
                )
            select_final_cover(tbl)
            if not check_final_coverage(tbl):
                raise VerificationFailure(
                    "selected over-states leave a border state uncovered"
                )
            return tbl

        table = stages.run("cover", _cover_stage)

        def _synth_stage():
            weights, bounds = build_constraint_matrix(
                table.selected_rows(), net.n_places, exact=table.uncovered)
            return synthesize(net, weights, bounds)

        controller = stages.run("synthesize", _synth_stage)
    else:
        controller = stages.run(
            "synthesize", lambda: empty_controller(net)
        )

    closed = stages.run(
        "verify",
        lambda: verify_closed_loop(controller, partition, rg),
    )

    report = _assemble_report(
        doc, rg, partition, border, table, controller, closed, stages.timings,
    )
    return PipelineResult(
        doc=doc,
        rg=rg,
        partition=partition,
        table=table,
        controller=controller,
        closed=closed,
        report=report,
    )


def _assemble_report(doc, rg, partition, border, table, controller, closed,
                     timings) -> SynthesisReport:
    net = doc.net
    fmt = net.format_masks
    if table is None:
        minimal, counts, final_counts, chosen, uncovered = [], [], [], [], []
    else:
        # the cover table's rows are the minimal over-states; a final
        # count of 0 is left only at an uncovered column, which its own
        # exact row covers, and no other
        minimal, counts = table.rows, list(table.counts)
        final_counts = [c or 1 for c in table.final_counts()]
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
            "authorized": fmt(rg.masks_of(partition.m_a)),
            "forbidden": fmt(rg.masks_of(partition.m_f)),
            "border": fmt(border),
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
