"""End-to-end synthesis pipeline.

Stages, one `with _Stage(...)` block each: reachability graph, state
partition, minimal over-states, cover selection, controller synthesis
and closed-loop verification; `report.build_report` then turns their
results into the report.  States cross the stage boundaries as int
masks.  Any stage error is re-raised as a StageFailure naming the
stage; the original exception rides along as the cause, and its exit
code with it.
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
from .report import SynthesisReport, build_report
from .synthesis import (
    ClosedLoopReport,
    Controller,
    build_constraint_matrix,
    empty_controller,
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


class _Stage:
    """One stage as a `with` block: on a clean exit it appends (name,
    wall seconds) to `timings`; an OverseerError from inside leaves as a
    StageFailure naming the stage."""

    __slots__ = ("timings", "name", "t0")

    def __init__(self, timings: list, name: str):
        self.timings = timings
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, kind, exc, tb):
        if kind is None:
            self.timings.append((self.name, time.perf_counter() - self.t0))
        elif issubclass(kind, OverseerError):
            raise StageFailure(self.name, exc) from exc


def run_pipeline(doc: NetDocument, state_budget: int = DEFAULT_STATE_BUDGET,
                 fallback: bool = False) -> PipelineResult:
    net = doc.net
    timings: list[tuple[str, float]] = []

    with _Stage(timings, "reach"):
        rg = build_reachability_graph(net, budget=state_budget)
    with _Stage(timings, "partition"):
        partition = partition_states(rg, doc.spec)

    table: CoverTable | None = None
    if len(partition.m_f):
        border = rg.masks_of(partition.m_b)
        authorized = rg.masks_of(partition.m_a)
        with _Stage(timings, "over-states"):
            cand = overstate_union(border, authorized, budget=state_budget,
                                   blocks=net.components)
            # the union is already an antichain that no authorized state
            # covers: a minimal transversal of one border state holds
            # no over-state of another, or it would not be minimal.  So
            # the pruning and the antichain below keep every candidate.
            kept = prune_authorized(cand, authorized)
            if len(kept) != len(cand):
                raise VerificationFailure(
                    "an over-state lies inside an authorized state"
                )
            minimal = minimal_elements(kept)
        with _Stage(timings, "cover"):
            table = build_cover_table(minimal, border)
            uncovered = table.uncovered
            if uncovered and not fallback:
                raise UncoverableState(
                    "%d border state(s) covered by no over-state"
                    % len(uncovered), uncovered=uncovered,
                )
            select_final_cover(table)
            if not check_final_coverage(table):
                raise VerificationFailure(
                    "selected over-states leave a border state uncovered"
                )
        with _Stage(timings, "synthesize"):
            weights, bounds = build_constraint_matrix(
                table.selected_rows(), net.n_places, exact=uncovered)
            controller = synthesize(net, weights, bounds)
    else:
        with _Stage(timings, "synthesize"):
            controller = empty_controller(net)

    with _Stage(timings, "verify"):
        closed = verify_closed_loop(controller, partition, rg)

    return PipelineResult(
        doc=doc,
        rg=rg,
        partition=partition,
        table=table,
        controller=controller,
        closed=closed,
        report=build_report(net, rg, partition, table, controller, closed,
                            timings),
    )
