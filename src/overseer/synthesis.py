"""Control-place synthesis and closed-loop verification.

Each token-sum constraint becomes one control place whose incidence row
is the negated product of the constraint row with the plant incidence,
and whose initial marking is the constraint slack at m0.  That makes
constraint-sum plus control marking a place invariant of the closed
loop: the control place blocks exactly the firings that would push the
constraint over its bound.

The closed loop is explored on a composite representation
(plant bitmask, integer control markings): control places may carry up
to `bound` tokens, so the closed loop of a safe plant is in general a
bounded net, not a safe one.  When everything stays 0/1 the controlled
net can additionally be materialized as a plain safe net.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyConstraintSet,
    InitialMarkingViolation,
    NonBinaryController,
    StateBudgetExceeded,
    VerificationFailure,
)
from .net import DEFAULT_STATE_BUDGET, Marking, PetriNet, ReachabilityGraph
from .overstates import Constraint
from .partition import StatePartition


@dataclass(frozen=True)
class ConstraintMatrix:
    """Token-sum constraints in matrix form: one 0/1 row per constraint
    over the plant places, and the per-row bound."""

    weights: np.ndarray  # k x |P|, entries 0/1
    bounds: np.ndarray   # k

    @property
    def k(self) -> int:
        return self.weights.shape[0]


def build_constraint_matrix(constraints, n_places: int) -> ConstraintMatrix:
    constraints = list(constraints)
    if not constraints:
        raise EmptyConstraintSet("no constraints to synthesize from")
    weights = np.zeros((len(constraints), n_places), dtype=int)
    bounds = np.zeros(len(constraints), dtype=int)
    for i, c in enumerate(constraints):
        for p in c.support:
            if not 0 <= p < n_places:
                raise ValueError("constraint place index %d out of range" % p)
            weights[i, p] = 1
        bounds[i] = c.bound
    return ConstraintMatrix(weights=weights, bounds=bounds)


@dataclass(frozen=True)
class Controller:
    """Control places: incidence rows over the plant transitions, initial
    markings, and capacities (the constraint bounds)."""

    incidence: np.ndarray       # k x |T|
    initial: np.ndarray         # k
    bounds: np.ndarray          # k
    weights: np.ndarray         # k x |P|, the constraint rows
    place_names: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()

    @property
    def k(self) -> int:
        return self.incidence.shape[0]

    def is_binary(self) -> bool:
        """Representable with 0/1 arcs and a boolean initial marking."""
        return (
            bool(np.isin(self.incidence, (-1, 0, 1)).all())
            and bool(np.isin(self.initial, (0, 1)).all())
        )


def empty_controller(net: PetriNet) -> Controller:
    """No constraints, no control places: the closed loop is the plant."""
    return Controller(
        incidence=np.zeros((0, net.n_transitions), dtype=int),
        initial=np.zeros(0, dtype=int),
        bounds=np.zeros(0, dtype=int),
        weights=np.zeros((0, net.n_places), dtype=int),
        place_names=(),
        constraints=(),
    )


def _fresh_names(count: int, taken) -> tuple[str, ...]:
    names = []
    taken = set(taken)
    for i in range(1, count + 1):
        name = "Pc%d" % i
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return tuple(names)


def synthesize(net: PetriNet, cm: ConstraintMatrix,
               constraints=()) -> Controller:
    """Invariant-based controller: incidence = -(weights @ plant
    incidence), initial marking = bounds - weights @ m0."""
    if cm.weights.shape[1] != net.n_places:
        raise ValueError(
            "constraint matrix has %d columns, net has %d places"
            % (cm.weights.shape[1], net.n_places)
        )
    w_plant = net.incidence()
    incidence = -(cm.weights @ w_plant)
    m0_vec = np.array(net.m0.bits(), dtype=int)
    initial = cm.bounds - cm.weights @ m0_vec
    if (initial < 0).any():
        violated = [int(i) for i in np.flatnonzero(initial < 0)]
        raise InitialMarkingViolation(
            "initial marking violates constraint(s) %s; synthesis impossible"
            % ", ".join(str(i) for i in violated)
        )
    return Controller(
        incidence=incidence,
        initial=initial,
        bounds=cm.bounds.copy(),
        weights=cm.weights.copy(),
        place_names=_fresh_names(cm.k, net.places),
        constraints=tuple(constraints),
    )


def assemble_controlled_net(net: PetriNet, controller: Controller) -> PetriNet:
    """Plant net extended with the control places.

    Only possible when the controller is binary (0/1 arcs and initial
    marking); the composite verification below has no such limit.
    """
    if controller.k == 0:
        return net
    if not controller.is_binary():
        raise NonBinaryController(
            "controller needs arc weights or initial markings beyond 0/1 "
            "and cannot be expressed as a safe net"
        )
    places = net.places + controller.place_names
    n_plant = net.n_places
    pre_sets = []
    post_sets = []
    for t in range(net.n_transitions):
        pre = [p for p in range(n_plant) if (net.pre_masks[t] >> p) & 1]
        post = [p for p in range(n_plant) if (net.post_masks[t] >> p) & 1]
        for i in range(controller.k):
            entry = int(controller.incidence[i, t])
            if entry == -1:
                pre.append(n_plant + i)
            elif entry == 1:
                post.append(n_plant + i)
        pre_sets.append(pre)
        post_sets.append(post)
    m0_mask = net.m0.mask
    for i in range(controller.k):
        if int(controller.initial[i]):
            m0_mask |= 1 << (n_plant + i)
    return PetriNet(
        net.name + "_controlled",
        places,
        net.transitions,
        net.controllable,
        pre_sets,
        post_sets,
        Marking(len(places), m0_mask),
    )


@dataclass(frozen=True)
class AdmissibilityViolation:
    """A control place was the sole reason an uncontrollable transition
    was disabled: the supervisor would need authority it does not have."""

    control_place: int
    transition: int
    state: Marking

    def format(self, net: PetriNet, controller: Controller) -> str:
        return "%s alone disables uncontrollable %s at %s" % (
            controller.place_names[self.control_place],
            net.transitions[self.transition],
            net.format_marking(self.state),
        )


@dataclass
class ClosedLoopReport:
    """Outcome of rebuilding and checking the closed-loop state space."""

    state_count: int
    projections: list[Marking]
    control_markings: list[tuple[int, ...]]
    edges: list[tuple[int, int, int]]
    isomorphic: bool
    missing_authorized: list[Marking]
    extra_states: list[Marking]
    edge_mismatches: list[str]
    admissibility_violations: list[AdmissibilityViolation]
    invariant_ok: bool
    max_control_marking: tuple[int, ...]
    gated_transitions: list[int]
    notes: list[str] = field(default_factory=list)


def _control_columns(controller: Controller) -> list[tuple[int, ...]]:
    """Per plant transition, its effect on each control place, as Python
    ints."""
    return [tuple(col) for col in controller.incidence.T.tolist()]


def _bit_rows(masks, width: int) -> np.ndarray:
    """One 0/1 row of `width` columns per int mask (bit i = column i)."""
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    return bits.reshape(len(masks), nbytes * 8)[:, :width]


def _explore_closed_loop(net: PetriNet, controller: Controller, budget: int):
    """BFS over composite states (plant mask, control marking tuple).
    Same numbering discipline as the plant exploration."""
    cols = _control_columns(controller)
    pre_masks, post_masks = net.pre_masks, net.post_masks
    start = (net.m0.mask, tuple(int(v) for v in controller.initial))
    states = [start]
    seen = {start: 0}
    queue = deque((0,))
    edges = []
    while queue:
        sid = queue.popleft()
        mask, ctrl = states[sid]
        for t, col in enumerate(cols):
            if pre_masks[t] & ~mask:
                continue
            ctrl2 = tuple([c + d for c, d in zip(ctrl, col)])
            if ctrl2 and min(ctrl2) < 0:
                continue  # a control place blocks t
            mask2 = (mask & ~pre_masks[t]) | post_masks[t]
            nxt = (mask2, ctrl2)
            nid = seen.get(nxt)
            if nid is None:
                if len(states) >= budget:
                    raise StateBudgetExceeded(
                        "closed-loop state budget %d exhausted" % budget
                    )
                nid = len(states)
                seen[nxt] = nid
                states.append(nxt)
                queue.append(nid)
            edges.append((sid, t, nid))
    return states, edges


def verify_closed_loop(net: PetriNet, controller: Controller,
                       partition: StatePartition, rg: ReachabilityGraph,
                       budget: int = DEFAULT_STATE_BUDGET) -> ClosedLoopReport:
    """Rebuild the closed-loop state space and check it against the
    partition: projections (control places dropped) must be exactly the
    authorized states with matching enabled transitions, the
    constraint-sum invariant must hold everywhere, and no control place
    may ever be the sole disabler of an uncontrollable transition."""
    states, edges = _explore_closed_loop(net, controller, budget)
    n_plant = net.n_places
    k = controller.k
    weights = controller.weights
    bounds = controller.bounds

    projections = [Marking(n_plant, mask) for mask, _ in states]
    control_markings = [ctrl for _, ctrl in states]

    proj_masks = [m.mask for m in projections]
    if len(set(proj_masks)) != len(proj_masks):
        raise VerificationFailure(
            "two closed-loop states share a plant projection; the "
            "constraint invariant does not determine the control marking"
        )

    # constraint sum plus control marking equals the bound, on every state
    invariant_ok = True
    if k:
        bits = _bit_rows(proj_masks, n_plant)
        control = np.array(control_markings, dtype=np.int64)
        invariant_ok = bool((bits @ weights.T + control == bounds).all())

    authorized = {rg.states[s].mask for s in partition.m_a}
    reached = set(proj_masks)
    missing = [rg.states[s] for s in sorted(partition.m_a)
               if rg.states[s].mask not in reached]
    extra = [m for m in projections if m.mask not in authorized]

    # expected behavior at an authorized plant state: exactly the plant
    # firings whose successor is still authorized
    edge_mismatches = []
    closed_enabled: list[set[int]] = [set() for _ in states]
    for s, t, _ in edges:
        closed_enabled[s].add(t)
    for sid, (mask, _) in enumerate(states):
        pid = rg.state_id(projections[sid])
        if pid is None or pid not in partition.m_a:
            continue
        expected = {
            t for t, dst in rg.succ[pid] if dst in partition.m_a
        }
        got = closed_enabled[sid]
        for t in sorted(expected - got):
            edge_mismatches.append(
                "%s misses %s at %s" % (
                    net.name, net.transitions[t],
                    net.format_marking(projections[sid]),
                )
            )
        for t in sorted(got - expected):
            edge_mismatches.append(
                "%s allows %s at %s" % (
                    net.name, net.transitions[t],
                    net.format_marking(projections[sid]),
                )
            )

    violations = []
    cols = _control_columns(controller)
    uncontrollable = [t for t in range(net.n_transitions)
                      if not net.controllable[t]]
    for sid, (mask, ctrl) in enumerate(states):
        for t in uncontrollable:
            if net.pre_masks[t] & ~mask:
                continue  # a plant place disables it too
            for i, (c, d) in enumerate(zip(ctrl, cols[t])):
                if c + d < 0:
                    violations.append(
                        AdmissibilityViolation(
                            control_place=i,
                            transition=t,
                            state=projections[sid],
                        )
                    )
                    break

    isomorphic = (
        not missing
        and not extra
        and not edge_mismatches
        and invariant_ok
    )

    gated = [t for t, col in enumerate(cols) if min(col, default=0) < 0]
    notes = []
    for t in gated:
        feeders = [controller.place_names[i] for i, d in enumerate(cols[t])
                   if d < 0]
        kind = "controllable" if net.controllable[t] else "uncontrollable"
        notes.append(
            "%s transition %s is now gated by %s"
            % (kind, net.transitions[t], ", ".join(feeders))
        )

    max_ctrl = tuple(
        max((ctrl[i] for ctrl in control_markings), default=0) for i in range(k)
    )

    return ClosedLoopReport(
        state_count=len(states),
        projections=projections,
        control_markings=control_markings,
        edges=edges,
        isomorphic=isomorphic,
        missing_authorized=missing,
        extra_states=extra,
        edge_mismatches=edge_mismatches,
        admissibility_violations=violations,
        invariant_ok=invariant_ok,
        max_control_marking=max_ctrl,
        gated_transitions=gated,
        notes=notes,
    )
