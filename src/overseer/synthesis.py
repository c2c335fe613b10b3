"""Control-place synthesis and closed-loop verification.

Each token-sum constraint becomes one control place whose incidence row
is the negated product of the constraint row with the plant incidence,
and whose initial marking is the constraint slack at m0.  That makes
constraint-sum plus control marking a place invariant of the closed
loop: the control place blocks exactly the firings that would push the
constraint over its bound.

Because every control marking is fixed by the plant marking
(`bounds - weights @ m`), the control places admit a plant state or do
not, whatever the path to it, and the closed loop is a subgraph of the
plant's reachability graph: verification computes the control marking
of every plant state in one product and walks the plant graph into the
admitted states, instead of exploring a composite state space.
Control places may carry up to `bound` tokens, so the closed loop of a
safe plant is in general a bounded net, not a safe one.  When everything
stays 0/1 the controlled net can additionally be materialized as a plain
safe net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyConstraintSet,
    InitialMarkingViolation,
    NonBinaryController,
)
from .net import Marking, PetriNet, ReachabilityGraph, bit_rows
from .partition import StatePartition


def build_constraint_matrix(overstates, n_places: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The constraint rows (weights, bounds) of over-states given as int
    masks: row i is the 0/1 support of over-state i and bound i its size
    minus one, so a marking violates row i exactly when it covers
    over-state i."""
    overstates = list(overstates)
    if not overstates:
        raise EmptyConstraintSet("no constraints to synthesize from")
    for b in overstates:
        if b <= 0 or b >> n_places:
            raise ValueError("over-state %#x is empty or names a place "
                             "beyond the net's %d" % (b, n_places))
    weights = bit_rows(overstates, n_places).astype(int)
    return weights, weights.sum(axis=1) - 1


def format_constraint(places, row, bound) -> str:
    """A 0/1 constraint row as text, e.g. `m(P4) + m(P6) <= 1`."""
    terms = " + ".join("m(%s)" % p for p, w in zip(places, row) if w)
    return "%s <= %d" % (terms, bound)


@dataclass(frozen=True)
class Controller:
    """Control places: incidence rows over the plant transitions, initial
    markings, and capacities (the constraint bounds)."""

    incidence: np.ndarray       # k x |T|
    initial: np.ndarray         # k
    bounds: np.ndarray          # k
    weights: np.ndarray         # k x |P|, the constraint rows
    place_names: tuple[str, ...]

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


def synthesize(net: PetriNet, weights, bounds) -> Controller:
    """Invariant-based controller for the constraints weights @ m <=
    bounds (any integer rows): incidence = -(weights @ plant incidence),
    initial marking = bounds - weights @ m0."""
    weights = np.array(weights, dtype=int)
    bounds = np.array(bounds, dtype=int)
    if weights.shape[1] != net.n_places:
        raise ValueError(
            "constraint matrix has %d columns, net has %d places"
            % (weights.shape[1], net.n_places)
        )
    incidence = -(weights @ net.incidence())
    initial = bounds - weights @ bit_rows([net.m0.mask], net.n_places)[0]
    if (initial < 0).any():
        violated = [int(i) for i in np.flatnonzero(initial < 0)]
        raise InitialMarkingViolation(
            "initial marking violates constraint(s) %s; synthesis impossible"
            % ", ".join(str(i) for i in violated)
        )
    return Controller(
        incidence=incidence,
        initial=initial,
        bounds=bounds,
        weights=weights,
        place_names=_fresh_names(len(weights), net.places),
    )


def assemble_controlled_net(net: PetriNet, controller: Controller) -> PetriNet:
    """Plant net extended with the control places.

    Only possible when the controller is binary (0/1 arcs and initial
    marking); the verification below has no such limit.
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
    was disabled at plant marking `state` (an int mask): the supervisor
    would need authority it does not have."""

    control_place: int
    transition: int
    state: int

    def format(self, net: PetriNet, controller: Controller) -> str:
        return "%s alone disables uncontrollable %s at %s" % (
            controller.place_names[self.control_place],
            net.transitions[self.transition],
            net.format_mask(self.state),
        )


@dataclass
class ClosedLoopReport:
    """Outcome of checking the closed loop on the plant's state graph.

    Closed-loop state i is plant marking `projections[i]` (an int mask)
    with control marking `control_markings[i]`; `edges` is an (E, 3)
    array of (source, transition, target) rows in closed-loop state ids.
    `missing_authorized` and `extra_states` are marking masks too.
    """

    state_count: int
    projections: list[int]
    control_markings: np.ndarray  # state_count x k, a narrow int type
    edges: np.ndarray             # E x 3
    isomorphic: bool
    missing_authorized: list[int]
    extra_states: list[int]
    edge_mismatches: list[str]
    admissibility_violations: list[AdmissibilityViolation]
    invariant_ok: bool
    max_control_marking: tuple[int, ...]
    notes: list[str] = field(default_factory=list)


def _walk(offsets, dst, admitted):
    """Breadth-first search from state 0 over the edges into admitted
    states, taken in edge order, so states are numbered the way the
    plant's own search numbers them.  Returns the states reached, in
    discovery order, and every edge leaving them, grouped by source in
    that order.  Reads the arrays at the states reached only, which may
    be few of the plant's."""
    order = [0]
    seen = {0}
    leaving = []
    for s in order:
        lo, hi = offsets[s:s + 2].tolist()
        leaving.extend(range(lo, hi))
        targets = dst[lo:hi]
        for d, ok in zip(targets.tolist(), admitted[targets].tolist()):
            if ok and d not in seen:
                seen.add(d)
                order.append(d)
    return np.array(order, dtype=np.intp), np.array(leaving, dtype=np.intp)


def verify_closed_loop(net: PetriNet, controller: Controller,
                       partition: StatePartition,
                       rg: ReachabilityGraph) -> ClosedLoopReport:
    """Check the closed loop against the partition.

    The controller comes from place invariants, so the control marking
    at plant marking m is `bounds - weights @ m`, and the control places
    admit exactly the plant states where it is nonnegative.  The closed
    loop is the part of the plant graph that m0 reaches through
    admitted states.  The invariant must really hold: the control
    marking at m0 must be `controller.initial`, and every edge leaving
    a closed-loop state, blocked ones included, must change it by the
    control incidence (so a wrong entry fails the check even on a
    transition the closed loop never fires).  The projections (control
    places dropped) must be exactly the authorized states with matching
    enabled transitions, and no control place may ever be the sole
    disabler of an uncontrollable transition."""
    n = rg.n_states
    k = controller.k
    masks = rg.masks
    blocking = False
    if k:
        # control markings, and their sums with an incidence entry, stay
        # within `limit` of zero, so the (states x k) and (leaving edges
        # x k) arrays take the narrowest integer type that holds it (on
        # k rows, plain lists beat numpy reductions).  The 0/1 bits read
        # as int8 are no copy; the product widens them only to `dtype`.
        limit = (max(map(abs, controller.bounds.tolist()))
                 + max(sum(map(abs, row))
                       for row in controller.weights.tolist())
                 + max(map(abs, controller.incidence.ravel().tolist()),
                       default=0))
        dtype = np.min_scalar_type(-limit - 1)
        weights = controller.weights.T.astype(dtype)
        incidence = controller.incidence.T.astype(dtype)
        control = (controller.bounds.astype(dtype)
                   - rg.bits.view(np.int8) @ weights)
        admitted = (control >= 0).all(axis=1)
        blocking = not admitted.all()
    else:
        control = np.zeros((n, 0), dtype=int)

    # src, tr and dst: the edges leaving closed-loop states, grouped by
    # source in closed-loop order; allowed: whether each enters an
    # admitted state
    if blocking:
        order, leaving = _walk(rg.offsets, rg.dst, admitted)
        closed_id = np.empty(n, dtype=np.intp)
        closed_id.fill(-1)
        closed_id[order] = np.arange(len(order))
        src, tr, dst = rg.src[leaving], rg.tr[leaving], rg.dst[leaving]
        allowed = admitted[dst]
        edges = np.array([closed_id[src[allowed]], tr[allowed],
                          closed_id[dst[allowed]]]).T
    else:
        # nothing is blocked: the closed loop is the plant graph
        order = np.arange(n)
        src, tr, dst = rg.src, rg.tr, rg.dst
        allowed = True
        edges = rg.edges

    # the control marking after each leaving edge must be its target's
    invariant_ok = not k or (
        control[0].tolist() == controller.initial.tolist()
        and bool((control[src] + incidence[tr] == control[dst]).all())
    )

    missing, extra, edge_mismatches, violations = [], [], [], []
    # when nothing is blocked and every plant state is authorized, the
    # closed loop is exactly the authorized behavior: nothing to list
    if blocking or len(partition.m_a) < n:
        authorized = np.zeros(n, dtype=bool)
        authorized[partition.m_a] = True
        if blocking:
            missing = [masks[s] for s in
                       (authorized & (closed_id < 0)).nonzero()[0].tolist()]
        extra = [masks[s] for s in order[~authorized[order]].tolist()]

        # at an authorized plant state exactly the firings whose
        # successor is still authorized must be allowed; per closed-loop
        # state, the missed firings come before the unexpected ones
        into = authorized[dst]
        wrong = (authorized[src] & (allowed != into)).nonzero()[0]
        rows = zip(src[wrong].tolist(), into[wrong].tolist(),
                   tr[wrong].tolist())
        for _, group in groupby(rows, key=itemgetter(0)):
            for s, missed, t in sorted(group, key=itemgetter(1),
                                       reverse=True):
                edge_mismatches.append("%s %s %s at %s" % (
                    net.name, "misses" if missed else "allows",
                    net.transitions[t], net.format_mask(masks[s]),
                ))

    if blocking:
        # a blocked uncontrollable edge: the first control place
        # negative at its target is the sole reason it cannot fire
        blocked = ~allowed
        for t, s, row in zip(tr[blocked].tolist(), src[blocked].tolist(),
                             control[dst[blocked]].tolist()):
            if not net.controllable[t]:
                violations.append(AdmissibilityViolation(
                    control_place=next(i for i, c in enumerate(row) if c < 0),
                    transition=t, state=masks[s],
                ))

    isomorphic = invariant_ok and not (missing or extra or edge_mismatches)

    notes = []
    for t, col in enumerate(controller.incidence.T.tolist()):
        feeders = [name for name, d in zip(controller.place_names, col)
                   if d < 0]
        if feeders:
            kind = "controllable" if net.controllable[t] else "uncontrollable"
            notes.append(
                "%s transition %s is now gated by %s"
                % (kind, net.transitions[t], ", ".join(feeders))
            )

    control_markings = control[order]
    max_ctrl = tuple(control_markings.max(axis=0).tolist()) if k else ()

    return ClosedLoopReport(
        state_count=len(order),
        projections=[masks[s] for s in order.tolist()],
        control_markings=control_markings,
        edges=edges,
        isomorphic=isomorphic,
        missing_authorized=missing,
        extra_states=extra,
        edge_mismatches=edge_mismatches,
        admissibility_violations=violations,
        invariant_ok=invariant_ok,
        max_control_marking=max_ctrl,
        notes=notes,
    )
