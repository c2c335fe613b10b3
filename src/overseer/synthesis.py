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

import numpy as np

from .errors import InitialMarkingViolation, NonBinaryController
from .net import Marking, PetriNet, ReachabilityGraph, bit_rows, support
from .partition import StatePartition


def build_constraint_matrix(overstates, n_places: int, exact=()
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The constraint rows (weights, bounds) of over-states and of exact
    states, all given as int masks.  Row i of an over-state is its 0/1
    support with bound its size minus one, so a marking violates it
    exactly when it covers the over-state.  After those rows, each exact
    state u adds the signed row `2 bits(u) - 1` with bound |u| - 1: a
    safe marking violates it only when it is u, the empty marking too
    (`-m(A) - m(B) <= -1`).  No states give no rows."""
    overstates, exact = list(overstates), list(exact)
    if 0 in overstates:
        raise ValueError("an over-state is empty")
    for b in overstates + exact:
        if b >> n_places:  # a negative b too
            raise ValueError("state %#x names a place beyond the net's %d"
                             % (b, n_places))
    weights = bit_rows(overstates + exact, n_places).astype(int)
    bounds = weights.sum(axis=1) - 1
    weights[len(overstates):] = 2 * weights[len(overstates):] - 1
    return weights, bounds


def format_constraint(places, row, bound) -> str:
    """A constraint row as text: `m(P4) + m(P6) <= 1`, or with signed
    and weighted terms `-m(Q) + m(P1) - 2 m(P2) <= 0`."""
    text = ""
    for p, w in zip(places, row):
        if not w:
            continue
        term = "m(%s)" % p if abs(w) == 1 else "%d m(%s)" % (abs(w), p)
        if text:
            text += (" - " if w < 0 else " + ") + term
        else:
            text = "-" + term if w < 0 else term
    return "%s <= %d" % (text, bound)


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
    initial marking = bounds - weights @ m0.  Empty weights are zero
    rows; bounds hold one entry per row."""
    weights = np.array(weights, dtype=int)
    bounds = np.array(bounds, dtype=int)
    if weights.shape == (0,):
        weights = weights.reshape(0, net.n_places)
    if weights.ndim != 2 or weights.shape[1] != net.n_places:
        raise ValueError("constraint matrix of shape %s; the net has %d "
                         "places" % (weights.shape, net.n_places))
    if bounds.shape != (len(weights),):
        raise ValueError("%d constraint rows but bounds of shape %s"
                         % (len(weights), bounds.shape))
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
    marking); the verification below has no such limit.  The result is
    a safe net only when no control place holds more than one token
    over the closed loop (`ClosedLoopReport.max_control_marking`),
    which the CLI checks before it writes `--out`.
    """
    if controller.k == 0:
        return net
    if not controller.is_binary():
        raise NonBinaryController(
            "controller needs arc weights or initial markings beyond 0/1 "
            "and cannot be expressed as a safe net"
        )
    n = net.n_places
    places = net.places + controller.place_names

    def control_mask(flags) -> int:
        # control place i is place n + i of the controlled net
        return sum(1 << (n + i) for i, f in enumerate(flags.tolist()) if f)

    columns = controller.incidence.T
    return PetriNet(
        net.name + "_controlled",
        places,
        net.transitions,
        net.controllable,
        [support(m | control_mask(col < 0))
         for m, col in zip(net.pre_masks, columns)],
        [support(m | control_mask(col > 0))
         for m, col in zip(net.post_masks, columns)],
        Marking(len(places),
                net.m0.mask | control_mask(controller.initial > 0)),
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

    Closed-loop state i is plant state `states[i]` (an id into the
    plant's graph) with control marking `control_markings[i]`; `edges`
    is an (E, 3) array of (source, transition, target) rows in
    closed-loop state ids.  `missing_authorized` and `extra_states` are
    marking masks; the first is a diagnostic and decides nothing.
    """

    states: np.ndarray            # intp, in closed-loop order
    control_markings: np.ndarray  # len(states) x k, a narrow int type
    edges: np.ndarray             # E x 3
    missing_authorized: list[int]
    extra_states: list[int]
    edge_mismatches: list[str]
    admissibility_violations: list[AdmissibilityViolation]
    invariant_ok: bool
    notes: list[str] = field(default_factory=list)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def max_control_marking(self) -> tuple[int, ...]:
        """Per control place, its most tokens over the closed loop."""
        if not self.control_markings.shape[1]:
            return ()
        return tuple(self.control_markings.max(axis=0).tolist())

    @property
    def sound(self) -> bool:
        """The invariant holds, and no forbidden state is reached and no
        uncontrollable firing blocked."""
        return (self.invariant_ok and not self.extra_states
                and not self.admissibility_violations)

    @property
    def isomorphic(self) -> bool:
        """Sound, and each state reached allows exactly its firings into
        authorized states: the loop is the authorized states m0 reaches
        through authorized states, the most any supervisor can keep."""
        return self.sound and not self.edge_mismatches


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


def verify_closed_loop(controller: Controller, partition: StatePartition,
                       rg: ReachabilityGraph) -> ClosedLoopReport:
    """Check the closed loop of `rg.net` under `controller` against the
    partition.

    The controller comes from place invariants, so the control marking
    at plant marking m is `bounds - weights @ m`, and the control places
    admit exactly the plant states where it is nonnegative.  The closed
    loop is the part of the plant graph that m0 reaches through
    admitted states.  The invariant must really hold: the control
    marking at m0 must be `controller.initial`, and every edge leaving
    a closed-loop state, blocked ones included, must change it by the
    control incidence (so a wrong entry fails the check even on a
    transition the closed loop never fires).  Then it lists the states
    reached that are not authorized, the firings at authorized states
    allowed into a forbidden state or blocked into an authorized one,
    the uncontrollable firings a control place alone blocks, and the
    authorized states not reached."""
    net = rg.net
    n = rg.n_states
    if not controller.k and len(partition.m_a) == n:
        # no control place and every plant state authorized: the closed
        # loop is the plant, exactly the authorized behavior, and there
        # is nothing to list
        return ClosedLoopReport(
            states=np.arange(n),
            control_markings=np.zeros((n, 0), dtype=int),
            edges=rg.edges,
            missing_authorized=[],
            extra_states=[],
            edge_mismatches=[],
            admissibility_violations=[],
            invariant_ok=True,
        )
    masks = rg.masks
    # control markings, and their sums with an incidence entry, stay
    # within `limit` of zero, so the (states x k) and (leaving edges x k)
    # arrays take the narrowest integer type that holds it (on k rows,
    # plain lists beat numpy reductions).  The 0/1 bits read as int8 are
    # no copy; the product widens them only to `dtype`.
    limit = (max(map(abs, controller.bounds.tolist()), default=0)
             + max((sum(map(abs, row))
                    for row in controller.weights.tolist()), default=0)
             + max(map(abs, controller.incidence.ravel().tolist()),
                   default=0))
    dtype = np.min_scalar_type(-limit - 1)
    weights = controller.weights.T.astype(dtype)
    incidence = controller.incidence.T.astype(dtype)
    control = (controller.bounds.astype(dtype)
               - rg.bits.view(np.int8) @ weights)
    admitted = (control >= 0).all(axis=1)
    order, leaving = _walk(rg.offsets, rg.dst, admitted)
    closed_id = np.full(n, -1, dtype=np.intp)
    closed_id[order] = np.arange(len(order))
    # src, tr and dst: the edges leaving closed-loop states, grouped by
    # source in closed-loop order; allowed: whether each enters an
    # admitted state
    src, tr, dst = rg.src[leaving], rg.tr[leaving], rg.dst[leaving]
    allowed = admitted[dst]
    edges = np.array([closed_id[src[allowed]], tr[allowed],
                      closed_id[dst[allowed]]]).T
    # the control marking after each leaving edge must be its target's
    invariant_ok = (
        control[0].tolist() == controller.initial.tolist()
        and bool((control[src] + incidence[tr] == control[dst]).all()))
    missing = rg.masks_of(partition.m_a[closed_id[partition.m_a] < 0])
    # a blocked uncontrollable edge: the first control place negative
    # at its target is the sole reason it cannot fire
    blocked = ~allowed
    violations = [
        AdmissibilityViolation(
            control_place=next(i for i, c in enumerate(row) if c < 0),
            transition=t, state=masks[s])
        for t, s, row in zip(tr[blocked].tolist(), src[blocked].tolist(),
                             control[dst[blocked]].tolist())
        if not net.controllable[t]
    ]

    authorized = np.zeros(n, dtype=bool)
    authorized[partition.m_a] = True
    extra = rg.masks_of(order[~authorized[order]])

    # at an authorized plant state exactly the firings whose successor
    # is still authorized must be allowed.  `wrong` is grouped by source
    # in closed-loop order; one stable sort puts, per closed-loop state,
    # the missed firings before the unexpected ones, each in edge order
    into = authorized[dst]
    wrong = (authorized[src] & (allowed != into)).nonzero()[0]
    if len(wrong):
        wrong = wrong[np.lexsort((~into[wrong], closed_id[src[wrong]]))]
    edge_mismatches = [
        "%s %s %s at %s" % (net.name, "misses" if missed else "allows",
                            net.transitions[t], net.format_mask(masks[s]))
        for s, missed, t in zip(src[wrong].tolist(), into[wrong].tolist(),
                                tr[wrong].tolist())
    ]

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

    return ClosedLoopReport(
        states=order,
        control_markings=control[order],
        edges=edges,
        missing_authorized=missing,
        extra_states=extra,
        edge_mismatches=edge_mismatches,
        admissibility_violations=violations,
        invariant_ok=invariant_ok,
        notes=notes,
    )
