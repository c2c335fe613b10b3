"""Splitting the reachable set into authorized, forbidden, and border states.

The forbidden set starts from a user-supplied bad-state specification
(predicate, explicit markings, deadlocks) and is closed backwards under
uncontrollable transitions: a state that can drift into the forbidden
set without the supervisor's consent is itself forbidden.  The border
states are the forbidden states a supervisor can actually refuse to
enter: targets of controllable firings from authorized states.

A state set is a sorted `np.intp` id array wherever it leaves this
module, and a bool mask over the states inside it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ForbiddenInitialMarking, OverseerWarning, PnetError
from .net import Marking, ReachabilityGraph
from .predicate import evaluate_predicate, parse_predicate


@dataclass(frozen=True)
class BadStateSpec:
    """Which reachable states are primally bad.

    At least one source must be present; `expr` is a boolean place
    predicate, `explicit` a list of full markings, and
    `include_deadlocks` adds every state without a successor.  `tree`
    is `expr` parsed, when the spec is built: a syntax error in `expr`
    raises PnetSyntaxError there.  Its place names are checked against
    a net only when the partition evaluates it.
    """

    expr: str | None = None
    explicit: tuple[Marking, ...] = ()
    include_deadlocks: bool = False
    tree: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.expr is None and not self.explicit and not self.include_deadlocks:
            raise ValueError(
                "bad-state specification needs a predicate, explicit states, "
                "or the deadlock flag"
            )
        object.__setattr__(self, "explicit", tuple(self.explicit))
        object.__setattr__(self, "tree", None if self.expr is None
                           else parse_predicate(self.expr))


@dataclass(frozen=True, eq=False)
class StatePartition:
    """State sets over one reachability graph, each a sorted id array:
    forbidden, authorized (the complement), and border forbidden."""

    m_f: np.ndarray
    m_a: np.ndarray
    m_b: np.ndarray


def deadlocks(rg: ReachabilityGraph) -> np.ndarray:
    """States with no outgoing edge."""
    return (rg.offsets[1:] == rg.offsets[:-1]).nonzero()[0]


def _primal_mask(rg: ReachabilityGraph, spec: BadStateSpec) -> np.ndarray:
    """Per state, whether it matches the forbidden-state description,
    before any closure."""
    if spec.tree is not None:
        bad = evaluate_predicate(spec.tree, rg.net.place_index, rg.bits)
    else:
        bad = np.zeros(rg.n_states, dtype=bool)
    for m in spec.explicit:
        if m.width != rg.net.n_places:
            raise PnetError(
                "explicit bad marking has %d bits, net has %d places"
                % (m.width, rg.net.n_places)
            )
        sid = rg.state_id(m.mask)
        if sid is None:
            warnings.warn("explicit bad state %s is not reachable; ignored"
                          % rg.net.format_mask(m.mask), OverseerWarning)
        else:
            bad[sid] = True
    if spec.include_deadlocks:
        bad[deadlocks(rg)] = True
    return bad


def _ancestors(rg: ReachabilityGraph, forbidden: np.ndarray,
               seeds: np.ndarray) -> np.ndarray:
    """`forbidden` plus the `seeds` and every state with a path of
    uncontrollable edges into them.  A worklist over a by-target index
    of the uncontrollable edges, so each of them is looked at once."""
    edges = rg.uncontrollable.nonzero()[0]
    edges = edges[rg.dst[edges].argsort()]
    # the uncontrollable predecessors of state d are pred[start[d]:start[d + 1]]
    pred = rg.src[edges].tolist()
    start = rg.dst[edges].searchsorted(np.arange(rg.n_states + 1)).tolist()
    closed = bytearray(forbidden.tobytes())
    stack = seeds.tolist()
    for s in stack:
        closed[s] = 1
    while stack:
        d = stack.pop()
        for s in pred[start[d]:start[d + 1]]:
            if not closed[s]:
                closed[s] = 1
                stack.append(s)
    return np.frombuffer(closed, dtype=bool)


def _refuse_forbidden_m0(rg: ReachabilityGraph, forbidden: np.ndarray):
    if forbidden[0]:
        raise ForbiddenInitialMarking(
            "initial marking %s is forbidden; synthesis is impossible"
            % rg.net.format_mask(rg.masks[0])
        )


def partition_states(rg: ReachabilityGraph, spec: BadStateSpec | None) -> StatePartition:
    """Full partition pipeline: primal bad states, uncontrollable closure,
    complement, border.  Aborts if m0 ends up forbidden (no supervisor can
    keep the plant out of the forbidden set)."""
    n = rg.n_states
    forbidden = (np.zeros(n, dtype=bool) if spec is None
                 else _primal_mask(rg, spec))
    m_f = forbidden.nonzero()[0]
    if not len(m_f):
        return StatePartition(m_f=m_f, m_a=np.arange(n), m_b=m_f)
    # the closure only adds states, so a bad m0 needs none
    _refuse_forbidden_m0(rg, forbidden)
    entering = forbidden[rg.dst] > forbidden[rg.src]
    unc_in = (entering & rg.uncontrollable).nonzero()[0]
    # usually no uncontrollable edge enters the bad states, and they are
    # closed as they are; otherwise their closure adds the sources of
    # those edges and everything that drifts into them, and then none does
    if len(unc_in):
        forbidden = _ancestors(rg, forbidden, rg.src[unc_in])
        _refuse_forbidden_m0(rg, forbidden)
        entering = forbidden[rg.dst] > forbidden[rg.src]
        m_f = forbidden.nonzero()[0]
    return StatePartition(
        m_f=m_f,
        m_a=(~forbidden).nonzero()[0],
        # the targets of the entering edges, all of them controllable
        m_b=np.bincount(rg.dst[entering], minlength=n).nonzero()[0],
    )
