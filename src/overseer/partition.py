"""Splitting the reachable set into authorized, forbidden, and border states.

The forbidden set starts from a user-supplied bad-state specification
(predicate, explicit markings, deadlocks) and is closed backwards under
uncontrollable transitions: a state that can drift into the forbidden
set without the supervisor's consent is itself forbidden.  The border
states are the forbidden states a supervisor can actually refuse to
enter: targets of controllable firings from authorized states.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ForbiddenInitialMarking, UncontrollableBreach
from .net import Marking, ReachabilityGraph, indicator
from .predicate import compile_predicate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BadStateSpec:
    """Which reachable states are primally bad.

    At least one source must be present; `expr` is a boolean place
    predicate, `explicit` a list of full markings, and
    `include_deadlocks` adds every state without a successor.
    """

    expr: str | None = None
    explicit: tuple[Marking, ...] = ()
    include_deadlocks: bool = False

    def __post_init__(self):
        if self.expr is None and not self.explicit and not self.include_deadlocks:
            raise ValueError(
                "bad-state specification needs a predicate, explicit states, "
                "or the deadlock flag"
            )
        object.__setattr__(self, "explicit", tuple(self.explicit))


@dataclass(frozen=True)
class StatePartition:
    """State-id sets over one reachability graph: reachable, forbidden,
    authorized (the complement), and border forbidden."""

    m_r: frozenset[int]
    m_f: frozenset[int]
    m_a: frozenset[int]
    m_b: frozenset[int] = field(default_factory=frozenset)


def deadlocks(rg: ReachabilityGraph) -> frozenset[int]:
    """States with no outgoing edge."""
    dead = np.ones(rg.n_states, dtype=bool)
    dead[rg.src] = False
    return frozenset(dead.nonzero()[0].tolist())


def primal_bad(rg: ReachabilityGraph, spec: BadStateSpec) -> frozenset[int]:
    """States matching the forbidden-state description before any closure."""
    bad: set[int] = set()
    if spec.expr is not None:
        pred = compile_predicate(spec.expr, rg.net.place_index)
        bad.update(s for s, mask in enumerate(rg.masks) if pred(mask))
    for m in spec.explicit:
        if m.width != rg.net.n_places:
            raise ValueError(
                "explicit bad marking has %d bits, net has %d places"
                % (m.width, rg.net.n_places)
            )
        sid = rg.state_id(m)
        if sid is None:
            log.warning(
                "explicit bad state %s is not reachable; ignored",
                rg.net.format_marking(m),
            )
        else:
            bad.add(sid)
    if spec.include_deadlocks:
        bad.update(deadlocks(rg))
    return frozenset(bad)


def forbidden_closure(rg: ReachabilityGraph, bad) -> frozenset[int]:
    """Least superset of `bad` closed under uncontrollable entry: a state
    with an uncontrollable edge into the set joins the set.  Backward BFS
    over a predecessor index of the uncontrollable edges only."""
    if not bad:
        return frozenset()
    unc = rg.uncontrollable.nonzero()[0]
    unc = unc[rg.dst[unc].argsort(kind="stable")]
    # the uncontrollable predecessors of state d are sources[i:j], where
    # targets[i:j] are the entries equal to d
    targets = rg.dst[unc].tolist()
    sources = rg.src[unc].tolist()
    closed = set(bad)
    frontier = list(bad)
    while frontier:
        target = frontier.pop()
        i = bisect_left(targets, target)
        j = bisect_right(targets, target, i)
        for source in sources[i:j]:
            if source not in closed:
                closed.add(source)
                frontier.append(source)
    return frozenset(closed)


def _crossing(rg: ReachabilityGraph, m_f) -> np.ndarray:
    """Per edge: it leaves an authorized state for a forbidden one."""
    forbidden = indicator(rg.n_states, m_f)
    return forbidden[rg.dst] > forbidden[rg.src]


def _border(rg: ReachabilityGraph, crossing) -> frozenset[int]:
    """Targets of the controllable edges among the crossing ones."""
    return frozenset(rg.dst[crossing & (rg.uncontrollable == 0)].tolist())


def border_states(rg: ReachabilityGraph, partition: StatePartition) -> frozenset[int]:
    """Forbidden states with an authorized controllable predecessor."""
    return _border(rg, _crossing(rg, partition.m_f))


def partition_states(rg: ReachabilityGraph, spec: BadStateSpec | None) -> StatePartition:
    """Full partition pipeline: primal bad states, uncontrollable closure,
    complement, border.  Aborts if m0 ends up forbidden (no supervisor can
    keep the plant out of the forbidden set)."""
    m_r = frozenset(range(rg.n_states))
    bad = primal_bad(rg, spec) if spec is not None else frozenset()
    # the closure only adds states, so a bad m0 needs no closure
    m_f = bad if 0 in bad else forbidden_closure(rg, bad)
    if 0 in m_f:
        raise ForbiddenInitialMarking(
            "initial marking %s is forbidden; synthesis is impossible"
            % rg.net.format_mask(rg.masks[0])
        )
    m_a = m_r - m_f
    if not m_f:
        return StatePartition(m_r=m_r, m_f=m_f, m_a=m_a)
    crossing = _crossing(rg, m_f)
    breach = (crossing & rg.uncontrollable).nonzero()[0]
    if len(breach):
        # impossible after a correct closure; fail closed rather than
        # synthesize from a broken partition
        s, t, d = rg.edges[breach[0]].tolist()
        raise UncontrollableBreach(
            "authorized state %s reaches forbidden %s by uncontrollable %s"
            % (
                rg.net.format_mask(rg.masks[s]),
                rg.net.format_mask(rg.masks[d]),
                rg.net.transitions[t],
            )
        )
    return StatePartition(m_r=m_r, m_f=m_f, m_a=m_a,
                          m_b=_border(rg, crossing))
