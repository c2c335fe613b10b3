"""Reference closed-loop check: a breadth-first search over composite
states (plant mask, control marking tuple), independent of the plant
graph's numbering tricks.

This is the slow, direct construction of the closed loop: every
composite state carries its own control marking, which is updated by
the control incidence on every firing.  It is used only as a test
oracle for `overseer.synthesis.verify_closed_loop`, which reads the
closed loop off the plant graph instead.  `authorized_reachable` is the
optimal supervisor it is judged against: R, the authorized states the
plant reaches through authorized states only.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from overseer.errors import VerificationFailure
from overseer.net import bit_rows, support
from overseer.synthesis import AdmissibilityViolation, ClosedLoopReport


def authorized_reachable(rg, partition):
    """Brute-force optimal supervisor: the state ids reached from m0 by
    following only edges that stay inside the authorized set."""
    authorized = set(partition.m_a.tolist())
    seen = {0}
    stack = [0]
    while stack:
        s = stack.pop()
        for d in rg.dst[rg.offsets[s]:rg.offsets[s + 1]].tolist():
            if d in authorized and d not in seen:
                seen.add(d)
                stack.append(d)
    return frozenset(seen)


def explore_closed_loop(net, controller):
    """BFS over composite states (plant mask, control marking tuple),
    transitions tried in index order, states numbered in discovery
    order.  Returns (states, edges)."""
    cols = [tuple(col) for col in controller.incidence.T.tolist()]
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
                nid = len(states)
                seen[nxt] = nid
                states.append(nxt)
                queue.append(nid)
            edges.append((sid, t, nid))
    return states, edges


def reference_verify(net, controller, partition, rg) -> ClosedLoopReport:
    """The closed-loop findings on the composite exploration, reported
    in the same form as `verify_closed_loop`."""
    states, edges = explore_closed_loop(net, controller)
    k = controller.k
    proj_masks = [mask for mask, _ in states]
    control_markings = [ctrl for _, ctrl in states]
    if len(set(proj_masks)) != len(proj_masks):
        raise VerificationFailure(
            "two closed-loop states share a plant projection"
        )

    invariant_ok = True
    if k:
        bits = bit_rows(proj_masks, net.n_places)
        control = np.array(control_markings, dtype=np.int64)
        invariant_ok = bool(
            (bits @ controller.weights.T + control == controller.bounds).all()
        )

    authorized_ids = set(partition.m_a.tolist())
    authorized = {rg.masks[s] for s in authorized_ids}
    reached = set(proj_masks)
    missing = [rg.masks[s] for s in sorted(authorized_ids)
               if rg.masks[s] not in reached]
    extra = [m for m in proj_masks if m not in authorized]

    edge_mismatches = []
    closed_enabled = [set() for _ in states]
    for s, t, _ in edges:
        closed_enabled[s].add(t)
    for sid, mask in enumerate(proj_masks):
        pid = rg.state_id(mask)
        if pid is None or pid not in authorized_ids:
            continue
        lo, hi = rg.offsets[pid], rg.offsets[pid + 1]
        expected = {
            t for t, d in zip(rg.tr[lo:hi].tolist(), rg.dst[lo:hi].tolist())
            if d in authorized_ids
        }
        got = closed_enabled[sid]
        at = "".join(net.places[i] for i in support(mask)) or "-"
        for t in sorted(expected - got):
            edge_mismatches.append(
                "%s misses %s at %s" % (net.name, net.transitions[t], at))
        for t in sorted(got - expected):
            edge_mismatches.append(
                "%s allows %s at %s" % (net.name, net.transitions[t], at))

    cols = [tuple(col) for col in controller.incidence.T.tolist()]
    violations = []
    for mask, ctrl in states:
        for t in range(net.n_transitions):
            if net.controllable[t] or net.pre_masks[t] & ~mask:
                continue
            for i, (c, d) in enumerate(zip(ctrl, cols[t])):
                if c + d < 0:
                    violations.append(AdmissibilityViolation(
                        control_place=i, transition=t,
                        state=mask,
                    ))
                    break

    return ClosedLoopReport(
        states=np.array([rg.state_id(m) for m in proj_masks], dtype=np.intp),
        control_markings=np.array(control_markings,
                                  dtype=np.int64).reshape(len(states), k),
        edges=np.array(edges, dtype=np.intp).reshape(len(edges), 3),
        missing_authorized=missing,
        extra_states=extra,
        edge_mismatches=edge_mismatches,
        admissibility_violations=violations,
        invariant_ok=invariant_ok,
        notes=[],
    )
