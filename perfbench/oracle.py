"""Independent answer checks for the pipeline benchmark.

Works on plain bitmasks (place i at bit i) and never calls into
`overseer`, so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

from collections import deque


class Rejected(Exception):
    """The net is not safe or outgrows the exploration budget."""


def explore(pre, post, m0, budget):
    """Breadth-first reachability from m0, transitions tried in index
    order.  Returns (states, edges) with states as masks in discovery
    order and edges as (source, transition, target) ids."""
    states = [m0]
    seen = {m0: 0}
    edges = []
    queue = deque((0,))
    while queue:
        sid = queue.popleft()
        m = states[sid]
        for t, (i, o) in enumerate(zip(pre, post)):
            if i & ~m:
                continue
            if o & ~i & m:
                raise Rejected("transition %d puts a second token in a place" % t)
            m2 = (m & ~i) | o
            nid = seen.get(m2)
            if nid is None:
                if len(states) >= budget:
                    raise Rejected("more than %d states" % budget)
                nid = seen[m2] = len(states)
                states.append(m2)
                queue.append(nid)
            edges.append((sid, t, nid))
    return states, edges


def supervised(case, budget):
    """What a maximally permissive supervisor must allow.

    Returns None when the initial marking is forbidden (no supervisor
    exists), else (authorized, reachable) as sets of masks: every
    authorized state, and those the plant reaches from m0 while moving
    only through authorized states."""
    states, edges = explore(case.pre, case.post, case.m0, budget)
    bad = {s for s, m in enumerate(states) if case.is_bad(m)}
    if case.deadlock:
        bad |= set(range(len(states))) - {s for s, _, _ in edges}
    # backward closure: a state that can slip into the forbidden set by an
    # uncontrollable firing is forbidden too
    into = [[] for _ in states]
    for s, t, d in edges:
        if not case.controllable[t]:
            into[d].append(s)
    forbidden = set(bad)
    stack = list(bad)
    while stack:
        for s in into[stack.pop()]:
            if s not in forbidden:
                forbidden.add(s)
                stack.append(s)
    if 0 in forbidden:
        return None
    out = [[] for _ in states]
    for s, _, d in edges:
        if d not in forbidden:
            out[s].append(d)
    reached = {0}
    stack = [0]
    while stack:
        for d in out[stack.pop()]:
            if d not in reached:
                reached.add(d)
                stack.append(d)
    authorized = {m for s, m in enumerate(states) if s not in forbidden}
    return authorized, {states[s] for s in reached}
