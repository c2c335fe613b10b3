"""Seeded random generation of small safe nets and forbidden-state specs.

Generation is rejection-based: nets whose exploration violates safeness
or blows the generation budget are redrawn, so every net handed to a
test has a fully built reachability graph.  All draws go through a
caller-supplied random.Random, keeping suites reproducible.
"""

from __future__ import annotations

import random
import re

from overseer import (
    BadStateSpec,
    Marking,
    NetDocument,
    PetriNet,
    build_reachability_graph,
)
from overseer.net import support
from overseer.errors import SafenessViolation, StateBudgetExceeded

GEN_BUDGET = 4096


def random_net(rng: random.Random, max_places=10, max_transitions=8) -> PetriNet:
    n_p = rng.randint(3, max_places)
    n_t = rng.randint(2, max_transitions)
    places = ["P%d" % (i + 1) for i in range(n_p)]
    transitions = ["t%d" % (i + 1) for i in range(n_t)]
    controllable = [rng.random() < 0.6 for _ in range(n_t)]
    m0 = rng.sample(range(n_p), rng.randint(2, min(5, n_p)))
    pre = []
    post = []
    for i in range(n_t):
        # draw the first few pre-sets from the marked places so the net
        # is not dead on arrival; keep the rest fully random
        if i < 2 and rng.random() < 0.8:
            pre_set = rng.sample(m0, rng.randint(1, min(2, len(m0))))
        else:
            pre_set = rng.sample(range(n_p), rng.randint(1, min(2, n_p)))
        k_out = rng.randint(0, min(2, n_p))
        pre.append(pre_set)
        post.append(rng.sample(range(n_p), k_out))
    return PetriNet(
        "gen", places, transitions, controllable, pre, post,
        Marking.from_support(n_p, m0),
    )


def safe_net(rng: random.Random, max_places=10, max_transitions=8,
             min_states=1):
    """Draw until the net explores cleanly (and, when asked, shows some
    actual behavior); returns (net, rg)."""
    while True:
        net = random_net(rng, max_places, max_transitions)
        try:
            rg = build_reachability_graph(net, budget=GEN_BUDGET)
        except (SafenessViolation, StateBudgetExceeded):
            continue
        if rg.n_states < min_states:
            continue
        return net, rg


def _random_expr(rng: random.Random, places) -> str:
    def atom():
        name = rng.choice(places)
        return "!%s" % name if rng.random() < 0.3 else name

    n = rng.randint(1, 3)
    parts = [atom() for _ in range(n)]
    expr = parts[0]
    for p in parts[1:]:
        op = "&" if rng.random() < 0.5 else "|"
        expr = "(%s) %s %s" % (expr, op, p)
    return expr


def random_spec(rng: random.Random, net: PetriNet, rg) -> BadStateSpec:
    """A forbidden-state description with at least one source; explicit
    states are sampled from the reachable set so they actually bite."""
    while True:
        expr = _random_expr(rng, list(net.places)) if rng.random() < 0.7 \
            else None
        include_deadlocks = rng.random() < 0.3
        explicit = []
        # the text format cannot name the empty marking as a state
        pool = [Marking(net.n_places, m) for m in rg.masks[1:] if m]
        if rng.random() < 0.3 and pool:
            explicit = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        if expr is None and not include_deadlocks and not explicit:
            continue
        return BadStateSpec(
            expr=expr,
            explicit=tuple(explicit),
            include_deadlocks=include_deadlocks,
        )


def side_by_side(nets, name: str) -> PetriNet:
    """The nets as one net, the names of the c-th suffixed with _c."""
    places, transitions, controllable, pre, post, m0 = [], [], [], [], [], []
    for c, net in enumerate(nets):
        base = len(places)

        def shifted(mask):
            return [base + p for p in support(mask)]

        places += ["%s_%d" % (p, c) for p in net.places]
        transitions += ["%s_%d" % (t, c) for t in net.transitions]
        controllable += net.controllable
        pre += map(shifted, net.pre_masks)
        post += map(shifted, net.post_masks)
        m0 += shifted(net.m0.mask)
    return PetriNet(name, places, transitions, controllable, pre, post,
                    Marking.from_support(len(places), m0))


def disjoint_union(docs, name: str) -> NetDocument:
    """The nets of `docs` side by side, the names of the c-th suffixed
    with _c; a state is forbidden when the state of any of them is."""
    expr = " | ".join(
        "(%s)" % re.sub(r"\w+", lambda w: "%s_%d" % (w.group(0), c),
                        doc.spec.expr)
        for c, doc in enumerate(docs)
    )
    return NetDocument(side_by_side([doc.net for doc in docs], name),
                       BadStateSpec(expr=expr))


def copies(doc: NetDocument, k: int) -> NetDocument:
    """k disjoint copies of a net; a state is forbidden when the state
    of any copy is."""
    return disjoint_union([doc] * k, "%s_x%d" % (doc.net.name, k))
