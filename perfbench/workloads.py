"""Seeded inputs for the pipeline benchmark, as .pnet text.

`machines` and `rings` are scaled families with closed-form answers; the
seed only shuffles the order in which places and transitions are
declared, which leaves every answer unchanged.  `random_case` follows
tests/netgen.py draw for draw, but explores with the benchmark's own
oracle so that the nets and their expected answers do not depend on the
program under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import overseer
from overseer import BadStateSpec, Marking, PetriNet, parse_net_file, serialize_net
from reach_bench import ring_net

from oracle import Rejected, explore

GEN_BUDGET = 4096


def _shuffled(net: PetriNet, rng: random.Random) -> PetriNet:
    """The same net with places and transitions declared in seeded order."""
    porder = list(range(net.n_places))
    torder = list(range(net.n_transitions))
    rng.shuffle(porder)
    rng.shuffle(torder)
    new_index = {old: new for new, old in enumerate(porder)}

    def places_of(mask):
        return [new_index[p] for p in Marking(net.n_places, mask).support()]

    return PetriNet(
        net.name,
        [net.places[p] for p in porder],
        [net.transitions[t] for t in torder],
        [net.controllable[t] for t in torder],
        [places_of(net.pre_masks[t]) for t in torder],
        [places_of(net.post_masks[t]) for t in torder],
        Marking.from_support(net.n_places, places_of(net.m0.mask)),
    )


def machines(k: int, rng: random.Random) -> str:
    """k disjoint copies of the bundled two_machines net, forbidden
    predicate OR-ed across copies: 12^k states, 5^k closed-loop states,
    2k constraints."""
    doc = parse_net_file(Path(overseer.__file__).parent / "nets" / "two_machines.pnet")
    one = doc.net
    n = one.n_places
    places, transitions, controllable, pre, post, m0 = [], [], [], [], [], []
    for c in range(k):
        places += ["%s_%d" % (p, c) for p in one.places]
        transitions += ["%s_%d" % (t, c) for t in one.transitions]
        controllable += one.controllable
        pre += [[c * n + p for p in Marking(n, m).support()] for m in one.pre_masks]
        post += [[c * n + p for p in Marking(n, m).support()] for m in one.post_masks]
        m0 += [c * n + p for p in one.m0.support()]
    net = PetriNet("machines%d" % k, places, transitions, controllable,
                   pre, post, Marking.from_support(k * n, m0))
    expr = " | ".join(
        "(%s)" % re.sub(r"[A-Za-z_]\w*", lambda m: "%s_%d" % (m.group(0), c),
                        doc.spec.expr)
        for c in range(k)
    )
    return serialize_net(_shuffled(net, rng), BadStateSpec(expr=expr))


def rings(k: int, rng: random.Random) -> str:
    """k three-place token rings, nothing forbidden: 3^k states and
    k * 3^k edges, the closed loop is the plant."""
    return serialize_net(_shuffled(ring_net(k), rng))


@dataclass
class RandomCase:
    """One generated net, its text, and what the oracle needs to judge it."""

    text: str
    places: list[str]
    pre: list[int]
    post: list[int]
    controllable: list[bool]
    m0: int
    terms: list[tuple[str, int, bool]]  # (op joining it, place, negated)
    explicit: frozenset[int]
    deadlock: bool

    def is_bad(self, mask: int) -> bool:
        if mask in self.explicit:
            return True
        value = False
        for op, place, negated in self.terms:
            atom = bool(mask >> place & 1) != negated
            value = atom if op == "" else (value and atom if op == "&" else value or atom)
        return value

    def format(self, mask: int) -> str:
        names = [p for i, p in enumerate(self.places) if mask >> i & 1]
        return "".join(names) if names else "-"


def _random_plant(rng: random.Random, max_places=10, max_transitions=8):
    n_p = rng.randint(3, max_places)
    n_t = rng.randint(2, max_transitions)
    controllable = [rng.random() < 0.6 for _ in range(n_t)]
    m0 = rng.sample(range(n_p), rng.randint(2, min(5, n_p)))
    pre, post = [], []
    for i in range(n_t):
        if i < 2 and rng.random() < 0.8:
            pre_set = rng.sample(m0, rng.randint(1, min(2, len(m0))))
        else:
            pre_set = rng.sample(range(n_p), rng.randint(1, min(2, n_p)))
        k_out = rng.randint(0, min(2, n_p))
        pre.append(pre_set)
        post.append(rng.sample(range(n_p), k_out))
    return n_p, controllable, pre, post, m0


def _mask(places) -> int:
    return sum(1 << p for p in places)


def random_case(rng: random.Random) -> RandomCase:
    """One safe net of at most 10 places with a forbidden-state spec."""
    while True:
        n_p, controllable, pre, post, m0 = _random_plant(rng)
        pre_masks = [_mask(s) for s in pre]
        post_masks = [_mask(s) for s in post]
        try:
            states, _ = explore(pre_masks, post_masks, _mask(m0), GEN_BUDGET)
            break
        except Rejected:
            pass
    places = ["P%d" % (i + 1) for i in range(n_p)]
    while True:
        terms = []
        if rng.random() < 0.7:
            # atoms first, then the operators joining them, as netgen draws
            atoms = [(places.index(rng.choice(places)), rng.random() < 0.3)
                     for _ in range(rng.randint(1, 3))]
            ops = [""] + ["&" if rng.random() < 0.5 else "|" for _ in atoms[1:]]
            terms = [(op, p, neg) for op, (p, neg) in zip(ops, atoms)]
        deadlock = rng.random() < 0.3
        explicit = []
        pool = [m for m in states[1:] if m]
        if rng.random() < 0.3 and pool:
            explicit = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        if terms or deadlock or explicit:
            break
    expr = None
    for op, place, negated in terms:
        atom = "!" * negated + places[place]
        expr = atom if expr is None else "(%s) %s %s" % (expr, op, atom)
    net = PetriNet("gen", places, ["t%d" % (i + 1) for i in range(len(pre))],
                   controllable, pre, post, Marking.from_support(n_p, m0))
    spec = BadStateSpec(expr=expr,
                        explicit=tuple(Marking(n_p, m) for m in explicit),
                        include_deadlocks=deadlock)
    return RandomCase(
        text=serialize_net(net, spec), places=places,
        pre=pre_masks, post=post_masks,
        controllable=controllable, m0=_mask(m0), terms=terms,
        explicit=frozenset(explicit), deadlock=deadlock,
    )
