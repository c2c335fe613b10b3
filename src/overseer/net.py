"""Safe Petri-net data model, firing semantics, and reachability graphs.

Markings of a safe net are boolean vectors; they are stored as integer
bitmasks (place i at bit i).  The same representation doubles as a
partial marking ("over-state") elsewhere in the toolkit.

Reachability exploration is a breadth-first search over those integer
masks; Python ints are unbounded, so nets of any width take the same path.
The reachability graph keeps what the search produces as flat data: one
int mask per state and the edges as (source, transition, target) arrays
grouped by source (CSR offsets).  `Marking` objects are made only when a
caller asks for a state by id.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from .errors import NotEnabled, SafenessViolation, StateBudgetExceeded

DEFAULT_STATE_BUDGET = 1 << 20


def bit_rows(masks, width: int) -> np.ndarray:
    """One 0/1 row of `width` columns per int mask (bit i = column i)."""
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    return bits.reshape(len(masks), nbytes * 8)[:, :width]


def indicator(n: int, ids) -> np.ndarray:
    """Boolean array of length n, true at the given state ids."""
    out = np.zeros(n, dtype=bool)
    out[list(ids)] = True
    return out


def reachability_backend(n_places: int | None = None) -> str:
    """Name of the reachability kernel, as recorded in the report."""
    return "pure"


class Marking:
    """Boolean marking of a net with `width` places, bit i = place i.

    Also used for partial markings: `issubset` is the componentwise
    partial order, `sort_key` the lexicographic total order over the
    bit vector (used only to make output deterministic).
    """

    __slots__ = ("width", "mask")

    def __init__(self, width: int, mask: int):
        if mask < 0 or mask >> width:
            raise ValueError("mask %#x out of range for width %d" % (mask, width))
        self.width = width
        self.mask = mask

    @classmethod
    def from_bits(cls, bits) -> "Marking":
        bits = list(bits)
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1, False, True):
                raise ValueError("marking bits must be 0 or 1")
            if b:
                mask |= 1 << i
        return cls(len(bits), mask)

    @classmethod
    def from_support(cls, width: int, support) -> "Marking":
        mask = 0
        for i in support:
            mask |= 1 << i
        return cls(width, mask)

    def bit(self, i: int) -> int:
        return (self.mask >> i) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.width))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if (self.mask >> i) & 1)

    @property
    def card(self) -> int:
        return bin(self.mask).count("1")

    def issubset(self, other: "Marking") -> bool:
        """Componentwise order: every marked place here is marked in other."""
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple[int, ...]:
        return self.bits()

    def __eq__(self, other):
        return (
            isinstance(other, Marking)
            and self.width == other.width
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.width, self.mask))

    def __repr__(self):
        return "Marking(%d, 0b%s)" % (
            self.width,
            format(self.mask, "0%db" % self.width)[::-1] if self.width else "0",
        )


def canonical_order(markings) -> list[Marking]:
    """Sort partial markings by (cardinality, support): the order used in
    every listing the toolkit prints."""
    return sorted(markings, key=lambda m: (m.card, m.support()))


class PetriNet:
    """Safe Petri net: named places and transitions, 0/1 arcs, boolean m0.

    pre/post are kept separately (a single incidence matrix cannot
    express self-loops); the incidence matrix is derived on demand.
    """

    def __init__(self, name, places, transitions, controllable, pre_sets,
                 post_sets, m0: Marking):
        self.name = name
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self.controllable = tuple(bool(c) for c in controllable)
        if len(set(self.places)) != len(self.places):
            raise ValueError("duplicate place names")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition names")
        if len(self.controllable) != len(self.transitions):
            raise ValueError("one controllability flag per transition required")
        if m0.width != len(self.places):
            raise ValueError("initial marking width does not match place count")
        self.place_index = {p: i for i, p in enumerate(self.places)}
        self.transition_index = {t: i for i, t in enumerate(self.transitions)}
        self.pre_masks = tuple(self._mask(s) for s in pre_sets)
        self.post_masks = tuple(self._mask(s) for s in post_sets)
        if len(self.pre_masks) != len(self.transitions) or len(
            self.post_masks
        ) != len(self.transitions):
            raise ValueError("pre/post sets must match transition count")
        self.m0 = m0

    def _mask(self, places) -> int:
        mask = 0
        for i in places:
            if not 0 <= i < len(self.places):
                raise ValueError("place index %r out of range" % (i,))
            mask |= 1 << i
        return mask

    @classmethod
    def from_matrices(cls, name, places, transitions, controllable, pre, post,
                      m0: Marking) -> "PetriNet":
        """Build from |P| x |T| 0/1 arrays (rejects weighted arcs)."""
        pre = np.asarray(pre)
        post = np.asarray(post)
        if not np.isin(pre, (0, 1)).all() or not np.isin(post, (0, 1)).all():
            raise ValueError("arc weights must be 0 or 1")
        pre_sets = [np.flatnonzero(pre[:, t]).tolist() for t in range(pre.shape[1])]
        post_sets = [np.flatnonzero(post[:, t]).tolist() for t in range(post.shape[1])]
        return cls(name, places, transitions, controllable, pre_sets, post_sets, m0)

    @property
    def n_places(self) -> int:
        return len(self.places)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def pre_matrix(self) -> np.ndarray:
        return bit_rows(self.pre_masks, self.n_places).T.astype(int, order="C")

    def post_matrix(self) -> np.ndarray:
        return bit_rows(self.post_masks, self.n_places).T.astype(int, order="C")

    def incidence(self) -> np.ndarray:
        return self.post_matrix() - self.pre_matrix()

    def self_loops(self) -> list[tuple[int, int]]:
        """(place, transition) pairs with both an input and an output arc."""
        out = []
        for t in range(self.n_transitions):
            both = self.pre_masks[t] & self.post_masks[t]
            for p in range(self.n_places):
                if (both >> p) & 1:
                    out.append((p, t))
        return out

    def is_enabled(self, m: Marking, t: int) -> bool:
        return self.pre_masks[t] & ~m.mask == 0

    def enabled(self, m: Marking) -> tuple[int, ...]:
        """Transitions enabled at m: every input place marked."""
        if m.width != self.n_places:
            raise ValueError("marking width does not match net")
        return tuple(
            t for t in range(self.n_transitions)
            if self.pre_masks[t] & ~m.mask == 0
        )

    def fire(self, m: Marking, t: int) -> Marking:
        """Fire t at m.  Raises NotEnabled or, if a place would receive a
        second token, SafenessViolation."""
        if self.pre_masks[t] & ~m.mask:
            raise NotEnabled(
                "transition %s not enabled at %s"
                % (self.transitions[t], self.format_marking(m))
            )
        gained = self.post_masks[t] & ~self.pre_masks[t]
        if gained & m.mask:
            raise SafenessViolation(
                "firing %s at %s puts a second token into a place; "
                "the net is not safe"
                % (self.transitions[t], self.format_marking(m))
            )
        return Marking(m.width, (m.mask & ~self.pre_masks[t]) | self.post_masks[t])

    def format_mask(self, mask: int) -> str:
        """Compact support form of a marking mask, e.g. P1P3P6; '-' for
        the empty marking."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self.places[low.bit_length() - 1])
            mask ^= low
        return "".join(names) if names else "-"

    def format_marking(self, m: Marking) -> str:
        return self.format_mask(m.mask)

    def format_markings(self, markings) -> list[str]:
        return [self.format_mask(m.mask) for m in markings]

    def __eq__(self, other):
        return (
            isinstance(other, PetriNet)
            and self.name == other.name
            and self.places == other.places
            and self.transitions == other.transitions
            and self.controllable == other.controllable
            and self.pre_masks == other.pre_masks
            and self.post_masks == other.post_masks
            and self.m0 == other.m0
        )

    def __hash__(self):
        return hash((self.places, self.transitions, self.m0.mask))

    def __repr__(self):
        return "PetriNet(%r, %d places, %d transitions)" % (
            self.name, self.n_places, self.n_transitions,
        )


class ReachabilityGraph:
    """Explored marking set plus labeled edges, as flat data.

    State 0 is m0; numbering is breadth-first with ties broken by
    transition index, so it is identical across runs.  `masks[s]` is the
    marking of state s.  `edges` is an (E, 3) array of rows (source,
    transition, target), sorted by source and then transition; `src`,
    `tr` and `dst` are its columns, and the edges leaving state s are
    rows `offsets[s]` to `offsets[s + 1]`.  `uncontrollable` flags the
    edges whose transition is uncontrollable (1, else 0).
    """

    def __init__(self, net: PetriNet, masks, src, tr, dst, offsets, index):
        self.net = net
        self.masks = list(masks)
        # one numpy buffer per graph, because on small graphs each numpy
        # call, not the data, is the cost: the three edge columns, the
        # offsets, then one 0/1 flag per transition, 1 when uncontrollable
        e, n = len(dst), len(offsets)
        self._flat = np.fromiter(
            chain(src, tr, dst, offsets,
                  (not c for c in net.controllable)),
            dtype=np.intp, count=3 * e + n + net.n_transitions,
        )
        self.src = self._flat[:e]
        self.tr = self._flat[e:2 * e]
        self.dst = self._flat[2 * e:3 * e]
        self.offsets = self._flat[3 * e:3 * e + n]
        self._uncontrollable = self._flat[3 * e + n:]
        # mask -> state id
        self._index = index

    @property
    def n_states(self) -> int:
        return len(self.masks)

    @cached_property
    def edges(self) -> np.ndarray:
        e = len(self.dst)
        return self._flat[:3 * e].reshape(3, e).T

    @cached_property
    def uncontrollable(self) -> np.ndarray:
        return self._uncontrollable[self.tr]

    def state_id(self, m: Marking) -> int | None:
        return self._index.get(m.mask)

    def marking(self, sid: int) -> Marking:
        return Marking(self.net.n_places, self.masks[sid])

    def markings_of(self, ids) -> list[Marking]:
        """Markings for a set of state ids, in state-id order."""
        return [self.marking(i) for i in sorted(ids)]

    def __repr__(self):
        return "ReachabilityGraph(%d states, %d edges)" % (
            self.n_states, len(self.edges),
        )


def _explore(pre_masks, post_masks, m0, budget):
    """BFS closure from m0, transitions tried in index order, states
    numbered in discovery order.  Returns (masks, index, src, tr, dst,
    offsets): the state masks, the mask -> id dict, and the edges
    grouped by source in increasing order, those of state s being
    src/tr/dst[offsets[s]:offsets[s + 1]]."""
    # a firing creates a second token iff it produces into a marked place
    # it does not also consume from
    moves = [(t, pre, post, post & ~pre)
             for t, (pre, post) in enumerate(zip(pre_masks, post_masks))]

    masks = [m0]
    seen = {m0: 0}
    offsets = [0]
    src, tr, dst = [], [], []

    # the list grows while it is walked: a FIFO queue of state ids
    for sid, m in enumerate(masks):
        free = ~m
        for t, pre, post, gain in moves:
            if pre & free:
                continue
            if gain & m:
                raise SafenessViolation(
                    "firing transition %d at state %d yields two tokens in "
                    "one place" % (t, sid)
                )
            m2 = (m ^ pre) | post
            nid = seen.get(m2)
            if nid is None:
                nid = len(masks)
                if nid >= budget:
                    raise StateBudgetExceeded(
                        "state budget %d exhausted" % budget
                    )
                seen[m2] = nid
                masks.append(m2)
            tr.append(t)
            dst.append(nid)
        src += [sid] * (len(dst) - offsets[-1])
        offsets.append(len(dst))

    return masks, seen, src, tr, dst, offsets


def build_reachability_graph(net: PetriNet,
                             budget: int = DEFAULT_STATE_BUDGET
                             ) -> ReachabilityGraph:
    """Exhaustive BFS closure of net from m0."""
    try:
        masks, index, src, tr, dst, offsets = _explore(
            net.pre_masks, net.post_masks, net.m0.mask, budget
        )
    except SafenessViolation as exc:
        raise SafenessViolation(
            "net %s is not safe: %s" % (net.name, exc)
        ) from exc
    except StateBudgetExceeded as exc:
        raise StateBudgetExceeded(
            "net %s: %s (raise --state-budget to explore further)"
            % (net.name, exc)
        ) from exc
    return ReachabilityGraph(net, masks, src, tr, dst, offsets, index)
