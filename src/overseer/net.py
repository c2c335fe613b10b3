"""Safe Petri-net data model, firing semantics, and reachability graphs.

Markings of a safe net are boolean vectors; they are stored as integer
bitmasks (place i at bit i).  The same representation doubles as a
partial marking ("over-state") elsewhere in the toolkit.

Reachability exploration is a breadth-first search over those integer
masks, one level at a time.  A level of at least `_VECTOR_FROM` states
on a net whose masks fit in 64 bits is expanded with numpy array
operations on uint64 masks; other levels take a per-state loop over
Python ints and a dict of the known states, except a narrow tail after
array levels, which stays on the array step while the dict's backlog
outweighs what the array step has spent on narrow levels.  Every level
of a wider net takes the loop.  Both steps number states and edges the
same way.  The array step groups a level's successors with one sort of
(successor, pair index) keys packed in a uint64 when they fit, and with
an argsort when they do not, and keeps the known states as a sorted
array: each array level merges the states it finds by one stable sort,
and the states loop levels found merge at the start of the next array
level.  The loop's dict takes the states the array step found only
when a loop level follows them, so a search that stays wide, or whose
narrow tail is short, never fills it.  The reachability graph keeps
what the search produces as flat data: one int mask per state and the
edges as (source, transition, target) arrays grouped by source (CSR
offsets).  The pipeline passes int masks from stage to stage; `Marking`
is only the type of a net's initial marking and of explicit forbidden
states.

Naming has a threshold of its own, `_NAME_VECTOR_FROM`:
`PetriNet.format_masks` names a list of at least that many masks, on a
net of at most 64 places, with array operations, and a shorter list, or
any list on a wider net, one mask at a time.  The text is the same
either way.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from .errors import SafenessViolation, StateBudgetExceeded

DEFAULT_STATE_BUDGET = 1 << 20


def bit_rows(masks, width: int) -> np.ndarray:
    """One 0/1 row of `width` columns per int mask (bit i = column i)."""
    nbytes = (width + 7) // 8
    raw = b"".join([m.to_bytes(nbytes, "little") for m in masks])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")
    return bits.reshape(len(masks), nbytes * 8)[:, :width]


def support(mask: int) -> tuple[int, ...]:
    """The places marked in `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def canonical_key(mask: int):
    """(cardinality, support): the order of every listing of partial
    markings the toolkit prints."""
    return mask.bit_count(), support(mask)


def canonical_order(masks) -> list[int]:
    """Partial markings (int masks) sorted by `canonical_key`."""
    return sorted(masks, key=canonical_key)


def reachability_backend(n_places: int | None = None) -> str:
    """Name of the reachability kernel, as recorded in the report."""
    return "pure"


class Marking:
    """Boolean marking of a net with `width` places, bit i = place i."""

    __slots__ = ("width", "mask")

    def __init__(self, width: int, mask: int):
        if mask < 0 or mask >> width:
            raise ValueError("mask %#x out of range for width %d" % (mask, width))
        self.width = width
        self.mask = mask

    @classmethod
    def from_support(cls, width: int, support) -> "Marking":
        mask = 0
        for i in support:
            mask |= 1 << i
        return cls(width, mask)

    def support(self) -> tuple[int, ...]:
        return support(self.mask)

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

    @property
    def n_places(self) -> int:
        return len(self.places)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def incidence(self) -> np.ndarray:
        """|P| x |T| token change of each firing (a self-loop nets 0)."""
        n = self.n_places
        return (bit_rows(self.post_masks, n).astype(int)
                - bit_rows(self.pre_masks, n)).T

    def format_mask(self, mask: int) -> str:
        """Compact support form of a marking mask, e.g. P1P3P6; '-' for
        the empty marking."""
        return "".join([self.places[p] for p in support(mask)]) or "-"

    def format_masks(self, masks) -> list[str]:
        """`format_mask` of each mask in a list.  A mask is named one
        8-place chunk at a time, each chunk value through a memo of the
        net that fills as values come up.  A list of at least
        `_NAME_VECTOR_FROM` masks on a net of 1 to 64 places is named
        with array operations, `_NAME_BLOCK` masks at a time: the masks
        become a `uint64` array seen as bytes, and each byte column is
        gathered through a table of the values that occur in it.  The
        text is the same either way."""
        chunks, memo = self._chunk_names
        if len(masks) < _NAME_VECTOR_FROM or not 0 < self.n_places <= 64:
            get = memo.get
            out = []
            for mask in masks:
                text = ""
                for chunk in chunks:
                    part = mask & chunk
                    name = get(part)
                    if name is None:
                        name = memo[part] = self.format_mask(part)
                    text += name
                out.append(text or "-")
            return out
        out = []
        for lo in range(0, len(masks), _NAME_BLOCK):
            words = np.fromiter(masks[lo:lo + _NAME_BLOCK], dtype="<u8")
            columns = []
            for j, byte in enumerate(
                    words.view(np.uint8).reshape(-1, 8).T[:len(chunks)]):
                table = np.empty(256, dtype=object)
                for v in np.flatnonzero(
                        np.bincount(byte, minlength=256)).tolist():
                    part = v << 8 * j
                    if part not in memo:
                        memo[part] = self.format_mask(part)
                    table[v] = memo[part]
                columns.append(table[byte].tolist())
            names = list(map("".join, zip(*columns)))
            for i in np.flatnonzero(words == 0).tolist():
                names[i] = "-"
            out += names
        return out

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The place masks of the net's connected components, disjoint
        and together holding every place.  Two places share a component
        when one transition's pre and post sets together join them.  The
        places no transition touches never change, so they join the
        last component rather than make one of their own.  Found on first
        use, by merging each transition's places into the components they
        meet; the over-state stage reads it."""
        blocks: list[int] = []
        for joined in map(int.__or__, self.pre_masks, self.post_masks):
            if not joined:
                continue
            apart = []
            for b in blocks:
                if b & joined:
                    joined |= b
                else:
                    apart.append(b)
            apart.append(joined)
            blocks = apart
        rest = blocks[:-1]
        return (*rest, ((1 << self.n_places) - 1) & ~sum(rest))

    @cached_property
    def _chunk_names(self):
        # the masks of the 8-place chunks, and a memo of the names of
        # the chunk values seen so far
        return [0xFF << s for s in range(0, self.n_places, 8)], {0: ""}

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
    rows `offsets[s]` to `offsets[s + 1]`.  `uncontrollable` is true at
    the edges whose transition `net` declares uncontrollable.
    """

    def __init__(self, net: PetriNet, masks, flat: np.ndarray):
        # one numpy buffer per graph, because on small graphs each numpy
        # call, not the data, is the cost: the three edge columns, then
        # the offsets
        self.net = net
        self.masks = masks
        e = (len(flat) - len(masks) - 1) // 3
        self._flat = flat
        self.src = flat[:e]
        self.tr = flat[e:2 * e]
        self.dst = flat[2 * e:3 * e]
        self.offsets = flat[3 * e:]

    @property
    def n_states(self) -> int:
        return len(self.masks)

    @cached_property
    def edges(self) -> np.ndarray:
        e = len(self.dst)
        return self._flat[:3 * e].reshape(3, e).T

    @cached_property
    def bits(self) -> np.ndarray:
        """`bit_rows` of the state masks: one 0/1 row per state, one
        column per place.  Unpacked once, on first use; the partition
        and the closed-loop check both read it."""
        return bit_rows(self.masks, self.net.n_places)

    @cached_property
    def uncontrollable(self) -> np.ndarray:
        return ~np.array(self.net.controllable, dtype=bool)[self.tr]

    @cached_property
    def _index(self) -> dict[int, int]:
        # mask -> state id, built on first use: the pipeline looks up
        # only explicit forbidden states by marking, and keeping the
        # search's own dict would hold it for the whole run
        return {m: s for s, m in enumerate(self.masks)}

    def state_id(self, mask: int) -> int | None:
        """The id of the state with marking `mask`, or None."""
        return self._index.get(mask)

    def masks_of(self, ids) -> list[int]:
        """The masks of the states in an id array, in that order."""
        masks = self.masks
        return [masks[i] for i in ids.tolist()]

    def __repr__(self):
        return "ReachabilityGraph(%d states, %d edges)" % (
            self.n_states, len(self.edges),
        )


# A BFS level of at least this many states, on a net whose masks fit in
# 64 bits, is expanded with whole-array operations; a narrower level
# takes the per-state loop, which has no fixed cost per level, unless it
# follows array levels whose states the loop's dict has yet to take in
# (see `_explore`).  The array step has a fixed cost per level however
# narrow.  Best of 200 (ring_net(3), ring_net(4)) or 50 (two_machines x3)
# `_explore` calls on a 2-core host, with the stable-sort merge:
# ring_net(3) (27 states, no level over 7) took 0.03 ms with the loop
# alone and 0.28-0.47 ms with every level vectorized; ring_net(4) took
# 0.37-0.40 ms with every level vectorized, 0.21-0.23 ms from 16 states
# and 0.12 ms from 32 up or with the loop alone; two_machines x3 took
# 1.11-1.26 ms vectorizing from 16, 32 or 48 states, 1.24-1.43 ms from
# 64, 1.40-1.60 ms from 128, 2.35-2.71 ms from 256 and 3.2-3.4 ms with
# the loop alone.  The crossing is where it was before that merge.
_VECTOR_FROM = 64

# `PetriNet.format_masks` names a list of at least this many masks with
# array operations, and a shorter one with the memo loop.  The arrays
# pay a fixed cost per list, so the two cross later than for BFS levels.
# `benchmarks/reach_bench.py` on a 2-core host (names memo warm) puts
# the crossing at ~125 masks for ring_net(9) (27 places) and ~220 for
# the fork-then-counter net (46 places): at 64 masks the arrays took
# 93-122 us against 58-64 us for the loop, at 192 masks 140-209 us
# against 181-193 us, at 1,024 masks 389-633 us against 952-1,159 us.
# Between the crossings either choice loses at most ~40 us a list.  A
# report's partition lists stop at 256 states, just past this; the long
# lists are the DOT writers', which name every state of a graph, and the
# closed loop's `missing_authorized` when R is far smaller than A.
_NAME_VECTOR_FROM = 192

# The array path of `PetriNet.format_masks` names this many masks at a
# time, so that its per-column lists stay small.  Lists this long come
# from the DOT writers, and from `missing_authorized` when R is far
# smaller than A.  One CLI run on machines(5) (248,832 states), when its
# report still named every forbidden state, peaked at 207 MB RSS with
# the loop alone, 229 MB with whole-list columns and 217-221 MB with
# blocks of 2^14.
_NAME_BLOCK = 1 << 14


class _LevelStep:
    """Expands a whole BFS level with array operations.

    A level's successors are grouped by one `np.sort` of the keys
    `(successor << s) | pair index`, s the bit length of the level's
    pair count, when `width + s <= 64`: the low bits of the sorted keys
    are the permutation, and each group's head holds its first pair.
    Keys that do not fit take an argsort of the successors instead, and
    a `minimum.reduceat` for each group's first pair.

    Keeps the known states as a sorted key/id array pair, into which
    each level merges the states it finds, and keeps those states' masks
    as `frontier`, the next level when no loop level runs in between.
    States the loop found merge in at the start of the next level this
    step expands.  Each merge lays the known keys and the new ones end to
    end and orders them with one stable argsort, which merges two sorted
    runs in linear time."""

    def __init__(self, pre_masks, post_masks, width):
        self.pre = np.array(pre_masks, dtype=np.uint64)
        self.post = np.array(post_masks, dtype=np.uint64)
        self.gain = self.post & ~self.pre
        self.width = width  # the masks' bit length
        self.keys = np.zeros(0, dtype=np.uint64)
        self.ids = np.zeros(0, dtype=np.intp)
        self.frontier = None  # the last level's new masks, in id order

    def _merge(self, add, add_ids):
        """Sorts `add`, an array of masks not yet known, with their ids
        into keys/ids: a stable argsort of the known keys and `add` laid
        end to end, which merges the two in linear time when `add` is
        ascending."""
        keys = np.concatenate((self.keys, add))
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.ids = np.concatenate((self.ids, add_ids))[order]

    def expand(self, masks, lo, hi, e0, budget):
        """The edges leaving states [lo, hi) in (state, transition) order,
        and the masks of the states they discover in order of first
        appearance, numbered from hi.  Returns ((src, tr, dst, offsets),
        new); `offsets` are the edge offsets after each state, counted
        from e0.  Raises what the per-state loop would raise first."""
        merged = len(self.keys)  # masks[:merged] are in keys
        frontier = self.frontier
        if merged < hi:
            # the loop ran since: its states hold the frontier
            fresh = np.array(masks[merged:hi], dtype=np.uint64)
            frontier = fresh[lo - merged:]
            self._merge(fresh, np.arange(merged, hi))

        enabled = (frontier[:, None] & self.pre) == self.pre
        pairs = np.flatnonzero(enabled)
        rows, tr = divmod(pairs, len(self.pre))
        m = frontier[rows]
        succ = (m ^ self.pre[tr]) | self.post[tr]
        # group equal successors: sorted queries make the lookup fast, and
        # a group's least pair index is where its state first appears
        shift = len(pairs).bit_length()
        fits = self.width + shift <= 64
        if fits:
            # one sort of (successor, pair index) keys: the low bits are
            # the permutation, and each group's head holds its least pair
            packed = np.sort((succ << shift) | np.arange(len(pairs),
                                                         dtype=np.uint64))
            order = (packed & ((1 << shift) - 1)).astype(np.intp)
            ranked = packed >> shift
        else:
            order = np.argsort(succ)
            ranked = succ[order]
        head = np.ones(len(ranked), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        targets = ranked[starts]
        first = order[starts] if fits else np.minimum.reduceat(order, starts)
        pos = np.searchsorted(self.keys, targets)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        target_ids = self.ids[pos]
        unseen = np.flatnonzero(self.keys[pos] != targets)
        by_first = unseen[np.argsort(first[unseen])]
        target_ids[by_first] = np.arange(hi, hi + len(unseen))
        dst = np.empty(len(succ), dtype=np.intp)
        dst[order] = target_ids[np.cumsum(head) - 1]

        # the per-state loop stops at the first unsafe firing, or at the
        # first new state numbered `budget` or above, whichever comes
        # first in (state, transition) order
        unsafe = np.flatnonzero(m & self.gain[tr])
        over = max(budget - hi, 0)
        overflow = first[by_first[over]] if len(unseen) > over else None
        if len(unsafe) and (overflow is None or unsafe[0] <= overflow):
            raise SafenessViolation(
                "firing transition %d at state %d yields two tokens in "
                "one place" % (tr[unsafe[0]], lo + rows[unsafe[0]])
            )
        if overflow is not None:
            raise StateBudgetExceeded("state budget %d exhausted" % budget)
        offsets = e0 + np.cumsum(np.bincount(rows, minlength=len(frontier)))
        self.frontier = targets[by_first]
        if len(unseen):
            self._merge(targets[unseen], target_ids[unseen])
        return (lo + rows, tr, dst, offsets), self.frontier.tolist()


def _explore(pre_masks, post_masks, m0, budget):
    """BFS closure from m0, transitions tried in index order, states
    numbered in discovery order.  Returns (masks, flat): the state
    masks and one intp buffer holding the src, tr and dst edge columns,
    then the offsets.  Edges are grouped by source in increasing order,
    those of state s being src/tr/dst[offsets[s]:offsets[s + 1]].

    The search runs one level at a time.  Expanding the queued states
    [lo, len(masks)) as one batch in (state, transition) order numbers
    states and edges exactly as expanding them one by one does, so each
    level takes whichever step is faster at its width.  The loop's
    `seen` dict holds masks[:len(seen)]: a loop level first adds, in
    one update, the states array levels found since the loop last ran,
    and array levels leave it alone.

    A narrow level after array levels weighs that backlog,
    `hi - len(seen)`, against a debt: each narrow level the array step
    takes adds `_VECTOR_FROM * len(transitions)`, about what the loop
    pays to expand `_VECTOR_FROM` states.  While the backlog is larger
    the array step keeps the level; once it is not, the loop fills
    `seen` and takes over, and the debt starts again from 0.  Not
    knowing how long the tail is, this pays at most about twice the
    better of the two choices (ski rental: Karlin, Manasse, Rudolph &
    Sleator 1988), and a short tail never fills the dict."""
    if budget < 1:
        # m0 is state 0 and counts against the budget like any other
        raise StateBudgetExceeded("state budget %d exhausted" % budget)
    # a firing creates a second token iff it produces into a marked place
    # it does not also consume from
    moves = [(t, pre, post, post & ~pre)
             for t, (pre, post) in enumerate(zip(pre_masks, post_masks))]
    width = max((m0, *pre_masks, *post_masks)).bit_length()
    step = None

    masks = [m0]
    seen = {m0: 0}
    columns = ([], [], [], [])  # finished chunks of src, tr, dst, offsets
    src, tr, dst, offsets = [], [], [], [0]  # the chunk the loop extends
    e0 = 0  # edges in finished chunks

    debt = 0  # narrow array levels' cost since the loop last filled seen
    lo = 0
    while lo < len(masks):
        hi = len(masks)
        narrow = hi - lo < _VECTOR_FROM
        if width > 64 or narrow and hi - len(seen) <= debt:
            if len(seen) < hi:
                # the states the array step found since the loop last ran
                seen.update(zip(masks[len(seen):], range(len(seen), hi)))
                debt = 0
            for sid in range(lo, hi):
                m = masks[sid]
                free = ~m
                n0 = len(dst)
                for t, pre, post, gain in moves:
                    if pre & free:
                        continue
                    if gain & m:
                        raise SafenessViolation(
                            "firing transition %d at state %d yields two "
                            "tokens in one place" % (t, sid)
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
                src += [sid] * (len(dst) - n0)
                offsets.append(e0 + len(dst))
        else:
            if offsets:
                for col, part in zip(columns, (src, tr, dst, offsets)):
                    col.append(part)
                e0 += len(dst)
                src, tr, dst, offsets = [], [], [], []
            if step is None:
                step = _LevelStep(pre_masks, post_masks, width)
            if narrow:
                debt += _VECTOR_FROM * len(moves)
            parts, new = step.expand(masks, lo, hi, e0, budget)
            for col, part in zip(columns, parts):
                col.append(part)
            e0 += len(parts[2])
            masks += new
        lo = hi

    # the loop's last chunk, empty when the array step took the last level
    for col, part in zip(columns, (src, tr, dst, offsets)):
        col.append(part)
    flat = np.concatenate([np.asarray(p, dtype=np.intp)
                           for p in chain(*columns)])
    return masks, flat


def build_reachability_graph(net: PetriNet,
                             budget: int = DEFAULT_STATE_BUDGET
                             ) -> ReachabilityGraph:
    """Exhaustive BFS closure of net from m0."""
    try:
        masks, flat = _explore(
            net.pre_masks, net.post_masks, net.m0.mask, budget)
    except SafenessViolation as exc:
        raise SafenessViolation(
            "net %s is not safe: %s" % (net.name, exc)
        ) from exc
    except StateBudgetExceeded as exc:
        raise StateBudgetExceeded(
            "net %s: %s (raise --state-budget to explore further)"
            % (net.name, exc)
        ) from exc
    return ReachabilityGraph(net, masks, flat)
