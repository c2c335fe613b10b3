"""Reading and writing the .pnet text format.

A document looks like:

    # two machines sharing a buffer
    net workshop
    places P1 P2 P3
    initial P1
    transition go controllable { in P1 ; out P2 }
    transition crash uncontrollable { in P2 ; out P3 }
    forbidden {
      expr "P3"
      deadlock
      state P2 P3
    }

Each directive takes one line, except the forbidden block, which runs to
the first line holding a `}`.  `#` starts a comment outside quotes.  Arc
multiplicity is fixed at one: naming a place twice in the same in or out
list is rejected rather than interpreted as a weight-2 arc.

The parser reads a line at a time, as `str.splitlines` splits the text.
A line's tokens are plain strings: a line of names, digits, braces and
semicolons set apart by blanks is split with `str.split`, and any other
line is tokenized with a regex that checks each token's characters.
Where a token sits is not kept; an error finds its line and column
again from the text.

`serialize_net` emits a canonical form (declared order for places and
transitions, place order inside arc lists) so that parse and print
round-trip byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PnetSyntaxError, UnknownPlaceName
from .net import Marking, PetriNet, support
from .partition import BadStateSpec
from .predicate import CONSTANTS, predicate_places

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r'"[^"]*"|#|[A-Za-z_][A-Za-z0-9_]*|[{};]|\S')
# a line of names and of single digits, braces and semicolons, each
# followed by a space, a tab or the end of the line: `str.split` gives
# the tokens `_TOKEN_RE` would, and none needs a check of its characters
_PLAIN_RE = re.compile(
    r"[ \t]*(?:(?:[A-Za-z_][A-Za-z0-9_]*|[{};0-9])(?:[ \t]+|\Z))*")

_KINDS = {"controllable": True, "uncontrollable": False}
# where a list of place names ends: an in list at the `;`, an out list
# at the `}`, and a forbidden `state` list at the next item or the `}`
_IN_STOP = frozenset(";")
_OUT_STOP = frozenset("}")
_ITEM_STOP = frozenset(("expr", "deadlock", "state", "}"))
_ITEMS = "'expr', 'deadlock', 'state' or '}'"
# words no place may be named: the predicate would read a constant, and
# a `state` list would stop at an item keyword
_RESERVED = {**dict.fromkeys(CONSTANTS, "the predicate constant"),
             **dict.fromkeys(("expr", "deadlock", "state"),
                             "a forbidden block item")}
_ARC_TWICE = ("place %r listed twice in the %s list of %r; "
              "arc weights other than 1 are not supported")


@dataclass
class NetDocument:
    """A parsed .pnet file: the net and what is forbidden."""

    net: PetriNet
    spec: BadStateSpec | None = None


class _Cursor:
    """The tokens of a document, as plain strings.  `next_line` starts
    on the next line that holds a token; `gather` appends the tokens of
    one more line, as the forbidden block does up to its `}`.  A line
    is tokenized when it is reached, so the first error in the text is
    the one reported.  Columns are not kept: `locate` finds a token's
    line and column again, from the text, when an error needs them.

    The methods take the index of the token they check, and none of
    them moves through the tokens on its own."""

    def __init__(self, text: str, source: str):
        self.lines = text.splitlines()
        self.rest = iter(self.lines)  # the lines not gathered yet
        self.source = source
        self.line = 0  # the lines gathered so far
        self.first = 0  # the line the current tokens start on
        self.tokens: list[str] = []

    def gather(self) -> bool:
        """Append the tokens of the next line; False at the end."""
        text = next(self.rest, None)
        if text is None:
            return False
        self.line += 1
        if _PLAIN_RE.fullmatch(text):
            self.tokens += text.split()
            return True
        for m in _TOKEN_RE.finditer(text):
            tok = m.group()
            if tok == "#":
                break
            if tok == '"':
                raise PnetSyntaxError("unterminated string", self.source,
                                      self.line, m.start() + 1)
            if len(tok) == 1 and not (tok.isalnum() or tok in "{};_"):
                raise PnetSyntaxError("unexpected character %r" % tok,
                                      self.source, self.line, m.start() + 1)
            self.tokens.append(tok)
        return True

    def next_line(self) -> list[str] | None:
        """The tokens of the next line that holds any; None at the end."""
        self.tokens = []
        while not self.tokens:
            if not self.gather():
                return None
        self.first = self.line
        return self.tokens

    def locate(self, i: int, first: int | None = None) -> tuple[int, int]:
        """The line and column of token i of the tokens that start on
        line `first` (by default the current tokens)."""
        line = self.first if first is None else first
        while True:
            for m in _TOKEN_RE.finditer(self.lines[line - 1]):
                if m.group() == "#":
                    break
                if i == 0:
                    return line, m.start() + 1
                i -= 1
            line += 1

    def error(self, message: str, i: int) -> PnetSyntaxError:
        return PnetSyntaxError(message, self.source, *self.locate(i))

    def take(self, i: int, what: str) -> str:
        if i >= len(self.tokens):
            raise PnetSyntaxError("expected %s, found end of line" % what,
                                  self.source, self.line)
        return self.tokens[i]

    def expect(self, i: int, *literals: str) -> None:
        """Tokens i, i + 1, ... must be the `literals`."""
        tokens = self.tokens
        for literal in literals:
            if i >= len(tokens) or tokens[i] != literal:
                tok = self.take(i, "'%s'" % literal)
                raise self.error("expected '%s', found %r" % (literal, tok),
                                 i)
            i += 1

    def name(self, i: int, what: str) -> str:
        tokens = self.tokens
        if i < len(tokens) and _NAME_RE.match(tokens[i]):
            return tokens[i]
        tok = self.take(i, what)
        raise self.error("expected %s, found %r" % (what, tok), i)

    def end(self, i: int, what: str) -> None:
        if i < len(self.tokens):
            raise self.error("trailing %r after %s" % (self.tokens[i], what),
                             i)

    def places(self, i: int, index: dict[str, int], stop, duplicate: str,
               *about: str) -> tuple[list[int], int]:
        """The place numbers of the names from token i up to a token in
        `stop` or the end of the tokens, and the index where they end.
        A name `index` does not hold is an error, as is a name read
        twice: `duplicate % (name, *about)`.  No token in `stop` names
        a place, so only a name the lookup misses is tested against
        it."""
        tokens = self.tokens
        get = index.get
        picked: list[int] = []
        seen: set[int] = set()
        for i in range(i, len(tokens)):
            name = tokens[i]
            p = get(name)
            if p is None:
                if name in stop:
                    return picked, i
                if not _NAME_RE.match(name):
                    raise self.error("expected place name, found %r" % name,
                                     i)
                raise UnknownPlaceName("%s:%d:%d: unknown place %r"
                                       % (self.source, *self.locate(i), name))
            if p in seen:
                raise self.error(duplicate % (name, *about), i)
            seen.add(p)
            picked.append(p)
        return picked, len(tokens)


def parse_net(text: str, source: str = "<string>") -> NetDocument:
    """Parse .pnet text into a validated NetDocument."""
    name = places = initial = expr = None
    place_index: dict[str, int] = {}
    t_names: list[str] = []
    t_seen: set[str] = set()
    t_ctrl: list[bool] = []
    t_pre: list[list[int]] = []
    t_post: list[list[int]] = []
    forbidden = deadlock = False
    states: list[Marking] = []

    cur = _Cursor(text, source)
    while (tokens := cur.next_line()) is not None:
        directive = tokens[0]

        # most lines are transitions, so they are tested for first
        if directive == "transition":
            tname = cur.name(1, "transition name")
            if tname in t_seen:
                raise cur.error("duplicate transition %r" % tname, 1)
            controllable = _KINDS.get(
                cur.take(2, "'controllable' or 'uncontrollable'"))
            if controllable is None:
                raise cur.error("expected 'controllable' or "
                                "'uncontrollable', found %r" % tokens[2], 2)
            # the fixed words are compared in one go; `expect` and `end`
            # run only to report the first that is wrong
            if tokens[3:5] != ["{", "in"]:
                cur.expect(3, "{", "in")
            pre, i = cur.places(5, place_index, _IN_STOP, _ARC_TWICE,
                                "in", tname)
            if tokens[i:i + 2] != [";", "out"]:
                cur.expect(i, ";", "out")
            post, i = cur.places(i + 2, place_index, _OUT_STOP,
                                 _ARC_TWICE, "out", tname)
            if tokens[i:] != ["}"]:
                cur.expect(i, "}")
                cur.end(i + 1, "transition")
            t_names.append(tname)
            t_seen.add(tname)
            t_ctrl.append(controllable)
            t_pre.append(pre)
            t_post.append(post)

        elif directive == "net":
            if name is not None:
                raise cur.error("duplicate net line", 0)
            name = cur.name(1, "net name")
            cur.end(2, "net name")

        elif directive == "places":
            if places is not None:
                raise cur.error("duplicate places line", 0)
            for i in range(1, len(tokens)):
                p = cur.name(i, "place name")
                if p in _RESERVED:
                    raise cur.error("place name %r is reserved for %s"
                                    % (p, _RESERVED[p]), i)
                if p in place_index:
                    raise cur.error("duplicate place %r" % p, i)
                place_index[p] = i - 1
            places = tokens[1:]
            if not places:
                raise cur.error("places line declares no places", 0)

        elif directive == "initial":
            if initial is not None:
                raise cur.error("duplicate initial line", 0)
            initial, _ = cur.places(1, place_index, (),
                                    "duplicate place %r in initial marking")

        elif directive == "forbidden":
            if forbidden:
                raise cur.error("duplicate forbidden block", 0)
            forbidden = True
            if len(tokens) < 2 or tokens[1] != "{":
                raise cur.error("expected '{' after forbidden", 0)
            seen = 2
            while "}" not in tokens[seen:]:
                seen = len(tokens)
                if not cur.gather():
                    raise PnetSyntaxError("forbidden block is never closed",
                                          source, cur.first)
            i = 2
            while (item := cur.take(i, _ITEMS)) != "}":
                at, i = i, i + 1
                if item == "expr":
                    if expr is not None:
                        raise cur.error("duplicate expr in forbidden block",
                                        at)
                    expr = cur.take(i, "quoted expression")
                    if not expr.startswith('"'):
                        raise cur.error("expr needs a quoted expression, "
                                        "found %r" % expr, i)
                    expr_at = i, cur.first
                    i += 1
                elif item == "deadlock":
                    if deadlock:
                        raise cur.error(
                            "duplicate deadlock in forbidden block", at)
                    deadlock = True
                elif item == "state":
                    marked, i = cur.places(
                        i, place_index, _ITEM_STOP,
                        "duplicate place %r in forbidden state")
                    if not marked:
                        raise cur.error("forbidden state lists no places",
                                        at)
                    states.append(Marking.from_support(len(places), marked))
                else:
                    raise cur.error("expected %s, found %r"
                                    % (_ITEMS, item), at)
            cur.end(i + 1, "forbidden block")

        else:
            raise cur.error("unknown directive %r" % directive, 0)

    if name is None:
        raise PnetSyntaxError("missing net line", source)
    if places is None:
        raise PnetSyntaxError("missing places line", source)

    net = PetriNet(name, places, t_names, t_ctrl, t_pre, t_post,
                   Marking.from_support(len(places), initial or ()))
    if expr is None and not deadlock and not states:
        return NetDocument(net=net)
    # the spec parses the expr; its places are checked last, as it may
    # name places declared after it.  Its errors point at its string.
    if expr is not None:
        expr = expr[1:-1]
    try:
        spec = BadStateSpec(expr=expr, explicit=tuple(states),
                            include_deadlocks=deadlock)
    except PnetSyntaxError as exc:
        raise PnetSyntaxError(exc.message, source,
                              *cur.locate(*expr_at)) from None
    if spec.tree is not None:
        unknown = predicate_places(spec.tree) - place_index.keys()
        if unknown:
            raise UnknownPlaceName(
                "%s:%d:%d: unknown place %r in forbidden expr %r"
                % (source, *cur.locate(*expr_at), min(unknown), expr))
    return NetDocument(net=net, spec=spec)


def parse_net_file(path) -> NetDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_net(fh.read(), source=str(path))


def serialize_net(net: PetriNet, spec: BadStateSpec | None = None) -> str:
    """Canonical text form; `parse_net` inverts it exactly.  A name or
    an expr it would not read back, or an explicit state that is empty
    or not as wide as the net, is a ValueError."""
    for kind, names in (("net", [net.name]), ("place", net.places),
                        ("transition", net.transitions)):
        for name in names:
            if (not _NAME_RE.match(name)
                    or kind == "place" and name in _RESERVED):
                raise ValueError("the text format cannot express the %s "
                                 "name %r" % (kind, name))
    lines = ["net %s" % net.name]
    lines.append("places %s" % " ".join(net.places))
    lines.append("initial %s" % " ".join(
        net.places[p] for p in net.m0.support()
    ))
    for t in range(net.n_transitions):
        pre = " ".join(net.places[p] for p in support(net.pre_masks[t]))
        post = " ".join(net.places[p] for p in support(net.post_masks[t]))
        kind = "controllable" if net.controllable[t] else "uncontrollable"
        lines.append(
            "transition %s %s { in%s ; out%s }" % (
                net.transitions[t], kind,
                " " + pre if pre else "",
                " " + post if post else "",
            )
        )
    if spec is not None:
        lines.append("forbidden {")
        if spec.expr is not None:
            if spec.expr.splitlines() != [spec.expr]:
                raise ValueError("the text format cannot express an expr "
                                 "that spans lines: %r" % spec.expr)
            lines.append('  expr "%s"' % spec.expr)
        if spec.include_deadlocks:
            lines.append("  deadlock")
        for m in spec.explicit:
            if m.width != net.n_places:
                raise ValueError(
                    "explicit forbidden state has %d bits, net has %d "
                    "places" % (m.width, net.n_places)
                )
            if not m.mask:
                raise ValueError(
                    "the text format cannot express the empty marking as "
                    "an explicit forbidden state; use an expr like %r"
                    % " & ".join("!%s" % p for p in net.places)
                )
            lines.append("  state %s" % " ".join(
                net.places[p] for p in m.support()
            ))
        lines.append("}")
    return "\n".join(lines) + "\n"
