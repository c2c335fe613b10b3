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

# a forbidden `state` list runs up to the next item or the `}`
_ITEM_STOP = ("expr", "deadlock", "state", "}")
_ITEMS = "'expr', 'deadlock', 'state' or '}'"
# words no place may be named: the predicate would read a constant, and
# a `state` list would stop at an item keyword
_RESERVED = {**dict.fromkeys(CONSTANTS, "the predicate constant"),
             **dict.fromkeys(_ITEM_STOP[:3], "a forbidden block item")}
_ARC_TWICE = ("place %%r listed twice in the %s list of %r; "
              "arc weights other than 1 are not supported")


@dataclass
class NetDocument:
    """A parsed .pnet file: the net and what is forbidden."""

    net: PetriNet
    spec: BadStateSpec | None = None


class _Cursor:
    """The `(text, column, line)` tokens of a document.  `next_line`
    starts on the next line that holds a token; `gather` appends one
    more line, as the forbidden block does up to its `}`.  A line is
    tokenized when it is reached, so the first error in the text is
    the one reported."""

    def __init__(self, text: str, source: str):
        self.lines = iter(text.splitlines())
        self.source = source
        self.line = 0
        self.tokens: list[tuple[str, int, int]] = []
        self.pos = 0

    def gather(self) -> bool:
        """Append the tokens of the next line; False at the end."""
        text = next(self.lines, None)
        if text is None:
            return False
        self.line += 1
        for m in _TOKEN_RE.finditer(text):
            tok = m.group(0)
            if tok == "#":
                break
            col = m.start() + 1
            if tok == '"':
                raise PnetSyntaxError(
                    "unterminated string", self.source, self.line, col
                )
            if len(tok) == 1 and not (tok.isalnum() or tok in "{};_"):
                raise PnetSyntaxError("unexpected character %r" % tok,
                                      self.source, self.line, col)
            self.tokens.append((tok, col, self.line))
        return True

    def next_line(self) -> bool:
        self.tokens, self.pos = [], 0
        while not self.tokens:
            if not self.gather():
                return False
        return True

    def error(self, message: str, tok) -> PnetSyntaxError:
        return PnetSyntaxError(message, self.source, tok[2], tok[1])

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self, what: str):
        if self.pos >= len(self.tokens):
            raise PnetSyntaxError("expected %s, found end of line" % what,
                                  self.source, self.line)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, literal: str):
        tok = self.take("'%s'" % literal)
        if tok[0] != literal:
            raise self.error("expected '%s', found %r" % (literal, tok[0]),
                             tok)

    def name(self, what: str):
        tok = self.take(what)
        if not _NAME_RE.match(tok[0]):
            raise self.error("expected %s, found %r" % (what, tok[0]), tok)
        return tok

    def end(self, what: str):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise self.error("trailing %r after %s" % (tok[0], what), tok)

    def places(self, index, stop, duplicate: str) -> list:
        """Place names up to a token in `stop` (None: the end of the
        tokens).  With an `index` each becomes its place number and an
        unknown name is an error; without one the names are being
        declared and must not be reserved.  A name read
        twice is the error `duplicate % name`."""
        picked = []
        while self.peek() not in stop:
            tok = name, col, line = self.name("place name")
            if index is None:
                if name in _RESERVED:
                    raise self.error("place name %r is reserved for %s"
                                     % (name, _RESERVED[name]), tok)
                p = name
            else:
                p = index.get(name)
                if p is None:
                    raise UnknownPlaceName("%s:%d:%d: unknown place %r"
                                           % (self.source, line, col, name))
            if p in picked:
                raise self.error(duplicate % name, tok)
            picked.append(p)
        return picked


def parse_net(text: str, source: str = "<string>") -> NetDocument:
    """Parse .pnet text into a validated NetDocument."""
    name = places = initial = expr = None
    place_index: dict[str, int] = {}
    t_names: list[str] = []
    t_ctrl: list[bool] = []
    t_pre: list[list[int]] = []
    t_post: list[list[int]] = []
    forbidden = deadlock = False
    states: list[Marking] = []

    cur = _Cursor(text, source)
    while cur.next_line():
        head = cur.take("directive")
        directive = head[0]

        if directive == "net":
            if name is not None:
                raise cur.error("duplicate net line", head)
            name = cur.name("net name")[0]
            cur.end("net name")

        elif directive == "places":
            if places is not None:
                raise cur.error("duplicate places line", head)
            places = cur.places(None, (None,), "duplicate place %r")
            if not places:
                raise cur.error("places line declares no places", head)
            place_index = {p: i for i, p in enumerate(places)}

        elif directive == "initial":
            if initial is not None:
                raise cur.error("duplicate initial line", head)
            initial = cur.places(place_index, (None,),
                                 "duplicate place %r in initial marking")

        elif directive == "transition":
            tok = cur.name("transition name")
            tname = tok[0]
            if tname in t_names:
                raise cur.error("duplicate transition %r" % tname, tok)
            kind = cur.take("'controllable' or 'uncontrollable'")
            if kind[0] not in ("controllable", "uncontrollable"):
                raise cur.error("expected 'controllable' or "
                                "'uncontrollable', found %r" % kind[0], kind)
            cur.expect("{")
            cur.expect("in")
            t_pre.append(cur.places(place_index, (";", None),
                                    _ARC_TWICE % ("in", tname)))
            cur.expect(";")
            cur.expect("out")
            t_post.append(cur.places(place_index, ("}", None),
                                     _ARC_TWICE % ("out", tname)))
            cur.expect("}")
            cur.end("transition")
            t_names.append(tname)
            t_ctrl.append(kind[0] == "controllable")

        elif directive == "forbidden":
            if forbidden:
                raise cur.error("duplicate forbidden block", head)
            forbidden = True
            if cur.peek() != "{":
                raise cur.error("expected '{' after forbidden", head)
            cur.pos += 1
            seen = cur.pos
            while all(tok[0] != "}" for tok in cur.tokens[seen:]):
                seen = len(cur.tokens)
                if not cur.gather():
                    raise PnetSyntaxError("forbidden block is never closed",
                                          source, head[2])
            while (item := cur.take(_ITEMS))[0] != "}":
                if item[0] == "expr":
                    if expr is not None:
                        raise cur.error("duplicate expr in forbidden block",
                                        item)
                    expr = cur.take("quoted expression")
                    if not expr[0].startswith('"'):
                        raise cur.error("expr needs a quoted expression, "
                                        "found %r" % expr[0], expr)
                elif item[0] == "deadlock":
                    if deadlock:
                        raise cur.error(
                            "duplicate deadlock in forbidden block", item)
                    deadlock = True
                elif item[0] == "state":
                    marked = cur.places(
                        place_index, _ITEM_STOP,
                        "duplicate place %r in forbidden state")
                    if not marked:
                        raise cur.error("forbidden state lists no places",
                                        item)
                    states.append(Marking.from_support(len(places), marked))
                else:
                    raise cur.error("expected %s, found %r"
                                    % (_ITEMS, item[0]), item)
            cur.end("forbidden block")

        else:
            raise cur.error("unknown directive %r" % directive, head)

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
    where = None
    if expr is not None:
        quoted, col, line = expr
        expr, where = quoted[1:-1], (line, col)
    try:
        spec = BadStateSpec(expr=expr, explicit=tuple(states),
                            include_deadlocks=deadlock)
    except PnetSyntaxError as exc:
        raise PnetSyntaxError(exc.message, source, *where) from None
    if spec.tree is not None:
        unknown = sorted(predicate_places(spec.tree) - place_index.keys())
        if unknown:
            raise UnknownPlaceName(
                "%s:%d:%d: unknown place %r in forbidden expr %r"
                % (source, *where, unknown[0], expr))
    return NetDocument(net=net, spec=spec)


def parse_net_file(path) -> NetDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_net(fh.read(), source=str(path))


def serialize_net(net: PetriNet, spec: BadStateSpec | None = None) -> str:
    """Canonical text form; `parse_net` inverts it exactly."""
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
            lines.append('  expr "%s"' % spec.expr)
        if spec.include_deadlocks:
            lines.append("  deadlock")
        for m in spec.explicit:
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
