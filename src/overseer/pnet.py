"""Reading and writing the line-oriented .pnet text format.

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

`#` starts a comment outside quotes.  Arc multiplicity is fixed at one:
naming a place twice in the same in or out list is rejected rather than
interpreted as a weight-2 arc.  `serialize_net` emits a canonical form
(declared order for places and transitions, place order inside arc
lists) so that parse and print round-trip byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PnetSyntaxError, UnknownPlaceName
from .net import Marking, PetriNet, support
from .partition import BadStateSpec
from .predicate import CONSTANTS, check_predicate

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r'"[^"]*"|[A-Za-z_][A-Za-z0-9_]*|[{};]|\S')

_KEYWORDS = ("net", "places", "initial", "transition", "forbidden")


@dataclass
class NetDocument:
    """A parsed .pnet file: the net and what is forbidden."""

    net: PetriNet
    spec: BadStateSpec | None = None


def _strip_comment(line: str) -> str:
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _tokens(line: str, lineno: int, source: str):
    out = []
    for m in _TOKEN_RE.finditer(line):
        text = m.group(0)
        col = m.start() + 1
        if len(text) == 1 and not (text.isalnum() or text in '{};_"'):
            raise PnetSyntaxError(
                "unexpected character %r" % text, source, lineno, col
            )
        if text == '"':
            raise PnetSyntaxError(
                "unterminated string", source, lineno, col
            )
        out.append((text, col))
    return out


class _LineParser:
    """One pass over the token stream of a single logical block."""

    def __init__(self, tokens, source, lineno):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.lineno = lineno

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self):
        return self.tokens[self.pos][0] if not self.done() else None

    def take(self, what: str):
        if self.done():
            raise PnetSyntaxError(
                "expected %s, found end of line" % what,
                self.source, self.lineno,
            )
        text, col = self.tokens[self.pos]
        self.pos += 1
        return text, col

    def expect(self, literal: str):
        text, col = self.take("'%s'" % literal)
        if text != literal:
            raise PnetSyntaxError(
                "expected '%s', found %r" % (literal, text),
                self.source, self.lineno, col,
            )

    def take_name(self, what: str):
        text, col = self.take(what)
        if not _NAME_RE.match(text):
            raise PnetSyntaxError(
                "expected %s, found %r" % (what, text),
                self.source, self.lineno, col,
            )
        return text, col


def parse_net(text: str, source: str = "<string>") -> NetDocument:
    """Parse .pnet text into a validated NetDocument."""
    name = None
    places: list[str] = []
    place_index: dict[str, int] = {}
    initial: list[int] = []
    saw_initial = False
    t_names: list[str] = []
    t_ctrl: list[bool] = []
    t_pre: list[list[int]] = []
    t_post: list[list[int]] = []
    forb_expr = None
    forb_deadlock = False
    forb_states: list[Marking] = []
    saw_forbidden = False

    def resolve(pname, lineno, col):
        idx = place_index.get(pname)
        if idx is None:
            raise UnknownPlaceName(
                "%s:%d:%d: unknown place %r" % (source, lineno, col, pname)
            )
        return idx

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = _strip_comment(lines[i])
        i += 1
        toks = _tokens(raw, lineno, source)
        if not toks:
            continue
        head, hcol = toks[0]
        lp = _LineParser(toks[1:], source, lineno)

        if head == "net":
            if name is not None:
                raise PnetSyntaxError(
                    "duplicate net line", source, lineno, hcol
                )
            name, _ = lp.take_name("net name")

        elif head == "places":
            if places:
                raise PnetSyntaxError(
                    "duplicate places line", source, lineno, hcol
                )
            while not lp.done():
                pname, col = lp.take_name("place name")
                if pname in place_index:
                    raise PnetSyntaxError(
                        "duplicate place %r" % pname, source, lineno, col
                    )
                if pname in CONSTANTS:
                    raise PnetSyntaxError(
                        "place name %r is reserved for the predicate "
                        "constant" % pname, source, lineno, col,
                    )
                place_index[pname] = len(places)
                places.append(pname)
            if not places:
                raise PnetSyntaxError(
                    "places line declares no places", source, lineno, hcol
                )

        elif head == "initial":
            if saw_initial:
                raise PnetSyntaxError(
                    "duplicate initial line", source, lineno, hcol
                )
            saw_initial = True
            while not lp.done():
                pname, col = lp.take_name("place name")
                idx = resolve(pname, lineno, col)
                if idx in initial:
                    raise PnetSyntaxError(
                        "duplicate place %r in initial marking" % pname,
                        source, lineno, col,
                    )
                initial.append(idx)

        elif head == "transition":
            tname, tcol = lp.take_name("transition name")
            if tname in t_names:
                raise PnetSyntaxError(
                    "duplicate transition %r" % tname, source, lineno, tcol
                )
            kind, kcol = lp.take("'controllable' or 'uncontrollable'")
            if kind not in ("controllable", "uncontrollable"):
                raise PnetSyntaxError(
                    "expected 'controllable' or 'uncontrollable', found %r"
                    % kind, source, lineno, kcol,
                )
            lp.expect("{")
            lp.expect("in")
            pre: list[int] = []
            while lp.peek() not in (";", None):
                pname, col = lp.take_name("place name")
                idx = resolve(pname, lineno, col)
                if idx in pre:
                    raise PnetSyntaxError(
                        "place %r listed twice in the in list of %r; "
                        "arc weights other than 1 are not supported"
                        % (pname, tname), source, lineno, col,
                    )
                pre.append(idx)
            lp.expect(";")
            lp.expect("out")
            post: list[int] = []
            while lp.peek() not in ("}", None):
                pname, col = lp.take_name("place name")
                idx = resolve(pname, lineno, col)
                if idx in post:
                    raise PnetSyntaxError(
                        "place %r listed twice in the out list of %r; "
                        "arc weights other than 1 are not supported"
                        % (pname, tname), source, lineno, col,
                    )
                post.append(idx)
            lp.expect("}")
            if not lp.done():
                text2, col = lp.take("")
                raise PnetSyntaxError(
                    "trailing %r after transition" % text2,
                    source, lineno, col,
                )
            t_names.append(tname)
            t_ctrl.append(kind == "controllable")
            t_pre.append(pre)
            t_post.append(post)

        elif head == "forbidden":
            if saw_forbidden:
                raise PnetSyntaxError(
                    "duplicate forbidden block", source, lineno, hcol
                )
            saw_forbidden = True
            # gather (token, col, line) until the close brace, possibly
            # spanning several lines
            body = [(t, c, lineno) for t, c in lp.tokens[lp.pos:]]
            open_line = lineno
            if not body or body[0][0] != "{":
                raise PnetSyntaxError(
                    "expected '{' after forbidden", source, lineno, hcol
                )
            body = body[1:]
            closed = any(t == "}" for t, _, _ in body)
            while not closed:
                if i >= len(lines):
                    raise PnetSyntaxError(
                        "forbidden block is never closed",
                        source, open_line,
                    )
                more_line = i + 1
                more = [
                    (t, c, more_line)
                    for t, c in _tokens(
                        _strip_comment(lines[i]), more_line, source
                    )
                ]
                i += 1
                body.extend(more)
                closed = any(t == "}" for t, _, _ in more)
            pos = 0

            def nxt(what):
                nonlocal pos
                if pos >= len(body):
                    raise PnetSyntaxError(
                        "expected %s before end of forbidden block" % what,
                        source, open_line,
                    )
                tok = body[pos]
                pos += 1
                return tok

            def at():
                return body[pos][0] if pos < len(body) else None

            while True:
                item, col, iline = nxt("'expr', 'deadlock', 'state' or '}'")
                if item == "}":
                    break
                if item == "expr":
                    if forb_expr is not None:
                        raise PnetSyntaxError(
                            "duplicate expr in forbidden block",
                            source, iline, col,
                        )
                    quoted, qcol, qline = nxt("quoted expression")
                    if not (quoted.startswith('"') and quoted.endswith('"')):
                        raise PnetSyntaxError(
                            "expr needs a quoted expression, found %r"
                            % quoted, source, qline, qcol,
                        )
                    forb_expr = quoted[1:-1]
                elif item == "deadlock":
                    if forb_deadlock:
                        raise PnetSyntaxError(
                            "duplicate deadlock in forbidden block",
                            source, iline, col,
                        )
                    forb_deadlock = True
                elif item == "state":
                    marked = []
                    while at() not in ("expr", "deadlock", "state", "}", None):
                        pname, pcol, pline = nxt("place name")
                        if not _NAME_RE.match(pname):
                            raise PnetSyntaxError(
                                "expected place name, found %r" % pname,
                                source, pline, pcol,
                            )
                        idx = resolve(pname, pline, pcol)
                        if idx in marked:
                            raise PnetSyntaxError(
                                "duplicate place %r in forbidden state"
                                % pname, source, pline, pcol,
                            )
                        marked.append(idx)
                    if not marked:
                        raise PnetSyntaxError(
                            "forbidden state lists no places",
                            source, iline, col,
                        )
                    forb_states.append(
                        Marking.from_support(len(places), marked)
                    )
                else:
                    raise PnetSyntaxError(
                        "expected 'expr', 'deadlock', 'state' or '}', "
                        "found %r" % item, source, iline, col,
                    )
            if pos < len(body):
                text2, col, tline = body[pos]
                raise PnetSyntaxError(
                    "trailing %r after forbidden block" % text2,
                    source, tline, col,
                )

        else:
            raise PnetSyntaxError(
                "unknown directive %r" % head, source, lineno, hcol
            )

    if name is None:
        raise PnetSyntaxError("missing net line", source)
    if not places:
        raise PnetSyntaxError("missing places line", source)

    net = PetriNet(
        name, places, t_names, t_ctrl, t_pre, t_post,
        Marking.from_support(len(places), initial),
    )

    spec = None
    if saw_forbidden and (forb_expr is not None or forb_deadlock
                          or forb_states):
        tree = None
        if forb_expr is not None:
            # resolve names now so a bad expression fails at parse time;
            # the spec keeps the tree, so the partition parses it no more
            tree = check_predicate(forb_expr, place_index, source)
        spec = BadStateSpec(
            expr=forb_expr,
            explicit=tuple(forb_states),
            include_deadlocks=forb_deadlock,
            tree=tree,
        )
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
            if m.card == 0:
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
