"""Graphviz DOT text for reachability graphs.

Authorized states are drawn white, forbidden states dark gray with a
light label, and border states get a double outline on top of the
forbidden styling.  Uncontrollable firings are dashed.  Output is
deterministic: nodes in state-id order, edges in discovery order.
"""

from __future__ import annotations

import numpy as np

from .net import PetriNet, ReachabilityGraph
from .partition import StatePartition
from .synthesis import ClosedLoopReport, Controller

# The DOT writers name and write this many states, and edges, at a time,
# so that no graph's text is held whole.
_NAME_BLOCK = 1 << 14


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"%s"' % _escape(s)


def _digraph(net: PetriNet, title: str, node_style: str, n_states: int,
             attrs, edges):
    """The DOT text of a state graph, in blocks of lines: `attrs(lo, hi)`
    gives the attributes of states lo to hi - 1, and `edges` holds the
    (source, transition, target) rows, drawn with the transition's name
    and dashed when it is uncontrollable."""
    yield "".join(["digraph %s {\n" % _quote(title),
                   "  rankdir=TB;\n",
                   "  node [%s];\n" % node_style,
                   '  edge [fontname="Helvetica"];\n',
                   '  __init [shape=point, width=0.12, label=""];\n'])
    for lo in range(0, n_states, _NAME_BLOCK):
        yield "".join(["  s%d [%s];\n" % (sid, a) for sid, a in
                       enumerate(attrs(lo, lo + _NAME_BLOCK), lo)])
    yield "  __init -> s0;\n"
    # each transition's attribute text, built once for all its edges
    labels = ["[label=%s%s];" % (_quote(name), "" if c else ", style=dashed")
              for name, c in zip(net.transitions, net.controllable)]
    for lo in range(0, len(edges), _NAME_BLOCK):
        yield "".join(["  s%d -> s%d %s\n" % (s, d, labels[t])
                       for s, t, d in edges[lo:lo + _NAME_BLOCK].tolist()])
    yield "}\n"


def rg_to_dot(rg: ReachabilityGraph, partition: StatePartition):
    """The DOT text of the plant's graph, in blocks of lines: every
    state named, and styled by its class."""
    net = rg.net
    # bit 0: forbidden, bit 1: border
    kind = np.zeros(rg.n_states, dtype=np.uint8)
    kind[partition.m_f] = 1
    kind[partition.m_b] += 2
    white, gray = 'fillcolor="white"', 'fillcolor="gray25", fontcolor="white"'
    styles = [white, gray, white + ", peripheries=2", gray + ", peripheries=2"]

    def attrs(lo, hi):
        return ["label=%s, %s" % (_quote(name), styles[k])
                for name, k in zip(net.format_masks(rg.masks[lo:hi]),
                                   kind[lo:hi].tolist())]

    return _digraph(net, net.name,
                    'shape=ellipse, style=filled, fontname="Helvetica"',
                    rg.n_states, attrs, rg.edges)


def closed_loop_to_dot(rg: ReachabilityGraph, controller: Controller,
                       report: ClosedLoopReport):
    """The controlled state space, in blocks of lines; labels show the
    plant marking and, when control places exist, their token counts."""
    net = rg.net

    def attrs(lo, hi):
        out = []
        for name, ctrl in zip(
                net.format_masks(rg.masks_of(report.states[lo:hi])),
                report.control_markings[lo:hi].tolist()):
            label = _escape(name)
            if ctrl:
                # a DOT line break, then the tokens of the control
                # places, whose generated names need no escape
                label += "\\n%s" % " ".join(
                    "%s=%d" % (place, c)
                    for place, c in zip(controller.place_names, ctrl)
                )
            out.append('label="%s"' % label)
        return out

    return _digraph(net, net.name + "_controlled",
                    'shape=ellipse, style=filled, fillcolor="white", '
                    'fontname="Helvetica"', report.state_count, attrs,
                    report.edges)
