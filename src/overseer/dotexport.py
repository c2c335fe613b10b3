"""Graphviz DOT text for reachability graphs.

Authorized states are drawn white, forbidden states dark gray with a
light label, and border states get a double outline on top of the
forbidden styling.  Uncontrollable firings are dashed.  Output is
deterministic: nodes in state-id order, edges in discovery order.
"""

from __future__ import annotations

from .net import PetriNet, ReachabilityGraph
from .partition import StatePartition
from .synthesis import ClosedLoopReport, Controller


def _quote(s: str) -> str:
    return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')


def _digraph(net: PetriNet, title: str, node_style: str, nodes,
             edges) -> str:
    """The DOT text of a state graph: `nodes` holds the attributes of
    state i at index i, and `edges` the (source, transition, target)
    rows, drawn with the transition's name and dashed when it is
    uncontrollable."""
    out = ["digraph %s {" % _quote(title),
           "  rankdir=TB;",
           "  node [%s];" % node_style,
           '  edge [fontname="Helvetica"];',
           '  __init [shape=point, width=0.12, label=""];']
    out += ["  s%d [%s];" % (sid, attrs) for sid, attrs in enumerate(nodes)]
    out.append("  __init -> s0;")
    for s, t, d in edges.tolist():
        dashed = "" if net.controllable[t] else ", style=dashed"
        out.append("  s%d -> s%d [label=%s%s];"
                   % (s, d, _quote(net.transitions[t]), dashed))
    out.append("}")
    return "\n".join(out) + "\n"


def rg_to_dot(rg: ReachabilityGraph,
              partition: StatePartition | None = None,
              title: str | None = None) -> str:
    net = rg.net
    style = ['fillcolor="white"'] * rg.n_states
    if partition is not None:
        for sid in partition.m_f.tolist():
            style[sid] = 'fillcolor="gray25", fontcolor="white"'
        for sid in partition.m_b.tolist():
            style[sid] += ", peripheries=2"
    nodes = ["label=%s, %s" % (_quote(name), attrs)
             for name, attrs in zip(net.format_masks(rg.masks), style)]
    return _digraph(net, title or net.name,
                    'shape=ellipse, style=filled, fontname="Helvetica"',
                    nodes, rg.edges)


def closed_loop_to_dot(net: PetriNet, controller: Controller,
                       report: ClosedLoopReport) -> str:
    """The controlled state space; labels show the plant projection and,
    when control places exist, their token counts."""
    nodes = []
    for name, ctrl in zip(net.format_masks(report.projections),
                          report.control_markings.tolist()):
        if ctrl:
            name += "\\n%s" % " ".join(
                "%s=%d" % (place, c)
                for place, c in zip(controller.place_names, ctrl)
            )
        nodes.append('label="%s"' % name)
    return _digraph(net, net.name + "_controlled",
                    'shape=ellipse, style=filled, fillcolor="white", '
                    'fontname="Helvetica"', nodes, report.edges)
