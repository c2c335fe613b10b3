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


def rg_to_dot(rg: ReachabilityGraph,
              partition: StatePartition | None = None,
              title: str | None = None) -> str:
    net = rg.net
    out = ["digraph %s {" % _quote(title or net.name)]
    out.append("  rankdir=TB;")
    out.append('  node [shape=ellipse, style=filled, fontname="Helvetica"];')
    out.append('  edge [fontname="Helvetica"];')
    out.append('  __init [shape=point, width=0.12, label=""];')
    style = ['fillcolor="white"'] * rg.n_states
    if partition is not None:
        for sid in partition.m_f.tolist():
            style[sid] = 'fillcolor="gray25", fontcolor="white"'
        for sid in partition.m_b.tolist():
            style[sid] += ", peripheries=2"
    for sid, (mask, attrs) in enumerate(zip(rg.masks, style)):
        out.append("  s%d [label=%s, %s];"
                   % (sid, _quote(net.format_mask(mask)), attrs))
    out.append("  __init -> s0;")
    for s, t, d in rg.edges.tolist():
        attrs = ["label=%s" % _quote(net.transitions[t])]
        if not net.controllable[t]:
            attrs.append("style=dashed")
        out.append("  s%d -> s%d [%s];" % (s, d, ", ".join(attrs)))
    out.append("}")
    return "\n".join(out) + "\n"


def closed_loop_to_dot(net: PetriNet, controller: Controller,
                       report: ClosedLoopReport) -> str:
    """The controlled state space; labels show the plant projection and,
    when control places exist, their token counts."""
    out = ["digraph %s {" % _quote(net.name + "_controlled")]
    out.append("  rankdir=TB;")
    out.append('  node [shape=ellipse, style=filled, fillcolor="white", '
               'fontname="Helvetica"];')
    out.append('  edge [fontname="Helvetica"];')
    out.append('  __init [shape=point, width=0.12, label=""];')
    for sid, (mask, ctrl) in enumerate(
            zip(report.projections, report.control_markings.tolist())):
        label = net.format_mask(mask)
        if ctrl:
            label += "\\n%s" % " ".join(
                "%s=%d" % (name, c)
                for name, c in zip(controller.place_names, ctrl)
            )
        out.append('  s%d [label="%s"];' % (sid, label))
    out.append("  __init -> s0;")
    for s, t, d in report.edges.tolist():
        attrs = ["label=%s" % _quote(net.transitions[t])]
        if not net.controllable[t]:
            attrs.append("style=dashed")
        out.append("  s%d -> s%d [%s];" % (s, d, ", ".join(attrs)))
    out.append("}")
    return "\n".join(out) + "\n"
