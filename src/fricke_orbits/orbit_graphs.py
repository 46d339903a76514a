"""Colored involution graphs of closed orbits.

A closed orbit induces a pseudograph on its points: each generator in
{x, y, z} is an involution, so per color every vertex either carries a
self-loop (fixed point) or is matched with exactly one partner.  This
module reads that matching structure from a verified orbit record,
decides whether the even-word subgroup still acts transitively, and
renders deterministic DOT text with angle-triple vertex labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fricke_action import COLORS, Point3, cosine_angle
from .orbit_search import OrbitRecord, component_labels, verify_record

# DOT rendering constants: one fixed color per generator.
DOT_COLORS = {"x": "red", "y": "green", "z": "blue"}

Matching = Tuple[int, ...]


@dataclass(frozen=True)
class ColoredGraph:
    """Vertex count plus one involutive matching-with-fixed-points per color.

    matchings[c][i] is the partner of vertex i under generator c; a value
    of i itself is a self-loop.  One partner per vertex per color means a
    same-color multi-edge cannot even be represented.
    """

    size: int
    matchings: Tuple[Matching, Matching, Matching]

    def loops(self, c: int) -> Tuple[int, ...]:
        m = self.matchings[c]
        return tuple(i for i in range(self.size) if m[i] == i)

    def color_edges(self, c: int) -> List[Tuple[int, int]]:
        """Edges of one color as (i, j) with i <= j; self-loops included."""
        m = self.matchings[c]
        return [(i, m[i]) for i in range(self.size) if m[i] >= i]

    def self_loop_counts(self) -> Dict[str, int]:
        return {name: len(self.loops(c)) for c, name in enumerate(COLORS)}


def build_graph(rec: OrbitRecord) -> ColoredGraph:
    """The colored graph of a closed record, after an exact re-check.

    Vertex i gets a color-c edge to j iff generator c maps point i to
    point j (a self-loop when fixed).  `verify_record` confirms every such
    edge of the stored neighbor table and surface membership, and raises
    ValueError on a corrupt record.
    """

    verify_record(rec)
    return ColoredGraph(size=rec.size, matchings=rec.neighbors)


def is_connected(g: ColoredGraph) -> bool:
    return all(label == 0 for label in component_labels(g.matchings, g.size))


def lambda_orbit_count(g: ColoredGraph) -> int:
    """1 when the even-word subgroup is still transitive, else 2.

    Even words preserve the parity of word length, so the orbit splits
    into two parity classes exactly when the graph is bipartite; any
    self-loop is an odd closed walk and forces a single class.  Requires
    a connected graph (true for every orbit graph).
    """

    if not is_connected(g):
        raise ValueError("lambda_orbit_count needs a connected graph")
    side = [0] * g.size
    side[0] = 1
    queue = [0]
    while queue:
        i = queue.pop()
        for c in range(3):
            j = g.matchings[c][i]
            if j == i:
                return 1
            if side[j] == 0:
                side[j] = -side[i]
                queue.append(j)
            elif side[j] == side[i]:
                return 1
    return 2


def bad_points(g: ColoredGraph) -> Tuple[int, ...]:
    """Vertices fixed by at least two of the three generators."""

    out = []
    for i in range(g.size):
        if sum(1 for c in range(3) if g.matchings[c][i] == i) >= 2:
            out.append(i)
    return tuple(out)


def cycle_count(g: ColoredGraph) -> int:
    """Independent simple cycles of length >= 2 (self-loops not counted)."""

    edges = sum(1 for c in range(3) for i, j in g.color_edges(c) if i != j)
    ncomp = len(set(component_labels(g.matchings, g.size)))
    return edges - g.size + ncomp


def graph_stats(g: ColoredGraph) -> Dict[str, object]:
    """JSON-ready statistics block for one orbit graph."""

    return {
        "selfLoops": g.self_loop_counts(),
        "badPoints": len(bad_points(g)),
        "lambdaOrbits": lambda_orbit_count(g),
        "cycles": cycle_count(g),
    }


def angle_label(v) -> str:
    """Label a coordinate by its angle n/N with v = 2cos(pi*n/N).

    Endpoints map to "0" and "1"; values outside the cosine dictionary
    fall back to a short decimal so every vertex still gets a label.
    """

    if v == 2:
        return "0"
    if v == -2:
        return "1"
    fr = cosine_angle(v)
    if fr is not None:
        return f"{fr.numerator}/{fr.denominator}"
    return format(v.float_value(), ".6g")


def point_labels(points: Sequence[Point3]) -> Tuple[str, ...]:
    return tuple(
        "(" + ", ".join(angle_label(c) for c in p) + ")" for p in points
    )


def export_dot(g: ColoredGraph, labels: Optional[Sequence[str]] = None) -> str:
    """Deterministic DOT text; x edges red, y green, z blue; loops rendered."""

    if labels is not None and len(labels) != g.size:
        raise ValueError("one label per vertex required")
    lines = ["graph orbit {", "  node [shape=circle];"]
    for i in range(g.size):
        if labels is None:
            lines.append(f"  {i};")
        else:
            text = labels[i].replace('"', '\\"')
            lines.append(f'  {i} [label="{text}"];')
    for c, name in enumerate(COLORS):
        for i, j in g.color_edges(c):
            lines.append(f"  {i} -- {j} [color={DOT_COLORS[name]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
