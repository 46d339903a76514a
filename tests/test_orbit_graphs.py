"""Colored-graph construction, statistics, invariants, and DOT export."""

import json
from typing import Dict, Tuple

import pytest

from fricke_orbits.fricke_action import (
    COLORS,
    Omega,
    apply,
    make_omega,
    make_point,
    points_equal,
)
from fricke_orbits.orbit_graphs import (
    ColoredGraph,
    angle_label,
    bad_points,
    build_graph,
    cycle_count,
    export_dot,
    graph_stats,
    is_connected,
    lambda_orbit_count,
    point_labels,
)
from fricke_orbits.orbit_search import (
    check_involutions,
    close_orbit,
    component_labels,
    get_dictionaries,
)
from fricke_orbits.trig_field import cos_value, from_rational

W5 = make_omega(0, 1, 1, 4)
P1 = make_point(-1, 1, 1)
P2 = make_point(0, 1, 1)
P3 = make_point(0, 1, 0)
P4 = make_point(0, 0, 0)
P5 = make_point(0, 0, 1)


def check_invariants(g: ColoredGraph) -> None:
    """Raise ValueError unless g has every structural property of orbit graphs.

    Checked: each color is an involution; the graph is connected; no two
    vertices are joined in more than one color; per color the non-loop
    edge count is (vertices - self-loops)/2; and no simple cycle contains
    exactly one edge of a given color.  The last reduces to a component
    test: a cycle whose only c-edge is (u, v) is that edge plus a path of
    other-colored edges, so u and v must sit in different components of
    the two-color subgraph.
    """

    check_involutions(g.matchings, g.size)
    if not is_connected(g):
        raise ValueError("orbit graph must be connected")
    seen_pairs: Dict[Tuple[int, int], str] = {}
    for c, name in enumerate(COLORS):
        loops = len(g.loops(c))
        nonloop = [(i, j) for i, j in g.color_edges(c) if i != j]
        if (g.size - loops) % 2 != 0 or len(nonloop) != (g.size - loops) // 2:
            raise ValueError(f"color {name} edge count does not match matching")
        for e in nonloop:
            if e in seen_pairs:
                raise ValueError(f"vertices {e} joined in both {seen_pairs[e]} and {name}")
            seen_pairs[e] = name
        labels = component_labels(g.matchings[:c] + g.matchings[c + 1:], g.size)
        for i, j in nonloop:
            if labels[i] == labels[j]:
                raise ValueError(
                    f"simple cycle with exactly one {name} edge through {(i, j)}"
                )


@pytest.fixture(scope="module")
def five_rec():
    rec = close_orbit(P1, W5)
    assert rec is not None and rec.size == 5
    return rec


@pytest.fixture(scope="module")
def five_graph(five_rec):
    return build_graph(five_rec)


def _doubly_fixed(rec):
    """Points that exact apply fixes in at least two colours: bad_points
    read off the record's table must be these."""
    return tuple(
        i for i, p in enumerate(rec.points)
        if sum(points_equal(apply(g, p, rec.omega), p) for g in "xyz") >= 2
    )


def _index_of(rec, p):
    for i, q in enumerate(rec.points):
        if points_equal(q, p):
            return i
    raise AssertionError("point not in record")


def test_five_point_graph_matchings(five_rec, five_graph):
    g = five_graph
    assert g.size == 5
    idx = {name: _index_of(five_rec, p) for name, p in
           [("P1", P1), ("P2", P2), ("P3", P3), ("P4", P4), ("P5", P5)]}
    # loops: y and z fix P1; x fixes P3, P4, P5
    assert g.loops(0) == tuple(sorted([idx["P3"], idx["P4"], idx["P5"]]))
    assert g.loops(1) == (idx["P1"],)
    assert g.loops(2) == (idx["P1"],)
    # non-loop pairs per color
    def pairs(c):
        return {frozenset(e) for e in g.color_edges(c) if e[0] != e[1]}

    assert pairs(0) == {frozenset({idx["P1"], idx["P2"]})}
    assert pairs(1) == {frozenset({idx["P2"], idx["P5"]}),
                        frozenset({idx["P3"], idx["P4"]})}
    assert pairs(2) == {frozenset({idx["P2"], idx["P3"]}),
                        frozenset({idx["P4"], idx["P5"]})}


def test_five_point_graph_stats(five_rec, five_graph):
    g = five_graph
    check_invariants(g)
    assert lambda_orbit_count(g) == 1
    assert bad_points(g) == (_index_of(five_rec, P1),)
    assert bad_points(g) == _doubly_fixed(five_rec)
    stats = graph_stats(g)
    assert stats == {
        "selfLoops": {"x": 3, "y": 1, "z": 1},
        "badPoints": 1,
        "lambdaOrbits": 1,
        "cycles": 1,
    }
    json.dumps(stats)


def test_five_point_dot(five_rec, five_graph):
    labels = point_labels(five_rec.points)
    dot = export_dot(five_graph, labels)
    assert dot == export_dot(five_graph, labels)
    edge_lines = [l for l in dot.splitlines() if " -- " in l]
    loops = [l for l in edge_lines if l.split(" -- ")[0].strip() == l.split(" -- ")[1].split()[0]]
    assert len(edge_lines) == 10
    assert len(loops) == 5
    for color in ("red", "green", "blue"):
        assert any(color in l for l in edge_lines)
    # angle-triple labels: (0,0,0) -> all 1/2, (-1,1,1) -> (2/3, 1/3, 1/3)
    assert '"(1/2, 1/2, 1/2)"' in dot
    assert '"(2/3, 1/3, 1/3)"' in dot


def test_rebuild_is_deterministic(five_rec):
    rec2 = close_orbit(P1, W5)
    d1 = export_dot(build_graph(five_rec), point_labels(five_rec.points))
    d2 = export_dot(build_graph(rec2), point_labels(rec2.points))
    assert d1 == d2


def test_single_point_graph():
    x, y, z = cos_value(1, 5), cos_value(2, 5), cos_value(1, 3)
    from fricke_orbits.fricke_action import omega4_of

    wx, wy, wz = x * 2 + y * z, y * 2 + x * z, z * 2 + x * y
    rec = close_orbit((x, y, z), Omega(wx, wy, wz, omega4_of((x, y, z), wx, wy, wz)))
    g = build_graph(rec)
    assert g.size == 1 and g.matchings == ((0,), (0,), (0,))
    check_invariants(g)
    assert bad_points(g) == (0,)
    assert lambda_orbit_count(g) == 1
    assert cycle_count(g) == 0
    dot = export_dot(g)
    assert dot.count(" -- ") == 3 and "0 -- 0" in dot


def test_two_point_graph():
    a, b = from_rational(1), cos_value(1, 5)
    rec = close_orbit(
        (a, from_rational(0), from_rational(0)),
        Omega(a + b, from_rational(0), from_rational(0), from_rational(4) + a * b),
    )
    g = build_graph(rec)
    assert g.size == 2
    # one x edge, y and z loops at both vertices
    assert g.matchings == ((1, 0), (0, 1), (0, 1))
    check_invariants(g)
    assert bad_points(g) == (0, 1)
    assert lambda_orbit_count(g) == 1
    assert graph_stats(g)["cycles"] == 0


def test_two_leaf_star_graph():
    om = cos_value(1, 5)
    rec = close_orbit(make_point(1, 0, 0), make_omega(2, om, om, 5))
    g = build_graph(rec)
    assert g.size == 3
    check_invariants(g)
    # center good, both leaves doubly fixed
    degrees = [sum(1 for c in range(3) if g.matchings[c][i] != i) for i in range(3)]
    assert sorted(degrees) == [1, 1, 2]
    assert len(bad_points(g)) == 2 and 0 not in bad_points(g)
    assert graph_stats(g) == {
        "selfLoops": {"x": 3, "y": 1, "z": 1},
        "badPoints": 2,
        "lambdaOrbits": 1,
        "cycles": 0,
    }


def test_three_leaf_star_graph():
    om = from_rational(1)
    rec = close_orbit(make_point(1, 1, 1), Omega(om, om, om, from_rational(3)))
    g = build_graph(rec)
    assert g.size == 4
    check_invariants(g)
    degrees = [sum(1 for c in range(3) if g.matchings[c][i] != i) for i in range(4)]
    assert sorted(degrees) == [1, 1, 1, 3]
    assert bad_points(g) == (1, 2, 3)  # seed center is vertex 0, the good one
    assert lambda_orbit_count(g) == 1
    assert cycle_count(g) == 0


def test_bipartite_synthetic_graphs():
    # two vertices joined by every color, no loops: parity classes survive
    g2 = ColoredGraph(2, ((1, 0), (1, 0), (1, 0)))
    assert is_connected(g2)
    assert lambda_orbit_count(g2) == 2
    # even cycle with chords on the same bipartition
    g4 = ColoredGraph(4, ((1, 0, 3, 2), (1, 0, 3, 2), (3, 2, 1, 0)))
    assert lambda_orbit_count(g4) == 2
    # a single loop flips the answer
    g1 = ColoredGraph(2, ((1, 0), (1, 0), (0, 1)))
    assert lambda_orbit_count(g1) == 1


def test_disconnected_rejected():
    g = ColoredGraph(2, ((0, 1), (0, 1), (0, 1)))
    assert not is_connected(g)
    with pytest.raises(ValueError):
        lambda_orbit_count(g)
    with pytest.raises(ValueError):
        check_invariants(g)


def test_invariants_reject_multi_edge():
    g = ColoredGraph(2, ((1, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        check_invariants(g)


def test_invariants_reject_single_color_cycle():
    # square 0-1 (x), 1-2 (y), 2-3 (z), 3-0 (y): one x edge on a cycle
    g = ColoredGraph(4, ((1, 0, 2, 3), (3, 2, 1, 0), (0, 1, 3, 2)))
    with pytest.raises(ValueError):
        check_invariants(g)


def test_involution_violation_rejected():
    with pytest.raises(ValueError):
        check_invariants(ColoredGraph(3, ((1, 2, 0), (0, 1, 2), (0, 1, 2))))


def test_angle_labels():
    assert angle_label(from_rational(2)) == "0"
    assert angle_label(from_rational(-2)) == "1"
    assert angle_label(from_rational(0)) == "1/2"
    assert angle_label(cos_value(3, 7)) == "3/7"
    from fractions import Fraction

    assert angle_label(from_rational(Fraction(1, 3))) == "0.333333"


def _in_s4(v):
    d = get_dictionaries()
    fv = v.float_value()
    for e in d.s4:
        if abs(fv - e.fval) < 1e-6:
            return (v - e.value).is_zero()
    return False


def test_all_exceptional_graphs(search_result):
    assert len(search_result.records) == 45
    for rec in search_result.records:
        g = build_graph(rec)
        check_invariants(g)
        assert lambda_orbit_count(g) == 1
        assert bad_points(g) == _doubly_fixed(rec)
        # every good point is made of dictionary coordinates
        bad = set(bad_points(g))
        for i, p in enumerate(rec.points):
            if i not in bad:
                assert all(_in_s4(c) for c in p)
        stats = graph_stats(g)
        assert stats["lambdaOrbits"] == 1
        json.dumps(stats)
