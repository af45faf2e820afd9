import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    Bubble,
    ColoredEdge,
    bicolored_face_count,
    bicolored_faces,
    bubble_census,
    bubble_ribbon,
    bubbles,
    build_colored,
    components,
    core,
    dual_counts,
    enumerate_bubbles,
    pair_cycle_count,
    sampling,
)
from tensorgraphs.errors import BadCardinal

from .conftest import melonic
from .test_core import colored_graphs
from .test_reports import escaped_colored
from .test_topology import composition_cycle_oracle


def bubble_faces_oracle(bubble):
    """Count two-color cycles inside one bubble by walking its edge list."""
    total = 0
    for a, b in itertools.combinations(bubble.colors, 2):
        step = {}
        for e in bubble.edges:
            if e.color == a:
                step[("w", e.white)] = ("b", e.black)
            elif e.color == b:
                step[("b", e.black)] = ("w", e.white)
        remaining = set(step)
        while remaining:
            cur = remaining.pop()
            start = cur
            while True:
                cur = step[cur]
                if cur == start:
                    break
                remaining.remove(cur)
            total += 1
    return total


class TestEnumerate:
    def test_dipole_k3(self, dipole):
        bubbles = enumerate_bubbles(dipole, 3)
        assert len(bubbles) == 4
        assert [b.colors for b in bubbles] == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_dipole_k2_equals_faces(self, dipole):
        assert len(enumerate_bubbles(dipole, 2)) == bicolored_faces(dipole).count == 6

    def test_quad_k3(self, quad):
        bubbles = enumerate_bubbles(quad, 3)
        assert len(bubbles) == 4
        for b in bubbles:
            assert len(b.vertices) == 4
            assert len(b.edges) == 6

    def test_bad_cardinal(self, dipole):
        for k in (0, 5):
            with pytest.raises(BadCardinal):
                enumerate_bubbles(dipole, k)

    def test_extreme_cardinals(self, dipole):
        singles = enumerate_bubbles(dipole, 1)
        assert len(singles) == 4
        assert all(len(b.vertices) == 2 and len(b.edges) == 1 for b in singles)
        assert len(enumerate_bubbles(dipole, 4)) == 1  # full color set: connectivity

    def test_partition_per_subset(self, genus_one_graph):
        g = genus_one_graph
        for subset in itertools.combinations(g.colors, 3):
            chunks = [b.vertices for b in enumerate_bubbles(g, 3)
                      if b.colors == subset]
            flat = [v for chunk in chunks for v in chunk]
            assert sorted(flat) == sorted(label for label, _ in g.nodes())

    def test_every_vertex_in_one_bubble_per_subset(self, quad):
        counts = {label: 0 for label, _ in quad.nodes()}
        for b in enumerate_bubbles(quad, 3):
            for v in b.vertices:
                counts[v] += 1
        assert all(c == comb(4, 3) for c in counts.values())

    def test_bubble_vertices_are_k_regular(self, genus_one_graph):
        for k in (2, 3):
            for b in enumerate_bubbles(genus_one_graph, k):
                incident = {v: 0 for v in b.vertices}
                for e in b.edges:
                    incident[e.white] += 1
                    incident[e.black] += 1
                assert all(count == k for count in incident.values())

    def test_detach_is_plain_data(self, dipole):
        data = enumerate_bubbles(dipole, 3)[0].detach()
        assert data["colors"] == [0, 1, 2]
        assert data["vertices"] == ["w1", "b1"]
        assert len(data["edges"]) == 3

    def test_bubble_is_a_plain_record(self, dipole):
        bubble = enumerate_bubbles(dipole, 3)[0]
        assert Bubble._fields == ("colors", "vertices", "edges")
        assert not hasattr(bubble, "__dict__")


class TestRibbon:
    def test_dipole_bubbles(self, dipole):
        for b in enumerate_bubbles(dipole, 3):
            rc = bubble_ribbon(b)
            assert (rc.v, rc.e, rc.f) == (2, 3, 3)
            assert rc.genus == 0

    def test_quad_bubble(self, quad):
        b = [x for x in enumerate_bubbles(quad, 3) if x.colors == (0, 1, 2)][0]
        rc = bubble_ribbon(b)
        assert (rc.v, rc.e, rc.f) == (4, 6, 4)
        assert rc.genus == 0

    def test_genus_one_bubble(self, genus_one_graph):
        b = [x for x in enumerate_bubbles(genus_one_graph, 3)
             if x.colors == (1, 2, 3)][0]
        rc = bubble_ribbon(b)
        assert (rc.v, rc.e, rc.f) == (6, 9, 3)
        assert rc.genus == 1

    def test_faces_match_both_oracles(self, genus_one_graph):
        g = genus_one_graph
        for b in enumerate_bubbles(g, 3):
            rc = bubble_ribbon(b)
            assert rc.f == bubble_faces_oracle(b)
            whites = {g.white_index[v] for v in b.vertices if v in g.white_index}
            if whites == set(range(g.n)):  # bubble spans the whole graph
                assert rc.f == sum(
                    composition_cycle_oracle(g, a, c)
                    for a, c in itertools.combinations(b.colors, 2))

    def test_rebuilt_from_detached_data(self, genus_one_graph):
        """A bubble is its own data: rebuilt from ``detach``, with no graph
        at hand, it has the same ribbon counts."""
        for b in enumerate_bubbles(genus_one_graph, 3):
            data = b.detach()
            rebuilt = Bubble(tuple(data["colors"]), tuple(data["vertices"]),
                             tuple(ColoredEdge(*e) for e in data["edges"]))
            assert rebuilt == b and bubble_ribbon(rebuilt) == bubble_ribbon(b)

    def test_ribbon_needs_three_colors(self, dipole):
        pair_bubble = enumerate_bubbles(dipole, 2)[0]
        with pytest.raises(BadCardinal):
            bubble_ribbon(pair_bubble)

    def test_two_vertex_bubbles_have_three_faces(self, dipole):
        # V=2 forces F >= 3: no colored bubble reproduces counts (2, 3, 1)
        for b in enumerate_bubbles(dipole, 3):
            assert bubble_ribbon(b).f >= 3


class TestCensus:
    def test_dipole(self, dipole):
        result = bubble_census(dipole)
        assert result.total == 4
        assert result.planar_count == 4
        assert result.genus_histogram == {0: 4}

    def test_quad(self, quad):
        result = bubble_census(quad)
        assert result.total == 4
        assert result.planar_count == 4
        assert result.genus_histogram == {0: 4}

    def test_genus_one_graph(self, genus_one_graph):
        result = bubble_census(genus_one_graph)
        assert result.genus_histogram.get(1, 0) >= 1
        assert result.genus_histogram == {0: 2, 1: 2}
        assert result.planar_count == 2

    def test_deterministic(self, genus_one_graph):
        assert bubble_census(genus_one_graph) == bubble_census(genus_one_graph)

    def test_record_invariants(self, genus_one_graph):
        for r in bubble_census(genus_one_graph).records:
            assert r.chi == r.v - r.e + r.f == 2 - 2 * r.genus
            assert r.planar == (r.genus == 0)


class TestOrdering:
    """Two different orders, told apart by labels whose string order
    differs from their declaration order."""

    @pytest.fixture
    def graph(self):
        # colors 0, 1 pair each white with the black at its index; color 2
        # crosses w20 and w10
        whites, blacks = ["w9", "w20", "w10"], ["z", "a", "m"]
        edges = [(c, w, b) for c in (0, 1) for w, b in zip(whites, blacks)]
        edges += [(2, "w9", "z"), (2, "w20", "m"), (2, "w10", "a")]
        return build_colored(2, whites, blacks, edges)

    def test_components_by_declaration_index(self, graph):
        comps = components(graph, {0, 1, 2})
        assert [c.vertices for c in comps] == [
            ("w9", "z"), ("w20", "w10", "a", "m")]
        assert comps[1].edges == (
            ColoredEdge(0, "w20", "a"), ColoredEdge(0, "w10", "m"),
            ColoredEdge(1, "w20", "a"), ColoredEdge(1, "w10", "m"),
            ColoredEdge(2, "w20", "m"), ColoredEdge(2, "w10", "a"))
        assert [c.vertices for c in components(graph, {0, 1})] == [
            ("w9", "z"), ("w20", "a"), ("w10", "m")]

    def test_bubbles_by_least_label(self, graph):
        pairs = [(b.colors, b.vertices) for b in enumerate_bubbles(graph, 2)]
        assert pairs == [
            ((0, 1), ("w20", "a")), ((0, 1), ("w10", "m")), ((0, 1), ("w9", "z")),
            ((0, 2), ("w20", "w10", "a", "m")), ((0, 2), ("w9", "z")),
            ((1, 2), ("w20", "w10", "a", "m")), ((1, 2), ("w9", "z"))]
        census = bubble_census(graph)
        assert [r.bubble.vertices for r in census.records] == [
            ("w20", "w10", "a", "m"), ("w9", "z")]
        assert census.records[0].bubble.edges == components(graph, {0, 1, 2})[1].edges


class TestCountsOnlyPaths:
    """Census and dual counts skip bubble objects; they must agree with
    the object route and with the edge-list oracle."""

    @settings(max_examples=60)
    @given(colored_graphs())
    def test_census_records_match_oracle(self, g):
        for r in bubble_census(g).records:
            assert r.f == bubble_faces_oracle(r.bubble)
            assert r.v == len(r.bubble.vertices)
            assert r.e == len(r.bubble.edges)

    @settings(max_examples=60)
    @given(colored_graphs())
    def test_dual_points_count_bubbles(self, g):
        counts = dual_counts(g)
        assert counts.points == len(enumerate_bubbles(g, 3))
        assert counts.segments == bicolored_faces(g).count

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_census_sample_matches_ribbons(self, rank, data):
        g = data.draw(colored_graphs(rank=rank))
        faces, genera, connected = sampling._sample_stats(g)
        ribbons = [bubble_ribbon(b).genus for b in enumerate_bubbles(g, 3)]
        assert sorted(genera) == sorted(ribbons)
        assert faces == bicolored_face_count(g)
        assert connected == (len(components(g, set(g.colors))) == 1)

    def test_bubble_walk_takes_one_triple_at_a_time(self, quad, monkeypatch):
        calls = []
        orbits = core._orbits
        monkeypatch.setattr(core, "_orbits", lambda perms, n: calls.append(n) or orbits(perms, n))
        next(bubbles._bubble_records(quad))
        assert len(calls) == 1


class TestTwoRoutes:
    """``enumerate_bubbles`` takes each subset's components, which compose
    only that subset's color pairs; ``bubble_census`` reads the triple pass,
    which composes every pair and walks every face.  Both give the same
    bubbles in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(colored_graphs(rank=2), colored_graphs(), colored_graphs(rank=4),
                     escaped_colored(),
                     st.builds(melonic, st.integers(min_value=2, max_value=5),
                               st.integers(min_value=1, max_value=60),
                               st.integers(min_value=0, max_value=1 << 32))))
    def test_census_bubbles_equal_enumerated_bubbles(self, g):
        assert [r.bubble for r in bubble_census(g).records] == enumerate_bubbles(g, 3)

    @pytest.mark.parametrize("read, pairs", [
        (lambda g: components(g, {0, 2, 3}), 2),
        (lambda g: components(g, {4}), 0),
        (core._connected, 4),
        (lambda g: pair_cycle_count(g, 3, 1), 1),
        (lambda g: enumerate_bubbles(g, 2), comb(5, 2)),
        (lambda g: enumerate_bubbles(g, 3), comb(5, 3) * 2),
        (bicolored_face_count, comb(5, 2)),
        (bicolored_faces, comb(5, 2)),
        (bubble_census, comb(5, 2)),
        (lambda g: list(bubbles._bubble_records(g)), comb(5, 2)),
    ], ids=["components", "components-one-color", "connected", "pair_cycle_count",
            "enumerate_bubbles-2", "enumerate_bubbles-3", "bicolored_face_count",
            "bicolored_faces", "bubble_census", "bubble_records"])
    def test_each_question_composes_the_pairs_it_reads(self, read, pairs, monkeypatch):
        """Every composition of two matchings is one ``itemgetter`` in
        ``core._face_steps``; components once composed every pair and walked every face."""
        g = sampling.random_colored(4, 30, 5)
        composed = []
        getter = core.itemgetter
        monkeypatch.setattr(core, "itemgetter",
                            lambda *sigma: composed.append(sigma) or getter(*sigma))
        read(g)
        assert len(composed) == pairs
