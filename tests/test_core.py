import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    BLACK,
    WHITE,
    ColoredGraph,
    build_colored,
    build_stranded,
    census,
    colorability,
    components,
    enumerate_bubbles,
    mo_admissibility,
    random_colored,
    to_stranded,
    validate_colored,
)
from tensorgraphs.errors import (
    BadParameters,
    BadPermutation,
    ColorOutOfRange,
    DanglingHalfEdge,
    DuplicateColorAtVertex,
    HalfEdgeReused,
    MissingColorAtVertex,
    UnequalParts,
    UnknownNode,
    WrongValence,
)


@st.composite
def colored_graphs(draw, rank=3, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    matchings = tuple(
        tuple(draw(st.permutations(range(n)))) for _ in range(rank + 1)
    )
    whites = tuple(f"w{i}" for i in range(n))
    blacks = tuple(f"b{i}" for i in range(n))
    return ColoredGraph(rank, whites, blacks, matchings)


class TestBuildColored:
    def test_dipole(self, dipole):
        assert dipole.n == 1
        assert dipole.matchings == ((0,), (0,), (0,), (0,))
        assert validate_colored(dipole).valid

    def test_duplicate_color(self):
        # color 2 twice, color 3 absent
        edges = [(0, "w1", "b1"), (1, "w1", "b1"), (2, "w1", "b1"), (2, "w1", "b1")]
        with pytest.raises(DuplicateColorAtVertex):
            build_colored(3, ["w1"], ["b1"], edges)

    def test_missing_color(self):
        edges = [(c, "w1", "b1") for c in range(3)]
        with pytest.raises(MissingColorAtVertex):
            build_colored(3, ["w1"], ["b1"], edges)

    def test_unequal_parts(self):
        with pytest.raises(UnequalParts):
            build_colored(3, ["w1", "w2"], ["b1"], [])

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            build_colored(3, ["w1"], ["b1"], [(0, "w9", "b1")])

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRange):
            build_colored(3, ["w1"], ["b1"], [(4, "w1", "b1")])

    def test_low_rank_rejected(self):
        with pytest.raises(BadParameters):
            build_colored(1, ["w1"], ["b1"], [])

    def test_duplicate_label_rejected(self):
        with pytest.raises(BadParameters):
            build_colored(3, ["x"], ["x"], [])

    def test_empty_graph_is_degenerate_but_consistent(self):
        g = build_colored(3, [], [], [])
        assert validate_colored(g).valid
        assert components(g, {0, 1}) == []
        s = to_stranded(g)
        assert s.vertices == () and s.edges == ()

    def test_quad_every_vertex_sees_every_color(self, quad):
        assert validate_colored(quad).valid
        seen = {label: set() for label, _ in quad.nodes()}
        for e in quad.edges():
            seen[e.white].add(e.color)
            seen[e.black].add(e.color)
        assert all(colors == {0, 1, 2, 3} for colors in seen.values())

    def test_parity(self, quad):
        assert quad.parity("w2") == WHITE
        assert quad.parity("b1") == BLACK
        with pytest.raises(UnknownNode):
            quad.parity("nope")


class TestValidateColored:
    def test_reports_all_violations(self):
        # bypass the builder: color 0 hits black b1 twice, never b2
        g = ColoredGraph(
            3, ("w1", "w2"), ("b1", "b2"),
            ((0, 0), (0, 1), (0, 1), (0, 1)),
        )
        report = validate_colored(g)
        assert not report.valid
        rules = {v.rule for v in report.violations}
        assert "DuplicateColorAtVertex" in rules
        assert "MissingColorAtVertex" in rules

    def test_wrong_matching_count(self):
        g = ColoredGraph(3, ("w1",), ("b1",), ((0,), (0,), (0,)))
        report = validate_colored(g)
        assert not report.valid

    def test_valid_has_no_violations(self, quad):
        report = validate_colored(quad)
        assert report.valid and report.violations == ()


class TestComponents:
    def test_no_colors_gives_singletons(self, dipole):
        comps = components(dipole, set())
        assert len(comps) == 2
        assert all(len(c.vertices) == 1 and not c.edges for c in comps)

    def test_dipole_three_colors(self, dipole):
        comps = components(dipole, {0, 1, 2})
        assert len(comps) == 1
        assert len(comps[0].vertices) == 2
        assert len(comps[0].edges) == 3

    def test_quad_parallel_pair(self, quad):
        comps = components(quad, {0, 1})
        assert len(comps) == 2
        assert sorted(tuple(sorted(c.vertices)) for c in comps) == [
            ("b1", "w1"), ("b2", "w2")]

    def test_color_out_of_range(self, dipole):
        with pytest.raises(ColorOutOfRange):
            components(dipole, {5})

    @settings(max_examples=40)
    @given(colored_graphs())
    def test_partition_refinement(self, g):
        # components of a color subset refine full connectivity
        full = components(g, set(g.colors))
        whole = {}
        for idx, comp in enumerate(full):
            for v in comp.vertices:
                whole[v] = idx
        for subset in ({0}, {1, 2}, {0, 3}):
            for comp in components(g, subset):
                assert len({whole[v] for v in comp.vertices}) == 1


class TestToStranded:
    def test_dipole_counts(self, dipole):
        s = to_stranded(dipole)
        assert len(s.vertices) == 2
        assert len(s.edges) == 4
        # D slots on each of D+1 half-edges per vertex
        per_vertex = {}
        for slot in s.slots():
            per_vertex[slot.vertex] = per_vertex.get(slot.vertex, 0) + 1
        assert per_vertex == {"w1": 12, "b1": 12}

    def test_quad_identity_permutations(self, quad):
        s = to_stranded(quad)
        assert len(s.vertices) == 4
        assert len(s.edges) == 8
        assert all(e.permutation == (0, 1, 2) for e in s.edges)

    def test_position_is_color(self, quad):
        s = to_stranded(quad)
        for v in s.vertices:
            assert v.halfedges == tuple(f"{v.label}:{c}" for c in range(4))

    def test_invalid_graph_rejected(self):
        g = ColoredGraph(3, ("w1",), ("b1",), ((0,), (0,), (0,)))
        with pytest.raises(BadParameters):
            to_stranded(g)

    @settings(max_examples=30)
    @given(colored_graphs(max_n=4), colored_graphs(max_n=4))
    def test_injective_on_matchings(self, g1, g2):
        # same labels, distinct matchings: distinct stranded structure
        if g1.n != g2.n or g1.matchings == g2.matchings:
            return
        s1, s2 = to_stranded(g1), to_stranded(g2)
        assert set(s1.edges) != set(s2.edges)


class TestBuildStranded:
    def test_tadpole_a(self, tadpole_a):
        assert len(tadpole_a.vertices) == 1
        assert len(tadpole_a.edges) == 2
        assert tadpole_a.edges[0].permutation == (0, 1, 2)

    def test_dangling_half_edge(self):
        with pytest.raises(DanglingHalfEdge):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), None)])

    def test_bad_permutation(self):
        with pytest.raises(BadPermutation):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), [0, 0, 1]), (("h2", "h3"), None)])

    def test_wrong_valence(self):
        with pytest.raises(WrongValence):
            build_stranded(3, [("v", ["h0", "h1", "h2"])], [])

    def test_half_edge_reused(self):
        with pytest.raises(HalfEdgeReused):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), None), (("h1", "h2"), None)])

    def test_self_paired_half_edge(self):
        with pytest.raises(HalfEdgeReused):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h0"), None), (("h1", "h2"), None)])

    def test_undeclared_half_edge(self):
        with pytest.raises(BadParameters):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "zz"), None)])


class TestRecords:
    """Records are NamedTuples: immutable, and the graphs keep their
    cached indices through copies."""

    def test_fields_cannot_be_assigned(self, quad):
        s = to_stranded(quad)
        for record, field in [(quad, "rank"), (s, "edges"), (s.vertices[0], "label"),
                              (validate_colored(quad), "valid"),
                              (mo_admissibility(s), "admissible"),
                              (colorability(s), "witness"),
                              (census(3, 2, 3, 1), "samples")]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_bubble_identity_ignores_parent(self, quad):
        bubble = enumerate_bubbles(quad)[0]
        other = bubble._replace(parent=random_colored(3, 2, 1))
        assert other.parent is not quad and bubble.parent is quad
        assert other == bubble and hash(other) == hash(bubble)
        assert repr(other) == repr(bubble) and "parent" not in repr(bubble)
        assert tuple(bubble) == (bubble.colors, bubble.vertices, bubble.edges)
        assert bubble._replace(colors=(0, 1, 3)).parent is quad

    def test_pickle_round_trip(self, quad):
        s = to_stranded(quad)
        assert quad.white_index and s._index  # fill the caches before copying
        bubble = enumerate_bubbles(quad)[0]
        for value in (quad, random_colored(3, 4, 2), s, census(3, 3, 5, 2), bubble):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)
        g = pickle.loads(pickle.dumps(quad))
        assert (g.white_index, g.black_index) == (quad.white_index, quad.black_index)
        copy = pickle.loads(pickle.dumps(s))
        assert copy._index == s._index and copy.halfedge_refs == s.halfedge_refs
        assert pickle.loads(pickle.dumps(bubble)).parent == quad
