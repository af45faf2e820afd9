import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    BLACK,
    WHITE,
    ColoredGraph,
    StrandedEdge,
    StrandedGraph,
    StrandedVertex,
    bicolored_face_count,
    bicolored_faces,
    bubble_census,
    build_colored,
    build_stranded,
    census,
    colorability,
    components,
    core,
    dual_counts,
    enumerate_bubbles,
    export_dot,
    is_untwisted,
    mo_admissibility,
    pair_cycle_count,
    parse_graph,
    random_colored,
    serialize_graph,
    stranded_components,
    stranded_same_structure,
    to_stranded,
    trace_faces,
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
    TensorGraphError,
    UnequalParts,
    UnknownNode,
    WrongValence,
)
from tensorgraphs.render import bubbles_report, faces_report
from tensorgraphs.sampling import _sampler

from .conftest import deadline, melonic
from .test_reports import escaped_colored


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
        assert dual_counts(g) == (0, 0, 0, 0)
        assert enumerate_bubbles(g) == []
        assert bubble_census(g).total == 0
        assert core._connected(g) is False
        s = to_stranded(g)
        assert s.vertices == () and s.edges == ()

    def test_large_rank_empty_graph_is_checked_in_little_memory(self):
        # the colors share one empty inverse: 20,001 of their own would take 1.1 MB
        g = build_colored(20000, [], [], [])
        tracemalloc.start()
        try:
            report = validate_colored(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.valid and peak < 500_000

    def test_large_rank_empty_graph_expands_in_little_memory(self):
        # no edge, so no identity permutation of rank entries (4.8 MB before)
        g = build_colored(10**5, [], [], [])
        tracemalloc.start()
        try:
            s = to_stranded(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s == (10**5, (), ()) and peak < 1_000_000

    def test_large_rank_empty_graph_expands_without_walking_its_matchings(self):
        # to_stranded once walked each of the 100,001 empty matchings after the check
        class Rows(tuple):
            walks = 0

            def __iter__(self):
                Rows.walks += 1
                return super().__iter__()

        g = ColoredGraph(10**5, (), (), Rows(((),) * (10**5 + 1)))
        g._inverses  # checked first: the check reads every matching
        Rows.walks = 0
        assert to_stranded(g) == (10**5, (), ()) and Rows.walks == 0

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

    @pytest.mark.parametrize("error, message, rank, whites, blacks, edges", [
        # the rank is checked before everything
        (BadParameters, "rank must be >= 2, got 1", 1, ["w1", "w2"], ["b1"], []),
        # unequal parts win over an unknown node
        (UnequalParts, "2 white vertices vs 1 black",
         3, ["w1", "w2"], ["b1"], [(0, "w9", "b1")]),
        # a label declared twice wins over every edge fault
        (BadParameters, "vertex label 'x' declared twice", 3, ["x"], ["x"], [(7, "x", "x")]),
        # on one edge: the color is checked before its ends
        (ColorOutOfRange, "color 4 outside 0..3 on edge ('w9', 'b1')",
         3, ["w1"], ["b1"], [(4, "w9", "b1")]),
        # an unknown end on edge 0 wins over one on edge 1
        (UnknownNode, "edge of color 0 references unknown black 'b7'",
         3, ["w1"], ["b1"], [(0, "w1", "b7"), (0, "w9", "b1")]),
        # the first repeat in edge order is named, at whichever end it is
        (DuplicateColorAtVertex, "color 1 repeated at black 'b1'",
         3, ["w1", "w2"], ["b1", "b2"], [(1, "w1", "b1"), (1, "w2", "b1"), (1, "w1", "b2")]),
        (DuplicateColorAtVertex, "color 1 repeated at white 'w1'",
         3, ["w1", "w2"], ["b1", "b2"], [(1, "w1", "b1"), (1, "w1", "b2"), (1, "w2", "b1")]),
        # every edge fault wins over a missing color, named at its white
        (MissingColorAtVertex, "white 'w1' has no edge of color 2",
         3, ["w1", "w2"], ["b1", "b2"],
         [(c, "w2", "b2") for c in range(4)] + [(c, "w1", "b1") for c in (0, 1, 3)]),
        # edge order wins over color order: color 0 repeats too, listed later
        (DuplicateColorAtVertex, "color 2 repeated at black 'b1'",
         2, ["w1", "w2"], ["b1", "b2"],
         [(2, "w1", "b1"), (2, "w2", "b1"), (0, "w1", "b2"), (0, "w2", "b2"), (1, "w1", "b1")]),
        # a label that is not a string, which no document can hold, is named in
        # declaration order with the repeated ones
        (BadParameters, "vertex label 1 is not a string", 3, [1], [2], [(0, 1, 2)]),
        (BadParameters, "vertex label None is not a string",
         3, ["w1", None], ["w1", "b2"], [(7, "w1", "w1")]),
        # a color that is not an int is out of range, not a crash
        (ColorOutOfRange, "color '1' outside 0..3 on edge ('w1', 'b1')",
         3, ["w1"], ["b1"], [("1", "w1", "b1")]),
    ])
    def test_first_fault_wins(self, error, message, rank, whites, blacks, edges):
        with raises_exactly(error, message):
            build_colored(rank, whites, blacks, edges)


W2, B2 = ("w0", "w1"), ("b0", "b1")
W3, B3 = ("w0", "w1", "w2"), ("b0", "b1", "b2")
PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1))
UNEQUAL_ROWS = ((2, 2, 0),) + ((0, 1, 2),) * 3  # for three whites and two blacks


def with_row(c, row):
    """PERMS with the color-c matching replaced by ``row``."""
    return PERMS[:c] + (row,) + PERMS[c + 1:]


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

    # recorded before validate_colored's pass also built the inverses that
    # the walks read: every violation and its order must stay
    @pytest.mark.parametrize("g, violations", [
        (ColoredGraph(3, W2, B2, ((0, 1), (1, 1), (0, 1), (0, 1))), [
            ("DuplicateColorAtVertex", "b1", "color 1 repeated at black 'b1'"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 1")]),
        (ColoredGraph(3, W3, B3, with_row(2, (2, 2, 1))), [
            ("DuplicateColorAtVertex", "b2", "color 2 repeated at black 'b2'"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 2")]),
        (ColoredGraph(3, W3, B3, with_row(0, (0, 3, 2))), [
            ("UnknownNode", "color 0, white 'w1'", "matching target 3 out of range"),
            ("MissingColorAtVertex", "b1", "black 'b1' has no edge of color 0")]),
        (ColoredGraph(3, W3, B3, with_row(1, (1, 2, -1))), [
            ("UnknownNode", "color 1, white 'w2'", "matching target -1 out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 1")]),
        (ColoredGraph(3, W3, B3, with_row(3, (-3, 2, 1))), [
            ("UnknownNode", "color 3, white 'w0'", "matching target -3 out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 3")]),
        (ColoredGraph(3, W3, B3, with_row(1, (1, 2))), [
            ("MissingColorAtVertex", "color 1", "matching for color 1 covers 2 whites, expected 3")]),
        (ColoredGraph(3, W3, B3, with_row(0, (0, 1, 2, 0))), [
            ("MissingColorAtVertex", "color 0", "matching for color 0 covers 4 whites, expected 3")]),
        (ColoredGraph(3, W3, B3, PERMS[:3]), [
            ("MissingColorAtVertex", "graph", "expected 4 matchings, got 3")]),
        (ColoredGraph(3, W3, B3, PERMS + PERMS[:1]), [
            ("MissingColorAtVertex", "graph", "expected 4 matchings, got 5")]),
        (ColoredGraph(3, W3, ("b0", "b1"), PERMS), [
            ("UnequalParts", "graph", "3 white vertices vs 2 black")]),
        # rows target blacks past the last one; reading them raised IndexError
        (ColoredGraph(3, W3, B2, UNEQUAL_ROWS), [
            ("UnequalParts", "graph", "3 white vertices vs 2 black")]),
        (ColoredGraph(1, W3, B3, PERMS[:2]), [("BadRank", "1", "rank must be >= 2, got 1")]),
        (ColoredGraph(3, ("x", "w1", "w2"), ("b0", "x", "w1"), with_row(0, (5, 5, -1))), [
            ("DuplicateLabel", "x", "label 'x' used twice"),
            ("DuplicateLabel", "w1", "label 'w1' used twice"),
            ("UnknownNode", "color 0, white 'x'", "matching target 5 out of range"),
            ("UnknownNode", "color 0, white 'w1'", "matching target 5 out of range"),
            ("UnknownNode", "color 0, white 'w2'", "matching target -1 out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 0"),
            ("MissingColorAtVertex", "x", "black 'x' has no edge of color 0"),
            ("MissingColorAtVertex", "w1", "black 'w1' has no edge of color 0")]),
        (ColoredGraph(3, (), (), ((),) * 3), [
            ("MissingColorAtVertex", "graph", "expected 4 matchings, got 3")]),
        (ColoredGraph(2, ("w0",), ("b0",), ((0,), (0,), (1,))), [
            ("UnknownNode", "color 2, white 'w0'", "matching target 1 out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 2")]),
        # targets and labels of the wrong type are violations; they raised TypeError,
        # or passed and were written to a document that parse_graph rejects
        (ColoredGraph(3, W2, B2, ((0, 1), (0.0, 1), (0, 1), (0, 1))), [
            ("UnknownNode", "color 1, white 'w0'", "matching target 0.0 out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 1")]),
        (ColoredGraph(3, W2, B2, ((0, 1), (1, "0"), (None, 0), (0, 1))), [
            ("UnknownNode", "color 1, white 'w1'", "matching target '0' out of range"),
            ("MissingColorAtVertex", "b0", "black 'b0' has no edge of color 1"),
            ("UnknownNode", "color 2, white 'w0'", "matching target None out of range"),
            ("MissingColorAtVertex", "b1", "black 'b1' has no edge of color 2")]),
        (ColoredGraph(3, ("w0", 1), ("b0", None), ((0, 1),) * 4), [
            ("BadLabel", "1", "label 1 is not a string"),
            ("BadLabel", "None", "label None is not a string")]),
        (ColoredGraph(3, (["w0"], "w0"), ("w0", "b1"), ((0, 1),) * 4), [
            ("BadLabel", "['w0']", "label ['w0'] is not a string"),
            ("DuplicateLabel", "w0", "label 'w0' used twice")]),
        # fields that are not the documented containers raised TypeError; a
        # wrong field is the only violation, since no other can be read past it
        (ColoredGraph("3", list(W2), B2, None), [
            ("BadField", "rank", "rank must be int, got str"),
            ("BadField", "whites", "whites must be tuple, got list"),
            ("BadField", "matchings", "matchings must be tuple, got NoneType")]),
        (ColoredGraph(3, W2, B2, ((0, 1), None, [0, 1], (0, 0))), [
            ("BadField", "color 1", "matching for color 1 must be tuple, got NoneType"),
            ("BadField", "color 2", "matching for color 2 must be tuple, got list"),
            ("DuplicateColorAtVertex", "b0", "color 3 repeated at black 'b0'"),
            ("MissingColorAtVertex", "b1", "black 'b1' has no edge of color 3")]),
    ])
    def test_pinned_reports(self, g, violations):
        assert validate_colored(g) == (False, tuple(violations))


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


def expand_by_edges(g):
    """``to_stranded`` by its first recipe: vertices from ``g.nodes()`` and
    edges from ``g.edges()``, each end's label formatted anew."""
    ident = tuple(range(g.rank))
    return StrandedGraph(
        g.rank,
        tuple(StrandedVertex(label, tuple(f"{label}:{c}" for c in g.colors))
              for label, _parity in g.nodes()),
        tuple(StrandedEdge((f"{e.white}:{e.color}", f"{e.black}:{e.color}"), ident)
              for e in g.edges()))


@st.composite
def ranked_colored(draw):
    rank = draw(st.integers(min_value=2, max_value=5))
    return draw(st.one_of(colored_graphs(rank=rank, max_n=60),
                          st.just(build_colored(rank, [], [], []))))


class TestToStranded:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(ranked_colored(), escaped_colored(),
                     st.builds(melonic, st.integers(min_value=2, max_value=5),
                               st.integers(min_value=1, max_value=60),
                               st.integers(min_value=0, max_value=1 << 32))))
    def test_equals_the_edge_list_expansion(self, g):
        s, reference = to_stranded(g), expand_by_edges(g)
        assert s.rank == reference.rank
        assert s.vertices == reference.vertices
        assert s.edges == reference.edges
        assert s._index == reference._index
        # each half-edge label is formatted once, and both its vertex and its edge hold it
        declared = {id(h) for v in s.vertices for h in v.halfedges}
        assert all(id(h) in declared for e in s.edges for h in e.halfedges)

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


V = [("v", ["h0", "h1", "h2", "h3"])]
VT = (StrandedVertex("v", ("h0", "h1", "h2", "h3")),)  # V and two edges, as constructor fields
ET = (StrandedEdge(("h0", "h1"), (0, 1, 2)), StrandedEdge(("h2", "h3"), (0, 1, 2)))


def raises_exactly(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


class TestBuildStranded:
    """Every builder error with its exact message; on several faults the
    first in order wins: vertices in declaration order (label, valence,
    half-edge labels), then edges in order (undeclared end, one half-edge
    at both ends, reuse, permutation), then dangling half-edges."""

    def test_tadpole_a(self, tadpole_a):
        assert len(tadpole_a.vertices) == 1
        assert len(tadpole_a.edges) == 2
        assert tadpole_a.edges[0].permutation == (0, 1, 2)

    def test_dangling_half_edge(self):
        with raises_exactly(DanglingHalfEdge, "half-edges in no edge (open legs): 'h2', 'h3'"):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), None)])

    def test_bad_permutation(self):
        with raises_exactly(BadPermutation,
                            "edge ('h0', 'h1'): [0, 0, 1] is not a permutation of 0..2"):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), [0, 0, 1]), (("h2", "h3"), None)])

    def test_wrong_valence(self):
        with raises_exactly(WrongValence, "vertex 'v' has 3 half-edges, expected 4"):
            build_stranded(3, [("v", ["h0", "h1", "h2"])], [])

    def test_half_edge_reused(self):
        with raises_exactly(HalfEdgeReused, "half-edge 'h1' appears in more than one edge"):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h1"), None), (("h1", "h2"), None)])

    def test_self_paired_half_edge(self):
        with raises_exactly(HalfEdgeReused, "half-edge 'h0' used for both ends of one edge"):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "h0"), None), (("h1", "h2"), None)])

    def test_undeclared_half_edge(self):
        with raises_exactly(BadParameters, "edge references undeclared half-edge 'zz'"):
            build_stranded(
                3,
                [("v", ["h0", "h1", "h2", "h3"])],
                [(("h0", "zz"), None)])

    @pytest.mark.parametrize("vertices, message", [
        ([("v", ["h0", "h1", "h2", "h3"]), ("v", ["h4", "h5", "h6", "h7"])],
         "vertex label 'v' declared twice"),
        ([("v", ["h0", "h1", "h2", "h0"])], "half-edge label 'h0' declared twice"),
        ([("u", ["h0", "h1", "h2", "h3"]), ("v", ["h4", "h1", "h6", "h7"])],
         "half-edge label 'h1' declared twice"),
    ])
    def test_duplicate_label(self, vertices, message):
        with raises_exactly(BadParameters, message):
            build_stranded(3, vertices, [])

    @pytest.mark.parametrize("error, message, vertices, edges", [
        # a repeated half-edge in vertex 1 wins over a wrong valence in vertex 3
        (BadParameters, "half-edge label 'a1' declared twice",
         [("a", ["a0", "a1", "a2", "a3"]), ("b", ["b0", "a1", "b2", "b3"]),
          ("c", ["c0", "c1", "c2", "c3"]), ("d", ["d0"])], []),
        # a wrong valence in vertex 1 wins over a repeated half-edge in vertex 3
        (WrongValence, "vertex 'b' has 3 half-edges, expected 4",
         [("a", ["a0", "a1", "a2", "a3"]), ("b", ["b0", "b1", "b2"]),
          ("c", ["c0", "c1", "c2", "c3"]), ("d", ["a0", "d1", "d2", "d3"])], []),
        # a wrong valence in vertex 1 wins over a repeated vertex label in vertex 3
        (WrongValence, "vertex 'b' has 1 half-edges, expected 4",
         [("a", ["a0", "a1", "a2", "a3"]), ("b", ["b0"]),
          ("c", ["c0", "c1", "c2", "c3"]), ("a", ["e0", "e1", "e2", "e3"])], []),
        # a vertex label is checked before its valence
        (BadParameters, "vertex label 'v' declared twice",
         [("v", ["h0", "h1", "h2", "h3"]), ("v", ["x"])], []),
        # the second declared of two equal labels is named, though both sort first
        (BadParameters, "vertex label 'a' declared twice",
         [("b", ["b0", "b1", "b2", "b3"]), ("a", ["a0", "a1", "a2", "a3"]),
          ("c", ["c0", "c1", "c2", "c3"]), ("a", ["e0", "e1", "e2", "e3"])], []),
        # any vertex fault wins over every edge fault
        (WrongValence, "vertex 'b' has 2 half-edges, expected 4",
         [("a", ["a0", "a1", "a2", "a3"]), ("b", ["b0", "b1"])], [(("a0", "zz"), None)]),
        # a bad permutation on edge 0 wins over a reused half-edge on edge 1
        (BadPermutation, "edge ('h0', 'h1'): [3, 1, 2] is not a permutation of 0..2",
         V, [(("h0", "h1"), [3, 1, 2]), (("h1", "h2"), None)]),
        # a reused half-edge on edge 1 wins over a bad permutation on edge 2
        (HalfEdgeReused, "half-edge 'h1' appears in more than one edge",
         V, [(("h0", "h1"), None), (("h1", "h0"), None), (("h2", "h3"), [0, 0, 0])]),
        # a reused half-edge on edge 1 wins over an undeclared one on edge 2
        (HalfEdgeReused, "half-edge 'h0' appears in more than one edge",
         V, [(("h0", "h1"), None)] * 2 + [(("q", "h2"), None)]),
        # on one edge: both ends are declared before either is checked for reuse
        (BadParameters, "edge references undeclared half-edge 'zz'",
         V, [(("h0", "h1"), None), (("h0", "zz"), None)]),
        (BadParameters, "edge references undeclared half-edge 'zz'", V, [(("zz", "zz"), [9])]),
        # ... and one half-edge at both ends is named before reuse
        (HalfEdgeReused, "half-edge 'h0' used for both ends of one edge",
         V, [(("h0", "h1"), None), (("h0", "h0"), None)]),
        # a bad permutation is named by its edge, and may be short
        (BadPermutation, "edge ('h0', 'h1'): [0, 1] is not a permutation of 0..2",
         V, [(("h0", "h1"), [0, 1]), (("h2", "h3"), None)]),
        # every edge fault wins over a dangling half-edge
        (BadParameters, "edge references undeclared half-edge 'y'",
         V, [(("h0", "h1"), None), (("y", "z"), None)]),
        # dangling half-edges are listed sorted, not in declaration order
        (DanglingHalfEdge, "half-edges in no edge (open legs): 'h0', 'h2'",
         [("v", ["h3", "h1", "h2", "h0"])], [(("h3", "h1"), None)]),
        # the rank is checked before everything
        (BadParameters, "rank must be >= 2, got 1",
         [("v", ["h0"]), ("v", [])], [(("zz", "zz"), None)]),
        # a vertex label that is not a string wins over every other vertex fault,
        # since labels are sorted before the vertices are read
        (BadParameters, "vertex label 3 is not a string",
         [("a", ["a0"]), (3, ["b0", "b1", "b2", "b3"]), (None, [])], []),
        # a half-edge label that is not a string is named in declaration order
        (BadParameters, "half-edge label 5 is not a string", [("v", ["h0", 5, "h0", "h3"])], []),
        (BadParameters, "half-edge label ('h1',) is not a string",
         [("v", ["h0", ("h1",), "h2", "h3"])], [(("h0", "h1"), None)]),
        # an edge is checked for two ends before anything else of it
        (BadParameters, "edge ('h0', 'h1', 'h2') does not join two half-edges",
         V, [(("h0", "h1", "h2"), [9])]),
        (BadParameters, "edge references undeclared half-edge ['h1']",
         V, [(("h0", ["h1"]), None), (("h2", "h3"), None)]),
        # strand entries must be ints, like a document's, and are checked with
        # the permutation: before a reused half-edge on the next edge
        (BadPermutation, "edge ('h0', 'h1'): [0, 1, 2.0] is not a permutation of 0..2",
         V, [(("h0", "h1"), [0, 1, 2.0]), (("h1", "h2"), None)]),
        (BadPermutation, "edge ('h0', 'h1'): [True, False, 2] is not a permutation of 0..2",
         V, [(("h0", "h1"), [True, False, 2]), (("h2", "h3"), None)]),
        (BadPermutation, "edge ('h0', 'h1'): [0, 'a', 1] is not a permutation of 0..2",
         V, [(("h0", "h1"), [0, "a", 1]), (("h2", "h3"), None)]),
    ])
    def test_first_fault_wins(self, error, message, vertices, edges):
        rank = 1 if message.startswith("rank") else 3
        with raises_exactly(error, message):
            build_stranded(rank, vertices, edges)


STRANDED_ENTRIES = [trace_faces, stranded_components, mo_admissibility, colorability,
                    is_untwisted, serialize_graph, export_dot, lambda s: s.halfedge_refs,
                    lambda s: stranded_same_structure(s, s)]


class TestDirectConstruction:
    """A StrandedGraph made with its constructor, bypassing build_stranded,
    is checked on first use: every stranded entry point raises the
    builder's own error.  Before the index pass checked closure, the
    reused case made trace_faces loop forever (this test hung there),
    mo_admissibility answered it with a witness, the dangling case gave
    faces, the undeclared case raised a bare KeyError (export_dot too),
    is_untwisted answered every case, and serialize_graph wrote a
    document that parse_graph rejects."""

    @pytest.mark.parametrize("edges", [
        [(("h0", "zz"), None), (("h2", "h3"), None)],  # undeclared
        [(("h0", "h1"), None), (("h1", "h2"), None), (("h3", "h0"), None)],  # reused
        [(("h0", "h1"), None), (("h2", "h2"), None), (("h3", "h3"), None)],  # one end twice
        [(("h0", "h1"), None)],  # dangling
        [(("h0", "h1"), (0, 0, 1)), (("h2", "h3"), None)],  # not a permutation
        [(("h0", "h1"), (0, 1, 2, 3)), (("h2", "h3"), None)],  # too long
        [(("h0", "h1", "h2"), None), (("h3", "h3"), None)],  # three ends
        [(("h0",), None), (("h1", "h2"), None)],  # one end
        [(("h0", ["h1"]), None), (("h2", "h3"), None)],  # an end that is not a string
        [(("h0", "h1"), (0, 1, 2.0)), (("h2", "h3"), None)],  # a float entry
        [(("h0", "h1"), (True, False, 2)), (("h2", "h3"), None)],  # bool entries
    ])
    @pytest.mark.parametrize("entry", [trace_faces, stranded_components, mo_admissibility,
                                       colorability, is_untwisted, serialize_graph, export_dot,
                                       lambda s: list(s.slots()), lambda s: s.halfedge_refs])
    def test_entry_points_raise_builder_errors(self, entry, edges):
        with pytest.raises(TensorGraphError) as built:
            build_stranded(3, V, edges)
        s = StrandedGraph(3, tuple(StrandedVertex(v, tuple(hs)) for v, hs in V),
                          tuple(StrandedEdge(ends, perm or (0, 1, 2)) for ends, perm in edges))
        for _ in range(2):  # nothing half-built is kept after a failure
            with pytest.raises(type(built.value)) as raised:
                entry(s)
            assert str(raised.value) == str(built.value)

    @pytest.mark.parametrize("vertices, error, message", [
        # slots() once yielded 12 slots for this vertex
        ((StrandedVertex("v", ("h0", "h1")),), WrongValence, "vertex 'v' has 2 half-edges, expected 4"),
        # halfedge_refs once mapped 'h0' to the last vertex that declared it
        ((StrandedVertex("u", ("h0", "h1", "h2", "h3")), StrandedVertex("v", ("h0", "h5", "h6", "h7"))),
         BadParameters, "half-edge label 'h0' declared twice"),
    ], ids=["valence", "repeated-half-edge"])
    def test_slots_and_refs_check_the_vertices(self, vertices, error, message):
        s = StrandedGraph(3, vertices, ())
        for read in (lambda: list(s.slots()), lambda: s.halfedge_refs):
            with raises_exactly(error, message):
                read()

    @pytest.mark.parametrize("vertices, message", [
        ([(1, ("h0", "h1", "h2", "h3"))], "vertex label 1 is not a string"),
        ([("u", ("h0", "h1", "h2", "h3")), (2, ("h4", "h5", "h6", "h7"))],
         "vertex label 2 is not a string"),  # once a TypeError, sorting 'u' and 2
        ([("v", ("h0", 1, "h2", "h3"))], "half-edge label 1 is not a string"),
        ([("v", ("h0", ["h1"], "h2", "h3"))], "half-edge label ['h1'] is not a string"),
    ], ids=["int-vertex", "mixed-vertices", "int-half-edge", "list-half-edge"])
    @pytest.mark.parametrize("entry", STRANDED_ENTRIES)
    def test_labels_must_be_strings(self, entry, vertices, message):
        """A document holds only string labels, so serialize_graph once wrote
        one that parse_graph rejects, or sorting the labels raised TypeError."""
        halves = [h for _v, hs in vertices for h in hs]
        edges = [((a, b), None) for a, b in zip(halves[::2], halves[1::2])]
        with raises_exactly(BadParameters, message):
            build_stranded(3, vertices, edges)
        s = StrandedGraph(3, tuple(StrandedVertex(v, hs) for v, hs in vertices),
                          tuple(StrandedEdge(ends, (0, 1, 2)) for ends, _perm in edges))
        for _ in range(2):
            with raises_exactly(BadParameters, message):
                entry(s)

    @pytest.mark.parametrize("s, message", [
        (StrandedGraph("3", VT, ET), "rank must be int, got str"),
        (StrandedGraph(3, VT, (StrandedEdge(("h0", "h1"), None), ET[1])),
         "edge ('h0', 'h1'): permutation must be tuple, got NoneType"),
        (StrandedGraph(3, (StrandedVertex("v", None),), ET),
         "vertex 'v': halfedges must be tuple, got NoneType"),
        (StrandedGraph(3, None, ET), "vertices must be tuple, got NoneType"),
        (StrandedGraph(3, VT, None), "edges must be tuple, got NoneType"),
    ], ids=["string-rank", "none-permutation", "none-halfedges", "none-vertices", "none-edges"])
    @pytest.mark.parametrize("entry", STRANDED_ENTRIES + [lambda s: list(s.slots())])
    def test_fields_of_the_wrong_type_raise(self, entry, s, message):
        """Fields that are not the documented containers once raised TypeError."""
        for _ in range(2):
            with raises_exactly(BadParameters, message):
                entry(s)

    def test_builders_reject_a_rank_that_is_no_int(self):
        for build in (lambda: build_colored("3", (), (), ()), lambda: build_stranded("3", V, [])):
            with raises_exactly(BadParameters, "rank must be int, got str"):
                build()

    def test_replaced_copy_is_checked(self, tadpole_a):
        """``_replace`` bypasses the builder too."""
        s = tadpole_a._replace(edges=(tadpole_a.edges[0],))
        with raises_exactly(DanglingHalfEdge, "half-edges in no edge (open legs): 'h2', 'h3'"):
            trace_faces(s)


COLORED_ENTRIES = {
    "bicolored_faces": bicolored_faces,
    "bicolored_face_count": bicolored_face_count,
    "pair_cycle_count": lambda g: pair_cycle_count(g, 0, 1),
    "components": lambda g: components(g, {0, 1}),
    "components-none": lambda g: components(g, set()),
    **{f"enumerate_bubbles-{k}": lambda g, k=k: enumerate_bubbles(g, k) for k in (1, 2, 3)},
    "bubble_census": bubble_census,
    "dual_counts": dual_counts,
    "to_stranded": to_stranded,
    "faces_report": lambda g: faces_report(g, False),
    "faces_report-json": lambda g: faces_report(g, True),
    "bubbles_report": lambda g: bubbles_report(g, False),
    "bubbles_report-json": lambda g: bubbles_report(g, True),
    "serialize_graph": serialize_graph,
    "export_dot": export_dot,
}


@st.composite
def one_mutation(draw):
    """A valid graph with one matching row changed: a target set to another
    target of its row (a duplicate, or itself), to n or more, or below
    zero; the row shortened or lengthened by one; or two targets swapped,
    which keeps the graph valid."""
    rank = draw(st.integers(min_value=2, max_value=4))
    g = draw(colored_graphs(rank=rank, max_n=4))
    c, n = draw(st.integers(min_value=0, max_value=rank)), g.n
    row = list(g.matchings[c])
    i, j = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["duplicate", "high", "negative", "length", "swap"]))
    if kind == "duplicate":
        row[i] = row[j]
    elif kind == "high":
        row[i] = draw(st.integers(min_value=n, max_value=n + 3))
    elif kind == "negative":
        row[i] = draw(st.integers(min_value=-n - 1, max_value=-1))
    elif kind == "length":
        row = row[:-1] if draw(st.booleans()) else row + [row[j]]
    else:
        row[i], row[j] = row[j], row[i]
    return g._replace(matchings=g.matchings[:c] + (tuple(row),) + g.matchings[c + 1:])


class TestColoredDirectConstruction:
    """A ColoredGraph made with its constructor, bypassing build_colored, is
    checked when it is first walked: every colored entry point raises
    what to_stranded raises, BadParameters naming the first violation
    that validate_colored reports.  Before one pass both checked and
    inverted the matchings, the graph whose color-1 matching hits b1
    twice made components and bubbles_report run past the deadline,
    bicolored_faces gave 10 faces and serialize_graph wrote a document
    that parse_graph rejects; a target of 5 raised a bare IndexError."""

    @pytest.mark.parametrize("g, message", [
        (ColoredGraph(3, W2, B2, ((0, 1), (1, 1), (0, 1), (0, 1))), "color 1 repeated at black 'b1'"),
        (ColoredGraph(3, W2, B2, ((0, 1), (0, 5), (0, 1), (0, 1))), "matching target 5 out of range"),
        (ColoredGraph(3, W3, B2, UNEQUAL_ROWS), "3 white vertices vs 2 black"),
        (ColoredGraph(3, W2, B2, ((0, 1), (0.0, 1), (0, 1), (0, 1))),
         "matching target 0.0 out of range"),
        (ColoredGraph(3, W2, B2, ((0, 1), ("0", 1), (0, 1), (0, 1))),
         "matching target '0' out of range"),
        (ColoredGraph(3, ("w0", 1), B2, ((0, 1),) * 4), "label 1 is not a string"),
        # with no vertex, no color subset is read, but the graph is still checked
        (ColoredGraph(3, (), (), ((),) * 3), "expected 4 matchings, got 3"),
        # fields that are not the documented containers once raised TypeError
        (ColoredGraph("3", W2, B2, ((0, 1),) * 4), "rank must be int, got str"),
        (ColoredGraph(3, list(W2), B2, ((0, 1),) * 4), "whites must be tuple, got list"),
        (ColoredGraph(3, W2, B2, ((0, 1), None, (0, 1), (0, 1))),
         "matching for color 1 must be tuple, got NoneType"),
        (ColoredGraph(3, W2, B2, None), "matchings must be tuple, got NoneType"),
    ], ids=["duplicate", "out-of-range", "unequal-parts", "float-target", "string-target",
            "int-label", "empty-too-few-matchings", "string-rank", "list-whites", "none-row",
            "none-matchings"])
    @pytest.mark.parametrize("entry", COLORED_ENTRIES.values(), ids=COLORED_ENTRIES)
    def test_entry_points_raise(self, entry, g, message):
        for _ in range(2):  # nothing half-built is kept after a failure
            with deadline(2), raises_exactly(BadParameters, f"graph fails validation: {message}"):
                entry(g)

    @settings(max_examples=60, deadline=None)
    @given(one_mutation())
    def test_one_mutation_raises_exactly_when_invalid(self, g):
        report = validate_colored(g)
        for name, entry in COLORED_ENTRIES.items():
            if name == "dual_counts" and g.rank != 3:
                continue
            with deadline(2):
                if report.valid:
                    entry(g)
                    continue
                with raises_exactly(
                        BadParameters, f"graph fails validation: {report.violations[0].message}"):
                    entry(g)


def count_checks(monkeypatch):
    """The graphs that ``core._checked`` runs on from now on, in call order."""
    calls = []
    checked = core._checked
    monkeypatch.setattr(core, "_checked", lambda g: calls.append(g) or checked(g))
    return calls


class TestHandedOverInverses:
    """build_colored and the census hand over the inverses their own checks
    built, so no walk checks their graphs again; each handed-over list
    equals what the checking pass builds."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_sampled_matchings_are_permutations(self, rank, n, seed):
        g = _sampler(rank, n)(seed)
        violations, inverses = core._checked(g)
        assert violations == [] and list(map(core._inverse, g.matchings)) == inverses
        assert "_inverses" not in vars(g)  # random_colored keeps no cache

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(colored_graphs(), escaped_colored(),
                     st.builds(melonic, st.integers(min_value=2, max_value=5),
                               st.integers(min_value=1, max_value=60),
                               st.integers(min_value=0, max_value=1 << 32))))
    def test_builder_inverses_equal_the_checking_pass(self, g):
        built = build_colored(g.rank, g.whites, g.blacks, list(g.edges()))
        assert ("_inverses" in vars(built)) == (built.n > 0)  # at n = 0 none is kept
        assert built._inverses == core._checked(built._replace())[1]

    def test_handed_over_graphs_are_not_checked_again(self, monkeypatch):
        document = serialize_graph(random_colored(3, 30, 4))
        calls = count_checks(monkeypatch)
        g = parse_graph(document)
        faces_report(g, True)
        faces_report(g, False)
        census(3, 50, 3, 1)
        assert calls == []

    def test_valid_graph_is_checked_on_first_walk_only(self, monkeypatch):
        g = ColoredGraph(3, W2, B2, ((0, 1), (1, 0), (0, 1), (1, 0)))
        calls = count_checks(monkeypatch)
        assert [bicolored_face_count(g) for _ in range(2)] == [8, 8]
        assert calls == [g]

    def test_invalid_graph_is_checked_on_every_walk(self, monkeypatch):
        g = ColoredGraph(3, W2, B2, ((0, 1), (1, 1), (0, 1), (0, 1)))
        calls = count_checks(monkeypatch)
        for walks in (1, 2):
            with raises_exactly(BadParameters, "graph fails validation: "
                                "color 1 repeated at black 'b1'"):
                bicolored_face_count(g)
            assert calls == [g] * walks


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
        other = enumerate_bubbles(quad._replace())[0]  # from an equal graph, not the same one
        assert other == bubble and hash(other) == hash(bubble)
        assert repr(other) == repr(bubble) and "parent" not in repr(bubble)
        assert tuple(bubble) == (bubble.colors, bubble.vertices, bubble.edges)
        assert bubble._replace(colors=(0, 1, 3)) == ((0, 1, 3), bubble.vertices, bubble.edges)

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


class TestElementTypes:
    """An element of ``vertices`` or ``edges`` that is no StrandedVertex or
    StrandedEdge once raised AttributeError from every stranded entry point."""

    @pytest.mark.parametrize("s, message", [
        (StrandedGraph(3, (None,), ()), "vertices[0] must be StrandedVertex, got NoneType"),
        (StrandedGraph(3, (VT[0], ("u", ("h4", "h5", "h6", "h7"))), ()),
         "vertices[1] must be StrandedVertex, got tuple"),
        (StrandedGraph(3, VT, (ET[0], None)), "edges[1] must be StrandedEdge, got NoneType"),
    ], ids=["none-vertex", "tuple-vertex", "none-edge"])
    @pytest.mark.parametrize("entry", STRANDED_ENTRIES + [lambda s: list(s.slots())])
    def test_elements_of_the_wrong_type_raise(self, entry, s, message):
        for _ in range(2):
            with raises_exactly(BadParameters, message):
                entry(s)


class TestPickledGraphs:
    """A graph pickles its fields only.  Its cached indices once made the
    pickle of a parsed random n=1000 graph 35,845 bytes against 24,833, and
    the unpickled graph trusted a cache that no check had built."""

    @pytest.mark.parametrize("g, index, walk", [
        (random_colored(3, 1000, 7), "_inverses", bicolored_face_count),
        (to_stranded(random_colored(3, 200, 7)), "_index", trace_faces),
    ], ids=["colored", "stranded"])
    def test_only_the_fields_are_pickled(self, g, index, walk):
        g = parse_graph(serialize_graph(g))
        assert index in vars(g)  # handed over by the builder
        data = pickle.dumps(g)
        assert len(data) == len(pickle.dumps(g._replace()))
        copy = pickle.loads(data)
        assert copy == g and type(copy) is type(g) and vars(copy) == {}
        assert walk(copy) == walk(g)
        assert getattr(copy, index) == getattr(g, index)
