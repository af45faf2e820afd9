import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    ColoredGraph,
    StrandedEdge,
    StrandedGraph,
    StrandedVertex,
    __version__,
    bicolored_face_count,
    build_colored,
    build_stranded,
    colorability,
    export_dot,
    parse_graph,
    serialize_graph,
    to_stranded,
    trace_faces,
)
from tensorgraphs.cli import run

from .conftest import deadline, melonic, planted
from .test_core import colored_graphs, ranked_colored
from .test_reports import escaped_colored, escaped_twisted
from tensorgraphs.errors import (
    DanglingHalfEdge,
    DuplicateColorAtVertex,
    ParseError,
    TensorGraphError,
    UnknownFormat,
    VersionUnsupported,
)

DIPOLE_DOC = {
    "format": "colored-tensor-graph",
    "version": 1,
    "rank": 3,
    "whites": ["w1"],
    "blacks": ["b1"],
    "edges": [{"color": c, "white": "w1", "black": "b1"} for c in range(4)],
}


def doc_bytes(obj) -> bytes:
    return json.dumps(obj).encode()


class TestParse:
    def test_well_formed_dipole(self, dipole):
        assert parse_graph(doc_bytes(DIPOLE_DOC)) == dipole

    def test_unknown_format(self):
        bad = dict(DIPOLE_DOC, format="tensor-graph-x")
        with pytest.raises(UnknownFormat):
            parse_graph(doc_bytes(bad))

    def test_unsupported_version(self):
        bad = dict(DIPOLE_DOC, version=2)
        with pytest.raises(VersionUnsupported):
            parse_graph(doc_bytes(bad))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph(b'{"format": ')
        assert "line 1" in str(err.value)

    def test_missing_field_reports_location(self):
        bad = {k: v for k, v in DIPOLE_DOC.items() if k != "blacks"}
        with pytest.raises(ParseError) as err:
            parse_graph(doc_bytes(bad))
        assert "blacks" in str(err.value)

    def test_bad_edge_type_reports_index(self):
        bad = dict(DIPOLE_DOC, edges=DIPOLE_DOC["edges"][:3] + [{"color": "x"}])
        with pytest.raises(ParseError) as err:
            parse_graph(doc_bytes(bad))
        assert "edges[3]" in str(err.value)

    def test_builder_error_identifies_edge(self):
        edges = [{"color": c, "white": "w1", "black": "b1"} for c in (0, 1, 2, 2)]
        bad = dict(DIPOLE_DOC, edges=edges)
        with pytest.raises(DuplicateColorAtVertex) as err:
            parse_graph(doc_bytes(bad))
        assert "color 2" in str(err.value)
        assert "w1" in str(err.value)

    @pytest.mark.parametrize("document", [
        {"format": "colored-tensor-graph", "whites": [], "blacks": [], "edges": []},
        {"format": "stranded-tensor-graph", "vertices": [], "edges": []},
    ], ids=["colored", "stranded"])
    def test_large_rank_allocates_little(self, document):
        # a ~100-byte document: rank alone must not size an allocation
        data = doc_bytes(dict(document, version=1, rank=100000))
        tracemalloc.start()
        try:
            g = parse_graph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.rank == 100000 and peak < 1_000_000

    def test_large_rank_rejected_before_allocating(self):
        # one vertex of rank + 1 half-edges and no edge: the strand index
        # (rank slots per half-edge) must not be sized before closure holds
        rank = 2001
        data = doc_bytes({"format": "stranded-tensor-graph", "version": 1, "rank": rank,
                          "vertices": [{"id": "v", "halfedges": [f"h{i}" for i in range(rank + 1)]}],
                          "edges": []})
        tracemalloc.start()
        try:
            with pytest.raises(DanglingHalfEdge):
                parse_graph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            parse_graph(b"[1, 2]")


class TestRoundTrip:
    def test_colored(self, dipole, quad, genus_one_graph):
        for g in (dipole, quad, genus_one_graph):
            assert parse_graph(serialize_graph(g)) == g

    def test_stranded_identity_perms_omitted(self, tadpole_a):
        data = serialize_graph(tadpole_a)
        assert b"strand_permutation" not in data
        assert parse_graph(data) == tadpole_a

    def test_stranded_twist_kept(self):
        s = build_stranded(
            3,
            [("v", ["h0", "h1", "h2", "h3"])],
            [(("h0", "h1"), (1, 0, 2)), (("h2", "h3"), None)])
        data = serialize_graph(s)
        assert b"strand_permutation" in data
        assert parse_graph(data) == s

    def test_expansion_round_trip(self, quad):
        s = to_stranded(quad)
        assert parse_graph(serialize_graph(s)) == s

    def test_serialization_is_stable(self, quad):
        assert serialize_graph(quad) == serialize_graph(quad)

    @settings(max_examples=30)
    @given(colored_graphs())
    def test_colored_round_trip_property(self, g):
        assert parse_graph(serialize_graph(g)) == g
        assert parse_graph(serialize_graph(to_stranded(g))) == to_stranded(g)


class TestDot:
    def test_dipole_edge_statements(self, dipole):
        dot = export_dot(dipole).decode()
        assert dot.count("--") == 4

    def test_quad_statement_counts(self, quad):
        dot = export_dot(quad).decode()
        assert dot.count("--") == 8
        node_lines = [ln for ln in dot.splitlines() if "shape=circle" in ln]
        assert len(node_lines) == 4

    def test_parities_distinguished(self, dipole):
        dot = export_dot(dipole).decode()
        assert '"w1" [shape=circle, style=solid];' in dot
        assert '"b1" [shape=circle, style=filled, fillcolor=black];' in dot

    def test_edge_color_attribute(self, dipole):
        dot = export_dot(dipole).decode()
        for c in range(4):
            assert f"color={c}" in dot

    def test_stranded_dot(self, tadpole_a):
        dot = export_dot(tadpole_a).decode()
        assert dot.count("--") == 2


@st.composite
def stranded_documents(draw):
    """Small valid stranded documents: random closure, some twists, and
    vertex ids declared out of label order."""
    rank = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    n += n * (rank + 1) % 2  # an even number of half-edges
    halfedges = [f"h{i}" for i in range(n * (rank + 1))]
    ids = draw(st.permutations([f"v{i}" for i in range(n)]))
    ends = draw(st.permutations(halfedges))
    edges = []
    for k in range(0, len(ends), 2):
        edge = {"halfedges": [ends[k], ends[k + 1]]}
        if draw(st.booleans()):
            edge["strand_permutation"] = draw(st.permutations(range(rank)))
        edges.append(edge)
    return {
        "format": "stranded-tensor-graph", "version": 1, "rank": rank,
        "vertices": [{"id": v, "halfedges": halfedges[i * (rank + 1):(i + 1) * (rank + 1)]}
                     for i, v in enumerate(ids)],
        "edges": edges,
    }


@st.composite
def mutated_stranded_documents(draw):
    """A valid stranded document with exactly one mutation applied."""
    doc = json.loads(json.dumps(draw(stranded_documents())))
    vertices, edges = doc["vertices"], doc["edges"]
    halfedges = [h for v in vertices for h in v["halfedges"]]

    def pick(seq):
        return seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))]

    kind = draw(st.sampled_from([
        "drop half-edge", "duplicate half-edge", "rename end", "swap ends",
        "corrupt permutation", "change rank", "delete field"]))
    if kind == "drop half-edge":  # from its vertex, or from the edges with its edge
        target = pick([pick(vertices)["halfedges"], edges])
        target.remove(pick(target))
    elif kind == "duplicate half-edge":
        target = pick(vertices)["halfedges"]
        target.insert(pick(range(len(target) + 1)), pick(halfedges))
    elif kind == "rename end":
        pick(edges)["halfedges"][pick([0, 1])] = pick(["zz", "h0", "h1", "v0"])
    elif kind == "swap ends":
        e1, e2 = pick(edges)["halfedges"], pick(edges)["halfedges"]
        k1, k2 = pick([0, 1]), pick([0, 1])
        e1[k1], e2[k2] = e2[k2], e1[k1]
    elif kind == "corrupt permutation":
        perm = pick(edges).setdefault("strand_permutation", list(range(doc["rank"])))
        perm[pick(range(len(perm)))] = draw(st.one_of(
            st.integers(min_value=-2, max_value=doc["rank"] + 1), st.just("0"), st.just(True),
            st.just(0.5), st.none()))
    elif kind == "change rank":
        doc["rank"] += draw(st.sampled_from([-1, 1]))
    else:
        owner = pick([doc, pick(vertices), pick(edges)])
        del owner[pick(sorted(owner))]
    return doc


class TestStrandedMutationFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_stranded_documents())
    def test_parse_rejects_or_traces_every_slot_once(self, doc):
        """One mutation of a valid document: parse_graph either raises a
        TensorGraphError or returns a graph whose faces cover every slot
        exactly once; nothing else escapes, and nothing hangs."""
        try:
            g = parse_graph(doc_bytes(doc))
        except TensorGraphError:
            return
        # a closed graph pairs every half-edge, and every slot, with another:
        # checked first, since a walk over an open index need not end
        index = g._index
        for involution in (index.other, index.glue):
            assert all(involution[y] == x != y for x, y in enumerate(involution))
        covered = [slot for face in trace_faces(g).faces for slot in face]
        assert len(covered) == len(set(covered))
        assert set(covered) == set(g.slots())


@st.composite
def mutated_colored_documents(draw):
    """A valid colored document, its edges in any order, with exactly one
    mutation applied."""
    rank = draw(st.integers(min_value=2, max_value=4))
    doc = json.loads(serialize_graph(draw(colored_graphs(rank=rank, max_n=4))))
    doc["edges"] = edges = draw(st.permutations(doc["edges"]))
    labels = doc["whites"] + doc["blacks"]

    def pick(seq):
        return seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))]

    kind = draw(st.sampled_from([
        "rename white", "rename black", "move color", "drop edge", "duplicate edge",
        "swap blacks", "declare twice", "change rank", "delete field"]))
    if kind.startswith("rename"):  # to a declared label, of either class, or an undeclared one
        pick(edges)[kind.split()[1]] = pick(labels + ["zz"])
    elif kind == "move color":  # inside or outside 0..rank, or a bool
        pick(edges)["color"] = draw(st.one_of(
            st.integers(min_value=-2, max_value=rank + 2), st.booleans()))
    elif kind == "drop edge":
        edges.remove(pick(edges))
    elif kind == "duplicate edge":
        edges.insert(pick(range(len(edges) + 1)), dict(pick(edges)))
    elif kind == "swap blacks":
        e1, e2 = pick(edges), pick(edges)
        e1["black"], e2["black"] = e2["black"], e1["black"]
    elif kind == "declare twice":
        declared = doc[pick(["whites", "blacks"])]
        declared[pick(range(len(declared)))] = pick(labels)
    elif kind == "change rank":
        doc["rank"] += draw(st.sampled_from([-1, 1]))
    else:
        owner = pick([doc, pick(edges)])
        del owner[pick(sorted(owner))]
    return doc


class TestColoredMutationFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_colored_documents())
    def test_parse_rejects_or_both_routes_agree(self, doc):
        """One mutation of a valid colored document: parse_graph either
        raises a TensorGraphError or returns a graph whose {a, b}-cycles
        are as many as its expansion's strand faces, and whose expansion
        round-trips; nothing else escapes."""
        try:
            g = parse_graph(doc_bytes(doc))
        except TensorGraphError:
            return
        s = to_stranded(g)
        assert bicolored_face_count(g) == trace_faces(s).count
        assert parse_graph(serialize_graph(s)) == s


# values that no document holds where a label or a strand entry goes
FOREIGN_LABELS = [0, 2.5, True, None, b"h0", ("h0",), ["h0"]]


@st.composite
def foreign_stranded(draw):
    """Builder arguments (rank, vertices, edges) of a valid stranded
    document, each edge with its strand permutation, after at most one
    change to a value of another type: a vertex label, or a half-edge
    label at its vertex and its edge, that is not a string; an edge of
    one or three ends; or a strand entry that is not an int."""
    doc = draw(stranded_documents())
    rank = doc["rank"]
    vertices = [[v["id"], v["halfedges"]] for v in doc["vertices"]]
    edges = [[e["halfedges"], e.get("strand_permutation", list(range(rank)))]
             for e in doc["edges"]]

    def pick(seq):
        return seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))]

    kind = draw(st.sampled_from(["none", "vertex", "half-edge", "ends", "entry"]))
    if kind == "vertex":
        pick(vertices)[0] = draw(st.sampled_from(FOREIGN_LABELS))
    elif kind == "half-edge":
        labels, value = pick(vertices)[1], draw(st.sampled_from(FOREIGN_LABELS))
        k = pick(range(len(labels)))
        for ends, _perm in edges:
            ends[:] = [value if h == labels[k] else h for h in ends]
        labels[k] = value
    elif kind == "ends":
        ends = pick(edges)[0]
        ends[:] = ends[:1] if draw(st.booleans()) else ends + [pick(ends)]
    elif kind == "entry":
        perm = pick(edges)[1]
        k = pick(range(len(perm)))
        perm[k] = draw(st.sampled_from([float(perm[k]), str(perm[k]), None] +
                                       [bool(perm[k])] * (perm[k] < 2)))
    return rank, vertices, edges


@st.composite
def foreign_colored(draw):
    """(rank, whites, blacks, matchings, edges) of a valid colored graph
    after at most one change to a value of another type: a label, at its
    declaration and its edges, that is not a string; an edge color that is
    not an int; or a matching target that is not an int."""
    g = draw(st.one_of(colored_graphs(rank=draw(st.integers(min_value=2, max_value=4)), max_n=4),
                       escaped_colored()))
    whites, blacks, matchings = list(g.whites), list(g.blacks), [list(row) for row in g.matchings]
    edges = [list(e) for e in g.edges()]

    def pick(seq):
        return seq[draw(st.integers(min_value=0, max_value=len(seq) - 1))]

    kinds = ["none"] + ["label", "color", "target"] * bool(edges)
    kind = draw(st.sampled_from(kinds))
    if kind == "label":
        labels, value = pick([whites, blacks]), draw(st.sampled_from(FOREIGN_LABELS))
        k = pick(range(len(labels)))
        for edge in edges:
            edge[1:] = [value if v == labels[k] else v for v in edge[1:]]
        labels[k] = value
    elif kind == "color":
        edge = pick(edges)
        edge[0] = draw(st.sampled_from([float(edge[0]), str(edge[0]), None, True]))
    elif kind == "target":
        row = pick(matchings)
        k = pick(range(len(row)))
        row[k] = draw(st.sampled_from([float(row[k]), str(row[k]), None, True]))
    return g.rank, whites, blacks, matchings, edges


class TestForeignValues:
    """Every graph that a builder accepts, and every graph made with its
    constructor that serialize_graph writes, round-trips through its
    document.  A label that is not a string, or a strand entry or matching
    target that is not an int, was accepted, written into a document that
    parse_graph rejects, or raised TypeError or ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(foreign_stranded())
    def test_stranded_builder_output_round_trips(self, args):
        rank, vertices, edges = args
        try:
            g = build_stranded(rank, vertices, edges)
        except TensorGraphError:
            return
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=300, deadline=None)
    @given(foreign_stranded())
    def test_stranded_constructor_graph_is_refused_or_round_trips(self, args):
        rank, vertices, edges = args
        g = StrandedGraph(rank, tuple(StrandedVertex(v, tuple(hs)) for v, hs in vertices),
                          tuple(StrandedEdge(tuple(ends), tuple(perm)) for ends, perm in edges))
        try:
            document = serialize_graph(g)
        except TensorGraphError:
            return
        assert parse_graph(document) == g

    @settings(max_examples=300, deadline=None)
    @given(foreign_colored())
    def test_colored_builder_output_round_trips(self, args):
        rank, whites, blacks, _matchings, edges = args
        try:
            g = build_colored(rank, whites, blacks, edges)
        except TensorGraphError:
            return
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=300, deadline=None)
    @given(foreign_colored())
    def test_colored_constructor_graph_is_refused_or_round_trips(self, args):
        rank, whites, blacks, matchings, _edges = args
        g = ColoredGraph(rank, tuple(whites), tuple(blacks), tuple(map(tuple, matchings)))
        try:
            document = serialize_graph(g)
        except TensorGraphError:
            return
        assert parse_graph(document) == g


def document_oracle(g):
    """The document of ``g`` as a dict in canonical key order: the recipe
    whose json.dumps(indent=2) the writer's bytes must equal."""
    if isinstance(g, ColoredGraph):
        return {
            "format": "colored-tensor-graph",
            "version": 1,
            "rank": g.rank,
            "whites": list(g.whites),
            "blacks": list(g.blacks),
            "edges": [{"color": e.color, "white": e.white, "black": e.black} for e in g.edges()],
        }
    edges = []
    for e in g.edges:
        entry: dict = {"halfedges": list(e.halfedges)}
        if e.permutation != tuple(range(g.rank)):
            entry["strand_permutation"] = list(e.permutation)
        edges.append(entry)
    return {
        "format": "stranded-tensor-graph",
        "version": 1,
        "rank": g.rank,
        "vertices": [{"id": v.label, "halfedges": list(v.halfedges)} for v in g.vertices],
        "edges": edges,
    }


@st.composite
def twisted_expansions(draw):
    """The stranded expansion of a colored graph at rank 2 to 5, escaped
    labels too, with every k-th edge glued by one drawn strand permutation."""
    g = draw(st.one_of(ranked_colored(), escaped_colored()))
    k = draw(st.integers(min_value=1, max_value=7))
    perm = tuple(draw(st.permutations(range(g.rank))))
    s = to_stranded(g)
    return s._replace(edges=tuple(e._replace(permutation=perm) if i % k == 0 else e
                                  for i, e in enumerate(s.edges)))


SIZES = st.integers(min_value=2, max_value=60)
SEEDS = st.integers(min_value=0, max_value=1 << 32)


class TestWriter:
    """The writer lays a document out straight from the graph, byte for
    byte as json.dumps(indent=2) lays out the oracle's dict."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        colored_graphs(), ranked_colored(), escaped_colored(), escaped_twisted(),
        twisted_expansions(), stranded_documents().map(lambda doc: parse_graph(doc_bytes(doc))),
        st.builds(melonic, st.integers(min_value=2, max_value=5), SIZES, SEEDS),
        st.builds(planted, SIZES, SEEDS)))
    def test_bytes_equal_json_dumps(self, g):
        assert serialize_graph(g) == (json.dumps(document_oracle(g), indent=2) + "\n").encode()

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(ranked_colored(), escaped_colored(),
                     st.builds(melonic, st.integers(min_value=2, max_value=5), SIZES, SEEDS)))
    def test_witness_is_spliced_one_level_deep(self, g):
        """check colorable --json nests the witness's own pieces."""
        s = to_stranded(g)
        witness = colorability(s).witness
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_bytes(serialize_graph(s))
            report = run(["check", "colorable", str(path), "--json"])
        assert report == (0, json.dumps({"tool_version": __version__, "colorable": True,
                                         "witness": document_oracle(witness)}, indent=2))

    @pytest.mark.parametrize("make", [lambda: build_colored(10**5, [], [], []),
                                      lambda: build_stranded(10**5, [], [])],
                             ids=["colored", "stranded"])
    def test_empty_graph_at_rank_100000(self, make):
        """No record, so no template and no identity permutation of rank
        entries (3.99 MB for the stranded graph before)."""
        g = make()
        expected = (json.dumps(document_oracle(g), indent=2) + "\n").encode()
        with deadline(5):
            assert serialize_graph(g) == expected  # checks the graph, untraced
        tracemalloc.start()
        try:
            written = serialize_graph(g), export_dot(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == (expected, b"graph tensorgraph {\n}\n") and peak < 1_000_000
