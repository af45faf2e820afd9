import json
import tracemalloc

import pytest
from hypothesis import given, settings

from tensorgraphs import (
    build_stranded,
    export_dot,
    parse_graph,
    serialize_graph,
    to_stranded,
)

from .test_core import colored_graphs
from tensorgraphs.errors import (
    DuplicateColorAtVertex,
    ParseError,
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
