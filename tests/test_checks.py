import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    ALTERNATING,
    BLOCK,
    HalfEdgeRef,
    SignAssignment,
    SignPattern,
    StrandedEdge,
    StrandedGraph,
    StrandedVertex,
    build_colored,
    build_stranded,
    colorability,
    colored_mo_witness,
    is_untwisted,
    mo_admissibility,
    parse_graph,
    serialize_graph,
    stranded_same_structure,
    to_stranded,
    validate_colored,
    verify_sign_assignment,
)
from tensorgraphs.checks import _propagate
from tensorgraphs.cli import run
from tensorgraphs.errors import TwistedInput, WrongRank, WrongValence
from tensorgraphs.sampling import random_colored, subseed

from .conftest import dihedral_stranded, make_dipoles, make_tadpoles, planted
from .test_core import colored_graphs
from .test_reports import escaped_colored


def with_twist(stranded, edge_index, perm):
    edges = list(stranded.edges)
    edges[edge_index] = StrandedEdge(edges[edge_index].halfedges, tuple(perm))
    return type(stranded)(stranded.rank, stranded.vertices, tuple(edges))


class TestUntwisted:
    def test_expansions_are_untwisted(self, dipole, quad):
        for g in (dipole, quad):
            ok, offenders = is_untwisted(to_stranded(g))
            assert ok and offenders == ()

    def test_twist_is_listed(self, tadpole_a):
        twisted = with_twist(tadpole_a, 1, (1, 0, 2))
        ok, offenders = is_untwisted(twisted)
        assert not ok
        assert offenders == (1,)


class TestMoAdmissibility:
    def test_tadpole_a_alternating(self, tadpole_a):
        result = mo_admissibility(tadpole_a, ALTERNATING)
        assert result.admissible
        signs = result.assignment.signs
        assert [signs[HalfEdgeRef("v", p)] for p in range(4)] == [1, -1, 1, -1]
        assert verify_sign_assignment(tadpole_a, result.assignment)

    def test_tadpole_b_not_admissible(self, tadpole_b):
        result = mo_admissibility(tadpole_b, ALTERNATING)
        assert not result.admissible
        obstruction = result.obstruction
        assert obstruction.vertex == "v"
        # both rotations of the alternating pattern conflict
        assert len(obstruction.conflicts) == 2
        assert obstruction.cycle == (0,)
        assert_mo_certificate(tadpole_b, ALTERNATING, obstruction)

    def test_dipole_alternating(self, dipole):
        result = mo_admissibility(to_stranded(dipole), ALTERNATING)
        assert result.admissible
        assert verify_sign_assignment(to_stranded(dipole), result.assignment)

    def test_block_pattern(self, tadpole_a, dipole):
        for s in (tadpole_a, to_stranded(dipole)):
            result = mo_admissibility(s, BLOCK)
            assert result.admissible
            assert verify_sign_assignment(s, result.assignment)

    def test_twisted_input_rejected(self, tadpole_a):
        twisted = with_twist(tadpole_a, 0, (1, 0, 2))
        with pytest.raises(TwistedInput):
            mo_admissibility(twisted, ALTERNATING)

    def test_wrong_rank(self):
        s = build_stranded(
            2,
            [("u", ["u0", "u1", "u2"]), ("v", ["v0", "v1", "v2"])],
            [(("u0", "v0"), None), (("u1", "v1"), None), (("u2", "v2"), None)])
        with pytest.raises(WrongRank):
            mo_admissibility(s, ALTERNATING)

    def test_witness_is_lexicographically_least(self, dipole):
        result = mo_admissibility(to_stranded(dipole), ALTERNATING)
        # vertices in label order get the least workable rotation; b1 first
        assert result.assignment.rotations == {"b1": 0, "w1": 1}

    def test_deterministic(self, quad):
        s = to_stranded(quad)
        assert mo_admissibility(s, ALTERNATING) == mo_admissibility(s, ALTERNATING)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            SignPattern("lopsided", (1, 1, 1, -1))
        with pytest.raises(ValueError):
            ALTERNATING._replace(signs=(1, 1, 1, 1))


class TestColoredWitness:
    def test_dipole_signs(self, dipole):
        witness = colored_mo_witness(dipole)
        assert witness.pattern is ALTERNATING
        assert [witness.signs[HalfEdgeRef("w1", c)] for c in range(4)] == [1, -1, 1, -1]
        assert [witness.signs[HalfEdgeRef("b1", c)] for c in range(4)] == [-1, 1, -1, 1]
        assert verify_sign_assignment(to_stranded(dipole), witness)

    def test_quad(self, quad):
        assert verify_sign_assignment(to_stranded(quad), colored_mo_witness(quad))

    def test_wrong_sign_rejected(self, dipole):
        witness = colored_mo_witness(dipole)
        signs = dict(witness.signs)
        signs[HalfEdgeRef("b1", 2)] = -signs[HalfEdgeRef("b1", 2)]  # off b1's rotation
        assert not verify_sign_assignment(to_stranded(dipole), witness._replace(signs=signs))

    def test_missing_rotation_rejected(self, dipole):
        witness = colored_mo_witness(dipole)
        rotations = {v: r for v, r in witness.rotations.items() if v != "w1"}
        assert not verify_sign_assignment(to_stranded(dipole),
                                          witness._replace(rotations=rotations))

    def test_random_graphs_validate(self):
        g = random_colored(3, 5, 42)
        assert verify_sign_assignment(to_stranded(g), colored_mo_witness(g))

    def test_wrong_rank(self):
        g = random_colored(2, 3, 1)
        with pytest.raises(WrongRank):
            colored_mo_witness(g)


class TestColorability:
    def test_dipole_round_trip(self, dipole):
        s = to_stranded(dipole)
        result = colorability(s)
        assert result.colorable
        assert validate_colored(result.witness).valid
        assert stranded_same_structure(to_stranded(result.witness), s)

    def test_quad_round_trip(self, quad):
        s = to_stranded(quad)
        result = colorability(s)
        assert result.colorable
        assert stranded_same_structure(to_stranded(result.witness), s)

    def test_tadpole_a_not_colorable(self, tadpole_a):
        result = colorability(tadpole_a)
        assert not result.colorable
        assert "vertex" in result.obstruction

    def test_misaligned_positions_not_colorable(self):
        # positions 2 and 3 swap sides, so no cyclically consecutive
        # color reading exists at both vertices
        s = build_stranded(
            3,
            [("u", ["u0", "u1", "u2", "u3"]), ("v", ["v0", "v1", "v2", "v3"])],
            [(("u0", "v0"), None), (("u1", "v1"), None),
             (("u2", "v3"), None), (("u3", "v2"), None)])
        result = colorability(s)
        assert not result.colorable

    def test_rotated_vertex_list_still_colorable(self):
        # same dipole structure, but one vertex's cyclic list starts at
        # color 2; the gluing permutations shift accordingly
        vertices = [("u", ["u2", "u3", "u0", "u1"]), ("v", ["v0", "v1", "v2", "v3"])]
        edges = []
        for c in range(4):
            u_pos = (c + 2) % 4
            u_slots = [k for k in range(4) if k != u_pos]
            v_slots = [k for k in range(4) if k != c]
            perm = [0, 0, 0]
            for k, slot in enumerate(u_slots):
                other_color = (slot + 2) % 4  # color at position `slot` of u
                perm[k] = v_slots.index(other_color)
            edges.append(((f"u{c}", f"v{c}"), perm))
        s = build_stranded(3, vertices, edges)
        result = colorability(s)
        assert result.colorable
        assert validate_colored(result.witness).valid

    def test_separation_from_mo(self, tadpole_a):
        # admitted by the corner-sign rule, discarded by coloring
        assert mo_admissibility(tadpole_a, ALTERNATING).admissible
        assert not colorability(tadpole_a).colorable

    def test_random_expansions_colorable(self):
        for i in range(10):
            g = random_colored(3, (i % 4) + 1, subseed(99, i))
            s = to_stranded(g)
            result = colorability(s)
            assert result.colorable
            assert validate_colored(result.witness).valid
            assert stranded_same_structure(to_stranded(result.witness), s)

    def test_deterministic(self, quad):
        s = to_stranded(quad)
        assert colorability(s) == colorability(s)


@st.composite
def voltage_graphs(draw):
    """(k, n, edges): edge (u, v, w) carries voltage w in Z_k from u to v;
    self-loops and parallel edges allowed."""
    k, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    return k, n, draw(st.lists(st.tuples(vertex, vertex, st.integers(0, k - 1)), max_size=10))


class TestPropagate:
    @settings(max_examples=300, deadline=None)
    @given(voltage_graphs())
    def test_labels_hold_or_walk_has_nonzero_voltage(self, graph):
        k, n, edges = graph
        steps = [[] for _ in range(n)]
        for e, (u, v, w) in enumerate(edges):
            steps[u].append((v, w, e))
            steps[v].append((u, -w % k, e))
        labels, stop = _propagate(steps, 0, lambda a, b: (a + b) % k)
        if stop is None:
            assert all(labels[v] == (labels[u] + w) % k for u, v, w in edges)
            return
        root, u, v, edge, walk = stop
        assert {u, v} == set(edges[edge][:2])
        assert edge in walk
        at, net = root, 0
        for e in walk:
            a, b, w = edges[e]
            assert at in (a, b)
            at, net = (b, net + w) if at == a else (a, net - w)
        assert at == root
        assert net % k != 0


class TestInclusion:
    def test_colored_graphs_are_mo_admissible(self):
        for i in range(10):
            g = random_colored(3, (i % 5) + 1, subseed(7, i))
            result = mo_admissibility(to_stranded(g), ALTERNATING)
            assert result.admissible

    @settings(max_examples=25, deadline=None)
    @given(colored_graphs(max_n=4))
    def test_soundness_properties(self, g):
        s = to_stranded(g)
        assert verify_sign_assignment(s, colored_mo_witness(g))
        found = mo_admissibility(s, ALTERNATING)
        assert found.admissible
        assert verify_sign_assignment(s, found.assignment)
        recovered = colorability(s)
        assert recovered.colorable
        assert validate_colored(recovered.witness).valid
        assert stranded_same_structure(to_stranded(recovered.witness), s)


def same_structure_by_sorting(s1, s2):
    """``stranded_same_structure`` by the recipe it used before it read the
    checked index: equal ranks and vertex label sets, then equal sorted
    lists of edges, each as its (vertex, position) ends, the lesser first,
    and its strand permutation, inverted where the ends were turned."""
    if s1.rank != s2.rank:
        return False
    if {v.label for v in s1.vertices} != {v.label for v in s2.vertices}:
        return False

    def normalized(s):
        out = []
        for e in s.edges:
            r1, r2 = (s.halfedge_refs[h] for h in e.halfedges)
            out.append((r1, r2, e.permutation) if r1 < r2 else (r2, r1, inverted(e.permutation)))
        return sorted(out)

    return normalized(s1) == normalized(s2)


def inverted(perm):
    inverse = [0] * len(perm)
    for k, j in enumerate(perm):
        inverse[j] = k
    return tuple(inverse)


def restated(s, rng):
    """The same structure told differently: fresh half-edge labels,
    vertices and edges shuffled, and about half the edges listed from
    their other end, with their strand permutation inverted."""
    halves = [h for v in s.vertices for h in v.halfedges]
    fresh = rng.sample(range(len(halves)), len(halves))
    name = {h: f"x{k}" for h, k in zip(halves, fresh)}
    vertices = [(v.label, [name[h] for h in v.halfedges]) for v in s.vertices]
    edges = []
    for (h1, h2), perm in s.edges:
        turn = rng.random() < 0.5
        edges.append(((name[h2], name[h1]), inverted(perm)) if turn else ((name[h1], name[h2]), perm))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return build_stranded(s.rank, vertices, edges)


def mutated(s, kind, rng):
    """``s`` after one change of structure: two edges exchange their second
    ends, one strand permutation changes, or one vertex is renamed."""
    vertices, edges = list(s.vertices), list(s.edges)
    if kind == "exchange":
        a, b = rng.sample(range(len(edges)), 2)
        (h1, h2), (k1, k2) = edges[a].halfedges, edges[b].halfedges
        edges[a] = edges[a]._replace(halfedges=(h1, k2))
        edges[b] = edges[b]._replace(halfedges=(k1, h2))
    elif kind == "permutation":
        e = rng.randrange(len(edges))
        edges[e] = edges[e]._replace(permutation=rng.choice(
            [p for p in itertools.permutations(range(s.rank)) if p != edges[e].permutation]))
    else:
        i = rng.randrange(len(vertices))
        taken, label = {v.label for v in vertices}, vertices[i].label
        while label in taken:
            label += "'"
        vertices[i] = vertices[i]._replace(label=label)
    return build_stranded(s.rank, vertices, edges)


@st.composite
def structure_pairs(draw):
    """(s, t, kind): ``s`` is a planted-defect graph or a colored expansion,
    in half the cases with random strand permutations on about a third of
    its edges; ``t`` restates it ("same"), restates it after one mutation,
    or is it at another rank."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 32)))
    s = draw(st.one_of(
        st.builds(planted, st.integers(min_value=2, max_value=12),
                  st.integers(min_value=0, max_value=1 << 32)),
        st.integers(min_value=2, max_value=4).flatmap(
            lambda rank: colored_graphs(rank=rank, max_n=5)).map(to_stranded),
        escaped_colored().map(to_stranded)))
    if draw(st.booleans()):
        s = build_stranded(s.rank, s.vertices, [
            (e.halfedges, rng.sample(range(s.rank), s.rank) if rng.random() < 1 / 3 else None)
            for e in s.edges])
    kinds = ["same", "rank"] + ["rename"] * bool(s.vertices) + ["permutation"] * bool(s.edges)
    kind = draw(st.sampled_from(kinds + ["exchange"] * (len(s.edges) >= 2)))
    if kind == "rank":
        return s, s._replace(rank=s.rank + 1), kind
    return s, restated(s if kind == "same" else mutated(s, kind, rng), rng), kind


class TestSameStructure:
    def test_other_rank_differs(self):
        dipoles = [build_colored(rank, ["w1"], ["b1"], [(c, "w1", "b1") for c in range(rank + 1)])
                   for rank in (2, 3)]
        assert not stranded_same_structure(*map(to_stranded, dipoles))

    def test_other_vertex_labels_differ(self, dipole):
        renamed = build_colored(3, ["w2"], ["b1"], [(c, "w2", "b1") for c in range(4)])
        assert stranded_same_structure(to_stranded(dipole), to_stranded(dipole))
        assert not stranded_same_structure(to_stranded(dipole), to_stranded(renamed))

    def test_both_graphs_are_checked(self, dipole):
        """Graphs of one rank are compared by their checked indices, so a
        malformed one raises, though its vertex labels differ."""
        malformed = StrandedGraph(3, (StrandedVertex("v", ("h0", "h1")),), ())
        for pair in [(to_stranded(dipole), malformed), (malformed, to_stranded(dipole))]:
            with pytest.raises(WrongValence):
                stranded_same_structure(*pair)

    @settings(max_examples=200, deadline=None)
    @given(structure_pairs())
    def test_equals_the_sorting_recipe(self, pair):
        s, t, kind = pair
        assert same_structure_by_sorting(s, t) == (kind == "same")
        assert stranded_same_structure(s, t) == stranded_same_structure(t, s) == (kind == "same")


def rotations_by_enumeration(pattern):
    """``distinct_rotations`` by the enumeration it used before it read the
    period: each rotation whose sign sequence is new, ascending."""
    seen, keep = set(), []
    for r in range(len(pattern.signs)):
        seq = tuple(pattern.rotated(p, r) for p in range(len(pattern.signs)))
        if seq not in seen:
            seen.add(seq)
            keep.append(r)
    return tuple(keep)


class TestDistinctRotations:
    """Every valid pattern against the enumeration: the brute-force MO oracle
    ``_first_signing`` reads ``distinct_rotations``, so it cannot catch a
    wrong period there."""

    @pytest.mark.parametrize("signs", sorted(set(itertools.permutations((1, 1, -1, -1)))))
    def test_matches_enumeration(self, signs):
        pattern = SignPattern("any", signs)
        assert pattern.distinct_rotations() == rotations_by_enumeration(pattern)
        assert len(pattern.distinct_rotations()) == (2 if signs[0] == signs[2] else 4)


class TestLargeAndAdversarial:
    """Decisions finish on large graphs and on a failing component sorted
    after many admissible ones."""

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        s = to_stranded(random_colored(3, 600, 3))
        path = tmp_path_factory.mktemp("large") / "random-600.json"
        path.write_bytes(serialize_graph(s))
        return s, str(path)

    def test_mo_cli_on_1200_vertices(self, large):
        s, path = large
        result = run(["check", "mo", path, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.report)
        signs = {s.halfedge_refs[h]: 1 if sign == "+" else -1
                 for h, sign in report["signs"].items()}
        assert verify_sign_assignment(
            s, SignAssignment(signs, ALTERNATING, report["rotations"]))

    def test_colorable_cli_on_1200_vertices(self, large):
        s, path = large
        result = run(["check", "colorable", path, "--json"])
        assert result.exit_code == 0
        witness = parse_graph(json.dumps(json.loads(result.report)["witness"]))
        assert stranded_same_structure(to_stranded(witness), s)

    def test_mo_failing_tadpole_sorted_last(self):
        s = make_tadpoles(20)
        start = time.perf_counter()
        result = mo_admissibility(s, ALTERNATING)
        assert time.perf_counter() - start < 0.5
        assert not result.admissible
        assert (result.obstruction.vertex, result.obstruction.conflicts) == (
            "z", ((0, ("z:0", "z:2"), "both ends signed +"),
                  (1, ("z:0", "z:2"), "both ends signed -")))

    def test_colorability_twisted_dipole_sorted_last(self):
        s = make_dipoles(5)
        start = time.perf_counter()
        result = colorability(s)
        assert time.perf_counter() - start < 0.5
        assert not result.colorable

    @pytest.mark.parametrize("n", [10, 100, 1000, 4000])
    def test_planted_defect_is_negative_for_both(self, n):
        """A colored expansion with two black half-edges swapped is neither
        multi-orientable nor colorable; the MO walk is a certificate."""
        s = planted(n, 3)
        result = mo_admissibility(s, ALTERNATING)
        assert not result.admissible
        assert_mo_certificate(s, ALTERNATING, result.obstruction)
        assert colorability(s) == (
            False, None, "no edge coloring reads cyclically consecutive colors at every vertex")


def _small_stranded(rng, rank, twists):
    """At most four vertices with shuffled labels.  Either half-edges are
    paired at random (self-loops allowed), or every color is a random
    perfect matching of the vertices, read through random dihedral maps;
    with ``twists``, about a third of the edges then get a random strand
    permutation."""
    m = rank + 1
    nv = rng.choice([k for k in range(1, 5) if k * m % 2 == 0])
    labels = rng.sample(["a", "b1", "b10", "b2", "c", "w1", "x"], nv)
    if nv % 2 == 0 and rng.random() < 0.5:
        matched = []
        for color in range(m):
            rng.shuffle(labels)
            matched += [(color, labels[i], labels[i + 1]) for i in range(0, nv, 2)]
        s = dihedral_stranded(rank, labels, matched, rng.randrange(1 << 30))
        vertices = [(v.label, v.halfedges) for v in s.vertices]
        edges = [(e.halfedges, e.permutation) for e in s.edges]
    else:
        vertices = [(v, [f"{v}:{p}" for p in range(m)]) for v in labels]
        halves = [h for _, hs in vertices for h in hs]
        rng.shuffle(halves)
        edges = [((halves[i], halves[i + 1]), None) for i in range(0, len(halves), 2)]

    def gluing(perm):
        if not twists:
            return None
        return rng.sample(range(rank), rank) if rng.random() < 0.3 else perm

    edges = [(ends, gluing(perm)) for ends, perm in edges]
    rng.shuffle(vertices)
    return build_stranded(rank, vertices, edges)


def _ends(s):
    return [(s.halfedge_refs[a], s.halfedge_refs[b]) for a, b in (e.halfedges for e in s.edges)]


def assert_mo_certificate(s, pattern, obstruction):
    """``obstruction.cycle`` is a closed walk from ``obstruction.vertex``
    whose edge parities (p + q + 1) mod 2 sum to 1, so no rotations of a
    period-two pattern satisfy it.  Both conflicts name the one edge of the
    walk that closes it, with the sign that the parities of the walk before
    and after that edge force at its two ends."""
    every = _ends(s)
    ends = [every[e] for e in obstruction.cycle]
    parities = [(r1.position + r2.position + 1) % 2 for r1, r2 in ends]
    assert sum(parities) % 2 == 1
    [closing] = {named for _rot, named, _reason in obstruction.conflicts}
    [i] = [k for k, e in enumerate(obstruction.cycle) if s.edges[e].halfedges == closing]
    at = obstruction.vertex
    for k, (r1, r2) in enumerate(ends):
        assert at in (r1.vertex, r2.vertex)
        leaving, arriving = (r1, r2) if at == r1.vertex else (r2, r1)
        if k == i:
            forced = [(leaving.position, sum(parities[:i]) % 2),
                      (arriving.position, sum(parities[i + 1:]) % 2)]
        at = arriving.vertex
    assert at == obstruction.vertex
    assert [rot for rot, _named, _reason in obstruction.conflicts] == [0, 1]
    for rot, _named, reason in obstruction.conflicts:
        for position, relative in forced:
            sign = pattern.rotated(position, relative ^ rot)
            assert reason == f"both ends signed {'+' if sign > 0 else '-'}"


def _first_signing(s, pattern):
    """Least rotation assignment, vertices in label order, by enumeration."""
    order = sorted(v.label for v in s.vertices)
    for rots in itertools.product(pattern.distinct_rotations(), repeat=len(order)):
        rot = dict(zip(order, rots))
        if all(pattern.rotated(r1.position, rot[r1.vertex])
               != pattern.rotated(r2.position, rot[r2.vertex]) for r1, r2 in _ends(s)):
            return rot
    return None


def _first_coloring(s):
    """The colored graph read off the least (orientation, offset) per
    vertex in label order, with the least white/black split, by
    enumeration.  Otherwise the first reason there is none, in the order
    ``colorability`` gives them: "loop", "no reading" or "no bipartition"."""
    m = s.rank + 1
    order = sorted(v.label for v in s.vertices)
    ends = _ends(s)
    if any(r1.vertex == r2.vertex for r1, r2 in ends):
        return "loop"
    glued = []
    for e, (r1, r2) in zip(s.edges, ends):
        mine = [k for k in range(m) if k != r1.position]
        theirs = [k for k in range(m) if k != r2.position]
        glued.append((r1.vertex, r2.vertex, [(r1.position, r2.position)] + [
            (mine[k], theirs[e.permutation[k]]) for k in range(s.rank)]))
    readings = [(1, off) for off in range(m)] + [(-1, off) for off in range(m)]

    def color(reading, p):
        return (reading[1] + reading[0] * p) % m

    for choice in itertools.product(readings, repeat=len(order)):
        read = dict(zip(order, choice))
        if all(color(read[u], p) == color(read[v], q)
               for u, v, pairs in glued for p, q in pairs):
            break
    else:
        return "no reading"
    for bits in itertools.product((0, 1), repeat=len(order)):
        side = dict(zip(order, bits))
        if all(side[r1.vertex] != side[r2.vertex] for r1, r2 in ends):
            break
    else:
        return "no bipartition"
    return build_colored(
        s.rank, [v for v in order if side[v] == 0], [v for v in order if side[v] == 1],
        [(color(read[r1.vertex], r1.position),
          *((r1.vertex, r2.vertex) if side[r1.vertex] == 0 else (r2.vertex, r1.vertex)))
         for r1, r2 in ends])


def _reason(obstruction):
    """The oracle's name for a ``colorability`` obstruction message."""
    for start, reason in (("edge joins two half-edges", "loop"),
                          ("no edge coloring", "no reading"),
                          ("odd cycle through", "no bipartition")):
        if obstruction.startswith(start):
            return reason
    raise AssertionError(obstruction)


class TestBruteForceOracle:
    """Witnesses are the first satisfying assignment in lexicographic
    vertex-label order, and a negative answer means there is none."""

    def test_mo_matches_enumeration(self):
        rng = random.Random(2012)
        outcomes = set()
        # hand-built patterns are decided by their shape, not their name
        by_hand = (SignPattern("minus-first", (-1, 1, -1, 1)), SignPattern("split", (1, -1, -1, 1)))
        for _ in range(300):
            s = _small_stranded(rng, 3, twists=False)
            for pattern in (ALTERNATING, BLOCK, *by_hand):
                expected = _first_signing(s, pattern)
                result = mo_admissibility(s, pattern)
                outcomes.add(result.admissible)
                if pattern is BLOCK:  # every corner-graph cycle is even
                    assert result.admissible
                if expected is None:
                    assert not result.admissible
                    assert_mo_certificate(s, pattern, result.obstruction)
                else:
                    assert result.admissible
                    assert result.assignment.rotations == expected
                    assert verify_sign_assignment(s, result.assignment)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_colorability_matches_enumeration(self, rank):
        rng = random.Random(5304 + rank)
        outcomes = set()
        for _ in range(150):
            s = _small_stranded(rng, rank, twists=True)
            expected = _first_coloring(s)
            result = colorability(s)
            outcomes.add(result.colorable)
            if isinstance(expected, str):
                assert not result.colorable
                assert _reason(result.obstruction) == expected
                odd = re.match(r"odd cycle through '(.+)' and '(.+)': ", result.obstruction)
                if odd:
                    assert any({r1.vertex, r2.vertex} == set(odd.groups())
                               for r1, r2 in _ends(s))
            else:
                assert result.colorable
                assert result.witness == expected
        assert outcomes == {True, False}
