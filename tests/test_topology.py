import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    ColoredGraph,
    bicolored_face_count,
    bicolored_faces,
    build_stranded,
    euler_characteristic,
    genus,
    is_planar,
    pair_cycle_count,
    random_colored,
    ribbon_counts,
    stranded_components,
    to_stranded,
    trace_faces,
)
from tensorgraphs.errors import (
    BadParameters,
    ColorOutOfRange,
    Disconnected,
    NegativeGenus,
    OddEuler,
)
from tensorgraphs.sampling import random_colored, subseed

from .test_checks import _small_stranded
from .test_core import colored_graphs


def slot_involutions(s):
    """The within-vertex pairing and the within-edge gluing of strand
    slots, as plain dictionaries on (vertex, position, slot) tuples."""
    vertex_pair = {}
    for v in s.vertices:
        for i in range(s.rank + 1):
            for j in range(s.rank + 1):
                if i != j:
                    vertex_pair[(v.label, i, j)] = (v.label, j, i)
    edge_pair = {}
    for e in s.edges:
        r1 = s.halfedge_refs[e.halfedges[0]]
        r2 = s.halfedge_refs[e.halfedges[1]]
        a = [k for k in range(s.rank + 1) if k != r1.position]
        b = [k for k in range(s.rank + 1) if k != r2.position]
        for k in range(s.rank):
            s1 = (r1.vertex, r1.position, a[k])
            s2 = (r2.vertex, r2.position, b[e.permutation[k]])
            edge_pair[s1] = s2
            edge_pair[s2] = s1
    return vertex_pair, edge_pair


def orbit_faces_oracle(s):
    """Independent faces: orbit closure over the slot set, as slot sets.

    Saturates orbits of both involutions with a worklist, never following
    the production traversal order.
    """
    vertex_pair, edge_pair = slot_involutions(s)
    remaining = set(vertex_pair)
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit, frontier = {seed}, {seed}
        while frontier:
            slot = frontier.pop()
            for image in (vertex_pair[slot], edge_pair[slot]):
                if image in remaining:
                    remaining.remove(image)
                    orbit.add(image)
                    frontier.add(image)
        orbits.append(frozenset(orbit))
    return orbits


def bfs_components_oracle(s):
    """Vertex sets of connected components by breadth-first search over
    ``halfedge_refs``: by first declared vertex, each in declaration order."""
    neighbours = {v.label: set() for v in s.vertices}
    for h1, h2 in (e.halfedges for e in s.edges):
        u, v = s.halfedge_refs[h1].vertex, s.halfedge_refs[h2].vertex
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, components = set(), []
    for v in s.vertices:
        if v.label in seen:
            continue
        reached, queue = {v.label}, [v.label]
        for u in queue:
            for w in neighbours[u] - reached:
                reached.add(w)
                queue.append(w)
        seen |= reached
        components.append(tuple(w.label for w in s.vertices if w.label in reached))
    return components


def composition_cycle_oracle(g, a, b):
    """Cycle count of matching b composed with the inverse of a."""
    inv_a = [0] * g.n
    for i, j in enumerate(g.matchings[a]):
        inv_a[j] = i
    perm = [g.matchings[b][inv_a[j]] for j in range(g.n)]  # blacks -> blacks
    seen = [False] * g.n
    cycles = 0
    for start in range(g.n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


class TestEulerGenus:
    def test_euler_anchors(self):
        assert euler_characteristic(2, 3, 1) == 0
        assert euler_characteristic(1, 0, 1) == 2
        assert euler_characteristic(6, 9, 3) == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(BadParameters):
            euler_characteristic(-1, 0, 0)

    def test_genus_anchors(self):
        assert genus(2, 3, 1, connected=True) == 1
        assert genus(2, 3, 3, connected=True) == 0
        assert genus(6, 9, 3, connected=True) == 1

    def test_genus_errors(self):
        with pytest.raises(Disconnected):
            genus(2, 3, 1, connected=False)
        with pytest.raises(OddEuler):
            genus(2, 3, 2, connected=True)
        with pytest.raises(NegativeGenus):
            genus(4, 0, 0, connected=True)

    def test_is_planar(self):
        assert not is_planar(2, 3, 1, connected=True)
        assert is_planar(2, 3, 3, connected=True)
        assert is_planar(1, 0, 1, connected=True)

    def test_ribbon_counts_bundle(self):
        rc = ribbon_counts(2, 3, 1, connected=True)
        assert (rc.chi, rc.genus) == (0, 1)
        assert ribbon_counts(2, 3, 1, connected=False).genus is None


class TestTraceFaces:
    def test_dipole(self, dipole):
        faces = trace_faces(to_stranded(dipole))
        assert faces.count == 6
        # every face crosses two edges (4 slots)
        assert all(len(cycle) == 4 for cycle in faces.faces)

    def test_tadpole_a_matches_oracle(self, tadpole_a):
        faces = trace_faces(tadpole_a)
        assert faces.count == len(orbit_faces_oracle(tadpole_a)) == 3

    def test_tadpole_b_matches_oracle(self, tadpole_b):
        faces = trace_faces(tadpole_b)
        assert faces.count == len(orbit_faces_oracle(tadpole_b)) == 1

    def test_quad(self, quad):
        assert trace_faces(to_stranded(quad)).count == 8

    def test_slot_partition(self, quad):
        s = to_stranded(quad)
        faces = trace_faces(s)
        covered = [slot for cycle in faces.faces for slot in cycle]
        assert len(covered) == len(set(covered))
        assert set(covered) == set(s.slots())
        # total slot length is 2 * D * |edges|
        assert len(covered) == 2 * s.rank * len(s.edges)

    def test_deterministic_start_and_order(self, dipole):
        faces = trace_faces(to_stranded(dipole))
        starts = [cycle[0] for cycle in faces.faces]
        assert starts == sorted(starts)
        for cycle in faces.faces:
            assert cycle[0] == min(cycle)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_faces_match_orbit_oracle(self, rank):
        rng = random.Random(1011 + rank)
        for _ in range(150):
            s = _small_stranded(rng, rank, twists=True)
            faces, orbits = trace_faces(s), orbit_faces_oracle(s)
            assert faces.count == len(faces.faces) == len(orbits)
            assert {frozenset(cycle) for cycle in faces.faces} == set(orbits)
            vertex_pair, edge_pair = slot_involutions(s)
            for cycle in faces.faces:
                assert cycle[0] == min(cycle)
                for i in range(0, len(cycle), 2):  # edge hop first, then vertex pairing
                    assert edge_pair[cycle[i]] == cycle[i + 1]
                    assert vertex_pair[cycle[i + 1]] == cycle[(i + 2) % len(cycle)]


    def test_slot_label_table_built_once_per_call(self, monkeypatch):
        """One table for the slots and one for the strand walk, however
        many vertices: not one per vertex."""
        import tensorgraphs.topology as topology
        s = to_stranded(random_colored(3, 20, 7))
        calls = []
        real = topology._slot_labels
        monkeypatch.setattr(topology, "_slot_labels", lambda rank: calls.append(rank) or real(rank))
        assert trace_faces(s).count == bicolored_face_count(random_colored(3, 20, 7))
        assert calls == [3, 3]


class TestStrandedComponents:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_bfs_oracle(self, rank):
        rng = random.Random(7 + rank)
        split = 0
        for _ in range(150):
            s = _small_stranded(rng, rank, twists=True)
            components = stranded_components(s)
            assert components == bfs_components_oracle(s)
            split += len(components) > 1
        assert split > 0


class TestBicoloredFaces:
    def test_dipole(self, dipole):
        faces = bicolored_faces(dipole)
        assert faces.count == 6
        assert all(len(cycle) == 2 for cycle in faces.faces)

    def test_quad_breakdown(self, quad):
        faces = bicolored_faces(quad)
        assert faces.count == 8
        by_pair = {}
        for cycle in faces.faces:
            pair = frozenset(e.color for e in cycle)
            by_pair[pair] = by_pair.get(pair, 0) + 1
        assert by_pair[frozenset({0, 1})] == 2
        assert by_pair[frozenset({2, 3})] == 2
        for a, b in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert by_pair[frozenset({a, b})] == 1

    @pytest.mark.parametrize("a, b, error", [
        (0, 0, BadParameters), (0, 9, ColorOutOfRange), (-1, 2, ColorOutOfRange)])
    def test_pair_cycle_count_rejects_bad_pairs(self, genus_one_graph, a, b, error):
        with pytest.raises(error):
            pair_cycle_count(genus_one_graph, a, b)

    def test_three_cycle_construction(self, genus_one_graph):
        g = genus_one_graph
        restricted = sum(
            pair_cycle_count(g, a, b)
            for a, b in itertools.combinations((1, 2, 3), 2)
        )
        assert restricted == 3

    def test_even_cycles_and_cover(self, genus_one_graph):
        g = genus_one_graph
        faces = bicolored_faces(g)
        by_pair = {}
        for cycle in faces.faces:
            assert len(cycle) % 2 == 0
            pair = frozenset(e.color for e in cycle)
            by_pair.setdefault(pair, []).extend(cycle)
        # within one color pair, every edge of those colors appears once
        for (a, b), edges in ((tuple(sorted(p)), v) for p, v in by_pair.items()):
            expected = {e for e in g.edges() if e.color in (a, b)}
            assert sorted(edges) == sorted(expected)

    @settings(max_examples=40)
    @given(colored_graphs())
    @example(random_colored(6, 40, 11))
    def test_count_matches_composition_oracle(self, g):
        for a, b in itertools.combinations(g.colors, 2):
            assert pair_cycle_count(g, a, b) == composition_cycle_oracle(g, a, b)
        assert bicolored_face_count(g) == bicolored_faces(g).count

    @pytest.mark.parametrize("rank, n", [(2, 1), (2, 2), (2, 3), (3, 3), (4, 2)])
    def test_mean_face_count_is_exact(self, rank, n):
        """Over all (n!)^(D+1) colored graphs every sigma_b^-1 sigma_a is a
        uniform permutation, with H_n cycles on average, so the mean face
        count is C(D+1, 2) * H_n exactly."""
        whites = tuple(f"w{i}" for i in range(n))
        blacks = tuple(f"b{i}" for i in range(n))
        perms = list(itertools.permutations(range(n)))
        counts = [bicolored_face_count(ColoredGraph(rank, whites, blacks, matchings))
                  for matchings in itertools.product(perms, repeat=rank + 1)]
        harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
        assert Fraction(sum(counts), len(counts)) == math.comb(rank + 1, 2) * harmonic


class TestCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(colored_graphs())
    def test_trace_equals_bicolored(self, g):
        stranded = trace_faces(to_stranded(g))
        colored = bicolored_faces(g)
        assert stranded.count == colored.count

    def test_per_pair_multisets(self):
        for i in range(40):
            g = random_colored(3, (i % 6) + 1, subseed(2024, i))
            stranded = trace_faces(to_stranded(g))
            by_pair_stranded = {}
            for cycle in stranded.faces:
                pairs = {frozenset((s.position, s.slot)) for s in cycle}
                assert len(pairs) == 1  # expansions keep the pair invariant
                by_pair_stranded.setdefault(next(iter(pairs)), []).append(len(cycle) // 2)
            by_pair_colored = {}
            for cycle in bicolored_faces(g).faces:
                pair = frozenset(e.color for e in cycle)
                by_pair_colored.setdefault(pair, []).append(len(cycle))
            assert {k: sorted(v) for k, v in by_pair_stranded.items()} == \
                   {k: sorted(v) for k, v in by_pair_colored.items()}


def test_empty_stranded_graph_builds_no_slot_table():
    """No vertex, so no table of a vertex's rank^2 slot labels: slots() and
    the strand walk each built one, 250,500 entries at rank 500."""
    s = build_stranded(500, [], [])
    tracemalloc.start()
    try:
        found = list(s.slots()), trace_faces(s).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ([], 0) and peak < 100_000
