"""Reference answers computed without the package under test.

Everything here is written against the documented formats and the
published definitions only, so the benchmark can check the program's
outputs without asking the program to check itself:

- SplitMix64 with descending Fisher-Yates, the recipe the census names
  in ``generator_id``;
- faces of a colored graph as cycles of sigma_b^-1 sigma_a for every
  color pair, bubbles as orbits of those permutations over a color
  subset;
- strand circuits of a stranded document as orbits of the edge and
  vertex slot involutions;
- multi-orientability (alternating pattern) as parity 2-coloring, and
  colorability by propagating a per-vertex cyclic color map from one
  root per component.

Colored matchings are lists ``sigma[c][i] = j``: the color-c edge at
white i ends at black j.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TWO64 = 1 << 64
GENERATOR_ID = "splitmix64/fisher-yates/v1"
ALTERNATING = (1, -1, 1, -1)


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def subseed(seed: int, index: int) -> int:
    """Output ``index`` of the SplitMix64 stream seeded at ``seed``."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK)


def random_matchings(rank: int, n: int, seed: int) -> list[list[int]]:
    """One Fisher-Yates shuffle per color, colors ascending, SplitMix64 draws
    with rejection (no modulo bias)."""
    state = seed & MASK
    out = []
    for _ in range(rank + 1):
        values = list(range(n))
        for i in range(n - 1, 0, -1):
            bound = i + 1
            limit = TWO64 - TWO64 % bound
            while True:
                state = (state + GOLDEN) & MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
                z ^= z >> 31
                if z < limit:
                    break
            j = z % bound
            values[i], values[j] = values[j], values[i]
        out.append(values)
    return out


def pair_permutation(sigma: list[list[int]], a: int, b: int) -> list[int]:
    """sigma_b^-1 sigma_a on white indices: its cycles are the {a, b} faces."""
    inv_b = [0] * len(sigma[b])
    for i, j in enumerate(sigma[b]):
        inv_b[j] = i
    sa = sigma[a]
    return [inv_b[sa[i]] for i in range(len(sa))]


def cycle_starts(perm: list[int]) -> list[tuple[int, int]]:
    """(least white, length) of every cycle of ``perm``."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            length += 1
            i = perm[i]
        out.append((start, length))
    return out


def orbit_labels(perms: list[list[int]], n: int) -> list[int]:
    """Orbit label (its least member) of every point under the group the
    permutations generate."""
    label = [-1] * n
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            i = stack.pop()
            for p in perms:
                k = p[i]
                if label[k] < 0:
                    label[k] = root
                    stack.append(k)
    return label


def all_pairs(sigma: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    return {(a, b): pair_permutation(sigma, a, b)
            for a, b in combinations(range(len(sigma)), 2)}


def face_count(sigma: list[list[int]]) -> int:
    return sum(len(cycle_starts(perm)) for perm in all_pairs(sigma).values())


def subset_bubbles(pairs: dict, cycles: dict, subset: tuple[int, ...], n: int):
    """Orbit label per white and face count per orbit, for one color subset."""
    inside = [pairs[p] for p in combinations(subset, 2)]
    label = orbit_labels(inside[:2], n)  # two pair permutations generate the rest
    faces: dict[int, int] = {}
    for p in combinations(subset, 2):
        for start, _length in cycles[p]:
            faces[label[start]] = faces.get(label[start], 0) + 1
    return label, faces


def bubbles(sigma: list[list[int]], k: int = 3) -> list[dict]:
    """Every bubble over every k-subset of colors, with V, E, F.

    A bubble is an orbit of white indices under sigma_b^-1 sigma_a for
    a, b in the subset, together with the blacks matched to it.
    """
    n = len(sigma[0])
    pairs = all_pairs(sigma)
    cycles = {p: cycle_starts(perm) for p, perm in pairs.items()}
    out = []
    for subset in combinations(range(len(sigma)), k):
        label, faces = subset_bubbles(pairs, cycles, subset, n)
        members: dict[int, list[int]] = {}
        for i in range(n):
            members.setdefault(label[i], []).append(i)
        for root, whites in members.items():
            blacks = sorted({sigma[c][i] for c in subset for i in whites})
            out.append({
                "colors": subset, "whites": whites, "blacks": blacks,
                "v": 2 * len(whites), "e": k * len(whites), "f": faces[root],
            })
    return out


def sample_invariants(sigma: list[list[int]]) -> tuple[int, bool, list[int]]:
    """Face count, connectivity and the genus of every 3-color bubble."""
    n = len(sigma[0])
    pairs = all_pairs(sigma)
    cycles = {p: cycle_starts(perm) for p, perm in pairs.items()}
    faces = sum(len(c) for c in cycles.values())
    connected = max(orbit_labels([pairs[(0, b)] for b in range(1, len(sigma))], n)) == 0
    genera = []
    for subset in combinations(range(len(sigma)), 3):
        label, bubble_faces = subset_bubbles(pairs, cycles, subset, n)
        size: dict[int, int] = {}
        for root in label:
            size[root] = size.get(root, 0) + 1
        for root, whites in size.items():
            chi = 2 * whites - 3 * whites + bubble_faces[root]
            genera.append((2 - chi) // 2)
    return faces, connected, genera


def census_payload(rank: int, n: int, samples: int, seed: int) -> dict:
    """The census report's fields, recomputed sample by sample."""
    total_faces = 0
    connected = 0
    counts: dict[int, int] = {}
    genus_hist: dict[int, int] = {}
    for j in range(samples):
        faces, is_conn, genera = sample_invariants(
            random_matchings(rank, n, subseed(seed, j)))
        total_faces += faces
        connected += is_conn
        counts[len(genera)] = counts.get(len(genera), 0) + 1
        for genus in genera:
            genus_hist[genus] = genus_hist.get(genus, 0) + 1
    return {
        "samples": samples,
        "rank": rank,
        "n": n,
        "seed": seed,
        "mean_faces": str(Fraction(total_faces, samples)),
        "bubble_count_distribution": {str(k): counts[k] for k in sorted(counts)},
        "genus_histogram": {str(k): genus_hist[k] for k in sorted(genus_hist)},
        "planar_fraction": str(Fraction(genus_hist.get(0, 0), sum(genus_hist.values()))),
        "connected_fraction": str(Fraction(connected, samples)),
        "generator_id": GENERATOR_ID,
    }


def json_report(tool_version: str, payload: dict) -> bytes:
    """Bytes the documented ``--json`` report prints: fixed key order,
    tool metadata in the single leading ``tool_version`` field."""
    return (json.dumps({"tool_version": tool_version, **payload}, indent=2) + "\n").encode()


# -- documents ---------------------------------------------------------------

def colored_document(sigma: list[list[int]]) -> dict:
    n = len(sigma[0])
    return {
        "format": "colored-tensor-graph", "version": 1, "rank": len(sigma) - 1,
        "whites": [f"w{i}" for i in range(n)],
        "blacks": [f"b{j}" for j in range(n)],
        "edges": [{"color": c, "white": f"w{i}", "black": f"b{sigma[c][i]}"}
                  for c in range(len(sigma)) for i in range(n)],
    }


def stranded_expansion(sigma: list[list[int]]) -> dict:
    """Stranded document of a colored graph: half-edge of color c at
    position c on both parities, untwisted edges."""
    n = len(sigma[0])
    colors = range(len(sigma))
    vertices = [{"id": f"{p}{i}", "halfedges": [f"{p}{i}:{c}" for c in colors]}
                for p in "wb" for i in range(n)]
    edges = [{"halfedges": [f"w{i}:{c}", f"b{sigma[c][i]}:{c}"]}
             for c in colors for i in range(n)]
    return {"format": "stranded-tensor-graph", "version": 1, "rank": len(sigma) - 1,
            "vertices": vertices, "edges": edges}


class Stranded:
    """Index view of a stranded document: half-edge -> (vertex, position),
    edges as ((v1, p1), (v2, p2), permutation)."""

    def __init__(self, doc: dict):
        self.rank = doc["rank"]
        self.vertices = [v["id"] for v in doc["vertices"]]
        self.halfedges = {v["id"]: v["halfedges"] for v in doc["vertices"]}
        where = {h: (v["id"], p) for v in doc["vertices"] for p, h in enumerate(v["halfedges"])}
        ident = list(range(self.rank))
        self.edges = [
            (where[e["halfedges"][0]], where[e["halfedges"][1]],
             e.get("strand_permutation", ident))
            for e in doc["edges"]
        ]

    def slot_labels(self, position: int) -> list[int]:
        return [k for k in range(self.rank + 1) if k != position]

    def edge_involution(self) -> dict[tuple, tuple]:
        pair = {}
        for (v1, p1), (v2, p2), perm in self.edges:
            l1, l2 = self.slot_labels(p1), self.slot_labels(p2)
            for k, m in enumerate(perm):
                s1, s2 = (v1, p1, l1[k]), (v2, p2, l2[m])
                pair[s1] = s2
                pair[s2] = s1
        return pair

    def slot_count(self) -> int:
        return len(self.vertices) * (self.rank + 1) * self.rank

    def face_count(self) -> int:
        """Orbits of the edge involution and the vertex involution
        (v, p, k) <-> (v, k, p) on strand slots."""
        edge = self.edge_involution()
        seen = set()
        count = 0
        for start in edge:
            if start in seen:
                continue
            count += 1
            cur = start
            while True:
                seen.add(cur)
                hop = edge[cur]
                seen.add(hop)
                cur = (hop[0], hop[2], hop[1])
                if cur == start:
                    break
        return count

    def adjacency(self) -> dict[str, list[tuple[int, str, int, list[int]]]]:
        adj: dict[str, list] = {v: [] for v in self.vertices}
        for (v1, p1), (v2, p2), perm in self.edges:
            inv = [0] * len(perm)
            for k, m in enumerate(perm):
                inv[m] = k
            adj[v1].append((p1, v2, p2, perm))
            adj[v2].append((p2, v1, p1, inv))
        return adj

    def mo_alternating(self) -> bool:
        """Alternating-pattern MO: a rotation parity r_v per vertex, and an
        edge (v, p)-(u, q) needs r_v + p and r_u + q of opposite parity."""
        adj = self.adjacency()
        parity: dict[str, int] = {}
        for root in self.vertices:
            if root in parity:
                continue
            parity[root] = 0
            stack = [root]
            while stack:
                v = stack.pop()
                for p, u, q, _perm in adj[v]:
                    want = parity[v] ^ (p & 1) ^ (q & 1) ^ 1
                    if u not in parity:
                        parity[u] = want
                        stack.append(u)
                    elif parity[u] != want:
                        return False
        return True

    def _color_maps(self) -> list[tuple[int, ...]]:
        m = self.rank + 1
        return [tuple((off + o * p) % m for p in range(m)) for o in (1, -1) for off in range(m)]

    def propagate_colors(self, root: str, root_map: tuple[int, ...],
                         adj: dict) -> dict[str, tuple[int, ...]] | None:
        """Cyclic color map per vertex of root's component forced by
        root_map, or None on a contradiction.  One glued neighbour fixes a
        vertex's whole map: the shared position and the glued slots."""
        valid = set(self._color_maps())
        maps = {root: root_map}
        side = {root: 0}
        stack = [root]
        while stack:
            v = stack.pop()
            for p, u, q, perm in adj[v]:
                if u == v:
                    return None  # a self-loop cannot join white to black
                mine = maps[v]
                forced = [None] * (self.rank + 1)
                forced[q] = mine[p]
                lp, lq = self.slot_labels(p), self.slot_labels(q)
                for k, m in enumerate(perm):
                    forced[lq[m]] = mine[lp[k]]
                forced = tuple(forced)
                if u not in maps:
                    if forced not in valid:
                        return None
                    maps[u] = forced
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif maps[u] != forced or side[u] == side[v]:
                    return None
        return maps

    def components(self) -> list[list[str]]:
        adj = self.adjacency()
        seen: set[str] = set()
        out = []
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            comp, stack = [root], [root]
            while stack:
                for _p, u, _q, _perm in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
                        stack.append(u)
            out.append(comp)
        return out

    def colorable(self) -> bool:
        adj = self.adjacency()
        return all(
            any(self.propagate_colors(comp[0], m, adj) is not None for m in self._color_maps())
            for comp in self.components())


# -- witness checks ------------------------------------------------------------

def mo_witness_ok(s: Stranded, report: dict) -> bool:
    """Alternating signs rotated per vertex, every edge + to -."""
    rotations, signs = report["rotations"], report["signs"]
    if report["pattern"] != "alternating" or set(rotations) != set(s.vertices):
        return False
    for v in s.vertices:
        for p, h in enumerate(s.halfedges[v]):
            want = "+" if ALTERNATING[(p + rotations[v]) % 4] > 0 else "-"
            if signs.get(h) != want:
                return False
    for (v1, p1), (v2, p2), _perm in s.edges:
        if signs[s.halfedges[v1][p1]] == signs[s.halfedges[v2][p2]]:
            return False
    return True


def coloring_witness_ok(s: Stranded, witness: dict) -> bool:
    """The witness is a valid colored graph on the same vertices whose
    colors, read through one cyclic color map per vertex, reproduce
    every edge and every strand gluing of the input."""
    whites, blacks = witness["whites"], witness["blacks"]
    if (witness["format"] != "colored-tensor-graph" or len(whites) != len(blacks)
            or sorted(whites + blacks) != sorted(s.vertices)):
        return False
    side = {w: 0 for w in whites} | {b: 1 for b in blacks}
    neighbour: dict[tuple[str, int], str] = {}
    for e in witness["edges"]:
        c, w, b = e["color"], e["white"], e["black"]
        if side.get(w) != 0 or side.get(b) != 1 or (w, c) in neighbour or (b, c) in neighbour:
            return False
        neighbour[(w, c)] = b
        neighbour[(b, c)] = w
    if len(neighbour) != len(s.vertices) * (s.rank + 1):
        return False
    adj = s.adjacency()
    for comp in s.components():
        for root_map in s._color_maps():
            maps = s.propagate_colors(comp[0], root_map, adj)
            if maps is None:
                continue
            if all(neighbour.get((v, maps[v][p])) == u and side[v] != side[u]
                   for v in comp for p, u, _q, _perm in adj[v]):
                break
        else:
            return False
    return True
