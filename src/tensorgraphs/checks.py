"""Structural decision procedures for stranded graphs.

Three properties are decided, each with a constructive witness:

- twist-freedom: every edge glues its strands by the identity;
- multi-orientability: corners can be signed so every vertex reads a
  rotation of a fixed sign pattern and every edge joins + to -;
- colorability: edges can be colored so every vertex sees each color
  once in cyclically consecutive order, with a white/black bipartition.

Both decisions take linear time, with no search: multi-orientability
is bipartiteness of a corner graph, taken as orbits by ``core._orbits``,
and colorability propagates a forced color reading from each
component's least label.  Witnesses are
lexicographically least (vertices in label order, choices ascending),
so identical inputs give identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .core import (BLACK, WHITE, ColoredGraph, HalfEdgeRef, StrandedGraph, _inverse,
                   _orbits, stranded_components)
from .errors import TwistedInput, WrongRank


@dataclass(frozen=True)
class SignPattern:
    """Cyclic corner sign pattern; rank-3 patterns have two + and two -."""

    name: str
    signs: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.signs) != [-1, -1, 1, 1]:
            raise ValueError("rank-3 sign patterns need exactly two + and two -")

    def rotated(self, position: int, rotation: int) -> int:
        return self.signs[(position + rotation) % len(self.signs)]

    def distinct_rotations(self) -> tuple[int, ...]:
        """Rotation offsets giving distinct sign sequences, ascending.

        The alternating pattern has period two, so only offsets 0 and 1
        are kept; the block pattern keeps all four.
        """
        seen: set[tuple[int, ...]] = set()
        keep = []
        for r in range(len(self.signs)):
            seq = tuple(self.rotated(p, r) for p in range(len(self.signs)))
            if seq not in seen:
                seen.add(seq)
                keep.append(r)
        return tuple(keep)


ALTERNATING = SignPattern("alternating", (1, -1, 1, -1))
BLOCK = SignPattern("block", (1, 1, -1, -1))

PATTERNS = {p.name: p for p in (ALTERNATING, BLOCK)}


@dataclass(frozen=True)
class SignAssignment:
    """Corner signs witnessing multi-orientability.

    At each vertex the signs along the cyclic half-edge order are the
    pattern rotated by ``rotations[vertex]``; every edge joins a + to
    a - half-edge.
    """

    signs: Mapping[HalfEdgeRef, int]
    pattern: SignPattern
    rotations: Mapping[str, int]


@dataclass(frozen=True)
class MoObstruction:
    """Evidence that no rotation works at ``vertex``, the first vertex in
    label order on an odd cycle of the corner graph: per rotation of it,
    the conflict met when the rest of its component is then signed in
    label order, each vertex taking its least rotation that agrees with
    those signed so far; the first vertex left with none reports the
    conflicting edge of its least rotation.  Evidence, not a certificate."""

    vertex: str
    conflicts: tuple[tuple[int, tuple[str, str], str], ...]


@dataclass(frozen=True)
class MoResult:
    admissible: bool
    assignment: SignAssignment | None
    obstruction: MoObstruction | None


@dataclass(frozen=True)
class ColorabilityResult:
    colorable: bool
    witness: ColoredGraph | None
    obstruction: str | None


def is_untwisted(s: StrandedGraph) -> tuple[bool, tuple[int, ...]]:
    """True plus () iff every strand permutation is the identity;
    otherwise False plus the offending edge indices."""
    ident = tuple(range(s.rank))
    offenders = tuple(
        i for i, e in enumerate(s.edges) if e.permutation != ident
    )
    return (not offenders, offenders)


def _edge_endpoints(s: StrandedGraph) -> list[tuple[HalfEdgeRef, HalfEdgeRef]]:
    return [
        (s.halfedge_refs[e.halfedges[0]], s.halfedge_refs[e.halfedges[1]])
        for e in s.edges
    ]


def mo_admissibility(s: StrandedGraph, pattern: SignPattern = ALTERNATING) -> MoResult:
    """Decide whether corner signs can make ``s`` multi-orientable.

    Signs reading a rotation of the pattern at every vertex and joining
    + to - along every edge are the 2-colorings of the corner graph that
    links each edge's corners and each corner pair the pattern signs
    oppositely under all rotations, so ``s`` is multi-orientable iff
    that graph is bipartite.  Its orbits are taken on the signed double
    cover, point 2x + b meaning "corner x has sign bit b", every link
    flipping b.  Vertices in label order then each take the least
    rotation agreeing with the orbits already fixed, which gives the
    lexicographically least assignment, or stop at the first vertex on
    an odd cycle (see ``MoObstruction``).

    Requires rank 3 and untwisted edges (multi-orientability is defined
    only without strand twists).
    """
    if s.rank != 3:
        raise WrongRank(f"multi-orientability is defined for rank 3, got rank {s.rank}")
    ok, offenders = is_untwisted(s)
    if not ok:
        raise TwistedInput(f"edges {list(offenders)} carry twists")

    d = s.rank + 1
    # cyclic neighbours for the alternating pattern, opposite corners for block
    opposite = [(p, q) for p, q in itertools.combinations(range(d), 2)
                if all(pattern.rotated(p, r) != pattern.rotated(q, r) for r in range(d))]
    order = sorted(v.label for v in s.vertices)
    index = {label: i for i, label in enumerate(order)}
    corner = {h: d * index[r.vertex] + r.position for h, r in s.halfedge_refs.items()}
    corners = d * len(order)

    def flipping(pairs: list[tuple[int, int]]) -> list[int]:
        perm = list(range(2 * corners))
        for x, y in pairs:
            for b in (0, 1):
                perm[2 * x + b], perm[2 * y + b] = 2 * y + 1 - b, 2 * x + 1 - b
        return perm

    orbit = _orbits(
        [flipping([(corner[h1], corner[h2]) for h1, h2 in (e.halfedges for e in s.edges)])]
        + [flipping([(x + p, x + q) for x in range(0, corners, d)]) for p, q in opposite],
        2 * corners)

    readings = [(rot, [2 * p + (pattern.rotated(p, rot) < 0) for p in range(d)])
                for rot in pattern.distinct_rotations()]
    rotations: dict[str, int] = {}
    held: set[int] = set()  # orbits whose points are fixed true
    for i, label in enumerate(order):
        for rot, bits in readings:
            points = [2 * d * i + b for b in bits]
            fixing = {orbit[q] for q in points}
            if not any(orbit[q ^ 1] in held or orbit[q ^ 1] in fixing for q in points):
                rotations[label] = rot
                held |= fixing
                break
        else:
            return MoResult(False, None, _mo_obstruction(s, pattern, label))

    signs = {HalfEdgeRef(label, pos): pattern.rotated(pos, rotations[label])
             for label in order for pos in range(d)}
    return MoResult(True, SignAssignment(signs, pattern, rotations), None)


def _mo_obstruction(s: StrandedGraph, pattern: SignPattern, vertex: str) -> MoObstruction:
    """Greedy signing of the component of ``vertex``, once per rotation of
    it; the component has no signing, so each rotation meets one conflict."""
    component = next(c for c in stranded_components(s) if vertex in c)
    # per vertex, the edges it touches: (position, other vertex, other position, ends)
    touching: dict[str, list] = {label: [] for label in component}
    for e, (r1, r2) in zip(s.edges, _edge_endpoints(s)):
        if r1.vertex in touching:
            touching[r1.vertex].append((r1.position, r2.vertex, r2.position, e.halfedges))
            touching[r2.vertex].append((r2.position, r1.vertex, r1.position, e.halfedges))
    candidates = pattern.distinct_rotations()
    rest = [(label, candidates) for label in sorted(component) if label != vertex]

    def conflict_at(label: str, rot: int, rotations: dict[str, int]):
        for pos, other, opos, ends in touching[label]:
            if other == label:
                other_rot = rot
            elif other in rotations:
                other_rot = rotations[other]
            else:
                continue
            mine = pattern.rotated(pos, rot)
            if mine == pattern.rotated(opos, other_rot):
                sign = "+" if mine > 0 else "-"
                return ends, f"both ends signed {sign}"
        return None

    conflicts = []
    for rot in candidates:
        rotations: dict[str, int] = {}
        for label, tries in [(vertex, (rot,))] + rest:
            fit = next((r for r in tries if conflict_at(label, r, rotations) is None), None)
            if fit is None:
                conflicts.append((rot, *conflict_at(label, tries[0], rotations)))
                break
            rotations[label] = fit
    return MoObstruction(vertex, tuple(conflicts))


def verify_sign_assignment(s: StrandedGraph, assignment: SignAssignment) -> bool:
    """Re-check a sign assignment against its own invariants."""
    for v in s.vertices:
        rot = assignment.rotations.get(v.label)
        if rot is None:
            return False
        for pos in range(s.rank + 1):
            ref = HalfEdgeRef(v.label, pos)
            if assignment.signs.get(ref) != assignment.pattern.rotated(pos, rot):
                return False
    for r1, r2 in _edge_endpoints(s):
        if assignment.signs[r1] + assignment.signs[r2] != 0:
            return False
    return True


def colored_mo_witness(g: ColoredGraph) -> SignAssignment:
    """Constructive multi-orientability witness for a colored rank-3 graph.

    At white vertices the color-c half-edge is + iff c is even; at black
    vertices the opposite.  Every edge then joins opposite signs, and
    each vertex reads the alternating pattern rotated by 0 (white) or 1
    (black).
    """
    if g.rank != 3:
        raise WrongRank(f"multi-orientability is defined for rank 3, got rank {g.rank}")
    signs: dict[HalfEdgeRef, int] = {}
    rotations: dict[str, int] = {}
    for label, parity in g.nodes():
        white = parity == WHITE
        rotations[label] = 0 if white else 1
        for c in g.colors:
            plus = (c % 2 == 0) if white else (c % 2 == 1)
            signs[HalfEdgeRef(label, c)] = 1 if plus else -1
    return SignAssignment(signs, ALTERNATING, rotations)


def colorability(s: StrandedGraph) -> ColorabilityResult:
    """Decide whether ``s`` is the stranded form of some colored graph.

    Every vertex must read all colors in cyclically consecutive order,
    forward or backward (the stored cyclic list carries no global
    drawing direction): position p has color (offset + orientation * p)
    mod (D+1).  An edge maps one end's positions onto the other's by
    tau (position to position, slot to glued slot); colors agree along
    it iff tau^-1(x) = t + s*x and the far reading is (orientation * s,
    offset + orientation * t).  Relabelling colors by such a map keeps
    a coloring one, so each component's least label reads (1, 0) and one
    traversal forces the rest: the least coloring, vertices in label
    order.  It also splits white from black, the least label of each
    component white, and every edge must join white to black.

    The returned witness validates, and its stranded expansion has the
    same (vertex, position) edge structure as the input.
    """
    m = s.rank + 1
    order = sorted(v.label for v in s.vertices)

    # self-loops can never join a positive to a negative vertex
    endpoints = _edge_endpoints(s)
    for r1, r2 in endpoints:
        if r1.vertex == r2.vertex:
            return ColorabilityResult(
                False, None,
                f"edge joins two half-edges of vertex {r1.vertex!r}; "
                "an edge must join a white to a black vertex")
    no_coloring = ColorabilityResult(
        False, None, "no edge coloring reads cyclically consecutive colors at every vertex")

    # per vertex: (neighbour, t, s), the neighbour reading at x the color read here at t + s*x
    steps: dict[str, list[tuple[str, int, int]]] = {label: [] for label in order}
    for e, (r1, r2) in zip(s.edges, endpoints):
        p, q = r1.position, r2.position
        tau = [0] * m
        tau[p] = q
        for k, j in enumerate(e.permutation):  # slot labels skip the own position
            tau[k + (k >= p)] = j + (j >= q)
        t = tau.index(0)
        sign = 1 if tau[(t + 1) % m] == 1 else -1
        if any(tau[(t + sign * x) % m] != x for x in range(m)):
            return no_coloring
        steps[r1.vertex].append((r2.vertex, t, sign))
        steps[r2.vertex].append((r1.vertex, -sign * t % m, sign))

    reading: dict[str, tuple[int, int]] = {}
    parity: dict[str, str] = {}
    odd_cycle = None
    for root in order:
        if root in reading:
            continue
        reading[root], parity[root] = (1, 0), WHITE
        stack = [root]
        while stack:
            cur = stack.pop()
            orient, offset = reading[cur]
            side = BLACK if parity[cur] == WHITE else WHITE
            for nxt, t, sign in steps[cur]:
                forced = (orient * sign, (offset + orient * t) % m)
                if nxt not in reading:
                    reading[nxt], parity[nxt] = forced, side
                    stack.append(nxt)
                elif reading[nxt] != forced:
                    return no_coloring
                elif parity[nxt] != side and odd_cycle is None:
                    odd_cycle = (f"odd cycle through {cur!r} and {nxt!r}: no "
                                 "white/black bipartition exists")
    if odd_cycle is not None:
        return ColorabilityResult(False, None, odd_cycle)

    whites = tuple(label for label in order if parity[label] == WHITE)
    blacks = tuple(label for label in order if parity[label] == BLACK)
    widx = {label: i for i, label in enumerate(whites)}
    bidx = {label: i for i, label in enumerate(blacks)}
    rows: list[list[int]] = [[-1] * len(whites) for _ in range(m)]
    for r1, r2 in endpoints:
        orient, offset = reading[r1.vertex]
        color = (offset + orient * r1.position) % m
        w, b = (r1.vertex, r2.vertex) if parity[r1.vertex] == WHITE else (r2.vertex, r1.vertex)
        rows[color][widx[w]] = bidx[b]
    witness = ColoredGraph(s.rank, whites, blacks, tuple(tuple(row) for row in rows))
    return ColorabilityResult(True, witness, None)


def stranded_same_structure(s1: StrandedGraph, s2: StrandedGraph) -> bool:
    """Equality of stranded structure preserving (vertex, position) pairs,
    ignoring half-edge labels and edge listing order."""
    if s1.rank != s2.rank:
        return False
    if {v.label for v in s1.vertices} != {v.label for v in s2.vertices}:
        return False

    def normalized(s: StrandedGraph) -> list:
        out = []
        for e, (r1, r2) in zip(s.edges, _edge_endpoints(s)):
            if r2 < r1:
                out.append((r2, r1, tuple(_inverse(e.permutation))))
            else:
                out.append((r1, r2, e.permutation))
        return sorted(out)

    return normalized(s1) == normalized(s2)


__all__ = [
    "ALTERNATING",
    "BLOCK",
    "PATTERNS",
    "ColorabilityResult",
    "MoObstruction",
    "MoResult",
    "SignAssignment",
    "SignPattern",
    "colorability",
    "colored_mo_witness",
    "is_untwisted",
    "mo_admissibility",
    "stranded_same_structure",
    "verify_sign_assignment",
]
