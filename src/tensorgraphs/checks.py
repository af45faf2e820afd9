"""Structural decision procedures for stranded graphs.

Three properties are decided, each with a constructive witness:

- twist-freedom: every edge glues its strands by the identity;
- multi-orientability: corners can be signed so every vertex reads a
  rotation of a fixed sign pattern and every edge joins + to -;
- colorability: edges can be colored so every vertex sees each color
  once in cyclically consecutive order, with a white/black bipartition.

Both decisions take linear time, with no search.  Under the
alternating pattern multi-orientability is a parity 2-coloring of the
vertices by rotation, and a negative answer carries an odd closed walk
as its certificate; under the block pattern every untwisted graph is
signed by construction.  Colorability propagates a forced color
reading from each component's least label.  Witnesses are
lexicographically least (vertices in label order, choices ascending),
so identical inputs give identical outputs.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .core import BLACK, WHITE, ColoredGraph, HalfEdgeRef, StrandedGraph, _inverse, _orbits
from .errors import TwistedInput, WrongRank


class _SignFields(NamedTuple):
    name: str
    signs: tuple[int, ...]


class SignPattern(_SignFields):
    """Cyclic corner sign pattern; rank-3 patterns have two + and two -."""

    __slots__ = ()

    def __new__(cls, name: str, signs: tuple[int, ...]):
        if sorted(signs) != [-1, -1, 1, 1]:
            raise ValueError("rank-3 sign patterns need exactly two + and two -")
        return super().__new__(cls, name, signs)

    @classmethod
    def _make(cls, fields) -> SignPattern:  # so _replace validates too
        return cls(*fields)

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


class SignAssignment(NamedTuple):
    """Corner signs witnessing multi-orientability.

    At each vertex the signs along the cyclic half-edge order are the
    pattern rotated by ``rotations[vertex]``; every edge joins a + to
    a - half-edge.
    """

    signs: Mapping[HalfEdgeRef, int]
    pattern: SignPattern
    rotations: Mapping[str, int]


class MoObstruction(NamedTuple):
    """Certificate that no signing exists under a period-two pattern.

    ``cycle`` holds the edge indices of a closed walk from ``vertex``, the
    least label of the first component without a signing: down the
    traversal tree, across the first contradicting edge, and back up.  Its
    edge parities (p + q + 1) mod 2 sum to 1, so no rotations satisfy it.
    ``conflicts`` gives, per rotation of ``vertex``, that edge's half-edges
    and the sign the tree forces at both its ends."""

    vertex: str
    conflicts: tuple[tuple[int, tuple[str, str], str], ...]
    cycle: tuple[int, ...]


class MoResult(NamedTuple):
    admissible: bool
    assignment: SignAssignment | None
    obstruction: MoObstruction | None


class ColorabilityResult(NamedTuple):
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


def mo_admissibility(s: StrandedGraph, pattern: SignPattern = ALTERNATING) -> MoResult:
    """Decide whether corner signs can make ``s`` multi-orientable.

    Under a period-two pattern (s, -s, s, -s) position p of a vertex with
    rotation r reads s * (-1)^(p+r), so an edge from half-edge id h1 to h2
    (ids are 4i + position) joins + to - iff r_u xor r_v = (h1 + h2 + 1)
    mod 2: a parity 2-coloring of the vertices, forced from rotation 0 at
    each component's least label.  Any other pattern signs opposite
    corners oppositely, so its sign classes are the orbits of
    x -> other[x] xor 2 and never conflict; vertices in label order each
    take the least rotation agreeing with the classes fixed so far.  Either
    way the witness is the lexicographically least one.

    Requires rank 3 and untwisted edges (multi-orientability is defined
    only without strand twists).
    """
    if s.rank != 3:
        raise WrongRank(f"multi-orientability is defined for rank 3, got rank {s.rank}")
    ok, offenders = is_untwisted(s)
    if not ok:
        raise TwistedInput(f"edges {list(offenders)} carry twists")

    order = s._index.order
    if pattern.signs[0] == pattern.signs[2]:
        rot, obstruction = _forced_rotations(s, pattern)
        if obstruction is not None:
            return MoResult(False, None, obstruction)
    else:
        # opposite corners lie in opposite classes, so a rotation is fixed by its
        # signs at positions 0 and 1; all four pairs occur, so one always fits
        cls = _orbits([[y ^ 2 for y in s._index.other]], 4 * len(order))
        readings = [(r, [pattern.rotated(p, r) for p in range(4)])
                    for r in pattern.distinct_rotations()]
        held: dict[int, int] = {}  # sign class -> sign
        rot = []
        for x in range(0, 4 * len(order), 4):
            classes = cls[x:x + 4]
            r, signs = next((r, signs) for r, signs in readings
                            if len(set(zip(classes, signs))) == len(set(classes))
                            and all(held.get(c, w) == w for c, w in zip(classes, signs)))
            rot.append(r)
            held.update(zip(classes, signs))

    rotations = dict(zip(order, rot))
    signs = {HalfEdgeRef(label, pos): pattern.rotated(pos, rotations[label])
             for label in order for pos in range(4)}
    return MoResult(True, SignAssignment(signs, pattern, rotations), None)


def _forced_rotations(s: StrandedGraph, pattern: SignPattern
                      ) -> tuple[list[int], MoObstruction | None]:
    """Rotations forced by edge parities from rotation 0 at each
    component's least label, or the obstruction at the first edge that
    contradicts them."""
    order, ends = s._index.order, s._index.ends
    steps: list[list[tuple[int, int, int]]] = [[] for _ in order]  # (vertex, parity, edge)
    for e, (h1, h2) in enumerate(ends):
        steps[h1 // 4].append((h2 // 4, (h1 + h2 + 1) & 1, e))
        steps[h2 // 4].append((h1 // 4, (h1 + h2 + 1) & 1, e))
    rot = [-1] * len(order)
    via: list[tuple[int, int] | None] = [None] * len(order)  # tree (parent, edge)

    def up(u: int) -> list[int]:
        path = []
        while via[u] is not None:
            u, e = via[u]
            path.append(e)
        return path

    for root in range(len(order)):
        if rot[root] >= 0:
            continue
        rot[root] = 0
        queue = [root]
        for u in queue:
            for v, parity, e in steps[u]:
                if rot[v] < 0:
                    rot[v], via[v] = rot[u] ^ parity, (u, e)
                    queue.append(v)
                elif rot[v] != rot[u] ^ parity:
                    h = ends[e][0]
                    signed = [pattern.rotated(h % 4, rot[h // 4] ^ r) for r in (0, 1)]
                    conflicts = tuple((r, s.edges[e].halfedges,
                                       f"both ends signed {'+' if sign > 0 else '-'}")
                                      for r, sign in enumerate(signed))
                    return rot, MoObstruction(order[root], conflicts, (*up(u)[::-1], e, *up(v)))
    return rot, None


def verify_sign_assignment(s: StrandedGraph, assignment: SignAssignment) -> bool:
    """Re-check a sign assignment against its own invariants."""
    d = s.rank + 1
    index = s._index
    signs = [assignment.signs.get(HalfEdgeRef(label, pos))
             for label in index.order for pos in range(d)]
    for h, sign in enumerate(signs):
        rot = assignment.rotations.get(index.order[h // d])
        if rot is None or sign != assignment.pattern.rotated(h % d, rot):
            return False
    return all(signs[h1] + signs[h2] == 0 for h1, h2 in index.ends)


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
    order, ends = s._index.order, s._index.ends

    # self-loops can never join a positive to a negative vertex
    for h1, h2 in ends:
        if h1 // m == h2 // m:
            return ColorabilityResult(
                False, None,
                f"edge joins two half-edges of vertex {order[h1 // m]!r}; "
                "an edge must join a white to a black vertex")
    no_coloring = ColorabilityResult(
        False, None, "no edge coloring reads cyclically consecutive colors at every vertex")

    # per vertex: (neighbour, t, s), the neighbour reading at x the color read here at t + s*x
    steps: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for e, (h1, h2) in zip(s.edges, ends):
        u, p, v, q = h1 // m, h1 % m, h2 // m, h2 % m
        tau = [0] * m
        tau[p] = q
        for k, j in enumerate(e.permutation):  # slot labels skip the own position
            tau[k + (k >= p)] = j + (j >= q)
        t = tau.index(0)
        sign = 1 if tau[(t + 1) % m] == 1 else -1
        if any(tau[(t + sign * x) % m] != x for x in range(m)):
            return no_coloring
        steps[u].append((v, t, sign))
        steps[v].append((u, -sign * t % m, sign))

    reading: list[tuple[int, int] | None] = [None] * len(order)
    parity: list[str] = [WHITE] * len(order)
    odd_cycle = None
    for root in range(len(order)):
        if reading[root] is not None:
            continue
        reading[root] = (1, 0)
        stack = [root]
        while stack:
            cur = stack.pop()
            orient, offset = reading[cur]
            side = BLACK if parity[cur] == WHITE else WHITE
            for nxt, t, sign in steps[cur]:
                forced = (orient * sign, (offset + orient * t) % m)
                if reading[nxt] is None:
                    reading[nxt], parity[nxt] = forced, side
                    stack.append(nxt)
                elif reading[nxt] != forced:
                    return no_coloring
                elif parity[nxt] != side and odd_cycle is None:
                    odd_cycle = (f"odd cycle through {order[cur]!r} and {order[nxt]!r}: no "
                                 "white/black bipartition exists")
    if odd_cycle is not None:
        return ColorabilityResult(False, None, odd_cycle)

    whites = [i for i, side in enumerate(parity) if side == WHITE]
    blacks = [i for i, side in enumerate(parity) if side == BLACK]
    place = {i: j for members in (whites, blacks) for j, i in enumerate(members)}
    rows: list[list[int]] = [[-1] * len(whites) for _ in range(m)]
    for h1, h2 in ends:
        u, p, v = h1 // m, h1 % m, h2 // m
        orient, offset = reading[u]
        w, b = (u, v) if parity[u] == WHITE else (v, u)
        rows[(offset + orient * p) % m][place[w]] = place[b]
    witness = ColoredGraph(s.rank, tuple(order[i] for i in whites),
                           tuple(order[i] for i in blacks), tuple(tuple(row) for row in rows))
    return ColorabilityResult(True, witness, None)


def stranded_same_structure(s1: StrandedGraph, s2: StrandedGraph) -> bool:
    """Equality of stranded structure preserving (vertex, position) pairs,
    ignoring half-edge labels and edge listing order."""
    if s1.rank != s2.rank:
        return False
    if {v.label for v in s1.vertices} != {v.label for v in s2.vertices}:
        return False

    # equal vertex label sets give equal half-edge ids for equal (vertex, position)
    def normalized(s: StrandedGraph) -> list:
        out = []
        for e, (h1, h2) in zip(s.edges, s._index.ends):
            if h2 < h1:
                out.append((h2, h1, tuple(_inverse(e.permutation))))
            else:
                out.append((h1, h2, e.permutation))
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
