"""Structural decision procedures for stranded graphs.

Three properties are decided, each with a constructive witness:

- twist-freedom: every edge glues its strands by the identity;
- multi-orientability: corners can be signed so every vertex reads a
  rotation of a fixed sign pattern and every edge joins + to -;
- colorability: edges can be colored so every vertex sees each color
  once in cyclically consecutive order, with a white/black bipartition.

Both decisions label a voltage graph (Gross-Tucker): each edge carries
a group element that forces its far end's label from its near end's,
and labels exist iff no closed walk has nontrivial net voltage.
``_propagate`` labels each component breadth first from its least
vertex and stops at the first edge whose ends disagree, returning the
closed walk there.  Alternating multi-orientability labels rotations
in Z2, and that walk is its certificate; under the block pattern every
untwisted graph is signed by construction.  Colorability labels
(orientation, offset, side); its reasons come in a fixed order: a
self-loop, an edge no reading fits, readings that disagree, and only
then an odd cycle.  Witnesses are lexicographically least (vertices in
label order, choices ascending), so identical inputs give identical
outputs.
"""

from __future__ import annotations

from operator import xor
from typing import Iterator, Mapping, NamedTuple

from .core import WHITE, ColoredGraph, HalfEdgeRef, StrandedGraph, _orbits, identity_permutation
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
        """Rotation offsets giving distinct sign sequences: 0 up to the period,
        2 if the signs repeat after two corners, else 4 (two + and two - never
        repeat after one)."""
        return tuple(range(2 if self.signs[:2] == self.signs[2:] else 4))


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
    s._index  # a malformed graph raises here, before its twists
    ident = identity_permutation(s.rank)
    offenders = tuple(
        i for i, e in enumerate(s.edges) if e.permutation != ident
    )
    return (not offenders, offenders)


def mo_admissibility(s: StrandedGraph, pattern: SignPattern = ALTERNATING) -> MoResult:
    """Decide whether corner signs can make ``s`` multi-orientable.

    Under a period-two pattern (s, -s, s, -s) position p of a vertex with
    rotation r reads s * (-1)^(p+r), so an edge from half-edge id h1 to h2
    (ids are 4i + position) joins + to - iff r_u xor r_v = (h1 + h2 + 1)
    mod 2: a voltage graph on Z2, labelled from rotation 0 at each
    component's least label, whose first closed walk of odd net parity
    is the obstruction's ``cycle``.  Any other pattern signs opposite
    corners oppositely, so its sign classes are the orbits of
    x -> other[x] xor 2 and never conflict; vertices in label order each
    take the least rotation agreeing with the classes fixed so far.  Either
    way the witness is the lexicographically least one.

    Requires rank 3 and untwisted edges (multi-orientability is defined
    only without strand twists).
    """
    s._index  # a malformed graph raises here, before its rank is read
    if s.rank != 3:
        raise WrongRank(f"multi-orientability is defined for rank 3, got rank {s.rank}")
    ok, offenders = is_untwisted(s)
    if not ok:
        raise TwistedInput(f"edges {list(offenders)} carry twists")
    order, ends = s._index.order, s._index.ends

    if len(pattern.distinct_rotations()) == 2:  # period two
        steps: list[list[tuple[int, int, int]]] = [[] for _ in order]  # (vertex, parity, edge)
        for e, (h1, h2) in enumerate(ends):
            steps[h1 // 4].append((h2 // 4, (h1 + h2 + 1) & 1, e))
            steps[h2 // 4].append((h1 // 4, (h1 + h2 + 1) & 1, e))
        rot, stop = _propagate(steps, 0, xor)
        if stop is not None:
            root, _u, _v, e, walk = stop
            h = ends[e][0]
            signed = ["+" if pattern.rotated(h % 4, rot[h // 4] ^ r) > 0 else "-" for r in (0, 1)]
            conflicts = tuple((r, s.edges[e].halfedges, f"both ends signed {sign}")
                              for r, sign in enumerate(signed))
            return MoResult(False, None, MoObstruction(order[root], conflicts, walk))
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


def _propagate(steps, start, compose):
    """Label a voltage graph breadth first from ``start`` at each
    component's least vertex; a step (v, voltage, edge) of u forces v to
    ``compose(label of u, voltage)``.  Returns (labels, None), or at the
    first edge whose ends disagree (labels so far, (root, u, v, edge,
    walk)), ``walk`` being the edges of the closed walk down the tree to
    u, across the edge and back up from v."""
    labels: list = [None] * len(steps)
    via: list[tuple[int, int] | None] = [None] * len(steps)  # tree (parent, edge)

    def up(u: int) -> Iterator[int]:  # tree edges from u to the root
        while via[u] is not None:
            u, e = via[u]
            yield e

    for root in range(len(steps)):
        if labels[root] is not None:
            continue
        labels[root] = start
        queue = [root]
        for u in queue:
            for v, voltage, e in steps[u]:
                forced = compose(labels[u], voltage)
                if labels[v] is None:
                    labels[v], via[v] = forced, (u, e)
                    queue.append(v)
                elif labels[v] != forced:
                    return labels, (root, u, v, e, (*list(up(u))[::-1], e, *up(v)))
    return labels, None


def verify_sign_assignment(s: StrandedGraph, assignment: SignAssignment) -> bool:
    """Re-check a sign assignment against its own invariants."""
    index = s._index  # a malformed graph raises here, before its rank is read
    d = s.rank + 1
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
    rotations = {label: 0 if parity == WHITE else 1 for label, parity in g.nodes()}
    signs = {HalfEdgeRef(label, c): ALTERNATING.rotated(c, r)
             for label, r in rotations.items() for c in g.colors}
    return SignAssignment(signs, ALTERNATING, rotations)


def colorability(s: StrandedGraph) -> ColorabilityResult:
    """Decide whether ``s`` is the stranded form of some colored graph.

    Every vertex must read all colors in cyclically consecutive order,
    forward or backward (the stored cyclic list carries no global
    drawing direction): position p has color (offset + orientation * p)
    mod (D+1).  An edge maps one end's positions onto the other's by
    tau (position to position, slot to glued slot); colors agree along
    it iff tau^-1(x) = t + s*x.  Then (t, s) is the edge's voltage: the
    far end reads (orientation * s, offset + orientation * t) and lies on
    the other side, since every edge joins white to black.  Relabelling
    colors by such a map keeps a coloring one, so each component's least
    label reads (1, 0) and is white, and ``_propagate`` forces the rest:
    the least coloring, vertices in label order.

    Negative answers give the first reason in this order: a self-loop; an
    edge whose tau is not affine; any two readings that disagree; only
    then an odd cycle, named by the ends of its closing edge.  So a
    stopped pass is rechecked on the readings alone before that.

    The returned witness validates, and its stranded expansion has the
    same (vertex, position) edge structure as the input.
    """
    order, ends = s._index.order, s._index.ends  # a malformed graph raises here
    m = s.rank + 1

    loop = next((h1 // m for h1, h2 in ends if h1 // m == h2 // m), None)
    if loop is not None:
        return ColorabilityResult(False, None, "edge joins two half-edges of vertex "
                                  f"{order[loop]!r}; an edge must join a white to a black vertex")
    no_coloring = ColorabilityResult(
        False, None, "no edge coloring reads cyclically consecutive colors at every vertex")

    # per vertex: (neighbour, (t, s), edge), where it reads at x the color read here at t + s*x
    steps: list[list[tuple[int, tuple[int, int], int]]] = [[] for _ in order]
    for e, (edge, (h1, h2)) in enumerate(zip(s.edges, ends)):
        u, p, v, q = h1 // m, h1 % m, h2 // m, h2 % m
        tau = [0] * m
        tau[p] = q
        for k, j in enumerate(edge.permutation):  # slot labels skip the own position
            tau[k + (k >= p)] = j + (j >= q)
        t = tau.index(0)
        sign = 1 if tau[(t + 1) % m] == 1 else -1
        if any(tau[(t + sign * x) % m] != x for x in range(m)):
            return no_coloring
        steps[u].append((v, (t, sign), e))
        steps[v].append((u, (-sign * t % m, sign), e))

    def compose(label, voltage):  # the far end's reading, on the other side
        orient, offset, black = label
        t, sign = voltage
        return orient * sign, (offset + orient * t) % m, not black

    labels, stop = _propagate(steps, (1, 0, False), compose)
    if stop is not None:
        _labels, clash = _propagate(steps, (1, 0, False),
                                    lambda label, voltage: (*compose(label, voltage)[:2], False))
        if clash is not None:
            return no_coloring
        _root, u, v, _e, _walk = stop
        return ColorabilityResult(False, None, f"odd cycle through {order[u]!r} and {order[v]!r}: "
                                  "no white/black bipartition exists")

    whites = [i for i, label in enumerate(labels) if not label[2]]
    blacks = [i for i, label in enumerate(labels) if label[2]]
    place = {i: j for members in (whites, blacks) for j, i in enumerate(members)}
    rows: list[list[int]] = [[-1] * len(whites) for _ in range(m)] if whites else [[]] * m
    for h1, h2 in ends:
        u, p, v = h1 // m, h1 % m, h2 // m
        orient, offset, black = labels[u]
        w, b = (v, u) if black else (u, v)
        rows[(offset + orient * p) % m][place[w]] = place[b]
    witness = ColoredGraph(s.rank, tuple(order[i] for i in whites),
                           tuple(order[i] for i in blacks), tuple(tuple(row) for row in rows))
    return ColorabilityResult(True, witness, None)


def stranded_same_structure(s1: StrandedGraph, s2: StrandedGraph) -> bool:
    """Equal rank, then equal checked indices of both graphs: ``order`` fixes
    the half-edge ids by (vertex, position), and the slot involution ``glue``
    fixes each edge's ends and strands, whatever its labels, place or end order."""
    if s1.rank != s2.rank:
        return False
    i1, i2 = s1._index, s2._index
    return i1.order == i2.order and i1.glue == i2.glue
