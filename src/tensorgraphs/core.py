"""Colored and stranded tensor graph data model.

A colored graph of rank D is a bipartite (D+1)-regular multigraph whose
edges carry colors 0..D, every vertex meeting each color exactly once.
It is stored as one perfect matching per color between the white and the
black vertex class: ``matchings[c][i] == j`` says the color-c edge at
white ``whites[i]`` ends at black ``blacks[j]``.  Its stranded form
relabels the matchings: half-edge ``<vertex>:<color>`` at position =
color, the edges by color then white, every gluing the identity.

A stranded graph makes the strand structure explicit.  Every vertex has
D+1 half-edges in cyclic order; every half-edge carries D strand slots,
one per sibling position, and the slot labeled j of the half-edge at
position i is paired inside the vertex with the slot labeled i of the
half-edge at position j (the complete pairing dual to a D-simplex).
Every edge records how the slots of its two ends are glued, as a
permutation written against both ends' ascending slot labels; the
identity permutation means the strands run parallel (no twist).

Every walk reads one cached, checked integer index per graph, built by
the one pass that checks the graph.  The builders (and the census, whose
samples are permutations by construction) hand it over; a graph made
with its constructor or ``_replace`` is checked on first walk, and a
failed check is not kept, so it raises on every walk.

The stranded index is ``_index``: vertex i is the i-th label in
ascending order, half-edge h = i*(D+1) + position and slot h*D + k its
k-th slot label, so slot ids ascend in (vertex label, position, slot)
order.  Faces are the orbits of vertex pairing after edge gluing on
slot ids; components are orbits on half-edge ids.  Its pass is the one
closure check, and raises the builder's errors.

Every count on the colored side is an orbit count of the matchings.
Its index is ``_inverses``, each matching's inverse, from ``_checked``,
the one pass that decides colored validity and inverts the matchings.
Only ``_face_steps`` composes sigma_b^-1 sigma_a on whites (none at
n = 0), for the pairs a < b its caller reads; the {a, b}-faces are its
cycles, and ``_cycle_roots``, which finds each cycle's least white, is
the one walk over them.  The bubbles of a color set S are the orbits on
whites of those steps for b in S, a = min S: ``components`` composes
those |S| - 1 pairs, ``_connected`` (S = all colors) its D and
``pair_cycle_count`` its one, none walking a face.  The face walks and
counts of ``topology`` compose every pair, as does ``_bubble_table``, the
one pass that counts bubbles with their faces, over the color triples;
``_triple_counts`` reads it for census, dual and genus.

Records are ``typing.NamedTuple``s; the graphs subclass one of their
fields so that their cached indices have an instance dict.  A graph
pickles its fields only, so an unpickled graph, like one made with its
constructor, is checked on first walk.  Graphs are
immutable once built; every operation here is a pure read, so values
can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadParameters,
    BadPermutation,
    ColorOutOfRange,
    DanglingHalfEdge,
    DuplicateColorAtVertex,
    HalfEdgeReused,
    InvariantViolation,
    MissingColorAtVertex,
    UnequalParts,
    UnknownNode,
    WrongValence,
)

WHITE = "white"
BLACK = "black"


class ColoredEdge(NamedTuple):
    color: int
    white: str
    black: str


class HalfEdgeRef(NamedTuple):
    """A half-edge, addressed by its vertex and cyclic position."""

    vertex: str
    position: int


class StrandSlot(NamedTuple):
    """One strand slot: slot ``slot`` of the half-edge at ``position``."""

    vertex: str
    position: int
    slot: int


class Violation(NamedTuple):
    rule: str
    element: str
    message: str


class ValidationReport(NamedTuple):
    valid: bool
    violations: tuple[Violation, ...]


class Component(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[ColoredEdge, ...]


class _ColoredFields(NamedTuple):
    rank: int
    whites: tuple[str, ...]
    blacks: tuple[str, ...]
    matchings: tuple[tuple[int, ...], ...]


def _fields_only(graph: tuple) -> tuple:
    """A graph's ``__reduce__``: its fields, without the cached indices."""
    return type(graph), tuple(graph)


class ColoredGraph(_ColoredFields):
    """Bipartite rank-D tensor graph, one perfect matching per color."""

    __reduce__ = _fields_only

    @property
    def n(self) -> int:
        """Number of white (equally, black) vertices."""
        return len(self.whites)

    @property
    def colors(self) -> range:
        return range(self.rank + 1)

    @cached_property
    def white_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.whites)}

    @cached_property
    def black_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.blacks)}

    @cached_property
    def _inverses(self) -> list[list[int]]:
        """Each sigma_c^-1, which every colored walk reads, from the pass that
        checks the graph; one that fails raises, naming its first violation."""
        violations, inverses = _checked(self)
        if violations:
            raise BadParameters(f"graph fails validation: {violations[0].message}")
        return inverses

    def parity(self, label: str) -> str:
        if label in self.white_index:
            return WHITE
        if label in self.black_index:
            return BLACK
        raise UnknownNode(f"vertex {label!r} is not in this graph")

    def nodes(self) -> Iterator[tuple[str, str]]:
        """All vertices as (label, parity), whites first."""
        for label in self.whites:
            yield label, WHITE
        for label in self.blacks:
            yield label, BLACK

    def edges(self) -> Iterator[ColoredEdge]:
        """All edges, colors ascending, then white index."""
        for c in self.colors:
            sigma = self.matchings[c]
            for i in range(self.n):
                yield ColoredEdge(c, self.whites[i], self.blacks[sigma[i]])


class StrandedVertex(NamedTuple):
    label: str
    halfedges: tuple[str, ...]


class StrandedEdge(NamedTuple):
    halfedges: tuple[str, str]
    permutation: tuple[int, ...]


class _StrandIndex(NamedTuple):
    order: tuple[str, ...]  # vertex labels ascending; vertex i is order[i]
    ends: list[tuple[int, int]]  # each edge's half-edge ids, in edge order
    other: list[int]  # half-edge involution of the edges
    glue: list[int]  # slot involution of the strand permutations


class _StrandedFields(NamedTuple):
    rank: int
    vertices: tuple[StrandedVertex, ...]
    edges: tuple[StrandedEdge, ...]


class StrandedGraph(_StrandedFields):
    """Closed stranded graph: vertices with cyclic half-edges, glued edges.
    Closure is checked where ``_index`` is built, so a graph made with
    this constructor, not ``build_stranded``, is checked on first use."""

    __reduce__ = _fields_only

    @cached_property
    def halfedge_refs(self) -> dict[str, HalfEdgeRef]:
        self._index  # a malformed graph raises here, as on every walk
        return {h: HalfEdgeRef(v.label, pos)
                for v in self.vertices for pos, h in enumerate(v.halfedges)}

    @cached_property
    def _index(self) -> _StrandIndex:
        """The integer index, built by the one pass that checks closure.  It
        raises the builder's errors: a field of the wrong type first, then an
        element of the wrong type, then the rank, then a vertex label that is
        not a string, then vertices in declaration order, then edges in order,
        then half-edges left in no edge."""
        for name, kind, value in zip(self._fields, (int, tuple, tuple), self):
            if not isinstance(value, kind):  # the rest reads the fields as these types
                raise BadParameters(f"{name} must be {kind.__name__}, "
                                    f"got {type(value).__name__}")
        for name, kind in (("vertices", StrandedVertex), ("edges", StrandedEdge)):
            elements = getattr(self, name)
            if not all(map(isinstance, elements, itertools.repeat(kind))):
                i = next(i for i, x in enumerate(elements) if not isinstance(x, kind))
                raise BadParameters(f"{name}[{i}] must be {kind.__name__}, "
                                    f"got {type(elements[i]).__name__}")
        rank, d = self.rank, self.rank + 1
        if rank < 2:
            raise BadParameters(f"rank must be >= 2, got {rank}")
        labels = [v.label for v in self.vertices]
        if not all(map(isinstance, labels, itertools.repeat(str))):  # only strings sort
            label = next(x for x in labels if not isinstance(x, str))
            raise BadParameters(f"vertex label {label!r} is not a string")
        by_label = sorted(range(len(labels)), key=labels.__getitem__)  # stable: repeats adjoin
        order = tuple(labels[j] for j in by_label)
        half: dict[str, int] = {}
        for v, i in zip(self.vertices, _inverse(by_label)):
            if i and order[i - 1] == v.label:
                raise BadParameters(f"vertex label {v.label!r} declared twice")
            if not isinstance(v.halfedges, tuple):
                raise BadParameters(f"vertex {v.label!r}: halfedges must be tuple, "
                                    f"got {type(v.halfedges).__name__}")
            if len(v.halfedges) != d:
                raise WrongValence(
                    f"vertex {v.label!r} has {len(v.halfedges)} half-edges, expected {d}")
            for x, h in enumerate(v.halfedges, i * d):
                if not isinstance(h, str):
                    raise BadParameters(f"half-edge label {h!r} is not a string")
                if h in half:
                    raise BadParameters(f"half-edge label {h!r} declared twice")
                half[h] = x
        # sized only now that every vertex holds rank + 1 labels of the graph
        ends = []
        other = [-1] * len(half)
        strands, ints = (list(range(rank)), [int] * rank) if half else ([], [])
        checked = object()  # the last permutation checked: builders share the identity's
        for e in self.edges:
            try:
                h1, h2 = e.halfedges
            except (TypeError, ValueError):
                raise BadParameters(f"edge {e.halfedges!r} does not join two half-edges") from None
            try:
                x1, x2 = half[h1], half[h2]
            except (KeyError, TypeError):  # an undeclared label, an unhashable one too
                h = next(h for h in (h1, h2) if not isinstance(h, str) or h not in half)
                raise BadParameters(f"edge references undeclared half-edge {h!r}") from None
            if h1 == h2:
                raise HalfEdgeReused(f"half-edge {h1!r} used for both ends of one edge")
            for h, x in ((h1, x1), (h2, x2)):
                if other[x] >= 0:
                    raise HalfEdgeReused(f"half-edge {h!r} appears in more than one edge")
            other[x1], other[x2] = x2, x1
            if e.permutation is not checked:
                if not isinstance(e.permutation, tuple):
                    raise BadParameters(f"edge ({h1!r}, {h2!r}): permutation must be "
                                        f"tuple, got {type(e.permutation).__name__}")
                if list(map(type, e.permutation)) != ints or sorted(e.permutation) != strands:
                    raise BadPermutation(
                        f"edge ({h1!r}, {h2!r}): {list(e.permutation)} is not a "
                        f"permutation of 0..{rank - 1}")
                checked = e.permutation
            ends.append((x1, x2))
        if 2 * len(ends) != len(half):
            names = ", ".join(repr(h) for h in sorted(h for h, x in half.items() if other[x] < 0))
            raise DanglingHalfEdge(f"half-edges in no edge (open legs): {names}")
        # sized only now that every half-edge lies in an edge with rank strands
        glue = [0] * (rank * len(half))
        for (x1, x2), e in zip(ends, self.edges):
            for k, j in enumerate(e.permutation):
                x, y = x1 * rank + k, x2 * rank + j
                glue[x], glue[y] = y, x
        return _StrandIndex(order, ends, other, glue)

    def slots(self) -> Iterator[StrandSlot]:
        """Every strand slot of the graph, (D+1)*D per vertex."""
        self._index  # a malformed graph raises here, as on every walk
        labels = _slot_labels(self.rank) if self.vertices else []  # no vertex, no table
        return (StrandSlot(v.label, pos, slot) for v in self.vertices for pos, slot in labels)


def _slot_labels(rank: int) -> list[tuple[int, int]]:
    """(position, slot label) of each slot of a vertex, by its id within
    the vertex: id p*D + k is the k-th slot label other than p."""
    return [(p, q) for p in range(rank + 1) for q in range(rank + 1) if q != p]


def identity_permutation(rank: int) -> tuple[int, ...]:
    return tuple(range(rank))


def build_colored(
    rank: int,
    whites: Sequence[str],
    blacks: Sequence[str],
    edges: Sequence[tuple[int, str, str]],
) -> ColoredGraph:
    """Build a colored graph from an explicit edge list.

    Edges are (color, white label, black label) triples; they are
    reorganized into one matching per color.  Raises on the first
    offending element:

    - BadParameters for a rank below 2, or a vertex label that is not a
      string or is declared twice
    - UnequalParts if the vertex classes differ in size
    - UnknownNode / ColorOutOfRange for an edge referencing undeclared
      vertices, or a color that is not an int in 0..rank
    - DuplicateColorAtVertex / MissingColorAtVertex if some vertex does
      not see every color exactly once
    """
    if not isinstance(rank, int):
        raise BadParameters(f"rank must be int, got {type(rank).__name__}")
    if rank < 2:
        raise BadParameters(f"rank must be >= 2, got {rank}")
    whites = tuple(whites)
    blacks = tuple(blacks)
    if len(whites) != len(blacks):
        raise UnequalParts(f"{len(whites)} white vertices vs {len(blacks)} black")
    seen: set[str] = set()
    for label in whites + blacks:
        if not isinstance(label, str):
            raise BadParameters(f"vertex label {label!r} is not a string")
        if label in seen:
            raise BadParameters(f"vertex label {label!r} declared twice")
        seen.add(label)
    n = len(whites)
    # rows are made per color met, and sparse (None where unset) for a list too
    # short to fill them, so memory follows the edge list and never rank alone
    short = len(edges) < (rank + 1) * n
    widx = {label: i for i, label in enumerate(whites)}
    bidx = {label: i for i, label in enumerate(blacks)}

    rows: dict[int, tuple[list[int | None], list[int | None]]] = {}  # color -> (row, inverse)
    for color, white, black in edges:
        if not isinstance(color, int) or not 0 <= color <= rank:
            raise ColorOutOfRange(
                f"color {color!r} outside 0..{rank} on edge ({white!r}, {black!r})")
        if white not in widx:
            raise UnknownNode(f"edge of color {color} references unknown white {white!r}")
        if black not in bidx:
            raise UnknownNode(f"edge of color {color} references unknown black {black!r}")
        i, j = widx[white], bidx[black]
        row, inverse = rows.get(color) or rows.setdefault(
            color, tuple(defaultdict(type(None)) if short else [None] * n for _ in range(2)))
        if row[i] is not None:
            raise DuplicateColorAtVertex(f"color {color} repeated at white {white!r}")
        if inverse[j] is not None:
            raise DuplicateColorAtVertex(f"color {color} repeated at black {black!r}")
        row[i], inverse[j] = j, i
    if short:
        color, i = next((c, i) for c in itertools.count() for i in range(n)
                        if c not in rows or rows[c][0][i] is None)
        raise MissingColorAtVertex(f"white {whites[i]!r} has no edge of color {color}")
    # (rank + 1) * n or more edges on distinct (color, white) slots fill every slot
    matchings = tuple(tuple(rows[c][0]) for c in range(rank + 1)) if n else ((),) * (rank + 1)
    g = ColoredGraph(rank, whites, blacks, matchings)  # type: ignore[arg-type]
    if n:  # each inverse is full and checked too; at n = 0 _checked shares one empty row
        g.__dict__["_inverses"] = [rows[c][1] for c in range(rank + 1)]
    return g


def _checked(g: ColoredGraph) -> tuple[list[Violation], list[list[int]]]:
    """Every violation of the colored-graph invariants, in report order,
    and each matching's inverse (-1 where no white maps), from one pass.
    At n = 0 the inverses are one shared empty list: rank sizes little.
    A field of the wrong type is the only violation reported: the rest
    reads the fields as the documented types."""
    violations = [Violation("BadField", name, f"{name} must be {kind.__name__}, "
                            f"got {type(value).__name__}")
                  for name, kind, value in zip(g._fields, (int, tuple, tuple, tuple), g)
                  if not isinstance(value, kind)]
    if violations:
        return violations, []
    if g.rank < 2:
        violations.append(Violation("BadRank", str(g.rank), f"rank must be >= 2, got {g.rank}"))
    if len(g.whites) != len(g.blacks):
        violations.append(Violation(
            "UnequalParts", "graph",
            f"{len(g.whites)} white vertices vs {len(g.blacks)} black"))
    seen: set[str] = set()
    for label in g.whites + g.blacks:
        if not isinstance(label, str):
            violations.append(Violation(
                "BadLabel", repr(label), f"label {label!r} is not a string"))
        elif label in seen:
            violations.append(Violation("DuplicateLabel", label, f"label {label!r} used twice"))
        else:
            seen.add(label)
    n = len(g.whites)
    if len(g.matchings) != g.rank + 1:
        violations.append(Violation(
            "MissingColorAtVertex", "graph",
            f"expected {g.rank + 1} matchings, got {len(g.matchings)}"))
    inverses = [[-1] * n for _sigma in g.matchings] if n else [[]] * len(g.matchings)
    rows = zip(g.matchings, inverses) if len(g.blacks) == n else ()  # targets name blacks
    for c, (sigma, inverse) in enumerate(rows):
        if not isinstance(sigma, tuple):
            violations.append(Violation("BadField", f"color {c}", f"matching for color {c} "
                                        f"must be tuple, got {type(sigma).__name__}"))
            continue
        if len(sigma) != n:
            violations.append(Violation(
                "MissingColorAtVertex", f"color {c}",
                f"matching for color {c} covers {len(sigma)} whites, expected {n}"))
            continue
        for i, j in enumerate(sigma):
            if not isinstance(j, int) or not 0 <= j < n:  # a negative one indexes from the end
                violations.append(Violation(
                    "UnknownNode", f"color {c}, white {g.whites[i]!r}",
                    f"matching target {j!r} out of range"))
            elif inverse[j] >= 0:
                violations.append(Violation(
                    "DuplicateColorAtVertex", g.blacks[j],
                    f"color {c} repeated at black {g.blacks[j]!r}"))
            else:
                inverse[j] = i
        for j in (range(n) if -1 in inverse else ()):
            if inverse[j] < 0:
                violations.append(Violation(
                    "MissingColorAtVertex", g.blacks[j],
                    f"black {g.blacks[j]!r} has no edge of color {c}"))
    return violations, inverses


def validate_colored(g: ColoredGraph) -> ValidationReport:
    """Check every colored-graph invariant, reporting all violations.

    Violations are data, not exceptions, so graphs assembled without the
    builder can be inspected.  White/black endpoint parity holds by
    encoding (matchings go from whites to blacks) and cannot be violated.
    """
    violations = _checked(g)[0]
    return ValidationReport(not violations, tuple(violations))


def _inverse(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


def _orbits(perms: Sequence[Sequence[int]], n: int) -> list[int]:
    """Label every point 0..n-1 with the least point of its orbit under
    the group generated by ``perms``."""
    labels = [-1] * n
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = [start]
        for i in queue:
            for perm in perms:
                j = perm[i]
                if labels[j] < 0:
                    labels[j] = start
                    queue.append(j)
    return labels


def _groups(labels: list[int]) -> list[list[int]]:
    """Points grouped by orbit label, each ascending, orbits by least point."""
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(labels):
        groups.setdefault(root, []).append(i)
    return list(groups.values())


def _cycle_roots(perm: Sequence[int]) -> list[int]:
    """The least point of every cycle of ``perm``, ascending."""
    seen = [False] * len(perm)
    roots = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        roots.append(start)
        i = perm[start]
        while i != start:
            seen[i] = True
            i = perm[i]
    return roots


def _face_steps(g: ColoredGraph, pairs: Iterable | None = None) -> dict[tuple, Sequence[int]]:
    """sigma_b^-1 sigma_a on whites for each color pair a < b in ``pairs``,
    every pair by default; its cycles are the {a, b}-faces."""
    inverses = g._inverses  # a malformed graph raises here, before its colors are read
    pairs = itertools.combinations(g.colors, 2) if pairs is None else pairs
    if g.n < 2:  # no vertex, no pair to step; itemgetter of one index returns a scalar
        return dict.fromkeys(pairs, (0,)) if g.n else {}
    return {(a, b): itemgetter(*g.matchings[a])(inverses[b]) for a, b in pairs}


def _bubble_table(g: ColoredGraph) -> Iterator[tuple]:
    """(colors, labels, sizes, faces) of each color triple, lexicographic:
    ``labels`` gives each white the least white of its bubble, and
    ``sizes`` and ``faces`` map that least white to how many whites and
    {x, y}-cycle roots, x < y in colors, the bubble holds (faces: 0 where
    none).  A bubble's blacks are sigma_a of its whites, a = min colors.
    At n = 0 there is no row, and no triple is read."""
    n = g.n
    steps = _face_steps(g)  # every pair: each lies in D - 1 triples
    roots = {pair: _cycle_roots(step) for pair, step in steps.items()}
    for colors in itertools.combinations(g.colors, 3) if n else ():
        labels = _orbits([steps[colors[0], b] for b in colors[1:]], n)
        inside = [roots[pair] for pair in itertools.combinations(colors, 2)]
        if not any(labels):  # one bubble holds every root
            yield colors, labels, {0: n}, {0: sum(map(len, inside))}
        else:
            yield (colors, labels, Counter(labels),
                   Counter(map(labels.__getitem__, itertools.chain.from_iterable(inside))))


def _triple_counts(g: ColoredGraph) -> tuple[int, tuple[int, ...], bool]:
    """Faces, the genus of every three-color bubble, and whether some triple
    is one bubble, which makes the graph connected (at rank 2 the one triple
    is every color, so it is connectivity), from one pass over the triples."""
    faces, genera, one_bubble = 0, [], False
    for colors, _labels, sizes, f in _bubble_table(g):
        faces += sum(f.values())
        one_bubble = one_bubble or len(sizes) == 1
        genera.extend(_bubble_genus(colors, 2 * w, 3 * w, f[root]) for root, w in sizes.items())
    # each {a, b}-face lies in exactly one bubble of each of the D - 1
    # triples that hold a and b, so the triples count every face D - 1 times
    return faces // (g.rank - 1), tuple(genera), one_bubble


def _bubble_genus(colors: tuple[int, ...], v: int, e: int, f: int) -> int:
    """Genus of one three-color bubble.  Bubbles of valid colored graphs
    are connected and orientable, so chi is even and genus non-negative;
    anything else is an internal fault."""
    chi = v - e + f
    if chi % 2 != 0 or chi > 2:
        raise InvariantViolation(
            f"bubble over colors {colors} has impossible counts "
            f"(V={v}, E={e}, F={f})")
    return (2 - chi) // 2


def _component(g: ColoredGraph, colors: tuple[int, ...], whites: list[int]) -> Component:
    """Whites then blacks by index; edges by color, then white index."""
    blacks = sorted(g.matchings[colors[0]][i] for i in whites)
    return Component(
        tuple(g.whites[i] for i in whites) + tuple(g.blacks[j] for j in blacks),
        tuple(ColoredEdge(c, g.whites[i], g.blacks[g.matchings[c][i]])
              for c in colors for i in whites))


def _connected(g: ColoredGraph) -> bool:
    """Connectivity: one orbit on whites of every sigma_b^-1 sigma_0; no faces are counted."""
    steps = _face_steps(g, [(0, b) for b in g.colors[1:]]).values()
    return g.n > 0 and not any(_orbits(list(steps), g.n))


def components(g: ColoredGraph, colors: set[int] | frozenset[int]) -> list[Component]:
    """Connected components of the subgraph keeping only the given colors.

    All vertices are kept; vertices incident to no retained edge form
    singleton components.  Components are ordered by their least vertex
    (whites before blacks, declaration order).
    """
    g._inverses  # a malformed graph raises here, as on every walk
    for c in colors:
        if not 0 <= c <= g.rank:
            raise ColorOutOfRange(f"color {c} outside 0..{g.rank}")
    if not colors:
        return [Component((label,), ()) for label, _parity in g.nodes()]
    subset = tuple(sorted(colors))
    steps = _face_steps(g, [(subset[0], b) for b in subset[1:]]).values()
    return [_component(g, subset, whites) for whites in _groups(_orbits(list(steps), g.n))]


def to_stranded(g: ColoredGraph) -> StrandedGraph:
    """Expand a colored graph into its stranded form, straight from the
    matchings: each vertex's half-edge labels ``<vertex>:<color>`` are
    formatted once, at position = color, and the color-c edge at white i
    joins its label c to label c of black ``matchings[c][i]``; edges come
    by color, then white.  White vertices read the list anti-clockwise
    and black ones clockwise, so the stored data looks the same for both.
    Every strand permutation is the identity: colored graphs carry no twists.
    """
    g._inverses  # a malformed graph raises here
    labels = g.whites + g.blacks
    halves = [tuple(f"{label}:{c}" for c in g.colors) for label in labels]
    whites, blacks = halves[:g.n], halves[g.n:]
    # no edge: neither the identity nor a walk over the empty matchings is sized by rank
    ident, matchings = (identity_permutation(g.rank), g.matchings) if g.n else ((), ())
    edges = tuple(StrandedEdge((whites[i][c], blacks[j][c]), ident)
                  for c, sigma in enumerate(matchings) for i, j in enumerate(sigma))
    return StrandedGraph(g.rank, tuple(map(StrandedVertex, labels, halves)), edges)


def build_stranded(
    rank: int,
    vertices: Sequence[tuple[str, Sequence[str]]],
    edges: Sequence[tuple[tuple[str, str], Sequence[int] | None]],
) -> StrandedGraph:
    """Build a closed stranded graph, checking closure and valence.

    ``vertices`` lists (label, cyclic half-edge labels); ``edges`` lists
    ((half-edge, half-edge), strand permutation), where ``None`` stands
    for the identity permutation.  Open legs are rejected: every
    half-edge must occur in exactly one edge end.  As in a document,
    labels are strings and strand entries ints (not bools); ``_index``
    raises on the first fault, the rank's first.
    """
    built = tuple(StrandedVertex(label, tuple(halfedges)) for label, halfedges in vertices)
    # built only under a vertex of rank + 1 half-edges, which _index checks before any edge;
    # the rank is compared, not added to, as _index rejects one that is no int
    ident = identity_permutation(rank) if built and len(built[0].halfedges) - 1 == rank else ()
    g = StrandedGraph(rank, built, tuple(
        StrandedEdge(tuple(ends), ident if perm is None else tuple(perm)) for ends, perm in edges))
    g._index
    return g


def stranded_components(s: StrandedGraph) -> list[tuple[str, ...]]:
    """Vertex sets of the connected components of a stranded graph: the
    orbits on half-edge ids of the edge involution and the within-vertex
    rotation.  Components come by first declared vertex, each listing its
    vertices in declaration order."""
    index = s._index  # a malformed graph raises here, before its rank is read
    d = s.rank + 1
    turn = list(range(1, len(index.other) + 1))  # h to the next half-edge of its vertex
    turn[d - 1::d] = range(0, len(turn), d)
    root = dict(zip(index.order, _orbits([index.other, turn], len(turn))[::d]))
    labels = [v.label for v in s.vertices]
    return [tuple([labels[i] for i in group]) for group in _groups([root[x] for x in labels])]
