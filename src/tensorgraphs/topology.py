"""Faces, Euler characteristic, genus, and planarity of ribbon structures.

Faces of a stranded graph are the closed strand circuits: orbits of
vertex pairing after edge gluing, walked on slot ids numbered in vertex
label order (see ``core``).  For colored graphs the same circuits appear
as the connected components of two-color subgraphs, which are even
alternating cycles: the {a, b}-faces are the orbits of sigma_b^-1
sigma_a on whites, counted by the orbit kernel in ``core``.  Both routes
are implemented and must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import ColoredEdge, ColoredGraph, StrandSlot, StrandedGraph, _face_step, _orbits
from .errors import BadParameters, Disconnected, NegativeGenus, OddEuler


@dataclass(frozen=True)
class FaceSet:
    """Faces as disjoint cycles covering every slot (or two-color edge).

    Stranded cycles are tuples of :class:`StrandSlot`; colored cycles are
    alternating tuples of :class:`ColoredEdge` over two colors.
    """

    faces: tuple[tuple, ...]
    count: int


@dataclass(frozen=True)
class RibbonCounts:
    """Vertex, edge, and face counts of a ribbon graph with chi = V - E + F.

    ``genus`` is present only when the counts came with connectivity
    evidence and chi is even.
    """

    v: int
    e: int
    f: int
    chi: int
    genus: int | None


def trace_faces(s: StrandedGraph) -> FaceSet:
    """Faces of a closed stranded graph by strand tracing.

    Each face starts at its least slot and is traversed edge transition
    first, so output is deterministic.  Every slot lies in exactly one
    face.
    """
    rank, d = s.rank, s.rank + 1
    order, glue = s._index.order, s._index.glue
    slots = [StrandSlot(v, p, q) for v in order for p in range(d) for q in range(d) if q != p]
    # within a vertex, slot q of position p pairs with slot p of position q
    block = rank * d
    pairing = [q * rank + p - (p > q) for p in range(d) for q in range(d) if q != p]
    seen = bytearray(len(glue))
    faces: list[tuple[StrandSlot, ...]] = []
    for start in range(len(glue)):
        if seen[start]:
            continue
        cycle: list[int] = []
        cur = start
        while True:
            hop = glue[cur]
            cycle += (cur, hop)
            seen[cur] = seen[hop] = 1
            cur = hop - hop % block + pairing[hop % block]
            if cur == start:
                break
        faces.append(tuple(map(slots.__getitem__, cycle)))
    return FaceSet(tuple(faces), len(faces))


def bicolored_faces(g: ColoredGraph) -> FaceSet:
    """Faces of a colored graph: two-color components over all color pairs.

    The {a, b}-cycles, a < b, each start at their least white index with
    the color-a edge first and have even length.
    """
    faces: list[tuple[ColoredEdge, ...]] = []
    for a, b in itertools.combinations(g.colors, 2):
        sigma_a, step = g.matchings[a], _face_step(g, a, b)
        for start, root in enumerate(_orbits([step], g.n)):
            if start != root:
                continue
            cycle: list[ColoredEdge] = []
            i = start
            while True:
                j = sigma_a[i]
                cycle.append(ColoredEdge(a, g.whites[i], g.blacks[j]))
                i = step[i]
                cycle.append(ColoredEdge(b, g.whites[i], g.blacks[j]))
                if i == start:
                    break
            faces.append(tuple(cycle))
    return FaceSet(tuple(faces), len(faces))


def pair_cycle_count(g: ColoredGraph, a: int, b: int) -> int:
    """Number of {a, b}-cycles, counted as orbits without walking them."""
    labels = _orbits([_face_step(g, a, b)], g.n)
    return sum(1 for i, root in enumerate(labels) if i == root)


def bicolored_face_count(g: ColoredGraph) -> int:
    """Face count without materializing cycles; agrees with bicolored_faces."""
    return sum(
        pair_cycle_count(g, a, b) for a, b in itertools.combinations(g.colors, 2)
    )


def euler_characteristic(v: int, e: int, f: int) -> int:
    """V - E + F."""
    if v < 0 or e < 0 or f < 0:
        raise BadParameters(f"counts must be non-negative, got ({v}, {e}, {f})")
    return v - e + f


def genus(v: int, e: int, f: int, *, connected: bool) -> int:
    """Genus (2 - chi) / 2 of a connected orientable ribbon graph.

    ``connected`` is explicit evidence; summing characteristics of a
    disconnected graph would silently corrupt the genus, so passing
    ``False`` raises Disconnected.  Odd chi raises OddEuler (the ribbon
    data is non-orientable or corrupted); chi > 2 raises NegativeGenus
    (a disconnected input was passed off as connected).
    """
    if not connected:
        raise Disconnected("genus requires connectivity evidence")
    chi = euler_characteristic(v, e, f)
    if chi % 2 != 0:
        raise OddEuler(f"Euler characteristic {chi} is odd for counts ({v}, {e}, {f})")
    if chi > 2:
        raise NegativeGenus(f"Euler characteristic {chi} exceeds 2 for counts ({v}, {e}, {f})")
    return (2 - chi) // 2


def is_planar(v: int, e: int, f: int, *, connected: bool) -> bool:
    """True iff the connected orientable ribbon graph has genus zero."""
    return genus(v, e, f, connected=connected) == 0


def ribbon_counts(v: int, e: int, f: int, *, connected: bool) -> RibbonCounts:
    """Bundle counts with chi, and with genus when evidence allows it."""
    chi = euler_characteristic(v, e, f)
    g = None
    if connected and chi % 2 == 0 and chi <= 2:
        g = (2 - chi) // 2
    return RibbonCounts(v, e, f, chi, g)
