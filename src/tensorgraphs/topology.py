"""Faces, Euler characteristic, genus, and planarity of ribbon structures.

Faces of a stranded graph are the closed strand circuits: orbits of
vertex pairing after edge gluing, walked on slot ids numbered in vertex
label order (see ``core``).  For colored graphs the same circuits appear
as the connected components of two-color subgraphs, which are even
alternating cycles: the {a, b}-faces are the cycles of sigma_b^-1
sigma_a on whites.  Both routes are implemented and must agree.

Each kind of face has one walk, a private generator of integer ids:
``_strand_circuits`` yields slot ids, and ``_colored_face_walks`` lists
white indices from the roots of ``core._cycle_roots``, the one walk over
colored cycles, which also gives every colored face count.
``trace_faces`` and ``bicolored_faces`` build their objects from these
walks, and ``render`` writes the CLI's faces report from them directly.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import (
    ColoredEdge, ColoredGraph, StrandSlot, StrandedGraph, _cycle_roots, _face_steps,
    _slot_labels)
from .errors import BadParameters, ColorOutOfRange, Disconnected, NegativeGenus, OddEuler


class FaceSet(NamedTuple):
    """Faces as disjoint cycles covering every slot (or two-color edge).

    Stranded cycles are tuples of :class:`StrandSlot`; colored cycles are
    alternating tuples of :class:`ColoredEdge` over two colors.
    """

    faces: tuple[tuple, ...]
    count: int


class RibbonCounts(NamedTuple):
    """Vertex, edge, and face counts of a ribbon graph with chi = V - E + F.

    ``genus`` is present only when the counts came with connectivity
    evidence and chi is even.
    """

    v: int
    e: int
    f: int
    chi: int
    genus: int | None


def _strand_circuits(s: StrandedGraph) -> Iterator[list[int]]:
    """The faces of a stranded graph as lists of slot ids, by least slot;
    each starts there and takes the edge transition first."""
    rank = s.rank
    glue = s._index.glue
    # within a vertex, slot q of position p pairs with slot p of position q (no slot, no table)
    block = rank * (rank + 1)
    pairing = [q * rank + p - (p > q) for p, q in _slot_labels(rank)] if glue else []
    seen = bytearray(len(glue))
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
        yield cycle


def trace_faces(s: StrandedGraph) -> FaceSet:
    """Faces of a closed stranded graph by strand tracing.

    Each face starts at its least slot and is traversed edge transition
    first, so output is deterministic.  Every slot lies in exactly one
    face.
    """
    labels = _slot_labels(s.rank) if s._index.order else []  # checked; one table, or none
    slots = [StrandSlot(v, p, q) for v in s._index.order for p, q in labels]
    faces = tuple(tuple(map(slots.__getitem__, cycle)) for cycle in _strand_circuits(s))
    return FaceSet(faces, len(faces))


def _colored_face_walks(g: ColoredGraph) -> Iterator[tuple[int, int, list[int]]]:
    """The faces of a colored graph as (a, b, whites): the {a, b}-cycle
    through white indices ``whites``, from its root, stepping by
    sigma_b^-1 sigma_a.  Its edges are the color-a edge at whites[t]
    followed by the color-b edge at whites[t + 1], cyclically."""
    for (a, b), step in _face_steps(g).items():
        for start in _cycle_roots(step):
            cycle, i = [start], step[start]
            while i != start:
                cycle.append(i)
                i = step[i]
            yield a, b, cycle


def bicolored_faces(g: ColoredGraph) -> FaceSet:
    """Faces of a colored graph: two-color components over all color pairs.

    The {a, b}-cycles, a < b, each start at their least white index with
    the color-a edge first and have even length.
    """
    faces: list[tuple[ColoredEdge, ...]] = []
    for a, b, whites in _colored_face_walks(g):
        sigma_a, sigma_b = g.matchings[a], g.matchings[b]
        cycle: list[ColoredEdge] = []
        for i, k in zip(whites, whites[1:] + whites[:1]):
            cycle += (ColoredEdge(a, g.whites[i], g.blacks[sigma_a[i]]),
                      ColoredEdge(b, g.whites[k], g.blacks[sigma_b[k]]))
        faces.append(tuple(cycle))
    return FaceSet(tuple(faces), len(faces))


def pair_cycle_count(g: ColoredGraph, a: int, b: int) -> int:
    """Number of {a, b}-cycles of two distinct colors, without building them."""
    g._inverses  # a malformed graph raises here, as on every walk
    if not (0 <= a <= g.rank and 0 <= b <= g.rank):
        raise ColorOutOfRange(f"color pair ({a}, {b}) outside 0..{g.rank}")
    if a == b:
        raise BadParameters(f"a color pair needs two distinct colors, got {a} twice")
    return sum(map(len, map(_cycle_roots, _face_steps(g, [(min(a, b), max(a, b))]).values())))


def bicolored_face_count(g: ColoredGraph) -> int:
    """Face count without materializing cycles; agrees with bicolored_faces."""
    return sum(len(_cycle_roots(step)) for step in _face_steps(g).values())


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
