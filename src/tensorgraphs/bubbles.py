"""Bubble enumeration and the per-graph bubble census.

A bubble is a connected component of the subgraph spanned by a subset of
colors, cardinal three by default.  Presented as a ribbon graph (with
faces the two-color cycles inside the bubble) it has an Euler
characteristic and hence a genus.

Bubbles and their faces are orbit counts of the matchings, read from the
bubble table in ``core``; bubble objects are built only for output.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .core import ColoredEdge, ColoredGraph, _bubble_table, _Bubbles, _component, build_colored
from .errors import BadCardinal, InvariantViolation
from .topology import RibbonCounts, bicolored_face_count


@dataclass(frozen=True)
class Bubble:
    """One connected component of a color-subset subgraph.

    Holds references into the parent graph; use :meth:`detach` for a
    plain serializable record.
    """

    colors: tuple[int, ...]
    vertices: tuple[str, ...]
    edges: tuple[ColoredEdge, ...]
    parent: ColoredGraph = field(repr=False, compare=False)

    def detach(self) -> dict:
        """Plain data view, independent of the parent graph."""
        return {
            "colors": list(self.colors),
            "vertices": list(self.vertices),
            "edges": [[e.color, e.white, e.black] for e in self.edges],
        }


@dataclass(frozen=True)
class BubbleRecord:
    bubble: Bubble
    v: int
    e: int
    f: int
    chi: int
    genus: int
    planar: bool


@dataclass(frozen=True)
class BubbleCensus:
    records: tuple[BubbleRecord, ...]
    total: int
    planar_count: int
    genus_histogram: dict[int, int]


def _bubbles(g: ColoredGraph, row: _Bubbles) -> list[tuple[Bubble, int]]:
    """Bubble objects of one table row with their face counts, ordered
    by least vertex label."""
    found = []
    for whites, f in zip(row.whites, row.faces):
        comp = _component(g, row.colors, whites)
        found.append((Bubble(row.colors, comp.vertices, comp.edges, g), f))
    return sorted(found, key=lambda bubble_f: min(bubble_f[0].vertices))


def enumerate_bubbles(g: ColoredGraph, k: int = 3) -> list[Bubble]:
    """All bubbles over every cardinal-k color subset.

    Subsets are visited in lexicographic color order; within a subset,
    components are ordered by least vertex label.  Every vertex of a
    valid graph lies in exactly one bubble per subset.
    """
    if not 1 <= k <= g.rank + 1:
        raise BadCardinal(f"cardinal {k} outside 1..{g.rank + 1}")
    return [
        b for row in _bubble_table(g, itertools.combinations(g.colors, k))
        for b, _f in _bubbles(g, row)
    ]


def _ribbon(colors: tuple[int, ...], v: int, e: int, f: int) -> RibbonCounts:
    """Counts of one three-color bubble.  Bubbles of valid colored graphs
    are connected and orientable, so chi is even and genus non-negative;
    anything else is an internal fault."""
    chi = v - e + f
    if chi % 2 != 0 or chi > 2:
        raise InvariantViolation(
            f"bubble over colors {colors} has impossible counts "
            f"(V={v}, E={e}, F={f})")
    return RibbonCounts(v, e, f, chi, (2 - chi) // 2)


def bubble_ribbon(b: Bubble) -> RibbonCounts:
    """Ribbon invariants of one bubble.

    F counts the two-color cycles over the bubble's own color pairs: the
    faces of the bubble taken as a rank-2 graph of its own, so the cost
    is linear in the bubble, not in the parent graph.
    """
    if len(b.colors) != 3:
        raise BadCardinal(
            f"ribbon invariants are defined for three-color bubbles, "
            f"got colors {b.colors}")
    g = b.parent
    whites = [v for v in b.vertices if v in g.white_index]
    blacks = [v for v in b.vertices if v not in g.white_index]
    edges = [(b.colors.index(e.color), e.white, e.black) for e in b.edges]
    f = bicolored_face_count(build_colored(2, whites, blacks, edges))
    return _ribbon(b.colors, len(b.vertices), len(b.edges), f)


def bubble_census(g: ColoredGraph) -> BubbleCensus:
    """One record per cardinal-3 bubble plus aggregates.

    Record order is deterministic (subsets lexicographic, components by
    least vertex label), so two runs over the same graph are identical.
    """
    records = []
    for row in _bubble_table(g, itertools.combinations(g.colors, 3)):
        for b, f in _bubbles(g, row):
            counts = _ribbon(b.colors, len(b.vertices), len(b.edges), f)
            records.append(BubbleRecord(
                b, counts.v, counts.e, counts.f, counts.chi,
                counts.genus, counts.genus == 0))
    histogram = Counter(r.genus for r in records)
    return BubbleCensus(tuple(records), len(records), histogram[0],
                        {genus: histogram[genus] for genus in sorted(histogram)})
