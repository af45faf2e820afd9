"""Bubble enumeration and the per-graph bubble census.

A bubble is a connected component of the subgraph spanned by a subset of
colors, cardinal three by default.  Presented as a ribbon graph (with
faces the two-color cycles inside the bubble) it has an Euler
characteristic and hence a genus.

A color subset's bubbles are its ``components``, which compose only its
own color pairs and walk no face.  The three-color bubbles with their
faces have one walk, ``_bubble_records``, over the triple pass
``core._bubble_table``: it yields each in record order as vertex indices
and counts, ``bubble_census`` builds its records from it, and ``render``
writes the CLI's bubbles report from it.  Bubble objects, plain records
of colors, vertices and edges, are built only for output.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, NamedTuple

from .core import (ColoredEdge, ColoredGraph, _bubble_genus, _bubble_table, _component, _groups,
                   build_colored, components)
from .errors import BadCardinal
from .topology import RibbonCounts, bicolored_face_count


class Bubble(NamedTuple):
    """One connected component of a color-subset subgraph: plain data,
    whites then blacks by index, edges by color then white index."""

    colors: tuple[int, ...]
    vertices: tuple[str, ...]
    edges: tuple[ColoredEdge, ...]

    def detach(self) -> dict:
        """Plain serializable view: lists of colors, labels and edges."""
        return {
            "colors": list(self.colors),
            "vertices": list(self.vertices),
            "edges": [[e.color, e.white, e.black] for e in self.edges],
        }


class BubbleRecord(NamedTuple):
    bubble: Bubble
    v: int
    e: int
    f: int
    chi: int
    genus: int
    planar: bool


class BubbleCensus(NamedTuple):
    records: tuple[BubbleRecord, ...]
    total: int
    planar_count: int
    genus_histogram: dict[int, int]


def enumerate_bubbles(g: ColoredGraph, k: int = 3) -> list[Bubble]:
    """All bubbles over every cardinal-k color subset.

    Subsets are visited in lexicographic color order; within a subset,
    components are ordered by least vertex label.  Every vertex of a
    valid graph lies in exactly one bubble per subset.
    """
    g._inverses  # a malformed graph raises here, also at n = 0, where no subset is read
    if not 1 <= k <= g.rank + 1:
        raise BadCardinal(f"cardinal {k} outside 1..{g.rank + 1}")
    return [Bubble(colors, *component)
            for colors in (itertools.combinations(g.colors, k) if g.n else ())
            for component in sorted(components(g, set(colors)), key=lambda c: min(c.vertices))]


def _bubble_records(
    g: ColoredGraph,
) -> Iterator[tuple[tuple[int, ...], list[int], list[int], tuple[int, int, int, int, int]]]:
    """(colors, white indices, black indices, (V, E, F, chi, genus)) of
    every three-color bubble, in record order: triples lexicographic, then
    bubbles by least vertex label, whose blacks are sigma_a of their whites."""
    for colors, labels, _sizes, faces in _bubble_table(g):
        sigma = g.matchings[colors[0]]

        def least(whites: list[int]) -> str:
            return min(min(map(g.whites.__getitem__, whites)),
                       min(map(g.blacks.__getitem__, map(sigma.__getitem__, whites))))

        for whites in sorted(_groups(labels), key=least):
            v, e, f = 2 * len(whites), 3 * len(whites), faces[whites[0]]
            blacks = sorted(map(sigma.__getitem__, whites))
            yield colors, whites, blacks, (v, e, f, v - e + f, _bubble_genus(colors, v, e, f))


def bubble_ribbon(b: Bubble) -> RibbonCounts:
    """Ribbon invariants of one bubble.

    F counts the two-color cycles over the bubble's own color pairs: the
    faces of the bubble taken as a rank-2 graph of its own, so the cost
    is linear in the bubble, not in the graph it lies in.
    """
    if len(b.colors) != 3:
        raise BadCardinal(
            f"ribbon invariants are defined for three-color bubbles, "
            f"got colors {b.colors}")
    whites = list(dict.fromkeys(e.white for e in b.edges))
    blacks = list(dict.fromkeys(e.black for e in b.edges))
    edges = [(b.colors.index(e.color), e.white, e.black) for e in b.edges]
    f = bicolored_face_count(build_colored(2, whites, blacks, edges))
    v, e = len(b.vertices), len(b.edges)
    return RibbonCounts(v, e, f, v - e + f, _bubble_genus(b.colors, v, e, f))


def bubble_census(g: ColoredGraph) -> BubbleCensus:
    """One record per cardinal-3 bubble plus aggregates.

    Record order is deterministic (subsets lexicographic, components by
    least vertex label), so two runs over the same graph are identical.
    """
    records = [
        BubbleRecord(Bubble(colors, *_component(g, colors, whites)), *counts, counts[-1] == 0)
        for colors, whites, _blacks, counts in _bubble_records(g)]
    histogram = Counter(r.genus for r in records)
    return BubbleCensus(tuple(records), len(records), histogram[0],
                        {genus: histogram[genus] for genus in sorted(histogram)})
