"""Simplex counts of the triangulation dual to a rank-3 colored graph.

Each graph vertex is dual to a tetrahedron, each edge to a shared
triangle, each two-color face to a segment, and each three-color bubble
to a point.  Only the f-vector is produced, not the gluing itself:
points and segments come from one pass of ``core._bubble_table`` over
the color triples, and segments are their face counts over D - 1 = 2.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import ColoredGraph, _bubble_table
from .errors import WrongRank


class DualComplexCounts(NamedTuple):
    tetrahedra: int
    triangles: int
    segments: int
    points: int


def dual_counts(g: ColoredGraph) -> DualComplexCounts:
    """f-vector of the dual complex; rank 3 only.

    tetrahedra = 2n and triangles = 4n always; segments and points are
    face and bubble counts, taken without building faces or bubbles.
    """
    if g.rank != 3:
        raise WrongRank(f"dual tetrahedral counts are defined for rank 3, got {g.rank}")
    points = faces = 0
    for _colors, _labels, sizes, f in _bubble_table(g, itertools.combinations(g.colors, 3)):
        points += len(sizes)
        faces += sum(f.values())
    # each {a, b}-face lies in exactly one bubble of each of the D - 1
    # triples that hold a and b, so the triples count every face D - 1 times
    return DualComplexCounts(tetrahedra=2 * g.n, triangles=4 * g.n,
                             segments=faces // (g.rank - 1), points=points)


def complex_euler(c: DualComplexCounts) -> int:
    """Alternating sum points - segments + triangles - tetrahedra."""
    return c.points - c.segments + c.triangles - c.tetrahedra
