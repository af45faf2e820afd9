"""Simplex counts of the triangulation dual to a rank-3 colored graph.

Each graph vertex is dual to a tetrahedron, each edge to a shared
triangle, each two-color face to a segment, and each three-color bubble
to a point.  Only the f-vector is produced, not the gluing itself:
segments and points are the face total and the bubble count of
``core._triple_counts``, the one pass over the color triples that the
census reads too.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import ColoredGraph, _triple_counts
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
    g._inverses  # a malformed graph raises here, before its rank is read
    if g.rank != 3:
        raise WrongRank(f"dual tetrahedral counts are defined for rank 3, got {g.rank}")
    faces, genera, _one_bubble = _triple_counts(g)
    return DualComplexCounts(2 * g.n, 4 * g.n, segments=faces, points=len(genera))


def complex_euler(c: DualComplexCounts) -> int:
    """Alternating sum points - segments + triangles - tetrahedra."""
    return c.points - c.segments + c.triangles - c.tetrahedra
