"""Simplex counts of the triangulation dual to a rank-3 colored graph.

Each graph vertex is dual to a tetrahedron, each edge to a shared
triangle, each two-color face to a segment, and each three-color bubble
to a point.  Only the f-vector is produced, not the gluing itself.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import ColoredGraph, _bubble_table
from .errors import WrongRank
from .topology import bicolored_face_count


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
    return DualComplexCounts(
        tetrahedra=2 * g.n,
        triangles=4 * g.n,
        segments=bicolored_face_count(g),
        points=sum(len(row.whites)
                   for row in _bubble_table(g, itertools.combinations(g.colors, 3))),
    )


def complex_euler(c: DualComplexCounts) -> int:
    """Alternating sum points - segments + triangles - tetrahedra."""
    return c.points - c.segments + c.triangles - c.tetrahedra
