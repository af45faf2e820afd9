"""Closed forms on connected melonic graphs.

Melonic graphs are the degree-0 graphs, the leading order of the 1/N
expansion (Bonzom-Gurau-Riello-Rivasseau, arXiv:1105.3122).  A connected
one on n vertex pairs has F = C(D, 2)·n + D faces (Gurau-Rivasseau,
arXiv:1101.4182), and each of its three-color bubbles is planar.  At
rank 3 its dual is a sphere, with f-vector (2n, 4n, 3n + 3, n + 3).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    bicolored_face_count,
    bubble_census,
    colorability,
    complex_euler,
    core,
    dual_counts,
    mo_admissibility,
    stranded_same_structure,
    to_stranded,
    trace_faces,
    validate_colored,
    verify_sign_assignment,
)

from .conftest import melonic

GRAPHS = (st.integers(2, 4), st.integers(1, 60), st.integers(0, 2**64 - 1))


@settings(max_examples=120, deadline=None)
@given(*GRAPHS)
@example(3, 60, 1)
@example(4, 60, 2)
def test_counts(rank, n, seed):
    g = melonic(rank, n, seed)
    assert validate_colored(g).valid and core._connected(g)
    faces = math.comb(rank, 2) * n + rank
    assert bicolored_face_count(g) == faces
    assert core._triple_counts(g)[0] == faces
    assert trace_faces(to_stranded(g)).count == faces
    bubbles = bubble_census(g)
    assert bubbles.planar_count == bubbles.total
    if rank == 3:
        dual = dual_counts(g)
        assert dual == (2 * n, 4 * n, 3 * n + 3, n + 3)
        assert complex_euler(dual) == 0


@settings(max_examples=60, deadline=None)
@given(*GRAPHS)
@example(3, 60, 1)
@example(4, 60, 2)
def test_decisions_have_witnesses(rank, n, seed):
    s = to_stranded(melonic(rank, n, seed))
    colored = colorability(s)
    assert colored.colorable and stranded_same_structure(to_stranded(colored.witness), s)
    if rank == 3:
        mo = mo_admissibility(s)
        assert mo.admissible and verify_sign_assignment(s, mo.assignment)
