import contextlib
import random
import signal

import pytest

from tensorgraphs import (
    ColoredGraph, SplitMix64, build_colored, build_stranded, random_colored, to_stranded)


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block, instead of hanging the suite, if it runs past
    ``seconds`` of wall time (a real-time interval timer, main thread)."""
    def expire(_signum, _frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def dipole():
    """Two vertices joined by one edge of each color."""
    return build_colored(3, ["w1"], ["b1"], [(c, "w1", "b1") for c in range(4)])


def make_quad():
    edges = []
    for c in (0, 1):
        edges += [(c, "w1", "b1"), (c, "w2", "b2")]
    for c in (2, 3):
        edges += [(c, "w1", "b2"), (c, "w2", "b1")]
    return build_colored(3, ["w1", "w2"], ["b1", "b2"], edges)


def melonic(rank, n, seed):
    """Connected melonic graph on n vertex pairs, by seeded melon insertion.

    Starts from the elementary melon w0 =all colors= b0.  For each m in
    1..n-1 it draws a color c = below(rank + 1) and a white i = below(m)
    from SplitMix64(seed), and replaces w_i -c- b by w_i -c- b_m,
    b_m =all other colors= w_m and w_m -c- b.
    """
    rng = SplitMix64(seed)
    rows = [[0] for _ in range(rank + 1)]
    for m in range(1, n):
        c, i = rng.below(rank + 1), rng.below(m)
        for color, row in enumerate(rows):
            row.append(row[i] if color == c else m)
        rows[c][i] = m
    return ColoredGraph(rank, tuple(f"w{i}" for i in range(n)), tuple(f"b{j}" for j in range(n)),
                        tuple(map(tuple, rows)))


def planted(n, seed):
    """``to_stranded(random_colored(3, n, seed))`` with one planted defect,
    for n >= 2: the color-3 edge at the last white and the color-2 edge at
    the second-to-last white swap their black half-edges.  Both deciders
    answer no on it, with MO walks of 12 edges at n = 1000 (seed 3) and 16
    at n = 4000."""
    s = to_stranded(random_colored(3, n, seed))
    ends = [e.halfedges for e in s.edges]  # color c at white i is edge c*n + i
    a, b = 4 * n - 1, 3 * n - 2
    (white_a, black_a), (white_b, black_b) = ends[a], ends[b]
    ends[a], ends[b] = (white_a, black_b), (white_b, black_a)
    return build_stranded(3, [(v.label, v.halfedges) for v in s.vertices],
                          [(pair, None) for pair in ends])


@pytest.fixture
def quad():
    """n=2: colors 0,1 parallel, colors 2,3 crossed."""
    return make_quad()


def make_genus_one():
    """n=3 with matchings id, id, (0 1 2), (0 2 1).

    The {1,2,3}-bubble of this graph is the standard genus-1 example:
    every color pair inside it composes to a single 3-cycle.
    """
    sigma = {0: [0, 1, 2], 1: [0, 1, 2], 2: [1, 2, 0], 3: [2, 0, 1]}
    edges = [
        (c, f"w{i}", f"b{sigma[c][i]}")
        for c in range(4)
        for i in range(3)
    ]
    whites = [f"w{i}" for i in range(3)]
    blacks = [f"b{i}" for i in range(3)]
    return build_colored(3, whites, blacks, edges)


@pytest.fixture
def genus_one_graph():
    return make_genus_one()


@pytest.fixture
def tadpole_a():
    """One vertex, edges pairing cyclic neighbors: planar, not colorable."""
    return build_stranded(
        3,
        [("v", ["h0", "h1", "h2", "h3"])],
        [(("h0", "h1"), None), (("h2", "h3"), None)],
    )


@pytest.fixture
def tadpole_b():
    """One vertex, edges pairing opposite corners: not multi-orientable."""
    return build_stranded(
        3,
        [("v", ["h0", "h1", "h2", "h3"])],
        [(("h0", "h2"), None), (("h1", "h3"), None)],
    )


def make_tadpoles(count):
    """``count`` one-vertex tadpoles pairing cyclic neighbours, then ``z``,
    which pairs opposite corners (no alternating rotation signs it) and
    sorts last."""
    members = [(f"a{i:02d}", ((0, 1), (2, 3))) for i in range(count)]
    members.append(("z", ((0, 2), (1, 3))))
    return build_stranded(
        3, [(v, [f"{v}:{p}" for p in range(4)]) for v, _ in members],
        [((f"{v}:{a}", f"{v}:{b}"), None) for v, pairs in members for a, b in pairs])


def make_dipoles(count):
    """``count`` untwisted dipoles, then dipole ``t`` with a strand twist on
    one edge, sorted last."""
    labels = [f"d{i}" for i in range(count)] + ["t"]
    return build_stranded(
        3, [(f"{d}{side}", [f"{d}{side}:{c}" for c in range(4)])
            for d in labels for side in "bw"],
        [((f"{d}w:{c}", f"{d}b:{c}"), (1, 0, 2) if d == "t" and c == 0 else None)
         for d in labels for c in range(4)])


def dihedral_stranded(rank, labels, edges, seed):
    """Stranded graph on ``labels`` from (color, u, v) ``edges`` that give
    every vertex each color once.  Every vertex lists its half-edges
    through a seeded dihedral map: position p holds color
    (offset + orientation * p) mod (D+1), and every edge glues the
    strands of equal color."""
    rng = random.Random(seed)
    m = rank + 1
    colors = {}
    for label in labels:
        orientation, offset = rng.choice((1, -1)), rng.randrange(m)
        colors[label] = [(offset + orientation * p) % m for p in range(m)]
    position = {label: {c: p for p, c in enumerate(cs)} for label, cs in colors.items()}
    glued = []
    for color, u, v in edges:
        p, q = position[u][color], position[v][color]
        theirs = [k for k in range(m) if k != q]
        perm = [theirs.index(position[v][colors[u][k]]) for k in range(m) if k != p]
        glued.append(((f"{u}:{color}", f"{v}:{color}"), perm))
    return build_stranded(
        rank, [(label, [f"{label}:{c}" for c in cs]) for label, cs in colors.items()],
        glued)


def reread(g, seed):
    """Colored graph ``g`` as a stranded graph read through seeded
    dihedral maps (see ``dihedral_stranded``)."""
    return dihedral_stranded(g.rank, [label for label, _parity in g.nodes()], g.edges(), seed)
