"""Seeded random colored graphs and Monte Carlo censuses.

The ensemble draws one independent uniform permutation per color, the
natural uniform measure on rank-D colored graphs with n vertex pairs.
Everything is reproducible bit-for-bit across platforms and degrees of
parallelism:

- generator: SplitMix64 (Steele, Lea, Flood 2014), a published 64-bit
  generator with a defined output stream;
- shuffle: descending-index Fisher-Yates, bounded draws taken by
  rejection so there is no modulo bias;
- draw order: colors ascending, one full shuffle per color;
- sub-seed for stream index i: output i of the SplitMix64 stream seeded
  at the master seed.

``generator_id`` in reports names this exact recipe so an independent
implementation can reproduce the numbers.  How the draws are computed
is not part of it: a graph's (D+1)(n-1) draws are computed in chunks
of a fixed size, lane-parallel in one int, and taken modulo their
bounds while none of a chunk can be rejected; from the first chunk
where one can, the rest is drawn draw by draw.  Either way they are the
draw-by-draw stream.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .core import ColoredGraph, _bubble_genus, _connected, _cycle_roots, _face_steps, _orbits
from .errors import AttemptsExhausted, BadParameters

GENERATOR_ID = "splitmix64/fisher-yates/v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_Draws = Callable[[int], tuple[int, ...]]
_CHUNK = 4096  # draws computed at once: a census graph's (D+1)(n-1) are one chunk


def _mix64(z: int, lanes: int = _MASK) -> int:
    """The SplitMix64 output function, on one 64-bit value or on every
    lane of a packed int (see ``_block``)."""
    z = ((z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
    return z ^ ((z >> 31) & lanes)


class SplitMix64:
    """SplitMix64 with the reference constants; output i of the stream
    seeded at s is mix64(s + (i+1)*golden) over 64-bit arithmetic."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by rejection; no modulo bias."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def subseed(seed: int, index: int) -> int:
    """Sub-seed for stream ``index``: that output of SplitMix64(seed)."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def _block(k: int) -> _Draws:
    """The next ``k`` outputs of SplitMix64 at a given state, in one pass.

    Output t is mix64(state + (t+1)*golden), so all k are computed at
    once in one int whose lane t, bits 128t..128t+63, holds the t-th
    state.  Every shift is masked to the lanes and every lane times a
    64-bit constant is below 2**128, so no bit crosses from one lane to
    another.  Lanes are packed and read as a little-endian 8-byte word
    and 8 bytes of padding each (``struct`` standard sizes, "<Q8x"), the
    same on every platform.
    """
    layout = struct.Struct("<" + "Q8x" * k)

    def packed(values: list[int] | range) -> int:
        return int.from_bytes(layout.pack(*values), "little")

    lanes, ones = packed([_MASK] * k), packed([1] * k)
    steps = packed(range(1, k + 1)) * _GOLDEN & lanes

    def draws(state: int) -> tuple[int, ...]:
        z = _mix64(((state & _MASK) * ones + steps) & lanes, lanes)
        return layout.unpack(z.to_bytes(16 * k, "little"))

    return draws


def _sampler(rank: int, n: int) -> Callable[[int], ColoredGraph]:
    """The graph at a seed, from parts shared by every graph of one size.

    Color c shuffles by descending-index Fisher-Yates with outputs
    c(n-1)..(c+1)(n-1)-1 of the stream at the seed, taken ``_CHUNK`` at
    a time as one ``_block``: a chunk starting at output t is the block
    at state seed + t*golden.  ``below(b)`` rejects only outputs of at
    least 2**64 - (2**64 mod b), which is more than 2**64 - n for every
    bound b <= n.  So while no draw of a chunk exceeds 2**64 - n, none
    is rejected and each is taken modulo its bound as it is; from the
    first chunk where one does, the rest is drawn draw by draw.
    """
    bounds = tuple(range(n, 1, -1)) * (rank + 1)
    draws = _block(min(_CHUNK, len(bounds)))
    whites, blacks = tuple(f"w{i}" for i in range(n)), tuple(f"b{i}" for i in range(n))

    def chunks(seed: int, rest: Iterator[int]) -> Iterator[Iterator[int]]:
        for start in range(seed, seed + len(bounds) * _GOLDEN, _CHUNK * _GOLDEN):
            block = draws(start)
            if max(block) > (1 << 64) - n:
                yield map(SplitMix64(start).below, rest)
                return
            yield map(operator.mod, block, rest)  # block first: takes no bound past it

    def draw(seed: int) -> ColoredGraph:
        picks = itertools.chain.from_iterable(chunks(seed, iter(bounds)))
        matchings = []
        for _ in range(rank + 1):
            values = list(range(n))
            for i, j in zip(range(n - 1, 0, -1), picks):
                values[i], values[j] = values[j], values[i]
            matchings.append(tuple(values))
        return ColoredGraph(rank, whites, blacks, tuple(matchings))

    return draw


def _check_params(rank: int, n: int, seed: int) -> None:
    if rank < 2:
        raise BadParameters(f"rank must be >= 2, got {rank}")
    if n < 1:
        raise BadParameters(f"n must be >= 1, got {n}")
    if not isinstance(seed, int) or seed < 0:
        raise BadParameters(f"seed must be a non-negative integer, got {seed!r}")


def random_colored(rank: int, n: int, seed: int) -> ColoredGraph:
    """Draw a uniform colored graph: one uniform matching per color.

    White vertices are labeled w0..w{n-1} and blacks b0..b{n-1}; the
    color-c edge joins white i to black sigma_c(i).  The same (rank, n,
    seed) always yields the same graph, on any platform.
    """
    _check_params(rank, n, seed)
    return _sampler(rank, n)(seed)


def random_connected(rank: int, n: int, seed: int, max_attempts: int = 100) -> ColoredGraph:
    """Rejection-sample until the full-color graph is connected.

    Attempt i draws with sub-seed ``subseed(seed, i)``, so the result is
    exactly uniform on the connected slice.  Raises AttemptsExhausted
    (carrying the attempt count) when the budget runs out.
    """
    _check_params(rank, n, seed)
    if max_attempts < 1:
        raise BadParameters(f"max_attempts must be >= 1, got {max_attempts}")
    draw = _sampler(rank, n)
    for attempt in range(max_attempts):
        g = draw(subseed(seed, attempt))
        if _connected(g):
            return g
    raise AttemptsExhausted(
        f"no connected graph in {max_attempts} attempts "
        f"(rank {rank}, n {n}, seed {seed})", max_attempts)


class CensusReport(NamedTuple):
    """Aggregate invariants of a seeded ensemble.

    ``bubble_count_distribution`` maps per-sample bubble totals to how
    many samples hit them; ``genus_histogram`` counts every bubble in
    the ensemble by genus; ``planar_fraction`` is the planar share of
    those bubbles; ``connected_fraction`` is the share of connected
    samples.
    """

    samples: int
    rank: int
    n: int
    seed: int
    mean_faces: Fraction
    bubble_count_distribution: dict[int, int]
    genus_histogram: dict[int, int]
    planar_fraction: Fraction
    connected_fraction: Fraction
    generator_id: str


def _sample_stats(g: ColoredGraph) -> tuple[int, tuple[int, ...], bool]:
    """Faces, bubble genera and connectivity of one graph, as counts:
    the {a, b}-faces are the cycle roots of sigma_b^-1 sigma_a, and a
    bubble's F counts the faces of its three color pairs whose roots
    fall in it.  A triple that is one bubble holds every face of its
    pairs and makes the graph connected; only when no triple is one
    bubble are all colors' orbits taken."""
    n = g.n
    steps = _face_steps(g)
    faces = {pair: _cycle_roots(step) for pair, step in steps.items()}
    genera = []
    connected = False
    for colors in itertools.combinations(g.colors, 3):
        x, y, z = colors
        labels = _orbits([steps[x, y], steps[x, z]], n)
        roots = (*faces[x, y], *faces[x, z], *faces[y, z])
        if max(labels) == 0:
            sizes, f = {0: n}, {0: len(roots)}
            connected = True
        else:
            sizes, f = Counter(labels), Counter(map(labels.__getitem__, roots))
        genera.extend(_bubble_genus(colors, 2 * w, 3 * w, f[root]) for root, w in sizes.items())
    if not connected:
        connected = max(_orbits([steps[0, b] for b in g.colors[1:]], n)) == 0
    return sum(map(len, faces.values())), tuple(genera), connected


def _census_part(args: tuple[int, int, int, range]) -> tuple[int, Counter, Counter, int]:
    """Totals over the samples at ``indices``: faces, samples by bubble
    count, bubbles by genus, and connected samples."""
    rank, n, seed, indices = args
    draw = _sampler(rank, n)
    faces = connected = 0
    bubble_counts: Counter = Counter()
    genus_hist: Counter = Counter()
    for j in indices:
        f, genera, c = _sample_stats(draw(subseed(seed, j)))
        faces += f
        bubble_counts[len(genera)] += 1
        genus_hist.update(genera)
        connected += c
    return faces, bubble_counts, genus_hist, connected


def census(
    rank: int,
    n: int,
    samples: int,
    seed: int,
    parallelism: int = 1,
) -> CensusReport:
    """Survey ``samples`` independent graphs and aggregate their invariants.

    Sample j uses sub-seed ``subseed(seed, j)``, so samples are
    independent streams and the report is identical for any degree of
    parallelism; ``parallelism`` is a throughput hint only, capped at the
    CPU count and the sample count, and 1 after the cap runs serially.
    Samples are folded into running totals as they are drawn; each
    worker totals one contiguous range of samples, and the totals add.
    """
    _check_params(rank, n, seed)
    if samples < 1:
        raise BadParameters(f"samples must be >= 1, got {samples}")
    if parallelism < 1:
        raise BadParameters(f"parallelism must be >= 1, got {parallelism}")

    workers = min(parallelism, os.cpu_count() or 1, samples)
    parts = [(rank, n, seed, range(samples * w // workers, samples * (w + 1) // workers))
             for w in range(workers)]
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            totals = pool.map(_census_part, parts)
    else:
        totals = [_census_part(parts[0])]

    faces, bubble_counts, genus_hist, connected = totals[0]
    for f, counts, genera, c in totals[1:]:
        faces += f
        bubble_counts.update(counts)
        genus_hist.update(genera)
        connected += c
    return CensusReport(
        samples=samples,
        rank=rank,
        n=n,
        seed=seed,
        mean_faces=Fraction(faces, samples),
        bubble_count_distribution={k: bubble_counts[k] for k in sorted(bubble_counts)},
        genus_histogram={k: genus_hist[k] for k in sorted(genus_hist)},
        planar_fraction=Fraction(genus_hist[0], sum(genus_hist.values())),
        connected_fraction=Fraction(connected, samples),
        generator_id=GENERATOR_ID,
    )
