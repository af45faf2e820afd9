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
implementation can reproduce the numbers.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bubbles import _ribbon
from .core import ColoredGraph, _bubble_table, _connected
from .errors import AttemptsExhausted, BadParameters

GENERATOR_ID = "splitmix64/fisher-yates/v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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


def _shuffled(n: int, rng: SplitMix64) -> tuple[int, ...]:
    values = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        values[i], values[j] = values[j], values[i]
    return tuple(values)


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
    rng = SplitMix64(seed)
    matchings = tuple(_shuffled(n, rng) for _ in range(rank + 1))
    whites = tuple(f"w{i}" for i in range(n))
    blacks = tuple(f"b{i}" for i in range(n))
    return ColoredGraph(rank, whites, blacks, matchings)


def random_connected(rank: int, n: int, seed: int, max_attempts: int = 100) -> ColoredGraph:
    """Rejection-sample until the full-color graph is connected.

    Attempt i draws with sub-seed ``subseed(seed, i)``, so the result is
    exactly uniform on the connected slice.  Raises AttemptsExhausted
    (carrying the attempt count) when the budget runs out.
    """
    _check_params(rank, n, seed)
    if max_attempts < 1:
        raise BadParameters(f"max_attempts must be >= 1, got {max_attempts}")
    for attempt in range(max_attempts):
        g = random_colored(rank, n, subseed(seed, attempt))
        if _connected(g):
            return g
    raise AttemptsExhausted(
        f"no connected graph in {max_attempts} attempts "
        f"(rank {rank}, n {n}, seed {seed})", max_attempts)


@dataclass(frozen=True)
class CensusReport:
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
    """Faces, bubble genera and connectivity of one graph, all from one
    bubble table: the all-colors row holds every face."""
    *bubbles, whole = _bubble_table(
        g, [*itertools.combinations(g.colors, 3), tuple(g.colors)])
    genera = tuple(
        _ribbon(row.colors, 2 * len(whites), 3 * len(whites), f).genus
        for row in bubbles for whites, f in zip(row.whites, row.faces))
    return sum(whole.faces), genera, len(whole.whites) == 1


def _draw_stats(args: tuple[int, int, int, int]) -> tuple[int, tuple[int, ...], bool]:
    rank, n, seed, index = args
    return _sample_stats(random_colored(rank, n, subseed(seed, index)))


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
    """
    _check_params(rank, n, seed)
    if samples < 1:
        raise BadParameters(f"samples must be >= 1, got {samples}")
    if parallelism < 1:
        raise BadParameters(f"parallelism must be >= 1, got {parallelism}")

    jobs = [(rank, n, seed, j) for j in range(samples)]
    workers = min(parallelism, os.cpu_count() or 1, samples)
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_draw_stats, jobs)
    else:
        results = [_draw_stats(job) for job in jobs]

    faces, genera, connected = zip(*results)
    bubble_counts = Counter(map(len, genera))
    genus_hist = Counter(itertools.chain.from_iterable(genera))
    return CensusReport(
        samples=samples,
        rank=rank,
        n=n,
        seed=seed,
        mean_faces=Fraction(sum(faces), samples),
        bubble_count_distribution={k: bubble_counts[k] for k in sorted(bubble_counts)},
        genus_histogram={k: genus_hist[k] for k in sorted(genus_hist)},
        planar_fraction=Fraction(genus_hist[0], sum(genus_hist.values())),
        connected_fraction=Fraction(sum(connected), samples),
        generator_id=GENERATOR_ID,
    )
