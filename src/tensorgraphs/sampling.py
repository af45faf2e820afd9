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

A sample's faces, bubble genera and connectivity come from
``core._triple_counts``, the one pass over the color triples that
``dual`` and ``genus`` read too.  A parallel census forks its workers
from the calling process, with no ``multiprocessing``, and each sends
its totals back on its own pipe.
"""

from __future__ import annotations

import itertools
import marshal
import operator
import os
import struct
import sys
from collections import Counter
from fractions import Fraction
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn

from .core import ColoredGraph, _connected, _inverse, _triple_counts
from .errors import AttemptsExhausted, BadParameters, InvariantViolation

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
        """Uniform draw in [0, bound) by rejection; no modulo bias.
        Raises ``BadParameters`` for a bound that is not an int, or is
        below 1, before any draw."""
        _require(bound=(bound, 1))
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


def _require(**least: tuple[object, int]) -> None:
    """Raise ``BadParameters`` unless each value is an int of at least its bound."""
    for name, (value, bound) in least.items():
        if not isinstance(value, int):
            raise BadParameters(f"{name} must be an int, got {value!r}")
        if value < bound:
            raise BadParameters(f"{name} must be >= {bound}, got {value}")


def random_colored(rank: int, n: int, seed: int) -> ColoredGraph:
    """Draw a uniform colored graph: one uniform matching per color.

    White vertices are labeled w0..w{n-1} and blacks b0..b{n-1}; the
    color-c edge joins white i to black sigma_c(i).  The same (rank, n,
    seed) always yields the same graph, on any platform.
    """
    _require(rank=(rank, 2), n=(n, 1), seed=(seed, 0))
    return _sampler(rank, n)(seed)


def random_connected(rank: int, n: int, seed: int, max_attempts: int = 100) -> ColoredGraph:
    """Rejection-sample until the full-color graph is connected.

    Attempt i draws with sub-seed ``subseed(seed, i)``, so the result is
    exactly uniform on the connected slice.  Raises AttemptsExhausted
    (carrying the attempt count) when the budget runs out.
    """
    _require(rank=(rank, 2), n=(n, 1), seed=(seed, 0), max_attempts=(max_attempts, 1))
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
    """Faces, bubble genera and connectivity of one graph, as counts.  A
    triple that is one bubble makes the graph connected; only when no
    triple is one are all colors' orbits taken."""
    g.__dict__["_inverses"] = list(map(_inverse, g.matchings))  # Fisher-Yates made permutations
    faces, genera, one_bubble = _triple_counts(g)
    return faces, genera, one_bubble or _connected(g)


def _census_part(args: tuple[int, int, int, range]) -> tuple[int, dict, dict, int]:
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
    return faces, dict(bubble_counts), dict(genus_hist), connected


def _worker(part: tuple[int, int, int, range], out: BinaryIO) -> NoReturn:
    """A forked child: write the part's totals (marshal) or its exception
    (pickled) to ``out`` and leave by ``os._exit``, 0 after totals and 1
    after an exception, never into the caller's stack.  A profiler stops,
    as its records could not reach the caller."""
    status = 2
    try:
        sys.setprofile(None)
        try:
            reply, written = marshal.dumps(_census_part(part)), 0
        except BaseException as err:
            import pickle
            reply, written = pickle.dumps(err), 1
        out.write(reply)
        out.flush()
        status = written
    finally:
        os._exit(status)


def _census_parts(parts: list[tuple[int, int, int, range]]) -> list[tuple[int, dict, dict, int]]:
    """Every part's totals: ``parts[0]`` in this process, each other part
    in a child forked from it (``_worker``), whose pipe is read once this
    part is done.  Every child is reaped and every pipe closed on every
    path; if this part or a read fails, the children are killed first."""
    readers: list[BinaryIO] = []
    pids: list[int] = []
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            readers.append(open(read, "rb"))
            with open(write, "wb") as out:
                pids.append(os.fork() or _worker(part, out))  # fork() is 0 in the child
        totals = [_census_part(parts[0])]
        replies = [reader.read() for reader in readers]
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for (*_, indices), reply, code in zip(parts[1:], replies, codes):
        if code == 1:
            import pickle
            raise pickle.loads(reply)
        if code:
            raise InvariantViolation(f"census worker for samples {indices.start}.."
                                     f"{indices.stop - 1} ended without a result ({code})")
        totals.append(marshal.loads(reply))
    return totals


def census(rank: int, n: int, samples: int, seed: int, parallelism: int = 1) -> CensusReport:
    """Survey ``samples`` independent graphs and aggregate their invariants.

    Sample j uses sub-seed ``subseed(seed, j)``, so samples are
    independent streams and the report is identical for any degree of
    parallelism; ``parallelism`` is a throughput hint only, capped at the
    CPU count and the sample count, and 1 after the cap, or no
    ``os.fork``, runs serially.  Each worker totals one contiguous range
    of samples, folding them in as they are drawn, and the totals add.
    The workers are this process and children forked from it; a
    worker's exception re-raises here, and a worker that ends without a
    result raises ``InvariantViolation``.
    """
    _require(rank=(rank, 2), n=(n, 1), seed=(seed, 0), samples=(samples, 1),
             parallelism=(parallelism, 1))
    workers = min(parallelism, os.cpu_count() or 1, samples) if hasattr(os, "fork") else 1
    parts = [(rank, n, seed, range(samples * w // workers, samples * (w + 1) // workers))
             for w in range(workers)]
    faces, bubble_counts, genus_hists, connected = zip(*_census_parts(parts))
    genera: Counter = sum(map(Counter, genus_hists), Counter())
    return CensusReport(samples, rank, n, seed, Fraction(sum(faces), samples),
                        dict(sorted(sum(map(Counter, bubble_counts), Counter()).items())),
                        dict(sorted(genera.items())), Fraction(genera[0], sum(genera.values())),
                        Fraction(sum(connected), samples), GENERATOR_ID)
