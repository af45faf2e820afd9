import functools
import itertools
import math
import multiprocessing
import os
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgraphs import (
    GENERATOR_ID,
    ColoredGraph,
    SplitMix64,
    bicolored_face_count,
    bubble_ribbon,
    census,
    components,
    enumerate_bubbles,
    random_colored,
    random_connected,
    sampling,
    serialize_graph,
    subseed,
    validate_colored,
)
from tensorgraphs.errors import AttemptsExhausted, BadParameters

# Reference outputs of the published generator (stream seeded at 0).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Built by inverting mix64: the first output of the stream at
# REJECTING_SEED is 2**64 - 1, which below(3) rejects (its limit is
# 2**64 - 1), and sample 0 of a census at CENSUS_REJECTING_SEED is drawn
# at REJECTING_SEED.
REJECTING_SEED = 0x31628AF67B2131AB
CENSUS_REJECTING_SEED = 0x1FDB84807C8BC327

GOLDEN = 0x9E3779B97F4A7C15


def rejecting_at(t):
    """A seed whose stream output t is 2**64 - 1: output 0 at REJECTING_SEED."""
    return (REJECTING_SEED - t * GOLDEN) % 2**64


# At rank 3 and n = 3, output n - 1 = 2 is color 1's first draw, so the
# rejection shifts the draws of colors 1, 2 and 3 by one.  Sample 0 of a
# census at CENSUS_MIDDLE_REJECTING_SEED is drawn at MIDDLE_REJECTING_SEED.
MIDDLE_REJECTING_SEED = rejecting_at(2)
CENSUS_MIDDLE_REJECTING_SEED = 0xACAE99EC7306F6E6


def splitmix64_reference(seed, count):
    """Independent restatement of the generator, kept deliberately naive."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def naive_matchings(rank, n, seed):
    """Draw-by-draw Fisher-Yates on the reference stream, colors ascending,
    each bounded draw taken by rejection."""
    stream = iter(splitmix64_reference(seed, (rank + 1) * n + 8))
    matchings = []
    for _ in range(rank + 1):
        values = list(range(n))
        for i in range(n - 1, 0, -1):
            limit = 2**64 - 2**64 % (i + 1)
            r = next(stream)
            while r >= limit:
                r = next(stream)
            j = r % (i + 1)
            values[i], values[j] = values[j], values[i]
        matchings.append(tuple(values))
    return tuple(matchings)


class TestGenerator:
    def test_reference_vector(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0

    def test_matches_independent_restatement(self):
        for seed in (0, 1, 42, 2**64 - 1):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(8)] == splitmix64_reference(seed, 8)

    def test_subseed_is_stream_output(self):
        for seed in (0, 9, 12345):
            for index in range(5):
                assert subseed(seed, index) == splitmix64_reference(seed, index + 1)[-1]

    def test_bounded_draws_cover_range(self):
        rng = SplitMix64(3)
        draws = {rng.below(5) for _ in range(200)}
        assert draws == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("bound", [0, -5])
    def test_bound_below_one_rejected(self, bound):
        rng = SplitMix64(1)
        with pytest.raises(BadParameters, match=f"^bound must be >= 1, got {bound}$"):
            rng.below(bound)
        assert rng.next_u64() == SplitMix64(1).next_u64()  # no draw was taken

    @pytest.mark.parametrize("bound, shown", [(2.5, "2.5"), ("3", "'3'")], ids=["float", "str"])
    def test_bound_not_int_rejected(self, bound, shown):
        rng = SplitMix64(1)
        with pytest.raises(BadParameters, match=f"^bound must be an int, got {shown}$"):
            rng.below(bound)
        assert rng.next_u64() == SplitMix64(1).next_u64()  # no draw was taken

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 + 5],
                             ids=["0", "1", "2^63", "2^64-1", "2^64+5"])
    def test_block_is_the_stream(self, seed):
        for k in (0, 1, 2, 49, 3999):
            rng = SplitMix64(seed)
            assert sampling._block(k)(seed) == tuple(rng.next_u64() for _ in range(k))

    def test_rejecting_seed(self):
        rng = SplitMix64(REJECTING_SEED)
        assert rng.next_u64() == 2**64 - 1
        assert subseed(CENSUS_REJECTING_SEED, 0) == REJECTING_SEED
        assert splitmix64_reference(MIDDLE_REJECTING_SEED, 3)[2] == 2**64 - 1
        assert subseed(CENSUS_MIDDLE_REJECTING_SEED, 0) == MIDDLE_REJECTING_SEED


class TestRandomColored:
    def test_n1_is_the_dipole(self):
        for seed in (0, 7, 999):
            g = random_colored(3, 1, seed)
            assert g.matchings == ((0,), (0,), (0,), (0,))

    def test_same_seed_byte_identical(self):
        a = random_colored(3, 4, 7)
        b = random_colored(3, 4, 7)
        assert a == b
        assert serialize_graph(a) == serialize_graph(b)

    def test_rejected_draw_is_redrawn(self):
        # recorded from the draw-by-draw shuffle
        g = random_colored(2, 3, REJECTING_SEED)
        assert g.matchings == ((2, 0, 1), (2, 1, 0), (0, 1, 2))

    @settings(max_examples=150)
    @given(st.integers(2, 5), st.integers(1, 60),
           st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 400).map(rejecting_at)))
    @example(3, 3, MIDDLE_REJECTING_SEED)
    def test_matches_naive_recipe(self, rank, n, seed):
        assert random_colored(rank, n, seed).matchings == naive_matchings(rank, n, seed)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7, 12])
    def test_chunks_are_the_stream(self, monkeypatch, chunk):
        # 12 draws at rank 3 and n = 4: a rejection in any chunk, or in the
        # unused lanes past the last draw, still gives the draw-by-draw graph
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        for seed in [0, 1, 42, *map(rejecting_at, range(16))]:
            assert random_colored(3, 4, seed).matchings == naive_matchings(3, 4, seed), seed

    def test_census_graph_is_one_chunk(self, monkeypatch):
        # rank 3 and n = 50, as perfbench's census: one block of 196 draws per graph
        calls = []

        def counting(k, block=sampling._block):
            draws = block(k)
            return lambda state: calls.append(k) or draws(state)

        monkeypatch.setattr(sampling, "_block", counting)
        census(3, 50, 3, 1)
        assert calls == [196] * 3

    def test_large_graph_peak(self):
        # the finished graph holds 5.7 MB; all its 79996 draws at once
        # peaked at 17.5 MB, chunks of sampling._CHUNK draws at 7.8 MB
        random_colored(3, 50, 5)
        tracemalloc.start()
        try:
            random_colored(3, 20000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_frozen_draws_for_seed7(self):
        # pins the documented draw order: colors ascending, one
        # descending-index shuffle per color
        g = random_colored(3, 4, 7)
        assert g.matchings == (
            (1, 2, 0, 3), (0, 2, 1, 3), (3, 1, 0, 2), (2, 0, 3, 1))

    def test_different_seeds_both_valid(self):
        for seed in (7, 8):
            assert validate_colored(random_colored(3, 4, seed)).valid

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            random_colored(1, 3, 0)
        with pytest.raises(BadParameters):
            random_colored(3, 0, 0)
        with pytest.raises(BadParameters):
            random_colored(3, 3, -1)


class TestRandomConnected:
    def test_n1_first_attempt(self):
        g = random_connected(3, 1, 123)
        assert g.n == 1

    def test_connected_result(self):
        g = random_connected(3, 3, 11, max_attempts=100)
        assert len(components(g, set(g.colors))) == 1

    def test_zero_attempts_rejected(self):
        with pytest.raises(BadParameters):
            random_connected(3, 3, 11, max_attempts=0)

    def test_attempts_exhausted_reports_count(self, monkeypatch):
        import tensorgraphs.sampling as sampling
        monkeypatch.setattr(sampling, "_connected", lambda g: False)
        with pytest.raises(AttemptsExhausted) as err:
            sampling.random_connected(3, 2, 5, max_attempts=3)
        assert err.value.attempts == 3


class TestCensus:
    def test_dipole_ensemble(self):
        report = census(3, 1, 100, 5)
        assert report.mean_faces == Fraction(6)
        assert report.bubble_count_distribution == {4: 100}
        assert report.planar_fraction == 1
        assert report.connected_fraction == 1
        assert report.generator_id == GENERATOR_ID

    def test_parallelism_does_not_change_output(self):
        sequential = census(3, 2, 60, 9, parallelism=1)
        parallel = census(3, 2, 60, 9, parallelism=4)
        assert sequential == parallel

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            census(3, 1, 0, 5)
        with pytest.raises(BadParameters):
            census(3, 1, 10, 5, parallelism=0)

    @pytest.mark.parametrize("cpus, samples, workers", [
        (4, 60, [4]),      # capped at the CPU count
        (4, 3, [3]),       # capped at the sample count
        (1, 60, []),       # one worker runs serially, no pool
        (None, 60, []),    # unknown CPU count counts as one
    ], ids=["cpus", "samples", "one-cpu", "unknown-cpus"])
    def test_pool_size_is_capped(self, monkeypatch, cpus, samples, workers):
        """No process starts: the pool is a recorder that maps in this one."""
        sizes = []

        class SerialPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                return False

            def map(self, fn, jobs):
                return list(map(fn, jobs))

        expected = census(3, 2, samples, 9)
        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert census(3, 2, samples, 9, parallelism=10**6) == expected
        assert sizes == workers

    @pytest.mark.parametrize("seed, samples, expected", [
        (REJECTING_SEED, 50,
         (Fraction(138, 25), {1: 37, 2: 10, 3: 3}, {0: 63, 1: 3}, Fraction(37, 50))),
        (CENSUS_REJECTING_SEED, 20,
         (Fraction(28, 5), {1: 13, 2: 7}, {0: 26, 1: 1}, Fraction(13, 20))),
    ], ids=["rejecting-seed", "rejecting-sample"])
    def test_frozen_census_at_rejecting_seeds(self, seed, samples, expected):
        # recorded from the draw-by-draw generator
        report = census(2, 3, samples, seed)
        assert (report.mean_faces, report.bubble_count_distribution,
                report.genus_histogram, report.connected_fraction) == expected

    @pytest.mark.parametrize("rank, n, seed", [(3, 50, 8101), (4, 20, 8102), (2, 10, 8103)])
    def test_mean_faces_closed_form(self, rank, n, seed):
        """Each sigma_b^-1 sigma_a is a uniform permutation, whose cycle
        count has mean H_n and variance H_n - H_n^(2); so E[faces] =
        C(D+1, 2) H_n, and by Cauchy-Schwarz the variance of the sum is
        at most C(D+1, 2)^2 (H_n - H_n^(2))."""
        samples = 2000
        pairs = math.comb(rank + 1, 2)
        h1 = sum(Fraction(1, k) for k in range(1, n + 1))
        h2 = sum(Fraction(1, k * k) for k in range(1, n + 1))
        standard_error = pairs * math.sqrt(h1 - h2) / math.sqrt(samples)
        mean = census(rank, n, samples, seed).mean_faces
        assert abs(float(mean - pairs * h1)) <= 5 * standard_error

    def test_rejecting_sample_matches_naive_recipe(self):
        # sample 0 rejects a draw in color 1
        samples, rank, n = 20, 3, 3
        whites, blacks = tuple(f"w{i}" for i in range(n)), tuple(f"b{i}" for i in range(n))
        faces, bubbles, genera, connected = 0, Counter(), Counter(), 0
        for seed in splitmix64_reference(CENSUS_MIDDLE_REJECTING_SEED, samples):
            g = ColoredGraph(rank, whites, blacks, naive_matchings(rank, n, seed))
            faces += bicolored_face_count(g)
            found = enumerate_bubbles(g, 3)
            bubbles[len(found)] += 1
            genera.update(bubble_ribbon(b).genus for b in found)
            connected += len(components(g, set(g.colors))) == 1
        report = census(rank, n, samples, CENSUS_MIDDLE_REJECTING_SEED)
        assert (report.mean_faces, report.bubble_count_distribution,
                report.genus_histogram, report.connected_fraction) == (
            Fraction(faces, samples), bubbles, genera, Fraction(connected, samples))

    def test_memory_does_not_grow_with_samples(self):
        def peak(samples):
            tracemalloc.start()
            try:
                census(2, 2, samples, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a first run fills the interpreter's free lists, which
        # tracemalloc counts as allocated
        census(2, 2, 4000, 3)
        assert peak(4000) <= peak(200) + 64 * 1024

    def test_histogram_totals(self):
        report = census(3, 3, 50, 9)
        assert sum(report.bubble_count_distribution.values()) == 50
        total_bubbles = sum(report.genus_histogram.values())
        assert report.planar_fraction == Fraction(
            report.genus_histogram.get(0, 0), total_bubbles)


@functools.cache
def exact_law(rank, n):
    """How many graphs give each (faces, bubble genera, connected) of
    ``_sample_stats``, over every graph with sigma_0 = id.  Relabelling the
    blacks by pi maps each sigma_c to pi sigma_c and changes no count, so
    these (n!)^D graphs weigh exactly as the (n!)^(D+1) uniform draws."""
    whites, blacks = tuple(f"w{i}" for i in range(n)), tuple(f"b{i}" for i in range(n))
    ident = tuple(range(n))
    return Counter(
        sampling._sample_stats(ColoredGraph(rank, whites, blacks, (ident, *rest)))
        for rest in itertools.product(itertools.permutations(range(n)), repeat=rank))


def exact_moments(law, value):
    """Exact mean and variance of ``value(stats)`` over ``law``."""
    total = sum(law.values())
    mean = sum(Fraction(w) * value(stats) for stats, w in law.items()) / total
    return mean, sum(Fraction(w) * value(stats) ** 2 for stats, w in law.items()) / total - mean**2


class TestExactCensus:
    """Census fields against their exact values at small n, from every graph
    of the ensemble: rank 2 up to n = 5, rank 3 up to n = 4 (13,824
    graphs), rank 4 up to n = 3.  A biased shuffle, such as Sattolo's
    variant or one that skips its last swap, keeps every frozen digest it
    was recorded with, but lands outside these bounds."""

    SIZES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [
        (4, n) for n in range(1, 4)]

    @pytest.mark.parametrize("rank, n", SIZES)
    def test_mean_faces_is_pairs_times_harmonic(self, rank, n):
        law = exact_law(rank, n)
        assert exact_moments(law, lambda stats: stats[0])[0] == math.comb(rank + 1, 2) * sum(
            Fraction(1, k) for k in range(1, n + 1))

    @pytest.mark.parametrize("n, connected, planar", [
        (3, Fraction(97, 108), Fraction(45, 47)), (4, Fraction(2143, 2304), Fraction(324, 373))])
    def test_rank_3_values(self, n, connected, planar):
        law = exact_law(3, n)
        bubbles, planars = (exact_moments(law, lambda stats, f=f: f(stats[1]))[0]
                            for f in (len, lambda genera: genera.count(0)))
        assert exact_moments(law, lambda stats: stats[2])[0] == connected
        assert planars / bubbles == planar

    # seeds fixed before the census was first compared
    @pytest.mark.parametrize("rank, n, seed", [(2, 2, 4101), (3, 4, 4103)])
    def test_census_within_five_standard_errors(self, rank, n, seed):
        """Each field is a mean over independent samples (the planar
        fraction a ratio of two, taken to first order), so it lies within
        five standard errors of its exact value; a field with no variance
        must be exact."""
        samples, law = 4000, exact_law(rank, n)
        report = census(rank, n, samples, seed)

        def near(estimate, value, field):
            mean, variance = exact_moments(law, value)
            assert (estimate - mean) ** 2 <= 25 * variance / samples, (field, estimate, mean)

        near(report.mean_faces, lambda stats: stats[0], "mean_faces")
        near(report.connected_fraction, lambda stats: stats[2], "connected_fraction")
        counts = {len(genera) for _faces, genera, _c in law} | set(report.bubble_count_distribution)
        for k in counts:
            near(Fraction(report.bubble_count_distribution.get(k, 0), samples),
                 lambda stats: len(stats[1]) == k, f"bubble_count_distribution[{k}]")
        genera = {g for _faces, gs, _c in law for g in gs} | set(report.genus_histogram)
        for g in genera:
            near(Fraction(report.genus_histogram.get(g, 0), samples),
                 lambda stats: stats[1].count(g), f"genus_histogram[{g}]")
        bubbles = exact_moments(law, lambda stats: len(stats[1]))[0]
        ratio = exact_moments(law, lambda stats: stats[1].count(0))[0] / bubbles
        near(report.planar_fraction - ratio,
             lambda stats: (stats[1].count(0) - ratio * len(stats[1])) / bubbles,
             "planar_fraction")
