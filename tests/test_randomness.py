"""Counter-addressed random streams: determinism, seeking, exact inversion."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import full_binomial_cdf, reference_draw_binomial
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dualrec import randomness
from dualrec.randomness import (
    DEFAULT_SEED,
    PURPOSE_BOOTSTRAP,
    PURPOSE_STUDY,
    binomial_cdf,
    draw_binomial,
    draw_tables,
    key_for,
    raw_blocks,
    uniforms,
)
from dualrec.simulate import PopulationSpec

# Uniforms at the ends of the 53-bit grid that ``uniforms`` can produce.
_EDGE_UNIFORMS = (0.0, 2.0**-53, 1.0 - 2.0**-53)


class TestStreamAddressing:
    def test_repeated_calls_are_identical(self):
        a = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 3, 100)
        b = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 3, 100)
        assert np.array_equal(a, b)

    def test_counter_seek_matches_contiguous_generation(self):
        full = uniforms(42, PURPOSE_STUDY, 0, 10)
        part = uniforms(42, PURPOSE_STUDY, 0, 4, start=3)
        assert np.array_equal(full[3:7], part)
        raw_full = raw_blocks(42, PURPOSE_STUDY, 0, 10)
        raw_part = raw_blocks(42, PURPOSE_STUDY, 0, 4, start=3)
        assert np.array_equal(raw_full[3:7], raw_part)

    def test_purpose_and_unit_give_disjoint_streams(self):
        base = uniforms(7, PURPOSE_STUDY, 0, 50)
        assert not np.array_equal(base, uniforms(7, PURPOSE_BOOTSTRAP, 0, 50))
        assert not np.array_equal(base, uniforms(7, PURPOSE_STUDY, 1, 50))
        assert not np.array_equal(base, uniforms(8, PURPOSE_STUDY, 0, 50))

    def test_key_encoding_bounds(self):
        key = key_for(5, 2, 9)
        assert key.dtype == np.uint64
        assert int(key[1]) == (2 << 32) | 9
        with pytest.raises(ValueError):
            key_for(5, 2**32, 0)
        with pytest.raises(ValueError):
            key_for(5, 0, 2**32)

    def test_uniform_range_and_mean(self):
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 0, 5000)
        assert u.shape == (5000, 4)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        z = (u.mean() - 0.5) / (np.sqrt(1.0 / 12.0) / np.sqrt(u.size))
        assert abs(z) < 4.0


class TestBinomialInversion:
    def test_cdf_matches_reference_implementation(self):
        for n, p in [(10, 0.3), (500, 0.65), (2000, 0.02), (50, 0.97), (20_000, 0.4)]:
            lo, ours = binomial_cdf(n, p)
            hi = lo + len(ours) - 1
            ref = stats.binom.cdf(np.arange(n + 1), n, p)
            assert np.max(np.abs(ours - ref[lo : hi + 1])) < 1e-12
            assert ours[-1] == 1.0
            assert np.max(ref[:lo], initial=0.0) < 1e-12
            assert np.min(ref[hi:]) > 1.0 - 1e-12
            full = full_binomial_cdf(n, p)
            assert np.array_equal(ours, full[lo : hi + 1])
            assert np.all(full[:lo] == 0.0) and np.all(full[hi:] == 1.0)
        assert 0 < lo and hi < 20_000  # the last case has a proper window

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []
        logpmf = randomness._logpmf
        monkeypatch.setattr(randomness, "_logpmf", lambda *a: calls.append(1) or logpmf(*a))
        return calls

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 2_000_000),
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
        ),
    )
    @example(n=0, p=0.3)
    @example(n=1, p=0.5)
    @example(n=10**9, p=0.5)
    @example(n=10**9, p=1e-9)
    def test_closed_form_window_is_built_once(self, n, p):
        # The Bernstein window holds every non-zero term, so the edge check
        # passes on the first build: _logpmf runs once.
        with pytest.MonkeyPatch.context() as mp:
            calls = self._count_builds(mp)
            lo, f = binomial_cdf(n, p)
        assert len(calls) == 1
        c = randomness._UNDERFLOW_LOG + math.log(n + 1.0)
        d = c / 3 + math.sqrt(c * c / 9 + 2 * c * n * p * (1 - p))
        assert lo == max(0, math.floor(n * p - d))
        assert lo + len(f) - 1 == min(n, math.ceil(n * p + d))
        assert f[-1] == 1.0 and np.all(np.diff(f) >= 0.0)

    def test_zero_trials_draw_zero(self):
        # Bin(0, p) has the one-point window [0, 0] with F = [1.0].
        lo, f = binomial_cdf(0, 0.3)
        assert (lo, f.tolist()) == (0, [1.0])
        u = np.array(_EDGE_UNIFORMS)
        assert draw_binomial(np.zeros(u.shape, dtype=np.int64), 0.3, u).tolist() == [0, 0, 0]

    def test_narrow_first_window_is_widened_to_the_exact_cdf(self, monkeypatch):
        monkeypatch.setattr(randomness, "_UNDERFLOW_LOG", 5.0)
        calls = self._count_builds(monkeypatch)
        for n, p in [(3000, 0.3), (100_000, 0.9), (5000, 1e-3)]:
            calls.clear()
            lo, f = binomial_cdf(n, p)
            assert len(calls) > 1  # the first window left a non-zero edge term
            full = full_binomial_cdf(n, p)
            hi = lo + len(f) - 1
            assert np.array_equal(f, full[lo : hi + 1])
            assert np.all(full[:lo] == 0.0) and np.all(full[hi:] == 1.0)

    def test_probability_outside_the_open_interval_is_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                binomial_cdf(10, p)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 2_000_000),
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
        ),
        u=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_UNIFORMS),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_draws_equal_full_cdf_inversion_bit_for_bit(self, n, p, u):
        u = np.array(u + list(_EDGE_UNIFORMS))
        counts = np.full(u.shape, n)
        assert np.array_equal(draw_binomial(counts, p, u), reference_draw_binomial(counts, p, u))

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(-800.0, 0.0), min_size=1, max_size=40), min_size=1, max_size=8
        )
    )
    def test_padded_rows_sum_as_each_row_alone(self, rows):
        # The padded CDF blocks of draw_binomial rest on this: exp of -inf is
        # an exact 0.0, and a row-wise cumulative sum over the 2-D block adds
        # each row's terms in the order of the row's own 1-D sum.
        width = max(map(len, rows))
        block = np.full((len(rows), width), -np.inf)
        for i, row in enumerate(rows):
            block[i, : len(row)] = row
        sums = np.cumsum(np.exp(block), axis=1)
        for i, row in enumerate(rows):
            alone = np.cumsum(np.exp(np.array(row)))
            assert np.array_equal(sums[i, : len(row)], alone)
            assert np.all(sums[i, len(row) :] == alone[-1])

    @staticmethod
    def _per_value_inversion(n, p, u):
        """Each draw inverted through binomial_cdf of its own trial count."""
        out = []
        for n_i, u_i in zip(n, u):
            lo, f = binomial_cdf(int(n_i), p)
            out.append(0 if u_i == 0.0 else lo + int(np.searchsorted(f, u_i, side="left")))
        return out

    @settings(max_examples=150, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(0, 50) | st.integers(0, 3000) | st.integers(0, 300_000),
                st.sampled_from(_EDGE_UNIFORMS) | st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=16,
        ),
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
        ),
        block=st.sampled_from([randomness._BLOCK, 64]),
        widen=st.booleans(),
    )
    @example(draws=[(0, 0.5), (0, 0.0), (7, 0.0), (7, 0.3), (2000, 0.9)], p=0.4, block=64, widen=False)
    @example(draws=[(10**6, 0.5), (10**6, 0.0), (900, 0.1), (901, 0.7)], p=0.5, block=randomness._BLOCK, widen=False)
    @example(draws=[(3000, 0.2), (3001, 0.6), (2999, 0.0), (5, 0.4)], p=0.3, block=randomness._BLOCK, widen=True)
    def test_mixed_counts_equal_per_value_inversion_bit_for_bit(self, draws, p, block, widen):
        # Windows wider than the block are blocks of one row, read from the
        # same shared log-factorial runs; with a narrowed closed form, rows
        # fail the edge check and are widened by binomial_cdf. Either way
        # each draw is its own value's inversion.
        n = np.array([d[0] for d in draws], dtype=np.int64)
        u = np.array([d[1] for d in draws])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "_BLOCK", block)
            if widen:
                mp.setattr(randomness, "_UNDERFLOW_LOG", 5.0)
            got = draw_binomial(n, p, u)
            want = self._per_value_inversion(n, p, u)
        assert got.tolist() == want

    def test_block_rows_failing_the_edge_check_are_widened(self, monkeypatch):
        # With a narrowed closed form the first windows of these counts leave
        # a non-zero edge term; the rows are rebuilt by binomial_cdf, which
        # widens them to the exact CDF.
        monkeypatch.setattr(randomness, "_UNDERFLOW_LOG", 5.0)
        rebuilt = []
        build = randomness.binomial_cdf
        monkeypatch.setattr(
            randomness, "binomial_cdf", lambda n, p: rebuilt.append(n) or build(n, p)
        )
        n = np.array([3000, 3001, 3000, 2500])
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 4, 4)[:, 0]
        got = draw_binomial(n, 0.3, u)
        assert sorted(rebuilt) == [2500, 3000, 3001]
        assert np.array_equal(got, reference_draw_binomial(n, 0.3, u))

    @pytest.mark.parametrize("p", [1e-6, 0.02, 0.3, 0.5, 0.98])
    def test_every_window_equals_binomial_cdf_bit_for_bit(self, p):
        # Each count alone (its window is the whole shared run) and all of
        # them in one call (runs too spread out to evaluate, so looked up
        # per window); windows above 2**14 points are blocks of one row.
        counts = (20_000, 200_000, 10**6, 10**7)
        for n in [np.array([c]) for c in counts] + [np.array(counts)]:
            built = list(randomness._cdfs(n, p))
            assert sorted(i for i, _, _ in built) == list(range(n.size))
            for i, lo, f in built:
                want_lo, want = binomial_cdf(int(n[i]), p)
                assert lo == want_lo
                assert np.array_equal(f, want)

    def test_wide_windows_share_the_log_factorial_runs(self, monkeypatch):
        # One draw_tables call of a study at N = 1e6 (p1. = 0.6, p.1 = 0.7,
        # phi = 1.25), R = 50: 99 of its windows exceed a block. They read
        # the two runs of their stage; none is built by binomial_cdf.
        points, builds, widths = [], [], []
        log_gamma, cdfs = randomness.gammaln, randomness._cdfs

        def counted_gammaln(x):
            points.append(np.size(x))
            return log_gamma(x)

        def recorded_cdfs(n, p):
            for i, lo, f in cdfs(n, p):
                widths.append(f.size)
                yield i, lo, f

        monkeypatch.setattr(randomness, "gammaln", counted_gammaln)
        monkeypatch.setattr(randomness, "_cdfs", recorded_cdfs)
        monkeypatch.setattr(randomness, "binomial_cdf", lambda n, p: builds.append(n))
        spec = PopulationSpec("M", 1_000_000, 0.60, 0.70, 1.25)
        draw_tables(spec.n, spec.cells(), uniforms(7, PURPOSE_STUDY, 0, 50))
        assert builds == []
        assert sum(w > randomness._BLOCK for w in widths) == 99
        assert sum(points) < 8 * max(widths)

    def test_spread_counts_do_not_share_a_run(self):
        # A run over 0..1e9 would hold 8 GB; with these counts the runs are
        # too spread out for the windows' total width, so each window
        # evaluates gammaln over its own points.
        n = np.array([10, 10**9, 5 * 10**8, 300_000])
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 5, 4)[:, 0]
        want = self._per_value_inversion(n, 0.3, u)
        tracemalloc.start()
        try:
            got = draw_binomial(n, 0.3, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == want
        assert peak < 64 * 2**20

    def test_no_draws(self):
        empty = np.array([], dtype=np.int64)
        assert draw_binomial(empty, 0.3, np.array([])).size == 0
        assert all(x.size == 0 for x in draw_tables(100, (0.3, 0.2, 0.2, 0.3), np.zeros((0, 4))))

    def test_edge_probabilities(self):
        n = np.array([5, 9, 0])
        u = np.array([0.99, 0.5, 0.1])
        assert np.array_equal(draw_binomial(n, 0.0, u), [0, 0, 0])
        assert np.array_equal(draw_binomial(n, 1.0, u), [5, 9, 0])

    def test_draw_moments(self):
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 1, 20000)[:, 0]
        n, p = 400, 0.35
        draws = draw_binomial(np.full(u.shape, n), p, u)
        z = (draws.mean() - n * p) / np.sqrt(n * p * (1 - p) / len(draws))
        assert abs(z) < 4.0

    def test_inversion_hits_exact_quantiles(self):
        lo, f = binomial_cdf(4, 0.5)
        # A uniform exactly at a CDF step resolves to the next outcome
        # (side="left"), so u -> smallest k with F(k) >= u ... in particular
        # u just below a step keeps the lower k.
        assert draw_binomial(np.array([4]), 0.5, np.array([f[1 - lo] - 1e-12]))[0] == 1
        assert draw_binomial(np.array([4]), 0.5, np.array([f[1 - lo] + 1e-12]))[0] == 2
        assert draw_binomial(np.array([4]), 0.5, np.array([f[1 - lo]]))[0] == 1


class TestTableDraws:
    CELLS = (0.325, 0.175, 0.26, 0.24)  # behavioral-model cells, sum 1

    def test_batch_rows_equal_isolated_draws(self):
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 2, 8)
        for n in (500, 1_000_000):
            x11, x10, x01 = draw_tables(n, self.CELLS, u)
            for i in range(8):
                a, b, c = draw_tables(n, self.CELLS, u[i : i + 1])
                assert (x11[i], x10[i], x01[i]) == (a[0], b[0], c[0])

    def test_cell_totals_within_population(self):
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 2, 2000)
        x11, x10, x01 = draw_tables(500, self.CELLS, u)
        total = x11 + x10 + x01
        assert np.all(total <= 500)
        assert np.all(x11 >= 0) and np.all(x10 >= 0) and np.all(x01 >= 0)

    def test_cell_means_match_probabilities(self):
        n = 500
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 2, 20000)
        x11, x10, x01 = draw_tables(n, self.CELLS, u)
        for draws, p in [(x11, self.CELLS[0]), (x10, self.CELLS[1]), (x01, self.CELLS[2])]:
            se = np.sqrt(n * p * (1 - p) / len(draws))
            z = (draws.mean() - n * p) / se
            assert abs(z) < 4.0

    def test_degenerate_cells(self):
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 2, 10)
        x11, x10, x01 = draw_tables(100, (0.0, 0.0, 0.0, 1.0), u)
        assert np.all(x11 == 0) and np.all(x10 == 0) and np.all(x01 == 0)
        x11, _, _ = draw_tables(100, (1.0, 0.0, 0.0, 0.0), u)
        assert np.all(x11 == 100)

    def test_large_population_replicates_equal_full_cdf_inversion(self):
        # The 50 replicate tables of a study at N = 1e6 (p1. = 0.6,
        # p.1 = 0.7, phi = 1.25) at the default seed, stage by stage.
        spec = PopulationSpec("L1", 1_000_000, 0.60, 0.70, 1.25)
        p11, p10, p01, _ = spec.cells()
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 0, 50)
        x11, x10, x01 = draw_tables(spec.n, spec.cells(), u)
        r11 = reference_draw_binomial(np.full(50, spec.n), p11, u[:, 0])
        r10 = reference_draw_binomial(spec.n - r11, p10 / (1.0 - p11), u[:, 1])
        r01 = reference_draw_binomial(spec.n - r11 - r10, p01 / (1.0 - p11 - p10), u[:, 2])
        assert np.array_equal(x11, r11)
        assert np.array_equal(x10, r10)
        assert np.array_equal(x01, r01)
