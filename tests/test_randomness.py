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
        # The Bernstein window holds every non-zero term on its left and ends
        # where the terms fall below 2**-53 on its right, so the edge check
        # passes on the first build: _logpmf runs once.
        with pytest.MonkeyPatch.context() as mp:
            calls = self._count_builds(mp)
            lo, f = binomial_cdf(n, p)
        assert len(calls) == 1

        def half_width(log):
            c = log + math.log(n + 1.0)
            return c / 3 + math.sqrt(c * c / 9 + 2 * c * n * p * (1 - p))

        assert lo == max(0, math.floor(n * p - half_width(randomness._UNDERFLOW_LOG)))
        assert lo + len(f) - 1 == min(n, math.ceil(n * p + half_width(randomness._ABSORBED_LOG)))
        assert f[-1] == 1.0 and np.all(np.diff(f) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, 200) | st.integers(0, 200_000),
                st.one_of(
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    st.floats(0.0, 1e-6, exclude_min=True),
                    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
                ),
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @example(pairs=[(200_000, 1e-9), (200_000, 1.0 - 1e-9), (200_000, 0.5)])
    @example(pairs=[(0, 0.3), (1, 0.5), (3, 0.97), (2000, 0.98)])
    def test_rows_are_within_their_bound_of_the_full_cdf_that_ends_in_ones(self, pairs):
        # Right of the window every term is below 2**-53 and adds nothing to
        # a running sum of at least 1: the full CDF is exactly 1.0 from the
        # window's last point on, and binomial_cdf is its slice bit for bit.
        # Every _cdf_blocks row ends where that window ends, and lies within
        # its bound of it: exactly where the row starts at the window's lo.
        n = np.array([pair[0] for pair in pairs])
        p = np.array([pair[1] for pair in pairs])
        blocks = self._rows_by_pair(n, p)
        assert sorted(blocks) == list(range(n.size))
        for i, (n_i, p_i) in enumerate(pairs):
            full = full_binomial_cdf(n_i, p_i)
            lo, f = binomial_cdf(n_i, p_i)
            hi = lo + f.size - 1
            assert np.array_equal(f, full[lo : hi + 1])
            assert np.all(full[:lo] == 0.0) and np.all(full[hi:] == 1.0)
            self._assert_row_within_bound(lo, f, *blocks[i])

    @staticmethod
    def _rows_by_pair(n, p):
        """The (lo, row, bound) of each pair's _cdf_blocks row, by pair index."""
        return {
            int(i): (lo[j], f[j], bound[j])
            for rows, lo, f, bound in randomness._cdf_blocks(n, p)
            for j, i in enumerate(rows)
        }

    @staticmethod
    def _assert_row_within_bound(lo, f, row_lo, g, bound):
        """Row g from row_lo against binomial_cdf's window f from lo.

        Both are compared up to the wider one's end, each read as 1.0 past
        its last point, as the full CDF is past f's and a row's padding is.
        A row that cuts neither end of f is its slice bit for bit, with
        bound 0.0; a cut row lies within its bound of it, and so does the
        mass left of the row.
        """
        assert lo <= row_lo <= lo + f.size - 1
        left = f[row_lo - lo - 1] if row_lo > lo else 0.0
        f = f[row_lo - lo :]
        size = max(f.size, g.size)
        f, g = (np.append(x, np.ones(size - x.size)) for x in (f, g))
        if bound == 0.0:
            assert row_lo == lo
            assert np.array_equal(g, f)
        else:
            assert 0.0 < bound < 1e-6
            assert np.max(np.abs(g - f)) <= bound
            assert left <= bound

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 10**9),
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-6, exclude_min=True),
            st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
        ),
    )
    @example(n=10**9, p=0.5)
    @example(n=10**9, p=1e-9)
    @example(n=10**9, p=1.0 - 1e-9)
    @example(n=2000, p=0.98)
    def test_terms_from_the_right_end_on_are_below_half_an_ulp_of_one(self, n, p):
        # The window's right end lies right of the mode, and its term, the
        # largest of those from it on, is more than 53 ln 2 below the largest
        # term (scipy's log-pmf, not the window's arithmetic). So every term
        # from the right end on is below 2**-53 of it.
        lo, f = binomial_cdf(n, p)
        hi = lo + f.size - 1
        if hi == n:
            return
        mode = min(n, math.floor((n + 1) * p))
        assert mode < hi
        gap = stats.binom.logpmf(hi, n, p) - stats.binom.logpmf(mode, n, p)
        assert gap < -53 * math.log(2.0)

    def test_zero_trials_draw_zero(self):
        # Bin(0, p) has the one-point window [0, 0] with F = [1.0].
        lo, f = binomial_cdf(0, 0.3)
        assert (lo, f.tolist()) == (0, [1.0])
        u = np.array(_EDGE_UNIFORMS)
        assert draw_binomial(np.zeros(u.shape, dtype=np.int64), 0.3, u).tolist() == [0, 0, 0]

    def test_narrow_first_window_is_widened_to_the_exact_cdf(self):
        # Either edge alone fails the check, and both half-widths are doubled.
        left, right = "_UNDERFLOW_LOG", "_ABSORBED_LOG"
        for narrowed in [(left,), (right,), (left, right)]:
            with pytest.MonkeyPatch.context() as mp:
                for name in narrowed:
                    mp.setattr(randomness, name, 1.0)
                calls = self._count_builds(mp)
                for n, p in [(3000, 0.3), (100_000, 0.9), (50_000, 1e-3)]:
                    calls.clear()
                    lo, f = binomial_cdf(n, p)
                    assert len(calls) > 1  # the first window failed an edge check
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
        # fail the edge check and are widened by binomial_cdf, and trimmed
        # rows fail their draws' check and are inverted on binomial_cdf.
        # Either way each draw is its own value's inversion.
        n = np.array([d[0] for d in draws], dtype=np.int64)
        u = np.array([d[1] for d in draws])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "_BLOCK", block)
            if widen:
                mp.setattr(randomness, "_UNDERFLOW_LOG", 5.0)
                mp.setattr(randomness, "_ABSORBED_LOG", 1.0)
                mp.setattr(randomness, "_MARGIN_LOG", 1.0)
            got = draw_binomial(n, p, u)
            want = self._per_value_inversion(n, p, u)
        assert got.tolist() == want

    def test_block_rows_failing_the_edge_check_are_widened(self):
        # With a narrowed closed form the first windows of these counts leave
        # a non-zero first term or a last term of 2**-53 or more; the rows are
        # rebuilt by binomial_cdf, which widens them to the exact CDF.
        n = np.array([3000, 3001, 3000, 2500])
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 4, 4)[:, 0]
        for narrowed in ("_UNDERFLOW_LOG", "_ABSORBED_LOG"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(randomness, narrowed, 1.0)
                rebuilt = []
                build = randomness.binomial_cdf
                mp.setattr(
                    randomness, "binomial_cdf", lambda n, p: rebuilt.append(n) or build(n, p)
                )
                got = draw_binomial(n, 0.3, u)
            assert sorted(rebuilt) == [2500, 3000, 3001]
            assert np.array_equal(got, reference_draw_binomial(n, 0.3, u))

    @pytest.mark.parametrize("shift", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("n, p", [(3000, 0.3), (100_000, 0.45), (10**6, 0.6)])
    def test_uniforms_at_cdf_steps_in_a_trimmed_row_are_inverted_again(self, n, p, shift):
        # Uniforms exactly on, and one ulp either side of, steps of the full
        # CDF and of the trimmed row, and below the row's first point: each
        # lies within B of the row's CDF, so its check fails and the pair is
        # inverted on binomial_cdf, built once per call. Uniforms halfway
        # between steps pass the check. The draws are exact for any row
        # within its bound, so the rows are also shifted by 0.9 B up or down.
        # Each set is drawn alone, and again with a narrow companion pair in
        # the same call, Binomial(round(np), 0.999), whose row of a few dozen
        # points lies inside the trimmed row's k range: so the two rows form
        # one cluster, and a row narrower than _ALONE shares a block with it,
        # so its uniforms go through the block's bisection.
        lo, f = binomial_cdf(n, p)
        blocks, block_rows = randomness._cdf_blocks, []

        def shifted(n, p):
            for rows, row_lo, g, bound in blocks(n, p):
                block_rows.append(rows.size)
                g = np.clip(g + shift * bound[:, None], 0.0, 1.0)
                g[:, -1] = 1.0
                yield rows, row_lo, g, bound

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "_cdf_blocks", shifted)
            (row_lo, g, bound), = self._rows_by_pair(np.array([n]), np.array([p])).values()
        assert row_lo > lo and bound > 0.0
        at = np.linspace(0, g.size - 2, 12).astype(int)
        steps = np.concatenate([f[row_lo - lo + at], g[at]])
        near = np.concatenate(
            [steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0), [5e-324, f[row_lo - lo - 1]]]
        )
        near = near[near < 1.0]  # a shifted row reaches 1.0 before its end
        mid = (f[row_lo - lo + at[1:]] + f[row_lo - lo + at[:-1]]) / 2.0
        mid = mid[mid - f[row_lo - lo + at[:-1]] > 1e-6]
        c_n, c_p, c_u = np.full(2, round(n * p)), 0.999, np.array([0.3, 0.9])
        for u, rebuilds in [(near, [n]), (mid, []), (np.concatenate([mid, near]), [n])]:
            for together in (False, True):
                counts, probs, draws = np.full(u.shape, n), np.full(u.shape, p), u
                if together:
                    counts = np.append(counts, c_n)
                    probs = np.append(probs, np.full(c_n.shape, c_p))
                    draws = np.append(u, c_u)
                block_rows.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(randomness, "_cdf_blocks", shifted)
                    rebuilt = []
                    build = randomness.binomial_cdf
                    mp.setattr(
                        randomness, "binomial_cdf", lambda n, p: rebuilt.append(n) or build(n, p)
                    )
                    got = draw_binomial(counts, probs, draws)
                assert rebuilt == rebuilds
                assert np.array_equal(
                    got[: u.size], reference_draw_binomial(np.full(u.shape, n), p, u)
                )
                if together:
                    assert np.array_equal(got[u.size :], reference_draw_binomial(c_n, c_p, c_u))
                    assert block_rows == ([1, 1] if g.size >= randomness._ALONE else [2])

    @staticmethod
    def _right_cut_uniforms(n, p, row):
        """Uniforms where a right-cut row's draw check must fail, or nearly.

        The full CDF's steps from 20 points left of the row's last point to
        the window's end and the row's own steps over its last 21 points,
        one ulp either side of each, and 1 - B and 1 - 2**-53, all below 1.0.
        """
        lo, f = binomial_cdf(n, p)
        row_lo, g, bound = row
        mean, margin = randomness._reach(n, p, (randomness._MARGIN_LOG,))
        hi = math.ceil(mean + margin)
        assert bound > 0.0 and hi < lo + f.size - 1  # the row is cut on its right
        steps = np.concatenate([f[hi - 20 - lo :], g[hi - 20 - row_lo : hi - row_lo + 1]])
        u = np.concatenate(
            [steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0), [1.0 - bound, 1.0 - 2.0**-53]]
        )
        return u[(0.0 < u) & (u < 1.0)]

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_uniforms_at_a_right_cut_are_inverted_exactly(self, stage):
        # The rows of the benchmark's sample-large-n study (N = 1e6,
        # p1. = 0.6, p.1 = 0.7, phi = 1.25): one pair per stage, each row at
        # least _ALONE wide and a block of its own, cut at about 8.2 sd on
        # its right, where the full window runs on to about 10 sd. Uniforms
        # on and next to the steps right of the cut, and up to 1 - 2**-53,
        # invert as on the full CDF; those the check fails (1 - 2**-53 at
        # least) are inverted again, once per pair.
        spec = PopulationSpec("L1", 1_000_000, 0.60, 0.70, 1.25)
        x = draw_tables(spec.n, spec.cells(), uniforms(7, PURPOSE_STUDY, 0, 1))
        p11, p10, p01, _ = spec.cells()
        n = spec.n - sum(int(x[i][0]) for i in range(stage))
        p = [p11, p10 / (1.0 - p11), p01 / (1.0 - p11 - p10)][stage]
        row = self._rows_by_pair(np.array([n]), np.array([p]))[0]
        assert row[1].size >= randomness._ALONE
        u = self._right_cut_uniforms(n, p, row)
        rebuilt, build = [], randomness.binomial_cdf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomness, "binomial_cdf", lambda n, p: rebuilt.append(n) or build(n, p))
            got = draw_binomial(n, p, u)
        assert rebuilt == [n]
        assert np.array_equal(got, reference_draw_binomial(np.full(u.size, n), p, u))

    def test_uniforms_at_right_cuts_of_a_narrow_block_are_inverted_exactly(self, monkeypatch):
        # Three pairs at N = 500 whose rows overlap make one padded block of
        # three rows, each cut on both sides; the uniforms near each row's
        # right cut, all in one call, go through the block's bisection and
        # invert as on the full CDF; 1 - 2**-53 fails each row's check, so
        # each pair is inverted again, once.
        sizes, blocks, rebuilt, build = [], randomness._cdf_blocks, [], randomness.binomial_cdf

        def recorded_blocks(n, p):
            for rows, lo, f, bound in blocks(n, p):
                sizes.append(rows.size)
                yield rows, lo, f, bound

        n, p = np.full(3, 500), np.array([0.3, 0.32, 0.34])
        rows = self._rows_by_pair(n, p)
        u = [self._right_cut_uniforms(500, p[i], rows[i]) for i in range(3)]
        counts, probs = (np.concatenate([np.full(v.size, x) for v, x in zip(u, c)]) for c in (n, p))
        u = np.concatenate(u)
        monkeypatch.setattr(randomness, "_cdf_blocks", recorded_blocks)
        monkeypatch.setattr(randomness, "binomial_cdf", lambda n, p: rebuilt.append(p) or build(n, p))
        got = draw_binomial(counts, probs, u)
        assert sizes == [3]
        assert sorted(rebuilt) == p.tolist()
        for q in p:
            at = probs == q
            assert np.array_equal(got[at], reference_draw_binomial(counts[at], q, u[at]))

    def test_wide_rows_of_two_probabilities_share_a_cluster(self, monkeypatch):
        # Two populations at N = 1e6 that differ only in p1. (0.6 and
        # 0.6002) draw in one stack: each stage's rows of both lie within a
        # few sd of each other, so they form one cluster that evaluates
        # gammaln once over the union of their ranges, while the wide rows
        # of each p read k ln p and (n - k) ln(1 - p) from tables of their
        # own. Every draw equals its population's draw alone, and each
        # first-stage draw equals per-value inversion on binomial_cdf.
        points, log_gamma = [], randomness.gammaln
        monkeypatch.setattr(randomness, "gammaln", lambda x: points.append(np.size(x)) or log_gamma(x))
        r = 20
        specs = [PopulationSpec(f"p{p}", 1_000_000, p, 0.70, 1.25) for p in (0.6, 0.6002)]
        u = [uniforms(7, PURPOSE_STUDY, unit, r) for unit in range(len(specs))]
        alone = []
        for spec, spec_u in zip(specs, u):
            alone.append(draw_tables(spec.n, spec.cells(), spec_u))
        apart = sum(points)
        points.clear()
        n = np.repeat([spec.n for spec in specs], r)
        cells = tuple(np.repeat(c, r) for c in zip(*(spec.cells() for spec in specs)))
        together = draw_tables(n, cells, np.concatenate(u))
        assert sum(points) < 0.7 * apart
        for got, want in zip(together, zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))
        first = np.concatenate(u)[:, 0]
        want = [self._per_value_inversion(n[i : i + 1], cells[0][i], first[i : i + 1])[0] for i in range(2 * r)]
        assert together[0].tolist() == want

    @pytest.mark.parametrize("n, p", [(5, 0.3), (10**6, 0.6)])
    def test_uniforms_outside_the_unit_interval_are_rejected(self, n, p):
        # (5, 0.3) is binomial_cdf's window, (1e6, 0.6) a row cut on both
        # sides; a bad uniform among good ones fails the whole call.
        for bad in (1.0, 1.5, -0.5, -5e-324, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                draw_binomial(n, p, bad)
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                draw_binomial(np.full(3, n), p, np.array([0.5, bad, 0.2]))
        assert draw_binomial(n, p, 1.0 - 2.0**-53) <= n

    @pytest.mark.parametrize("p", [1e-6, 0.02, 0.3, 0.5, 0.98])
    def test_every_row_is_within_its_bound_of_binomial_cdf(self, p):
        # Each count alone (its row is the whole shared run) and all of
        # them in one call (rows far apart, each with runs of its own);
        # rows of 2**12 points or more are blocks of one row. At p = 1e-6
        # every row starts at 0 and is binomial_cdf's window bit for bit.
        counts = (20_000, 200_000, 10**6, 10**7)
        for n in [np.array([c]) for c in counts] + [np.array(counts)]:
            built = self._rows_by_pair(n, np.full(n.size, p))
            assert sorted(built) == list(range(n.size))
            for i, row in built.items():
                self._assert_row_within_bound(*binomial_cdf(int(n[i]), p), *row)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10**8),
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-4, exclude_min=True),
            st.floats(1.0 - 1e-4, 1.0, exclude_max=True),
        ),
    )
    @example(n=10**8, p=0.5)
    @example(n=10**8, p=1e-6)
    @example(n=3000, p=0.3)
    def test_row_bound_holds_up_to_1e8(self, n, p):
        # |F' - F| <= B (see _TRIM_LOG) over the row, whatever its width;
        # measured differences lie many orders of magnitude below B.
        row = self._rows_by_pair(np.array([n]), np.array([p]))[0]
        self._assert_row_within_bound(*binomial_cdf(n, p), *row)

    def test_wide_windows_share_the_log_factorial_runs(self, monkeypatch):
        # One draw_tables call of a study at N = 1e6 (p1. = 0.6, p.1 = 0.7,
        # phi = 1.25), R = 50: all 99 of its rows are at least _ALONE wide,
        # so each is a block of one row, though 98 of them would fit two to a
        # block.
        # They read the two runs of their stage; none is built by
        # binomial_cdf.
        points, builds, widths = [], [], []
        log_gamma, blocks = randomness.gammaln, randomness._cdf_blocks

        def counted_gammaln(x):
            points.append(np.size(x))
            return log_gamma(x)

        def recorded_blocks(n, p):
            for rows, lo, f, bound in blocks(n, p):
                assert rows.size == 1
                widths.append(f.shape[1])
                yield rows, lo, f, bound

        monkeypatch.setattr(randomness, "gammaln", counted_gammaln)
        monkeypatch.setattr(randomness, "_cdf_blocks", recorded_blocks)
        monkeypatch.setattr(randomness, "binomial_cdf", lambda n, p: builds.append(n))
        spec = PopulationSpec("M", 1_000_000, 0.60, 0.70, 1.25)
        draw_tables(spec.n, spec.cells(), uniforms(7, PURPOSE_STUDY, 0, 50))
        assert builds == []
        assert sum(w >= randomness._ALONE for w in widths) == len(widths) == 99
        assert sum(2 * w <= randomness._BLOCK for w in widths) == 98
        assert sum(points) < 8 * max(widths)

    def test_far_apart_populations_keep_their_own_runs(self, monkeypatch):
        # A stack group of N = 1e6 and N = 1e9 (p1. = 0.6, p.1 = 0.7,
        # phi = 1.25) at R = 20, as run_study draws it. The two populations'
        # windows lie far apart, so each builds its own log-factorial
        # tables: the group's draw evaluates gammaln at exactly the points of
        # the two populations drawn alone, and draws the same tables. The
        # count includes one binomial_cdf window: at this seed a stage-3
        # draw at N = 1e9 fails its check, alone and in the group alike.
        points = []
        log_gamma = randomness.gammaln

        def counted_gammaln(x):
            points.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(randomness, "gammaln", counted_gammaln)
        r = 20
        specs = [PopulationSpec(f"N{n}", n, 0.60, 0.70, 1.25) for n in (10**6, 10**9)]
        u = [uniforms(7, PURPOSE_STUDY, unit, r) for unit in range(len(specs))]
        alone, per_spec = [], []
        for spec, spec_u in zip(specs, u):
            alone.append(draw_tables(spec.n, spec.cells(), spec_u))
            per_spec.append(sum(points))
            points.clear()
        n = np.repeat([spec.n for spec in specs], r)
        cells = tuple(np.repeat(c, r) for c in zip(*(spec.cells() for spec in specs)))
        together = draw_tables(n, cells, np.concatenate(u))
        assert sum(points) == sum(per_spec) == 2_453_441
        for got, want in zip(together, zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))

    def test_1500_narrow_windows_share_one_exact_block(self, monkeypatch):
        # 1500 distinct pairs of windows at most 3 wide fit one padded block
        # of 1500 rows, inverted by one bisection. Every draw equals
        # per-value inversion, for the Philox uniforms, for the doubles one
        # ulp above and below each, which below 0.5 lie off the 53-bit grid
        # m * 2**-53 of the uniforms, and for values on each row's CDF
        # steps below 1.0: the search must not step past an equal value.
        sizes, blocks = [], randomness._cdf_blocks

        def recorded_blocks(n, p):
            for rows, lo, f, bound in blocks(n, p):
                sizes.append(rows.size)
                yield rows, lo, f, bound

        monkeypatch.setattr(randomness, "_cdf_blocks", recorded_blocks)
        count = 1500
        n = 1 + np.arange(count) % 3
        p = np.linspace(0.01, 0.99, count)
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 6, count)[:, 0]
        steps = [binomial_cdf(int(n[i]), p[i])[1][i % n[i]] for i in range(count)]
        for v in (u, np.nextafter(u, 1.0), np.nextafter(u, 0.0), np.array(steps)):
            sizes.clear()
            got = draw_binomial(n, p, v)
            want = [reference_draw_binomial(n[i : i + 1], p[i], v[i : i + 1])[0] for i in range(count)]
            assert sizes == [count]
            assert got.tolist() == want
        off_grid = np.nextafter(u, 1.0) * 2.0**53
        assert np.count_nonzero(off_grid != np.floor(off_grid)) > count // 4

    def test_spread_counts_do_not_share_a_run(self):
        # A run over 0..1e9 would hold 8 GB; these windows lie far apart,
        # so each builds log-factorial tables over its own points only.
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

    @staticmethod
    def _reference_tables(n, cells, u):
        """One population's tables by full-CDF inversion, stage by stage."""
        def cond(num, denom):
            return 0.0 if denom <= 0.0 else min(max(num / denom, 0.0), 1.0)

        p11, p10, p01, _ = cells
        x11 = reference_draw_binomial(np.full(len(u), n), p11, u[:, 0])
        x10 = reference_draw_binomial(n - x11, cond(p10, 1.0 - p11), u[:, 1])
        x01 = reference_draw_binomial(n - x11 - x10, cond(p01, 1.0 - p11 - p10), u[:, 2])
        return x11, x10, x01

    @settings(max_examples=60, deadline=None)
    @given(
        populations=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7, 200, 500, 3000]),
                # Shared designs, and stage probabilities at 0 and 1.
                st.sampled_from([
                    CELLS, (0.3, 0.3, 0.2, 0.2), (0.0, 0.5, 0.5, 0.0),
                    (1.0, 0.0, 0.0, 0.0), (0.3, 0.7, 0.0, 0.0), (0.2, 0.0, 0.0, 0.8),
                ]),
                st.lists(
                    st.one_of(
                        st.integers(0, 2**53 - 1).map(lambda m: m * 2.0**-53),
                        st.sampled_from(_EDGE_UNIFORMS),
                        st.floats(0.0, 1.0, exclude_max=True),
                    ),
                    min_size=3,
                    max_size=3 * 6,
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example(populations=[(500, CELLS, [0.5, 0.0, 0.3] * 4), (500, CELLS, [0.5, 0.1, 0.3] * 4)])
    def test_per_row_populations_equal_full_cdf_inversion(self, populations):
        # Rows of several populations in one call: each population's rows
        # are drawn as that population alone, by full-CDF inversion.
        blocks = []
        for n, cells, u in populations:
            u = np.array(u[: len(u) // 3 * 3]).reshape(-1, 3)
            blocks.append((np.full(len(u), n), np.tile(cells, (len(u), 1)), u))
        n, cells, u = (np.concatenate(parts) for parts in zip(*blocks))
        got = draw_tables(n, tuple(cells.T), u)
        start = 0
        for (size, cells, _), (_, _, rows) in zip(populations, blocks):
            want = self._reference_tables(size, cells, rows)
            for drawn, ref in zip(got, want):
                assert drawn[start : start + len(rows)].tolist() == ref.tolist()
            start += len(rows)

    def test_large_population_replicates_equal_full_cdf_inversion(self):
        # The 50 replicate tables of a study at N = 1e6 (p1. = 0.6,
        # p.1 = 0.7, phi = 1.25) at the default seed, stage by stage.
        spec = PopulationSpec("L1", 1_000_000, 0.60, 0.70, 1.25)
        u = uniforms(DEFAULT_SEED, PURPOSE_STUDY, 0, 50)
        got = draw_tables(spec.n, spec.cells(), u)
        want = self._reference_tables(spec.n, spec.cells(), u)
        for drawn, ref in zip(got, want):
            assert np.array_equal(drawn, ref)
