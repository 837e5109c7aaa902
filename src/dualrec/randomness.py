"""Deterministic, replicate-addressable random number generation.

All stochastic output of this package flows through counter-based Philox
streams so that every random quantity has a stable address:

    key     = (seed, purpose << 32 | unit)
    block r = the four 64-bit words at counter position r of that stream

One 256-bit block per replicate supplies the (at most four) uniforms a
replicate consumes. Because blocks are addressed by counter, replicate r can
be regenerated in isolation — or any contiguous range of replicates — and the
results are bit-identical to a single sequential pass.
``purpose`` namespaces independent uses (studies, bootstrap, ...) and
``unit`` separates populations or grid points within a use.

Incomplete 2x2 tables are drawn from the four cell probabilities by a chain
of conditional binomials (x11, then x10, then x01), each inverted through its
CDF in double precision (within about 4e-12 of the exact CDF at n = 2e5; see
:func:`binomial_cdf`). Inversion makes the draw a pure function of the
uniforms, so results do not depend on execution order or on the library
version of a rejection sampler. The reference CDF, :func:`binomial_cdf`, is
built only over a window sized by Bernstein tail bounds, outside which it is
exactly 0.0 or 1.0 in double: about 39.2 sd left of the mean at large n,
where the terms underflow to 0.0, and about 10 sd right of it, where they
fall below 2**-53 and no longer change a running sum of at least 1. Its
inversion equals that of the full n + 1 point CDF bit for bit. The rows
:func:`draw_binomial` searches span only where a uniform can land instead,
about 8.2 sd either side of the mean at n = 1e6, beyond which the terms on
each side hold at most e**-20 of the largest: so a draw at n = 1e9 holds
about 285 000 doubles, not a billion. A cut row holds the window's terms,
but its running sum starts later and its total stops earlier, so its CDF
may differ from the window's, by at most a bound B of about 4W * 2**-53
for a window of W points plus 3 e**-20 for each cut edge, about 1.2e-8 at
n = 1e6. Each draw from a cut row is kept only where its uniform lies more
than B from the row's CDF steps on either side, which proves it the full
CDF's draw; one check after all of a call's rows are built finds the rare
other draws (about 2B times the row's bulk width of them, 6 in 2 million
draws of the paper's studies), which are inverted again on
:func:`binomial_cdf`, the fallback. So the draws equal inversion of the full
CDF bit for bit. Each stage of :func:`draw_tables` is one
:func:`draw_binomial` call over every row, and a study draws all the rows of
a stack group of populations in one such call, so a stage holds many
(trials, probability) pairs at once. :func:`draw_binomial` builds one row
per distinct pair of the call and sizes all the rows in closed form.
Rows whose ranges overlap, such as those of one population in one stage,
form a cluster that evaluates ``gammaln`` once over the union of its
rows, and the clusters are built one after another, so populations far
apart never share, or hold at once, a log-factorial table. A row of 2**12
points or more is a block of its own that reads all four of its log-pmf
terms as forward slices of the cluster's tables, so the nearly overlapping
rows of one stage evaluate ``gammaln`` and the products k ln p about once,
not once each; narrower rows are built in padded blocks of about 2**14
doubles, each with one row-wise cumulative sum.
A block of several rows is inverted by one bisection over all of its rows,
which compares doubles and so is exact for every uniform; a block of one
row is searched alone. Nothing is kept from one call to the next: the
populations of a study share pairs only within a stack group (14-16% of the
windows of the fig1-fig3 studies at R = 200), and the group's one call
builds each of them once.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Philox
from scipy.special import gammaln

__all__ = [
    "DEFAULT_SEED",
    "PURPOSE_STUDY",
    "PURPOSE_BOOTSTRAP",
    "PURPOSE_SCALING",
    "PURPOSE_SWEEP",
    "PURPOSE_BANDS",
    "key_for",
    "raw_blocks",
    "uniforms",
    "binomial_cdf",
    "draw_binomial",
    "draw_tables",
    "MAX_N",
]

DEFAULT_SEED = 20260823

# The largest population size drawn from: the range over which the CDF
# windows and their accuracy are documented (at 1e9 a draw's row holds about
# 285 000 doubles and binomial_cdf's window about 800 000; both grow as
# sqrt(N)).
MAX_N = 10**9

PURPOSE_STUDY = 0
PURPOSE_BOOTSTRAP = 1
PURPOSE_SCALING = 2
PURPOSE_SWEEP = 3
PURPOSE_BANDS = 4

_U64 = np.uint64
_INV_2_53 = 2.0**-53


def key_for(seed: int, purpose: int, unit: int) -> np.ndarray:
    """Philox key for a (seed, purpose, unit) stream address."""
    if not 0 <= purpose < 2**32:
        raise ValueError(f"purpose must fit in 32 bits, got {purpose}")
    if not 0 <= unit < 2**32:
        raise ValueError(f"unit must fit in 32 bits, got {unit}")
    return np.array([seed % 2**64, (purpose << 32) | unit], dtype=_U64)


def raw_blocks(seed: int, purpose: int, unit: int, count: int, start: int = 0) -> np.ndarray:
    """Raw 64-bit words for blocks [start, start + count), shape (count, 4).

    Seeking is done through the Philox counter, so ``raw_blocks(..., n, start=r)``
    equals rows r:r+n of ``raw_blocks(..., r + n)``.
    """
    gen = Philox(key=key_for(seed, purpose, unit), counter=[start, 0, 0, 0])
    return gen.random_raw(4 * count).reshape(count, 4)


def uniforms(seed: int, purpose: int, unit: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform(0, 1) variates, shape (count, 4): one block per replicate.

    Each 64-bit word maps to a double via (word >> 11) * 2**-53, the standard
    53-bit mantissa construction; values lie in [0, 1).
    """
    raw = raw_blocks(seed, purpose, unit, count, start)
    return (raw >> _U64(11)).astype(float) * _INV_2_53


# exp(x) is exactly 0.0 in double for x < ln(2**-1075), about -745.13. The
# CDF window excludes on its left only terms at least this far below the
# largest one; the margin of 0.87 covers the log-pmf's rounding, about 1e-5
# at n = 1e9.
_UNDERFLOW_LOG = 746.0
# On its right the window stops where the terms can no longer change the
# running sum. The largest term is exp(0) = 1.0 exactly, so from it on the
# running sum is at least 1, and a term below 2**-53 (half the spacing of the
# doubles in [1, 2)) added to it leaves it unchanged. With
# c = _ABSORBED_LOG + ln(n + 1), the Bernstein bound of _reach gives
# pmf(k) <= P(X >= hi) <= exp(-c) = e**-37 / (n + 1) for every k >= hi, and
# the pmf at the mode is at least 1/(n + 1), so every term from hi on is at
# most e**-37 times the largest: below 2**-53 (ln 2**53 = 36.74) with a log
# margin of 0.26, far above the log-pmf's rounding. hi lies right of the
# mode, because the half-width is at least 2c/3 > 1, so each such term is
# added to a sum >= 1 and leaves it unchanged. The total is then that of the
# window, the full CDF is exactly 1.0 from hi on, and the window is the
# slice [lo, hi] of the full n + 1 point CDF bit for bit.
_ABSORBED_LOG = 37.0
# The rows draw_binomial searches are cut further in on both sides, where a
# uniform can land: at c = _MARGIN_LOG + ln(n + 1), about 8.2 sd either side
# of the mean at n = 1e6, and never outside the full window. Every term
# beyond a cut edge lies at least 20 below the largest log-pmf (the pmf at
# the mode is at least 1/(n + 1), as in _reach), far beyond the log-pmf's
# rounding; the half-width is at least 2c/3 > 13, so the row holds the mode
# and both windows subtract the same largest log-pmf. A cut row thus holds
# the full window's terms over its own points; only its running sum starts
# later, or its total stops earlier. The terms cut off on each side sum to
# m <= 1.01 e**-20: their pmf sums to at most e**-20 / (n + 1) by the bound
# of _reach, and the log-pmf's rounding (about 1e-5 at n = 1e9) moves them by
# a factor below 1.01.
#
# Bound. Let F and F' be the full window's and the cut row's CDF doubles at
# k, s and s' the exact sums of the terms from each one's lo to k, t and t'
# their totals, eps = 2**-53 and W the full window's width (W <= 2**25 up to
# MAX_N). Both cumulative sums are recursive sums of at most W nonnegative
# doubles, so each sum and total is within W eps / (1 - W eps) of its exact
# value, relatively; with the division's rounding and s/t <= 1,
# |F - s/t| <= (2W + 3) eps, and the same for F'. With m_L and m_R the terms
# cut off on the left and on the right, s = s' + m_L and t = t' + m_L + m_R,
# so s/t - s'/t' = (m_L (t' - s') - s' m_R) / (t t'); both totals hold the
# term 1.0, so t, t' >= 1 and |s/t - s'/t'| <= m_L + m_R. Hence
# |F' - F| <= (4W + 6) eps + m_L + m_R. The draw's check compares F' with
# u - B and u + B rounded to double, each within half an ulp (at most eps/2)
# of its exact value, and B itself is rounded by a few ulps;
# B = (4W + 8) eps + 3 e**-20 per cut edge covers all of it. So
# F'(k - 1) < u - B and F'(k) >= u + B give F(k - 1) < u <= F(k): k is the
# draw on the full CDF. Before the row's first point F' counts as 0 and F is
# at most (4W + 6) eps + m_L < B, so there the check is u > B; from a
# right-cut row's last point on F' is 1.0 and F at least 1 - B, so a u above
# 1 - B fails the check. A uniform fails it where it lies within B of one of
# the row's CDF steps, so a share of about 2B times the row's bulk width
# fails, not 4B: at n = 1e6, where B is about 1.2e-8 and the bulk about 2000
# steps, 2 of the 37 500 draws of 250 of the benchmark's sample-large-n
# studies failed (5 502 at a margin of 12, where B is 3.7e-5), and 6 of the
# 2 040 000 draws of 20 rounds of its reproduce-paper. A draw that fails the
# check is inverted on binomial_cdf.
_MARGIN_LOG = 20.0
# Doubles per padded block of CDF rows in draw_binomial (128 KiB).
_BLOCK = 2**14
# A row at least this wide is a block of its own, which reads its log-pmf
# terms as slices rather than gathering them.
_ALONE = 2**12


def _logpmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """Binomial(n, p) log-pmf, element-wise over an array of k."""
    return (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )


def _reach(n, p: float, logs):
    """Mean and the half-widths of the closed-form windows of Binomial(n, p); n may be an array.

    Bernstein, one-sided: P(X - np >= t) and P(np - X >= t) are each at most
    exp(-t**2 / (2(np(1 - p) + t/3))), which is exp(-c) at
    t = c/3 + sqrt(c**2/9 + 2c np(1 - p)). The pmf at the mode is at least
    1/(n + 1), so every k at distance t or more on that side lies
    c - ln(n + 1) or more below the largest log-pmf. Returns one half-width
    for each L of ``logs``, at c = L + ln(n + 1): _UNDERFLOW_LOG on the left
    of the full window, where every term beyond it underflows to 0.0;
    _ABSORBED_LOG on its right, where every term beyond it is below 2**-53;
    _MARGIN_LOG on both sides of a cut row, where the terms beyond each
    edge hold at most e**-20 of the largest.
    """
    mean = n * p
    return mean, *(
        c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * mean * (1.0 - p))
        for c in (log + np.log(n + 1.0) for log in logs)
    )


def binomial_cdf(n: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(n, p) CDF in double precision over the window where it is not 0 or 1.

    The values are those of the full-length builder described below, not
    the exact CDF: the log-pmf sums ``gammaln`` terms of size n log n, whose
    rounding grows with n. Against ``scipy.stats.binom.cdf`` the largest
    difference over the window measured 1.0e-12 at (n, p) = (20000, 0.05),
    2.5e-12 at (50000, 0.3), 2.1e-12 at (100000, 0.5) and 4.3e-12 at
    (200000, 0.4). A uniform that close to a CDF step inverts to a
    neighbour of the exact quantile.

    Returns ``(lo, f)`` with ``f[j]`` the CDF at ``k = lo + j`` for
    ``lo <= k <= hi``. The window is [np - d_left, np + d_right] clipped to
    [0, n], with d = c/3 + sqrt(c**2/9 + 2c np(1 - p)) for c = 746 + ln(n + 1)
    on the left and c = 37 + ln(n + 1) on the right: about 39.2 sd left and
    10 sd right of the mean at large n, so it costs O(sqrt(n p (1 - p)))
    memory, not O(n). Every term exp(logpmf(k) - max) left of it underflows
    to exactly 0.0, and every term from ``hi`` on is below 2**-53 and right of
    the largest term, so it leaves the running sum, which is at least 1
    there, unchanged (see ``_ABSORBED_LOG``). That makes ``f`` bit for bit the
    slice [lo, hi] of the full n + 1 point CDF built the same way (log
    probabilities, one cumulative sum, division by the total, last value
    pinned to 1): the full CDF is exactly 0.0 below ``lo`` and 1.0 from
    ``hi`` on. The first term is checked to be 0.0 (unless lo is 0) and the
    last to be below 2**-53 (unless hi is n), and both half-widths doubled
    until they are; by the bound, one build is enough.

    It is the reference that the cut rows of :func:`draw_binomial` are
    checked against, and the fallback that inverts a draw whose check fails.

    Raises:
        ValueError: unless 0 < p < 1 (``draw_binomial`` handles the ends).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    mean, left, right = _reach(n, p, (_UNDERFLOW_LOG, _ABSORBED_LOG))
    while True:
        lo, hi = max(0, math.floor(mean - left)), min(n, math.ceil(mean + right))
        logpmf = _logpmf(n, p, np.arange(lo, hi + 1, dtype=float))
        terms = np.exp(logpmf - logpmf.max())
        if (lo == 0 or terms[0] == 0.0) and (hi == n or terms[-1] < 2.0**-53):
            break
        left *= 2.0
        right *= 2.0
    f = np.cumsum(terms)
    f /= f[-1]
    f[-1] = 1.0
    return lo, f


def _runs(a: np.ndarray, b: np.ndarray):
    """Merge the integer intervals [a[i], b[i]] into the runs of their union.

    Overlapping or touching intervals share a run. Returns the run of each
    interval and the runs' first and last points, in ascending order.
    """
    order = np.argsort(a, kind="stable")
    reach = np.maximum.accumulate(b[order])
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[order[1:]] > reach[:-1] + 1
    starts = np.flatnonzero(first)
    run = np.empty(a.size, dtype=np.int64)
    run[order] = np.cumsum(first) - 1
    return run, a[order[starts]], reach[np.append(starts[1:], a.size) - 1]


class _Table:
    """values(x) at the integers x of the intervals [a[i], b[i]], as one array.

    Each run of the intervals' union (see :func:`_runs`) is evaluated once,
    and the runs are stored end to end, so the table holds no point outside
    the intervals and intervals far apart never make it span the gap
    between them. ``values`` is element-wise on the points as doubles, so a
    lookup gives the doubles of values(x) itself. Interval i reads x at
    ``table[x - base[i]]``.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, values):
        run, lo, hi = _runs(a, b)
        size = hi - lo + 1
        base = lo - (np.cumsum(size) - size)
        x = np.arange(size.sum(), dtype=float)
        x += np.repeat(base.astype(float), size)
        self.table = values(x)
        self.base = base[run]

    def at(self, x: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Values at an integer array x whose row r lies in interval i[r]."""
        return self.table[x - self.base[i, None]]

    def run(self, i: int, start: int, stop: int) -> np.ndarray:
        """Values at start, start + 1, ..., stop - 1 within interval i: a slice of the table."""
        return self.table[start - self.base[i] : stop - self.base[i]]


def _logpmf_block(n, p, lo, hi, i, log_fact_k, log_fact_rest):
    """Log-pmf rows of Binomial(n[r], p[r]) over [lo[r], hi[r]], padded with -inf.

    The log-pmf is computed element-wise as :func:`_logpmf` does, its terms
    subtracted and added in its order. Row r gathers its log-factorials
    from interval i[r] of the cluster's two tables; ln(k!) = inf makes each
    padding column -inf, whose exact 0.0 term leaves the row's cumulative
    sum and total as they are.
    """
    cols = np.arange((hi - lo).max() + 1)
    k = np.minimum(lo[:, None] + cols, hi[:, None])
    lf_k = log_fact_k.at(k, i)
    lf_k[cols > (hi - lo)[:, None]] = np.inf
    f = gammaln(n + 1.0)[:, None] - lf_k
    del lf_k
    f -= log_fact_rest.at(k - n[:, None], i)
    f += k * np.log(p)[:, None]
    k = n[:, None] - k
    f += k * np.log1p(-p)[:, None]
    return f


def _cdf_blocks(n: np.ndarray, p: np.ndarray):
    """(rows, lo, f, bound) blocks of the CDF rows of the distinct pairs (n[i], p[i]).

    ``f[j]`` is the CDF of pair ``i = rows[j]`` from ``lo[j]`` to its row's
    last point, padded with 1.0 to the block's width, and ``bound[j]`` is
    how far it may lie from ``binomial_cdf(n[i], p[i])[1]`` (see
    ``_MARGIN_LOG``). Its ends are at c = _MARGIN_LOG + ln(n + 1), about
    8.2 sd either side of the mean at n = 1e6, where the full window's are
    at about 39.2 sd left and 10 sd right: the full window's half-widths
    exceed the row's by at least 726/3 = 242 points on the left and
    17/3 = 5.7 on the right, so each end of a row cuts the window unless it
    lies at 0 or n. A row that cuts neither end is thus [0, n], binomial_cdf's
    window bit for bit, and its bound is 0.0. All the windows come from the
    closed form at once. Rows whose k ranges overlap form a cluster, and the
    clusters are built one after another, so rows far apart never share, or
    hold at once, a table. Each cluster's rows read ln(k!) from a table over
    the union of their k ranges and ln((n - k)!) from one over the union of
    their k - n ranges (see :class:`_Table`). A row of _ALONE points or more is a block of its own,
    which reads all four log-pmf terms as forward slices: those two tables
    and, for each p of the cluster's wide rows, k ln p and (n - k) ln(1 - p)
    over the union of their ranges. Narrower rows are built in padded blocks
    of at most _BLOCK doubles, sorted by width, which gather their
    log-factorials. A row's doubles do not depend on which rows share its
    block.
    """
    if not n.size:
        return
    mean, left, right, margin = _reach(n, p, (_UNDERFLOW_LOG, _ABSORBED_LOG, _MARGIN_LOG))
    full_lo = np.maximum(0, np.floor(mean - left)).astype(np.int64)
    full_hi = np.minimum(n, np.ceil(mean + right)).astype(np.int64)
    lo = np.maximum(full_lo, np.floor(mean - margin).astype(np.int64))
    hi = np.minimum(full_hi, np.ceil(mean + margin).astype(np.int64))
    cuts = (lo > full_lo).astype(np.int64) + (hi < full_hi)
    bound = (4.0 * (full_hi - full_lo + 1) + 8.0) * 2.0**-53 + 3.0 * math.exp(-_MARGIN_LOG) * cuts
    bound[cuts == 0] = 0.0
    width = hi - lo + 1
    wide = width >= _ALONE

    def finish(rows, f):
        # The log-pmf rows f to CDF rows, in place, as binomial_cdf builds them.
        f -= f.max(axis=1, keepdims=True)
        np.exp(f, out=f)
        np.cumsum(f, axis=1, out=f)
        # Each row's total is its last column; total / total is exactly 1.0,
        # so every column from the row's last on holds 1.0, as pinned in
        # binomial_cdf.
        f /= f[:, -1:].copy()
        return rows, lo[rows], f, bound[rows]

    cluster, *_ = _runs(lo, hi)
    by_cluster = np.argsort(cluster, kind="stable")
    for members in np.split(by_cluster, np.flatnonzero(np.diff(cluster[by_cluster])) + 1):
        m_lo, m_hi, m_n = lo[members], hi[members], n[members]
        # ln(k!) and, at y = k - n, ln((n - k)!), as _logpmf evaluates them.
        log_fact_k = _Table(m_lo, m_hi, lambda x: gammaln(x + 1.0))
        log_fact_rest = _Table(m_lo - m_n, m_hi - m_n, lambda y: gammaln(1.0 - y))
        m_wide = wide[members]
        for q in np.unique(p[members[m_wide]]):
            # The wide rows of one p read k ln p and (n - k) ln(1 - p) from
            # tables of their own, each product as _logpmf computes it.
            i = np.flatnonzero(m_wide & (p[members] == q))
            log_p, log_q = np.log(q), np.log1p(-q)
            k_log_p = _Table(m_lo[i], m_hi[i], lambda x: x * log_p)
            rest_log_q = _Table(m_lo[i] - m_n[i], m_hi[i] - m_n[i], lambda y: -y * log_q)
            for j, r in enumerate(i):
                a, b, c = m_lo[r], m_hi[r] + 1, m_n[r]
                f = gammaln(c + 1.0) - log_fact_k.run(r, a, b)
                f -= log_fact_rest.run(r, a - c, b - c)
                f += k_log_p.run(j, a, b)
                f += rest_log_q.run(j, a - c, b - c)
                yield finish(members[r : r + 1], f[None])
        narrow = np.flatnonzero(~m_wide)
        narrow = narrow[np.argsort(width[members[narrow]], kind="stable")]
        start = 0
        while start < narrow.size:
            # The most rows whose padded block (rows x widest row) fits
            # _BLOCK; at least one. Each row is at least one point wide, so
            # at most _BLOCK fit.
            w = width[members[narrow[start : start + _BLOCK]]]
            count = max(1, np.count_nonzero(np.arange(1, w.size + 1) * w <= _BLOCK))
            i = narrow[start : start + count]
            start += count
            rows = members[i]
            f = _logpmf_block(n[rows], p[rows], lo[rows], hi[rows], i, log_fact_k, log_fact_rest)
            yield finish(rows, f)
        # Freed before the next cluster's tables are built.
        del log_fact_k, log_fact_rest


def _search_rows(f: np.ndarray, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(f[j[i]], u[i], side="left")`` for each i, in one bisection.

    Each row of the block is nondecreasing, so the answer is the number of
    values of row j[i] below u[i]. Query i keeps a range [at, at + n] of
    positions that holds it, from the whole row (n is the block's width):
    each step probes position at + n // 2, moves ``at`` there if the value
    there is below u, and shrinks n by n // 2; at n = 1 one more comparison
    decides between at and at + 1. The steps depend only on the block's
    width, so every query takes the same ceil(log2(width)) of them, each one
    gather over the flattened block. Only doubles are compared, so the
    result is exact for every u but NaN.
    """
    flat, n = f.ravel(), f.shape[1]
    start = at = j * n
    while n > 1:
        half = n // 2
        probe = at + half
        at = np.where(flat[probe] < u, probe, at)
        n -= half
    return at + (flat[at] < u) - start


def draw_binomial(n, p, u) -> np.ndarray:
    """Invert Binomial(n_i, p_i) at uniform u_i in [0, 1) for each i.

    ``n``, ``p`` and ``u`` broadcast against each other: trial counts and
    probabilities may be one for all entries or one per entry. Each draw is
    the smallest k with F(k) >= u_i on the full CDF; u_i == 0.0 gives 0, as
    it does on the full CDF's leading zeros, p_i <= 0 gives 0 and p_i >= 1
    gives n_i. Each distinct (n, p) pair's CDF row is built once per call,
    in the padded blocks of :func:`_cdf_blocks`. A block of one row, such as
    a wide one, is searched alone; a block of several rows is inverted by
    one bisection over all of them (:func:`_search_rows`). A row cut inside
    the full window may differ from :func:`binomial_cdf` by its bound B, so
    its draw k is kept only if F'(k - 1) < u_i - B and F'(k) >= u_i + B,
    which proves k the full CDF's draw (see ``_MARGIN_LOG``). F'(k - 1),
    F'(k) and B are kept for each draw while its block is built, and checked
    once, for all draws, after the last block; a draw fails where u_i lies
    within B of one of the row's CDF steps, or above 1 - B on a right-cut
    row, and the draws that fail are inverted again on :func:`binomial_cdf`,
    built once per pair.

    Raises:
        ValueError: if an n_i is negative or above MAX_N, the range over which
            the rows' windows and bound are proven, a p_i is NaN, or a u_i is
            NaN or outside [0, 1).
    """
    n, p, u = np.broadcast_arrays(
        np.asarray(n, dtype=np.int64), np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    )
    ok = (0 <= n) & (n <= MAX_N) & ~np.isnan(p) & (0.0 <= u) & (u < 1.0)
    if not ok.all():
        bad = np.argmin(ok)
        raise ValueError(
            f"draw_binomial needs 0 <= n <= {MAX_N}, p not NaN and u in [0, 1), "
            f"got n = {n.flat[bad]}, p = {p.flat[bad]}, u = {u.flat[bad]}"
        )
    out = np.where(p >= 1.0, n, 0)
    live = (0.0 < p) & (p < 1.0) & (u != 0.0)
    n, p, u = n[live], p[live], u[live]
    # Entries sorted by pair: pair i holds the entries order[bounds[i]:bounds[i + 1]].
    order = np.lexsort((n, p))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (np.diff(n[order]) != 0) | (np.diff(p[order]) != 0)
    bounds = np.append(np.flatnonzero(first), order.size)
    pair_n, pair_p = n[order[first]], p[order[first]]
    draws = np.empty(order.size, dtype=np.int64)
    # F'(k - 1) and F'(k) of each draw, and its row's bound. An entry of an
    # uncut row keeps 0.0, 1.0 and 0.0, which pass the check for any u in (0, 1).
    below, above, slack = np.zeros(order.size), np.ones(order.size), np.zeros(order.size)
    for rows, lo, f, bound in _cdf_blocks(pair_n, pair_p):
        if rows.size == 1:
            at = order[bounds[rows[0]] : bounds[rows[0] + 1]]
            j = np.zeros(at.size, dtype=np.int64)
            k = np.searchsorted(f[0], u[at], side="left")
        else:
            counts = bounds[rows + 1] - bounds[rows]
            j = np.repeat(np.arange(rows.size), counts)
            shift = bounds[rows] + counts - np.cumsum(counts)
            at = order[np.arange(j.size) + shift[j]]
            k = _search_rows(f, j, u[at])
        draws[at] = lo[j] + k
        if bound.any():
            below[at] = np.where(k > 0, f[j, k - 1], 0.0)
            above[at] = f[j, k]
            slack[at] = bound[j]
        # Freed before the next block is built.
        del f
    redo = np.flatnonzero((below >= u - slack) | (above < u + slack))
    if redo.size:
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        pair = np.searchsorted(bounds, rank[redo], side="right") - 1
        for i in np.unique(pair):
            low, g = binomial_cdf(int(pair_n[i]), float(pair_p[i]))
            again = redo[pair == i]
            draws[again] = low + np.searchsorted(g, u[again], side="left")
    out[live] = draws
    return out


def draw_tables(
    n: int | np.ndarray, cells: tuple, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw incomplete 2x2 tables from cell probabilities by binomial chaining.

    Args:
        n: population size (trials of the underlying multinomial), one for
            all rows or one per row.
        cells: (p11, p10, p01, p00) summing to 1, each one for all rows or
            one per row.
        u: uniforms of shape (count, >= 3); column j drives stage j.

    Returns:
        Arrays (x11, x10, x01) of shape (count,). The unobserved cell is
        n - x11 - x10 - x01 implicitly.

    Each stage is one :func:`draw_binomial` call over all rows, so rows
    drawn from different populations share the windows of equal
    (trials, probability) pairs, and each row is drawn as it is alone.
    """
    p11, p10, p01, _ = (np.asarray(c, dtype=float) for c in cells)
    u = np.asarray(u)
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), u.shape[:1])
    x11 = draw_binomial(n, p11, u[:, 0])
    x10 = draw_binomial(n - x11, _cond_prob(p10, 1.0 - p11), u[:, 1])
    x01 = draw_binomial(n - x11 - x10, _cond_prob(p01, 1.0 - p11 - p10), u[:, 2])
    return x11, x10, x01


def _cond_prob(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Conditional stage probability num/denom clipped to [0, 1], element-wise.

    A non-positive denominator means the earlier stages already exhaust the
    population, so no trials remain and the ratio value is irrelevant.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom <= 0.0, 0.0, np.clip(num / denom, 0.0, 1.0))
