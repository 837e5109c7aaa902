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
version of a rejection sampler. Each CDF is built only over a window sized by
a Bernstein tail bound (about 39.2 sd either side of the mean at large n)
outside which it is exactly 0.0 or 1.0 in double, so a draw at n = 1e9 holds
about a million doubles, not a billion, and the draws equal inversion of the
full n + 1 point CDF bit for bit. The stages after the first draw from many
trial counts at once; :func:`draw_binomial` sizes all their windows in closed
form, evaluates ``gammaln`` once over the windows' span, and builds the
windows as rows of padded blocks of about 2**14 doubles, each with one
row-wise cumulative sum. A window wider than that is a block of one row and
reads the same shared log-factorials, so the nearly overlapping windows of
one stage evaluate ``gammaln`` about once over their span, not once each.
:func:`binomial_cdf` stays the reference, and builds the rare window whose
edge check fails.
Nothing is cached: the replicate tables of a study rarely repeat an (n, p)
pair (none of 382 builds repeat in the ``table3`` study, about 15% in the
small-N figure studies, none at n = 1e6), so a kept window would seldom be
looked up again.
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
# windows and their accuracy are documented (a draw at 1e9 holds about a
# million doubles; the windows grow as sqrt(N)).
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
# CDF window excludes only terms at least this far below the largest one; the
# margin of 0.87 covers the log-pmf's rounding, about 1e-5 at n = 1e9.
_UNDERFLOW_LOG = 746.0
# Doubles per padded block of CDF windows in draw_binomial (128 KiB).
_BLOCK = 2**14


def _logpmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """Binomial(n, p) log-pmf, element-wise over an array of k."""
    return (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )


def _reach(n, p: float):
    """Mean and half-width d of the closed-form window of Binomial(n, p); n may be an array.

    Bernstein: P(|X - np| >= t) <= exp(-t**2 / (2(np(1 - p) + t/3))), which
    is exp(-c) at t = d; the pmf at the mode is at least 1/(n + 1), so every k
    at distance d or more lies _UNDERFLOW_LOG or more below the largest
    log-pmf.
    """
    mean = n * p
    c = _UNDERFLOW_LOG + np.log(n + 1.0)
    return mean, c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * mean * (1.0 - p))


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
    ``lo <= k <= hi``. The window is [np - d, np + d] clipped to [0, n],
    with c = 746 + ln(n + 1) and d = c/3 + sqrt(c**2/9 + 2c np(1 - p)):
    about 39.2 sd either side of the mean at large n, so it costs
    O(sqrt(n p (1 - p))) memory, not O(n). Every term exp(logpmf(k) - max)
    outside it underflows to exactly 0.0, which makes ``f`` bit for bit the
    slice [lo, hi] of the full n + 1 point CDF built the same way (log
    probabilities, one cumulative sum, division by the total, last value
    pinned to 1): the full CDF is exactly 0.0 below ``lo`` and 1.0 from
    ``hi`` on. Each edge term is checked to be 0.0 (unless the edge is 0 or
    n), and d doubled until it is; by the bound, one build is enough.

    Raises:
        ValueError: unless 0 < p < 1 (``draw_binomial`` handles the ends).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    mean, d = _reach(n, p)
    while True:
        lo, hi = max(0, math.floor(mean - d)), min(n, math.ceil(mean + d))
        logpmf = _logpmf(n, p, np.arange(lo, hi + 1, dtype=float))
        terms = np.exp(logpmf - logpmf.max())
        if (lo == 0 or terms[0] == 0.0) and (hi == n or terms[-1] == 0.0):
            break
        d *= 2.0
    f = np.cumsum(terms)
    f /= f[-1]
    f[-1] = 1.0
    return lo, f


class _LogFactorial:
    """ln(x!) = gammaln(x + 1.0) for integers x within [a, b].

    Evaluated once over [a, b] when that span holds fewer than ``budget``
    points, else on each lookup, so trial counts spread far apart never
    make a run span their whole range; gammaln is element-wise, so both
    give the same doubles.
    """

    def __init__(self, a: int, b: int, budget: int):
        self.a = a
        self.table = None
        if b - a < budget:
            self.table = gammaln(np.arange(a, b + 1, dtype=float) + 1.0)

    def at(self, x: np.ndarray) -> np.ndarray:
        """Values at an integer array x."""
        if self.table is None:
            return gammaln(x + 1.0)
        return self.table[x - self.a]

    def run(self, start: int, stop: int) -> np.ndarray:
        """Values at start, start + 1, ..., stop - 1: a slice of the table when there is one."""
        if self.table is None:
            return gammaln(np.arange(start, stop, dtype=float) + 1.0)
        return self.table[start - self.a : stop - self.a]


def _cdf_block(n, p: float, lo, width, log_fact_k, log_fact_nk):
    """CDF windows of Binomial(n[i], p) over [lo[i], lo[i] + width[i]) as rows of one array.

    Row i is the ``f`` of :func:`binomial_cdf` on that window, padded with
    1.0: the log-pmf is computed element-wise as :func:`_logpmf` does and
    padded with -inf, whose exact 0.0 terms leave each row's cumulative sum
    and total as they are. Returns the rows and a mask of the rows whose
    edge terms are 0.0 (or at 0 or n), as :func:`binomial_cdf` checks.
    """
    hi = lo + width - 1
    if n.size == 1:
        # A row alone reads its log-factorials as slices: k forward, n - k reversed.
        k = np.arange(lo[0], hi[0] + 1, dtype=float)[None]
        lf_k = log_fact_k.run(lo[0], hi[0] + 1)
        lf_nk = log_fact_nk.run(n[0] - hi[0], n[0] - lo[0] + 1)[::-1]
    else:
        cols = np.arange(width.max())
        k = np.minimum(lo[:, None] + cols, hi[:, None])
        lf_k = log_fact_k.at(k)
        lf_nk = log_fact_nk.at(n[:, None] - k)
        # ln(k!) = inf makes the log-pmf of each padding column -inf.
        lf_k[cols >= width[:, None]] = np.inf
    # The terms of _logpmf, subtracted and added in its order, in place.
    f = gammaln(n + 1.0)[:, None] - lf_k
    f -= lf_nk
    del lf_k, lf_nk
    f += k * np.log(p)
    k = n[:, None] - k
    f += k * np.log1p(-p)
    del k
    f -= f.max(axis=1, keepdims=True)
    np.exp(f, out=f)
    last = f[np.arange(n.size), width - 1]
    ok = ((lo == 0) | (f[:, 0] == 0.0)) & ((hi == n) | (last == 0.0))
    np.cumsum(f, axis=1, out=f)
    # Each row's total is its last column; total / total is exactly 1.0, so
    # every column from the window's last on holds 1.0, as pinned in binomial_cdf.
    f /= f[:, -1:].copy()
    return f, ok


def _cdfs(n: np.ndarray, p: float):
    """(i, lo, f) for each of the distinct trial counts n: f is binomial_cdf(n[i], p)[1].

    The windows of :func:`binomial_cdf` come from the closed form for all n at
    once and are built in padded blocks of about _BLOCK doubles, rows sorted
    by width; a window wider than a block is a block of its own. Every
    window reads its log-factorials from two runs shared by the call, one
    over the windows' k span and one over their n - k span (see
    :class:`_LogFactorial`). A window whose edge check fails is built by
    :func:`binomial_cdf` itself. Any window holding every non-zero term
    gives the same CDF values, so the draws do not depend on which rows
    share a block.
    """
    if not n.size:
        return
    mean, d = _reach(n, p)
    lo = np.maximum(0, np.floor(mean - d)).astype(np.int64)
    hi = np.minimum(n, np.ceil(mean + d)).astype(np.int64)
    width = hi - lo + 1
    budget = int(width.sum())
    log_fact_k = _LogFactorial(lo.min(), hi.max(), budget)
    log_fact_nk = _LogFactorial((n - hi).min(), (n - lo).max(), budget)
    by_width = np.argsort(width, kind="stable")
    start = 0
    while start < n.size:
        # The most rows whose padded block (rows x widest row) fits _BLOCK, at least one.
        w = width[by_width[start:]]
        count = max(1, np.searchsorted(np.arange(1, w.size + 1) * w, _BLOCK, side="right"))
        rows = by_width[start : start + count]
        start += count
        f, ok = _cdf_block(n[rows], p, lo[rows], width[rows], log_fact_k, log_fact_nk)
        for j, i in enumerate(rows):
            if ok[j]:
                yield i, lo[i], f[j, : width[i]]
            else:
                yield (i, *binomial_cdf(int(n[i]), p))


def draw_binomial(n: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    """Invert Binomial(n_i, p) at uniform u_i in [0, 1) for each i.

    Each draw is the smallest k with F(k) >= u_i on the full CDF, found in
    the window of :func:`binomial_cdf`; u_i == 0.0 gives 0, as it does on
    the full CDF's leading zeros. The trial counts may differ across
    entries; each distinct count's window is built once per call, in the
    padded blocks of :func:`_cdfs`, wide windows as blocks of one row.
    """
    n = np.asarray(n)
    u = np.asarray(u)
    out = np.zeros(n.shape, dtype=np.int64)
    if p <= 0.0:
        return out
    if p >= 1.0:
        return n.astype(np.int64)
    values, row = np.unique(n, return_inverse=True)
    order = np.argsort(row, kind="stable")
    bounds = np.searchsorted(row[order], np.arange(values.size + 1))
    for i, lo, f in _cdfs(values, p):
        idx = order[bounds[i] : bounds[i + 1]]
        out[idx] = lo + np.searchsorted(f, u[idx], side="left")
    out[u == 0.0] = 0
    return out


def draw_tables(
    n: int, cells: tuple[float, float, float, float], u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw incomplete 2x2 tables from cell probabilities by binomial chaining.

    Args:
        n: population size (trials of the underlying multinomial).
        cells: (p11, p10, p01, p00) summing to 1.
        u: uniforms of shape (count, >= 3); column j drives stage j.

    Returns:
        Arrays (x11, x10, x01) of shape (count,). The unobserved cell is
        n - x11 - x10 - x01 implicitly.
    """
    p11, p10, p01, _ = cells
    u = np.asarray(u)
    count = u.shape[0]
    x11 = draw_binomial(np.full(count, n, dtype=np.int64), p11, u[:, 0])
    x10 = draw_binomial(n - x11, _cond_prob(p10, 1.0 - p11), u[:, 1])
    x01 = draw_binomial(n - x11 - x10, _cond_prob(p01, 1.0 - p11 - p10), u[:, 2])
    return x11, x10, x01


def _cond_prob(num: float, denom: float) -> float:
    """Conditional stage probability num/denom clipped to [0, 1].

    A non-positive denominator means the earlier stages already exhaust the
    population, so no trials remain and the ratio value is irrelevant.
    """
    if denom <= 0.0:
        return 0.0
    return min(max(num / denom, 0.0), 1.0)
