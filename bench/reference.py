"""Reference computations the benchmark checks the program against.

Nothing here imports ``dualrec``. Each result is derived from the
published definitions:

- the sampler: counter-based Philox blocks at the documented address
  (key = (seed, purpose << 32 | unit), block r at counter r, uniforms
  (word >> 11) * 2**-53) and binomial inversion through scipy's CDF, every
  draw k checked to satisfy F(k - 1) < u <= F(k);
- the estimators: closed forms for ``dse`` (x1. * x.1 / x11) and ``pl-mtb``
  (x0 + 1), and for the likelihood methods the exact integer argmax of the
  kernel, found by bisection on the sign of the first difference
  l(N + 1) - l(N). The difference is evaluated in a cancellation-free
  double-precision form; wherever it is within ``STEP_TOL`` of zero its
  sign is decided again from the kernel's closed form in 60-digit
  ``mpmath``. Bisection assumes the step changes sign once (positive, then
  non-positive); ``bench/tests`` checks that against a dense grid;
- the N-dependent adjustment policies: the candidate fixed point, i.e. the
  iteration N -> argmax_N l(N; delta(N)) from round(DSE), with a cycle
  reported as its smallest member, run on exact argmaxes;
- study summaries: mean, sample s.d., RMSE, type-7 percentiles and
  failure counts of replicate estimates from independently drawn tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from numpy.random import Philox
from scipy.stats import binom

from designs import conditional_p

# The estimators report "no finite maximum" beyond this size.
CEILING = 10**8
# Absolute error of the double-precision step forms is below 1e-14 (a
# handful of O(1) terms, each within a few ulps); any step closer to zero
# than this is re-evaluated in mpmath.
STEP_TOL = 1e-10
MP_DIGITS = 60


# ---------------------------------------------------------------- sampler


def cells(p1_dot: float, p_dot1: float, phi: float) -> tuple[float, float, float]:
    """(p11, p10, p01) of the behavioral model at the given marginals."""
    p = conditional_p(p1_dot, p_dot1, phi)
    if p is None:
        raise ValueError(f"infeasible design p1.={p1_dot} p.1={p_dot1} phi={phi}")
    c = phi * p
    return p1_dot * c, p1_dot * (1.0 - c), (1.0 - p1_dot) * p


def uniforms(seed: int, purpose: int, unit: int, count: int) -> np.ndarray:
    """Uniforms of blocks 0..count-1 at (seed, purpose, unit); shape (count, 4)."""
    key = np.array([seed % 2**64, (purpose << 32) | unit], dtype=np.uint64)
    words = Philox(key=key, counter=[0, 0, 0, 0]).random_raw(4 * count)
    return (words.reshape(count, 4) >> np.uint64(11)).astype(float) * 2.0**-53


def invert_binomial(n: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    """Smallest k with F(k) >= u for Binomial(n_i, p), F from scipy.

    Raises RuntimeError unless every draw satisfies F(k - 1) < u <= F(k).
    """
    n = np.asarray(n, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    if p <= 0.0:
        return np.zeros_like(n)
    if p >= 1.0:
        return n.copy()
    k = np.clip(np.nan_to_num(binom.ppf(u, n, p), nan=0.0).astype(np.int64), 0, n)
    # ppf can land one off near a CDF step: move until F(k-1) < u <= F(k).
    for _ in range(4):
        up = (binom.cdf(k, n, p) < u) & (k < n)
        down = (k > 0) & (binom.cdf(k - 1, n, p) >= u)
        k = k + up - down
    if not draws_ok(k, n, p, u):
        raise RuntimeError(f"binomial inversion off its CDF step (p = {p})")
    return k


def draws_ok(k: np.ndarray, n: np.ndarray, p: float, u: np.ndarray) -> bool:
    """True when every draw satisfies F(k - 1) < u <= F(k)."""
    hi = binom.cdf(k, n, p)
    lo = np.where(k > 0, binom.cdf(k - 1, n, p), 0.0)
    valid = ((lo < u) & (u <= hi)) | ((u == 0.0) & (k == 0))
    return bool(np.all(valid))


def _stage(num: float, denom: float) -> float:
    return 0.0 if denom <= 0.0 else min(max(num / denom, 0.0), 1.0)


def draw_tables(n: int, p11: float, p10: float, p01: float, u: np.ndarray):
    """Replicate tables (x11, x10, x01) by chained binomial inversion."""
    count = u.shape[0]
    x11 = invert_binomial(np.full(count, n), p11, u[:, 0])
    x10 = invert_binomial(n - x11, _stage(p10, 1.0 - p11), u[:, 1])
    x01 = invert_binomial(n - x11 - x10, _stage(p01, 1.0 - p11 - p10), u[:, 2])
    return x11, x10, x01


def study_tables(seed, purpose, unit, n, design_cells, replicates):
    u = uniforms(seed, purpose, unit, replicates)
    return draw_tables(n, *design_cells, u)


# ------------------------------------------------------- kernels and steps


def _h(m: np.ndarray) -> np.ndarray:
    """m * log1p(1/m), with h(0) = 0."""
    out = np.zeros_like(m)
    pos = m > 0
    out[pos] = m[pos] * np.log1p(1.0 / m[pos])
    return out


def step_f64(kind, n, x11, x10, x01, delta):
    """l(N + 1) - l(N) in double precision, elementwise over arrays."""
    n = np.asarray(n, dtype=float)
    x11 = np.asarray(x11, dtype=float)
    a = x11 + x10
    b = x11 + x01
    x0 = a + x01
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "adpl-mtb":
            m = n - x0
            return (_h(m) - _h(n) + 0.5 * np.log1p(1.0 / m)
                    + (delta - 1.5) * np.log1p(1.0 / n)
                    + (delta - 1.0) * np.log1p(1.0 / (n - a)))
        # (N+1-a)(N+1-b) - (N+1)(N+1-x0) = a*b - (N+1)*x11
        s = (np.log1p((a * b - (n + 1.0) * x11) / ((n + 1.0) * (n + 1.0 - x0)))
             + _h(n - a) + _h(n - b) - 2.0 * _h(n))
        if kind == "pl-mt":
            return s
        s = s + 0.5 * np.log1p(1.0 / (n - a)) + 0.5 * np.log1p(1.0 / (n - b)) - np.log1p(1.0 / n)
        if kind == "mpl-mt":
            return s
        return s + 2.0 * (delta - 1.0) * np.log1p(1.0 / n)


def kernel_mp(kind, n, x11, x10, x01, delta=None):
    """The kernel's closed form at integer N, in mpmath."""
    mp = mpmath.mp
    n = mpmath.mpf(int(n))
    a, b = x11 + x10, x11 + x01
    x0 = a + x01

    def xlogx(v):
        return mpmath.mpf(0) if v == 0 else v * mp.log(v)

    lg = mp.loggamma(n + 1) - mp.loggamma(n - x0 + 1)
    if kind == "adpl-mtb":
        d = mpmath.mpf(delta)
        return lg + (d - n - 1.5) * mp.log(n) + (d - 1) * mp.log(n - a) + (n - x0 + 0.5) * mp.log(n - x0)
    v = lg + xlogx(n - a) + xlogx(n - b) - 2 * xlogx(n)
    if kind == "pl-mt":
        return v
    v += (mp.log(n - a) + mp.log(n - b)) / 2 - mp.log(n)
    if kind == "mpl-mt":
        return v
    return v + 2 * (mpmath.mpf(delta) - 1) * mp.log(n)


def step_mp(kind, n, x11, x10, x01, delta=None):
    with mpmath.workdps(MP_DIGITS):
        return kernel_mp(kind, n + 1, x11, x10, x01, delta) - kernel_mp(kind, n, x11, x10, x01, delta)


def _step_sign(kind, n, x11, x10, x01, delta):
    """Sign-exact steps: doubles, with mpmath where the double is near zero."""
    s = step_f64(kind, n, x11, x10, x01, delta)
    for i in np.nonzero(~(np.abs(s) >= STEP_TOL))[0]:
        d = None if delta is None else float(np.broadcast_to(delta, s.shape)[i])
        s[i] = float(mpmath.sign(step_mp(kind, int(n[i]), int(x11[i]), int(x10[i]), int(x01[i]), d)))
    return s


def argmax(kind, lower, x11, x10, x01, delta=None):
    """Exact integer argmax over [lower, CEILING] of each table's kernel.

    Returns an int64 array; -1 marks a kernel still increasing at CEILING.
    """
    lower = np.asarray(lower, dtype=np.int64)
    x11, x10, x01 = (np.asarray(v, dtype=np.int64) for v in (x11, x10, x01))
    if delta is not None:
        delta = np.broadcast_to(np.asarray(delta, dtype=float), lower.shape)
    span = np.maximum(lower, 16)
    hi = lower + span
    pending = np.ones(lower.shape, dtype=bool)
    while pending.any():
        idx = np.nonzero(pending)[0]
        d = None if delta is None else delta[idx]
        s = _step_sign(kind, hi[idx], x11[idx], x10[idx], x01[idx], d)
        rising = s > 0
        pending[idx[~rising]] = False
        grow = idx[rising]
        hi[grow] = lower[grow] + 2 * (hi[grow] - lower[grow])
        over = grow[hi[grow] > CEILING]
        hi[over] = -1
        pending[over] = False
    ok = hi >= 0
    lo = lower - 1
    while True:
        active = np.nonzero(ok & (hi - lo > 1))[0]
        if active.size == 0:
            break
        mid = (lo[active] + hi[active]) // 2
        d = None if delta is None else delta[active]
        s = _step_sign(kind, mid, x11[active], x10[active], x01[active], d)
        down = s <= 0
        hi[active[down]] = mid[down]
        lo[active[~down]] = mid[~down]
    return np.where(ok, hi, -1)


# ------------------------------------------------------------- estimators


@dataclass(frozen=True)
class Descriptor:
    """An estimator descriptor string, parsed."""

    method: str
    policy: str | None = None
    k: float | None = None
    oracle: bool = False

    @classmethod
    def parse(cls, text: str) -> "Descriptor":
        oracle = text.endswith("@oracle")
        body = text[: -len("@oracle")] if oracle else text
        parts = body.split(":")
        if len(parts) == 1:
            return cls(parts[0], oracle=oracle)
        return cls(parts[0], parts[1], float(parts[2]), oracle)


def _delta(desc: Descriptor, n, x11, x10):
    """Adjustment at size n, in the same floating-point order as its definition."""
    if desc.policy == "fixed":
        return np.full(np.shape(n), desc.k)
    n = np.asarray(n, dtype=float)
    if desc.policy == "scaled":
        return 1.0 - desc.k / n
    c_hat = np.asarray(x11, dtype=float) / (np.asarray(x11) + np.asarray(x10))
    return 1.0 - desc.k * (1.0 - c_hat) / n


def estimate(desc, x11, x10, x01, true_n=None):
    """Reference estimates for arrays of tables.

    Returns (n_hat float array, delta array or None, ok bool array); entries
    with ok False are replicates on which the estimator is undefined.
    """
    desc = Descriptor.parse(desc) if isinstance(desc, str) else desc
    x11, x10, x01 = (np.asarray(v, dtype=np.int64) for v in (x11, x10, x01))
    x0 = x11 + x10 + x01
    a, b = x11 + x10, x11 + x01
    ok = x0 > 0
    if desc.method == "dse":
        ok &= x11 > 0
        n_hat = np.array([float(Fraction(int(p) * int(q), int(r))) if good else math.nan
                          for p, q, r, good in zip(a, b, x11, ok)])
        return n_hat, None, ok
    if desc.method == "pl-mtb":
        return (x0 + 1).astype(float), None, ok
    if desc.method in ("pl-mt", "mpl-mt"):
        ok &= x11 > 0
        out = np.full(x0.shape, math.nan)
        i = np.nonzero(ok)[0]
        out[i] = argmax(desc.method, x0[i], x11[i], x10[i], x01[i])
        return out, None, ok
    ok &= a > 0
    if desc.method == "adpl-mtb" and desc.policy == "recapture":
        ok &= x10 > 0  # c_hat = 1 gives delta = 1: no finite maximum
    lower = x0 + 1 if desc.method == "adpl-mtb" else x0
    out = np.full(x0.shape, math.nan)
    deltas = np.full(x0.shape, math.nan)
    i = np.nonzero(ok)[0]
    if desc.policy == "fixed" or desc.oracle:
        at = np.full(i.shape, float(true_n if desc.oracle else 1.0))
        d = _delta(desc, at, x11[i], x10[i])
        out[i] = argmax(desc.method, lower[i], x11[i], x10[i], x01[i], d)
        deltas[i] = d
    else:
        out[i] = _fixed_point(desc, lower[i], x11[i], x10[i], x01[i])
        deltas[i] = _delta(desc, out[i], x11[i], x10[i])
    return out, deltas, ok


def _fixed_point(desc, lower, x11, x10, x01, max_iter=60):
    """Candidate fixed point N = argmax l(.; delta(N)) from round(DSE)."""
    a, b = x11 + x10, x11 + x01
    anchor = np.where(x11 > 0, np.rint(a * b / np.maximum(x11, 1)), 2 * (a + x01))
    count = lower.size
    path = np.zeros((count, max_iter + 1), dtype=np.int64)
    path[:, 0] = np.maximum(anchor.astype(np.int64), lower + 1)
    result = np.full(count, -1, dtype=np.int64)
    live = np.arange(count)
    for it in range(max_iter):
        if live.size == 0:
            break
        cur = path[live, it]
        d = _delta(desc, cur, x11[live], x10[live])
        nxt = argmax(desc.method, lower[live], x11[live], x10[live], x01[live], d)
        same = nxt == cur
        result[live[same]] = nxt[same]
        hit = (path[live, : it + 1] == nxt[:, None]) & ~same[:, None]
        cyc = hit.any(axis=1)
        for j in np.nonzero(cyc)[0]:
            start = int(np.argmax(hit[j]))
            result[live[j]] = path[live[j], start: it + 1].min()
        moving = ~(same | cyc)
        path[live[moving], it + 1] = nxt[moving]
        live = live[moving]
    result[live] = path[live, max_iter]
    return result


# -------------------------------------------------------------- summaries


def percentile(sorted_values: np.ndarray, q: float) -> float:
    """Type-7 (linear interpolation) percentile of sorted values, q in [0, 100]."""
    h = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return float(sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo]))


@dataclass(frozen=True)
class Summary:
    mean: float
    se: float
    rmse: float
    ci_low: float
    ci_high: float
    failures: int
    delta_used: float | None


def summarize(n_hat, deltas, ok, true_n) -> Summary:
    est = np.sort(n_hat[ok])
    failures = int((~ok).sum())
    count = est.size
    if count < 2:
        return Summary(math.nan, math.nan, math.nan, math.nan, math.nan, failures, None)
    mean = math.fsum(est) / count
    var = math.fsum((v - mean) ** 2 for v in est) / (count - 1)
    rmse = math.sqrt(math.fsum((v - true_n) ** 2 for v in est) / count)
    delta_used = None if deltas is None else math.fsum(deltas[ok]) / count
    return Summary(mean, math.sqrt(var), rmse, percentile(est, 2.5), percentile(est, 97.5),
                   failures, delta_used)


def expected_distinct(n, p1_dot, p_dot1, phi) -> float:
    p = conditional_p(p1_dot, p_dot1, phi)
    return n * (1.0 - (1.0 - p1_dot) * (1.0 - p))


def ols_slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
