"""Log-space likelihood kernels for dual-record population-size estimation.

Every function returns the natural log of a likelihood or pseudo-likelihood,
up to an additive constant free of the argument N (and, where applicable, of
the nuisance parameters being profiled). Values are plain floats (or arrays
for vectorized N); a value of -inf marks a hard zero of the likelihood at a
domain boundary.

Factorial ratios N!/(N-x0)! are evaluated as lgamma(N+1) - lgamma(N-x0+1), and
terms of the form v*ln(v) use the continuous extension 0*ln(0) = 0. N is
accepted as a real (scalars or numpy arrays); estimators report integer
argmaxes.

Kernel catalogue (T is the observed table):
    log_profile_mt(N, T)     profile likelihood of N under independence (M_t)
    log_profile_mtb(N, T)    profile likelihood of N under behavioral
                             response (M_tb); strictly decreasing in N
    log_mpl_mt(N, T)         modified profile likelihood, M_t
    log_mpl_mtb(N, T)        modified profile likelihood, M_tb; strictly
                             increasing in N (no finite maximizer)
    log_adpl_mt(N, T, d)     adjusted profile likelihood, M_t
    log_adpl_mtb(N, T, d)    adjusted profile likelihood, M_tb; finite
                             maximizers exist only for adjustment d < 1
    loglik_mt_full           full log-likelihood in (N, p1., p.1)
    loglik_mtb_full          full log-likelihood in (N, p1., p, c) or
                             (N, p1., p, phi)

Step catalogue: each *_step form returns the first difference l(N+1) - l(N)
of its kernel in a cancellation-free closed form; direct subtraction of
kernel values loses all significance for N beyond ~1e4 because the true
differences are O(N^-3) while the kernel magnitude grows like N*log(N).
    log_profile_mt_step(N, T)       log_profile_mt
    log_mpl_mt_step(N, T)           log_mpl_mt
    log_adpl_mt_step(N, T, d)       log_adpl_mt
    log_profile_mtb_step(N, x0)     log_profile_mtb
    log_mpl_mtb_step(N, x0)         log_mpl_mtb
    log_adpl_mtb_step(N, T, d)      log_adpl_mtb
    step_sign(kind, N, T, d)        exact sign of the step at integer N, for
                                    the kernels the estimators maximize
    step_signs(kind, N, Ts, d)      step_sign row by row over replicate tables
                                    (a TableArrays) with arrays of N and d

The step forms take N, and d, as scalars or as arrays; T is a table, or a
TableArrays whose rows match an array N element by element.

The estimators report the smallest integer N at which the step stops being
positive. The kernels they maximize are unimodal (the step changes sign at
most once, from positive to non-positive; the tests check the result against
a dense grid), so that N is the exact integer argmax. step_sign reads the
sign of the double step form s wherever |s| exceeds its rounding bound, a
fixed multiple of the sum of its terms' magnitudes (see _C), and decides the
rest again from the kernel's closed form in 60-digit decimal arithmetic.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.special import gammaln, xlogy

from .tables import DomainError, DualRecordTable, MtParams, TableArrays

__all__ = [
    "log_profile_mt",
    "log_profile_mtb",
    "log_mpl_mt",
    "log_mpl_mtb",
    "log_adpl_mt",
    "log_adpl_mtb",
    "loglik_mt_full",
    "loglik_mtb_full",
    "log_profile_mt_step",
    "log_mpl_mt_step",
    "log_adpl_mt_step",
    "log_profile_mtb_step",
    "log_mpl_mtb_step",
    "log_adpl_mtb_step",
    "step_sign",
    "step_signs",
]

# Step signs. A double step form sums terms t_i into s; with m = sum |t_i|,
# s lies within _C * _EPS * m of the exact step, so its sign is exact
# wherever |s| exceeds that bound. The budget, in units of _EPS = 2**-52:
# - log1p(1/k): 1/k rounds by 1/2, which log1p carries over (its condition
#   number is below 1 for k > 0), and log1p itself is allowed 4 (numpy's
#   SIMD log1p may be off by a few ulps);
# - each further rounding in a term (k + 1/2 above 2**52, delta - 1, the sum
#   inside the adjusted M_tb penalty, the product) adds 1/2; with at most
#   three, a term is within 6 * |t_i|;
# - the pl-mt ratio term is within 4 * |log1p(ratio)| + 2 * P, where P (see
#   _mt_step) covers the rounding of the ratio's products, difference,
#   denominator and quotient, and m counts |log1p(ratio)| + P for it;
# - at most 7 additions each round a partial sum below m by 1/2: 3.5 * m.
# So the error is below 9.5 * _EPS * m. C = 64 leaves a factor of about 6
# for second-order terms and a coarser log1p. Against _decimal_step, over
# about 8000 probes around the maximizers of random tables, the worst error
# was 1.1 * _EPS * m. The rest, and a NaN or -inf step, are decided again in
# decimal arithmetic at _DIGITS digits.
_C = 64
_EPS = 2.0**-52
_DIGITS = 60


def _as_array(n) -> tuple[np.ndarray, bool]:
    arr = np.asarray(n, dtype=float)
    return arr, arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def _check_domain(n: np.ndarray, bound: float, strict: bool, what: str) -> None:
    bad = n <= bound if strict else n < bound
    if bad.any():
        op = ">" if strict else ">="
        raise DomainError(f"{what} requires N {op} {bound}; got N as low as {np.min(n)}")


def log_profile_mt(n, table: DualRecordTable):
    """Profile log-likelihood of N under the independence model M_t.

    Defined for N >= x0. Equals
    lgamma(N+1) - lgamma(N-x0+1) + (N-x1.)ln(N-x1.) + (N-x.1)ln(N-x.1)
    - 2N ln(N), with 0*ln(0) = 0 at the margins.
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=False, what="log_profile_mt")
    v = (
        gammaln(arr + 1.0)
        - gammaln(arr - table.x0 + 1.0)
        + xlogy(arr - table.x1_dot, arr - table.x1_dot)
        + xlogy(arr - table.x_dot1, arr - table.x_dot1)
        - 2.0 * xlogy(arr, arr)
    )
    return _ret(v, scalar)


def log_profile_mtb(n, table: DualRecordTable):
    """Profile log-likelihood of N under the behavioral model M_tb.

    Defined for N > x0; depends on the table only through x0, and is strictly
    decreasing in N, so its integer maximizer is the lower bound x0 + 1.
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=True, what="log_profile_mtb")
    v = (
        gammaln(arr + 1.0)
        - gammaln(arr - table.x0 + 1.0)
        + xlogy(arr - table.x0, arr - table.x0)
        - xlogy(arr, arr)
    )
    return _ret(v, scalar)


def log_mpl_mt(n, table: DualRecordTable):
    """Modified profile log-likelihood of N under M_t.

    Defined for N >= x0. Equals log_profile_mt(N) + (1/2)ln(N-x1.)
    + (1/2)ln(N-x.1) - ln(N); at N = x1. or N = x.1 the correction is -inf,
    a hard zero of the likelihood.
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=False, what="log_mpl_mt")
    with np.errstate(divide="ignore"):
        v = (
            log_profile_mt(arr, table)
            + 0.5 * np.log(arr - table.x1_dot)
            + 0.5 * np.log(arr - table.x_dot1)
            - np.log(arr)
        )
    return _ret(np.asarray(v), scalar)


def log_mpl_mtb(n, table: DualRecordTable):
    """Modified profile log-likelihood of N under M_tb.

    Defined for N > x0. Equals log_profile_mtb(N) + (1/2)ln(1 - x0/N) and is
    strictly increasing in N: it admits no finite maximizer.
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=True, what="log_mpl_mtb")
    v = log_profile_mtb(arr, table) + 0.5 * (np.log(arr - table.x0) - np.log(arr))
    return _ret(np.asarray(v), scalar)


def log_adpl_mtb(n, table: DualRecordTable, delta: float):
    """Adjusted profile log-likelihood of N under M_tb.

    Defined for N > x0 (which also guarantees N > x1.). Equals
    lgamma(N+1) - lgamma(N-x0+1) + (delta-N-3/2)ln(N)
    + (delta-1)ln(N-x1.) + (N-x0+1/2)ln(N-x0).
    Finite integer maximizers exist only for delta < 1; delta = 1 recovers
    log_mpl_mtb exactly.
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=True, what="log_adpl_mtb")
    delta = float(delta)
    v = (
        gammaln(arr + 1.0)
        - gammaln(arr - table.x0 + 1.0)
        + (delta - arr - 1.5) * np.log(arr)
        + (delta - 1.0) * np.log(arr - table.x1_dot)
        + (arr - table.x0 + 0.5) * np.log(arr - table.x0)
    )
    return _ret(v, scalar)


def log_adpl_mt(n, table: DualRecordTable, delta: float):
    """Adjusted profile log-likelihood of N under M_t.

    Defined for N >= x0. Equals log_mpl_mt(N) + 2(delta-1)ln(N); delta = 1
    recovers log_mpl_mt exactly, and any delta > 1 destroys the finite
    maximizer (the kernel increases without bound).
    """
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=False, what="log_adpl_mt")
    v = log_mpl_mt(arr, table) + 2.0 * (float(delta) - 1.0) * np.log(arr)
    return _ret(np.asarray(v), scalar)


def loglik_mt_full(params: MtParams, table: DualRecordTable):
    """Full log-likelihood under M_t, up to constants free of (N, p1., p.1).

    Equals lgamma(N+1) - lgamma(N-x0+1) + x1. ln(p1.) + (N-x1.) ln(1-p1.)
    + x.1 ln(p.1) + (N-x.1) ln(1-p.1). Maximizing over (p1., p.1) at fixed N
    recovers log_profile_mt(N) up to an N-free constant.
    """
    n = float(params.n)
    if n < table.x0:
        raise DomainError(f"loglik_mt_full requires N >= x0 = {table.x0}; got N = {n}")
    p1, p2 = params.p1_dot, params.p_dot1
    return float(
        gammaln(n + 1.0)
        - gammaln(n - table.x0 + 1.0)
        + table.x1_dot * np.log(p1)
        + (n - table.x1_dot) * np.log1p(-p1)
        + table.x_dot1 * np.log(p2)
        + (n - table.x_dot1) * np.log1p(-p2)
    )


def loglik_mtb_full(
    n,
    p1_dot: float,
    p: float,
    table: DualRecordTable,
    *,
    c: float | None = None,
    phi: float | None = None,
):
    """Full log-likelihood under M_tb, up to constants free of the parameters.

    The likelihood can be parameterized either by the recapture probability c
    directly or by the behavioral effect phi (with c = phi * p); exactly one
    of ``c`` and ``phi`` must be given, and the two forms agree identically
    for matching values. Equals, for N > x0,
    lgamma(N+1) - lgamma(N-x0+1) + x11 ln(c) + x10 ln(1-c)
    + x1. ln(p1.) + (N-x1.) ln(1-p1.) + x01 ln(p) + (N-x0) ln(1-p).
    """
    if (c is None) == (phi is None):
        raise ValueError("specify exactly one of c= or phi=")
    if c is None:
        c = float(phi) * float(p)
    c = float(c)
    if not 0.0 < c < 1.0:
        raise DomainError(f"recapture probability c = {c:.6g} must lie in (0, 1)")
    arr, scalar = _as_array(n)
    _check_domain(arr, table.x0, strict=True, what="loglik_mtb_full")
    v = (
        gammaln(arr + 1.0)
        - gammaln(arr - table.x0 + 1.0)
        + table.x11 * np.log(c)
        + table.x10 * np.log1p(-c)
        + table.x1_dot * np.log(p1_dot)
        + (arr - table.x1_dot) * np.log1p(-p1_dot)
        + table.x01 * np.log(p)
        + (arr - table.x0) * np.log1p(-p)
    )
    return _ret(v, scalar)


def _step_arg(n, bound: float, strict: bool, what: str):
    """N for a step form, domain-checked: a float for scalar N, else an array.

    Scalars stay out of numpy because the argmax search evaluates one N at a
    time, where a numpy expression costs about 40 times its ``math`` form.
    """
    if np.isscalar(n):
        n = float(n)
        if n > bound if strict else n >= bound:
            return n
    arr = np.asarray(n, dtype=float)
    _check_domain(arr, bound, strict, what)
    return arr if arr.ndim else float(arr)


def _dlog(m):
    """ln(m+1) - ln(m) = log1p(1/m), with the limit +inf at m = 0.

    An array m of zeros divides by zero: array callers hold the ``errstate``
    that :func:`_step` enters.
    """
    if isinstance(m, float):
        return math.log1p(1.0 / m) if m > 0 else math.inf
    return np.log1p(1.0 / m)


def _log1p(x):
    """log1p(x), -inf at x = -1 and NaN below, for a scalar as for an array.

    The pl-mt ratio exceeds -1, but rounded it can reach -1 or below when
    its products lie beyond 2**53 and N is near x0. Arrays are evaluated
    under :func:`_step`'s ``errstate``.
    """
    if isinstance(x, float):
        return math.log1p(x) if x > -1.0 else -math.inf if x == -1.0 else math.nan
    return np.log1p(x)


def _g(m):
    """m * log1p(1/m) with the continuous extension g(0) = 0.

    An array m of zeros gives 0 * inf there, so array callers with zeros
    hold :func:`_step`'s ``errstate``.
    """
    if isinstance(m, float):
        return m * math.log1p(1.0 / m) if m > 0 else 0.0
    return np.where(m > 0, m * np.log1p(1.0 / m), 0.0)


def _at_margin(margin, s):
    """s, or +inf where ``margin`` is +inf: N on a margin, the hard zero at N.

    There the pl-mt ratio term can round to -inf, which would make s NaN.
    """
    if isinstance(s, float):
        return math.inf if margin == math.inf else s
    return np.where(margin == math.inf, math.inf, s)


def log_profile_mt_step(n, table: DualRecordTable):
    """Exact first difference log_profile_mt(N+1) - log_profile_mt(N), N >= x0.

    Reduces to log1p((x1.*x.1 - (N+1)*x11) / ((N+1)(N+1-x0)))
    + g(N-x1.) + g(N-x.1) - 2g(N) with g(m) = m*log1p(1/m): the lgamma step
    and the ln(N+1) parts of the v*ln(v) steps combine into one ratio. Its
    numerator is exact while both products stay below 2**53; above, they
    round, and near the maximizer they cancel. Near x0 the rounded ratio can
    reach -1, and the form then gives -inf (at N = x0 on (95000001, 0, 0),
    where the exact step is about -20.37); :func:`step_sign` decides such a
    step again in decimal.
    """
    return _step("pl-mt", n, table, None)[0]


def log_mpl_mt_step(n, table: DualRecordTable):
    """Exact first difference log_mpl_mt(N+1) - log_mpl_mt(N), N >= x0.

    Equals log_profile_mt_step + (1/2)log1p(1/(N-x1.)) + (1/2)log1p(1/(N-x.1))
    - log1p(1/N); +inf where N equals a margin (the hard zero at N), also
    where the profile step's rounded ratio term is -inf there.
    """
    return _step("mpl-mt", n, table, None)[0]


def log_adpl_mt_step(n, table: DualRecordTable, delta):
    """Exact first difference log_adpl_mt(N+1) - log_adpl_mt(N), N >= x0.

    Equals log_mpl_mt_step + 2(delta-1)log1p(1/N); +inf where N equals a
    margin, as log_mpl_mt_step.
    """
    return _step("adpl-mt", n, table, delta)[0]


def log_profile_mtb_step(n, x0: int):
    """Exact first difference log_profile_mtb(N+1) - log_profile_mtb(N).

    Algebraic reduction: the lgamma and v*ln(v) terms collapse to
    g(N-x0) - g(N) with g(m) = m*log1p(1/m), which is strictly increasing in
    m, so the step is strictly negative for all N > x0 (the profile kernel
    decreases). This form stays accurate where direct subtraction of kernel
    values underflows to rounding noise.
    """
    n = _step_arg(n, x0, strict=True, what="log_profile_mtb_step")
    return _g(n - x0) - _g(n)


def log_mpl_mtb_step(n, x0: int):
    """Exact first difference log_mpl_mtb(N+1) - log_mpl_mtb(N).

    Reduces to f(N-x0) - f(N) with f(m) = (m+1/2)*log1p(1/m), strictly
    decreasing in m, so the step is strictly positive for all N > x0 (the
    modified profile kernel increases; no finite maximizer exists).
    """
    n = _step_arg(n, x0, strict=True, what="log_mpl_mtb_step")
    m = n - x0
    return (m + 0.5) * _dlog(m) - (n + 0.5) * _dlog(n)


def log_adpl_mtb_step(n, table: DualRecordTable, delta):
    """Exact first difference log_adpl_mtb(N+1) - log_adpl_mtb(N), N > x0.

    Equals log_mpl_mtb_step + (delta-1)[log1p(1/N) + log1p(1/(N-x1.))].
    """
    return _step("adpl-mtb", n, table, delta)[0]


def _mt_step(kind: str, n, table, delta):
    """The M_t step of ``kind`` ("pl-mt", "mpl-mt" or "adpl-mt") and its magnitude.

    Returns (s, m): s as the public step form sums it, m the sum of its
    terms' magnitudes (see _C). The ratio term's magnitude adds to
    |log1p(ratio)| the bound P = (x1.*x.1 + (N+1)*x11) / ((N+1-x1.)(N+1-x.1))
    on its rounding: the two products round above 2**53, and the derivative
    1/(1+ratio) of log1p turns their error, relative to the denominator
    (N+1)(N+1-x0), into one relative to (N+1-x1.)(N+1-x.1).
    """
    a, b = table.x1_dot, table.x_dot1
    n1 = n + 1.0
    # (N+1-x1.)(N+1-x.1) - (N+1)(N+1-x0) = x1.*x.1 - (N+1)*x11
    ab, nx = a * b, n1 * table.x11
    log_ratio = _log1p((ab - nx) / (n1 * (n1 - table.x0)))
    ga, gb, gn = _g(n - a), _g(n - b), 2.0 * _g(n)
    s = log_ratio + ga + gb - gn
    m = abs(log_ratio) + (ab + nx) / ((n1 - a) * (n1 - b)) + ga + gb + gn
    if kind == "pl-mt":
        return s, m
    ha, hb, hn = 0.5 * _dlog(n - a), 0.5 * _dlog(n - b), _dlog(n)
    s = s + ha + hb - hn
    m = m + ha + hb + hn
    if kind == "adpl-mt":
        penalty = 2.0 * (delta - 1.0) * hn
        s, m = s + penalty, m + abs(penalty)
    return _at_margin(ha + hb, s), m


def _mtb_step(n, table, delta):
    """The adjusted M_tb step and its magnitude (s, m), as :func:`_mt_step`."""
    hn = _dlog(n)
    rest = n - table.x0
    fr, fn = (rest + 0.5) * _dlog(rest), (n + 0.5) * hn
    penalty = (delta - 1.0) * (hn + _dlog(n - table.x1_dot))
    return fr - fn + penalty, fr + fn + abs(penalty)


_STEP_FORMS = {
    "pl-mt": "log_profile_mt_step",
    "mpl-mt": "log_mpl_mt_step",
    "adpl-mt": "log_adpl_mt_step",
    "adpl-mtb": "log_adpl_mtb_step",
}


def _step(kind: str, n, table, delta):
    """The double step form of the kernel that estimator ``kind`` maximizes.

    Returns (s, m): the step l(N+1) - l(N) and the sum of its terms'
    magnitudes, which bounds its rounding error by _C * _EPS * m. Arrays are
    evaluated under one ``errstate``: a margin divides by zero, and a NaN or
    -inf step is left to :func:`step_sign`'s decimal recheck.
    """
    if kind not in _STEP_FORMS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    strict = kind == "adpl-mtb"
    n = _step_arg(n, table.x0, strict, what=_STEP_FORMS[kind])
    if isinstance(n, float):
        return _mtb_step(n, table, delta) if strict else _mt_step(kind, n, table, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mtb_step(n, table, delta) if strict else _mt_step(kind, n, table, delta)


def step_sign(kind: str, n: int, table: DualRecordTable, delta: float = 1.0) -> int:
    """Exact sign (-1, 0 or 1) of the kernel step l(N+1) - l(N) at integer N.

    ``kind`` names the kernel by the estimator that maximizes it: "pl-mt",
    "mpl-mt", "adpl-mt" or "adpl-mtb" (``delta`` applies to the last two).
    The double-precision step form s decides wherever |s| exceeds its
    rounding bound _C * _EPS * m, with m the sum of its terms' magnitudes,
    and at +inf (N on a margin). Elsewhere, near the maximizer of a large
    table where the true step (about 1e-17 at N = 8e5) is below the bound,
    and where s is NaN or -inf, the sign is decided again from the step's
    closed form in decimal arithmetic.
    """
    s, m = _step(kind, n, table, delta)
    if abs(s) > _C * _EPS * m or s == math.inf:
        return 1 if s > 0 else -1
    exact = _decimal_step(kind, int(n), table, delta)
    return (exact > 0) - (exact < 0)


def step_signs(kind: str, n, tables: TableArrays, delta=1.0) -> np.ndarray:
    """:func:`step_sign` of every row: N[i] on table i at delta[i].

    One array evaluation of the double step form decides every element
    outside its rounding bound, as step_sign does; each of the others is
    decided again in decimal, one at a time. Since both forms give the exact
    sign, the result equals step_sign row by row.
    """
    n = np.asarray(n, dtype=float)
    s, m = _step(kind, n, tables, delta)
    signs = np.where(s > 0, 1, -1)
    decided = (np.abs(s) > _C * _EPS * m) | (s == math.inf)
    if not decided.all():
        deltas = np.broadcast_to(delta, n.shape)
        for i in np.flatnonzero(~decided):
            exact = _decimal_step(kind, int(n[i]), tables.row(i), float(deltas[i]))
            signs[i] = (exact > 0) - (exact < 0)
    return signs


def _decimal_step(kind: str, n: int, table: DualRecordTable, delta: float) -> Decimal:
    """l(N+1) - l(N) from the kernel's closed form, in _DIGITS-digit decimal.

    Only logs of integers appear, so the result is exact to well below 1e-40
    for N up to 1e8; delta enters as the exact value of its double.
    """
    a, b, x0 = table.x1_dot, table.x_dot1, table.x0
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        half = Decimal("0.5")
        d1 = Decimal(delta) - 1

        @functools.cache
        def ln(k):
            return Decimal(k).ln()

        def xlnx(k):
            return k * ln(k) if k else Decimal(0)

        def diff(f):
            return f(n + 1) - f(n)

        lgamma_step = ln(n + 1) - ln(n + 1 - x0)  # lgamma(N+1) - lgamma(N-x0+1)
        if kind == "adpl-mtb":
            return lgamma_step + diff(
                lambda m: (d1 - m - half) * ln(m)  # (delta - N - 3/2) ln N
                + d1 * ln(m - a)
                + (m - x0 + half) * ln(m - x0)
            )
        s = lgamma_step + diff(lambda m: xlnx(m - a) + xlnx(m - b) - 2 * xlnx(m))
        if kind != "pl-mt":
            s += diff(lambda m: (ln(m - a) + ln(m - b)) / 2 - ln(m))
        if kind == "adpl-mt":
            s += 2 * d1 * diff(ln)
        return s

