"""Point estimators of population size for dual-record data.

Each estimator takes an observed :class:`~dualrec.tables.DualRecordTable` and
returns an :class:`EstimateReport`. Likelihood-based estimators return the
exact integer argmax of their kernel: the first N at which the step
l(N+1) - l(N) stops being positive, found on the exact step signs of
:func:`dualrec.kernels.step_sign` by a search that starts from a guess,
gallops away from it until the sign flips and bisects the last gap, up to a
hard ceiling beyond which "no finite maximum" is reported; the dual-system
estimator and the behavioral boundary estimate are closed-form.

Estimator catalogue (descriptor strings in parentheses):
    dse                 x1.*x.1/x11, the classical dual-system / independence
                        estimator ("dse")
    mle_profile_mt      profile-likelihood MLE under independence ("pl-mt")
    mle_mpl_mt          modified-profile MLE under independence ("mpl-mt")
    mle_profile_mtb     boundary MLE x0+1 under behavioral response ("pl-mtb";
                        always degenerate)
    mle_adpl_mtb        adjusted-profile MLE under behavioral response
                        ("adpl-mtb:<policy>")
    mle_adpl_mt         adjusted-profile MLE under independence
                        ("adpl-mt:<policy>")

Adjustment policies (textual forms): ``fixed:<v>`` uses the constant v;
``scaled:<k>`` uses delta = 1 - k/N; ``recapture:<k>`` uses
delta = 1 - k*(1-c_hat)/N with c_hat = x11/x1. For the N-dependent policies
the estimate is the self-consistent fixed point N_hat = argmax_N l(N;
delta(N_hat)), found by iterating from the dual-system estimate
("candidate" mode). That map is nondecreasing in N, so the iterates are
monotone and reach the nearest fixed point on their side of the anchor; an
estimate still moving after 60 solves fails with NoFiniteMaximumError. In
simulation settings the ``@oracle`` descriptor suffix selects "oracle" mode,
in which delta is evaluated once at the known generating N (``oracle_n`` of
the adjusted solvers); the two modes genuinely differ, and the study tables
report both.

Each method has one solver, its entry in the registry ``_METHODS``: a batch
solver of replicate cell arrays. :meth:`EstimatorSpec.estimate_batch` runs
it on many rows. :meth:`EstimatorSpec.estimate` and the public functions
run it on a single table as a one-row batch whose failure rule raises,
where a batch leaves the failed row NaN, and then only build the report
(nuisance values, the plug-in se of dse, flags and notes). A selection of
every row gives back the arrays it was given, and the scalar search reads
the row's four counts as integers, so the one-row batch copies no table
arrays and validates no table again. So each
estimator's rules (its closed form or search, its guards, its failures and
their messages, the fixed-point iteration) are written once. A table's
total x0 stays below 2**53, so every count, margin and x0 + 1 the solvers
read is an exact double. Each search starts from a guess: round(DSE) for
pl-mt and mpl-mt, the current iterate in a candidate fixed-point solve (so
a settled row costs two probes), and the DSE anchor for fixed and oracle
deltas. The guess changes the path, never the answer. The search picks its
engine by row count: one row is searched on exact scalar step signs, more
rows advance together, one array pass per probe, along the same probes.
Row by row the two give the same estimates, adjustments and failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .randomness import DEFAULT_SEED, MAX_N, PURPOSE_BOOTSTRAP, draw_tables, uniforms
from .tables import (
    DualRecordTable,
    EstimationError,
    MtbParams,
    NoFiniteMaximumError,
    TableArrays,
    UndefinedEstimateError,
    ValidationError,
    cell_probs_mtb,
)

__all__ = [
    "EstimateReport",
    "BatchEstimate",
    "DeltaPolicy",
    "EstimatorSpec",
    "BootstrapResult",
    "HARD_CEILING",
    "dse",
    "mle_profile_mt",
    "mle_mpl_mt",
    "mle_profile_mtb",
    "mle_adpl_mtb",
    "mle_adpl_mt",
    "recover_nuisance",
    "ratio_moment_approx",
    "bias_dse_under_mtb",
    "var_dse_under_mtb",
    "parametric_bootstrap",
    "parse_estimator",
]

HARD_CEILING = 10**8


@dataclass(frozen=True)
class EstimateReport:
    """Result of a single-dataset estimation.

    Attributes:
        method: estimator descriptor label.
        n_hat: point estimate of the population size (real; >= x0).
        n_hat_integer: maximizing integer where applicable (floor of n_hat
            for the dual-system estimator).
        p1_hat, p_hat, c_hat, phi_hat: recovered nuisance values at n_hat,
            when the table supports recovery (None otherwise).
        delta_used: adjustment coefficient actually applied (adjusted-profile
            methods only).
        se: standard error, when available (plug-in for dse, bootstrap
            otherwise).
        ci_low, ci_high: optional 95% interval bounds.
        degenerate: True when the estimate sits on the domain lower bound
            x0 + 1 (or is the structural boundary estimate), signalling that
            the likelihood carried no interior information about N.
        note: free-form diagnostic (e.g. that the pl-mtb estimate is the
            boundary of a decreasing likelihood).
    """

    method: str
    n_hat: float
    n_hat_integer: int | None = None
    p1_hat: float | None = None
    p_hat: float | None = None
    c_hat: float | None = None
    phi_hat: float | None = None
    delta_used: float | None = None
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    degenerate: bool = False
    note: str | None = None


@dataclass(frozen=True)
class DeltaPolicy:
    """Rule producing the adjustment coefficient delta.

    Variants:
        fixed: delta = value, independent of N and data.
        scaled: delta = 1 - k/N.
        recapture: delta = 1 - k*(1 - c_hat)/N with c_hat = x11/x1.

    The textual forms are ``fixed:<v>``, ``scaled:<k>``, ``recapture:<k>``.
    """

    variant: str
    value: float

    _VARIANTS = ("fixed", "scaled", "recapture")

    def __post_init__(self) -> None:
        if self.variant not in self._VARIANTS:
            raise ValidationError(f"unknown delta policy variant {self.variant!r}")
        v = float(self.value)
        if not math.isfinite(v):
            raise ValidationError(f"delta policy value must be finite, got {v}")
        if self.variant in ("scaled", "recapture") and v <= 0:
            raise ValidationError(f"{self.variant} policy requires k > 0, got {v}")
        object.__setattr__(self, "value", v)

    @classmethod
    def fixed(cls, value: float) -> "DeltaPolicy":
        return cls("fixed", value)

    @classmethod
    def scaled(cls, k: float) -> "DeltaPolicy":
        return cls("scaled", k)

    @classmethod
    def recapture_scaled(cls, k: float) -> "DeltaPolicy":
        return cls("recapture", k)

    @classmethod
    def parse(cls, text: str) -> "DeltaPolicy":
        """Parse the textual form, e.g. ``scaled:1.25``."""
        parts = text.strip().split(":")
        if len(parts) != 2 or parts[0] not in cls._VARIANTS:
            raise ValidationError(
                f"cannot parse delta policy {text!r}; expected fixed:<v>, scaled:<k> or recapture:<k>"
            )
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ValidationError(f"cannot parse delta policy value in {text!r}") from exc
        return cls(parts[0], value)

    def spec_string(self) -> str:
        return f"{self.variant}:{self.value:g}"

    def requires_n(self) -> bool:
        return self.variant != "fixed"

    def delta(self, n: float | None = None, table: DualRecordTable | None = None) -> float:
        """Evaluate delta under this policy.

        Args:
            n: candidate population size (required for scaled/recapture).
            table: observed table (required for recapture, to form c_hat).
        """
        if self.variant != "fixed" and (n is None or not n > 0):  # NaN too
            raise ValidationError(f"{self.variant} policy requires a positive N, got {n}")
        if self.variant == "recapture":
            if table is None:
                raise ValidationError("recapture policy requires the observed table")
            if table.x1_dot == 0:
                raise UndefinedEstimateError("recapture policy undefined: x1. = 0")
        return float(self._formula(n, table))

    def deltas(self, n: np.ndarray, tables: TableArrays) -> np.ndarray:
        """:meth:`delta` at N = n[i] on row i, for rows with x1. >= 1."""
        d = self._formula(n, tables)
        return d if self.requires_n() else np.full(len(n), d)

    def _formula(self, n, cells):
        """delta at N = n for the cells of a table, or of TableArrays row by row."""
        if self.variant == "fixed":
            return self.value
        if self.variant == "scaled":
            return 1.0 - self.value / n
        c_hat = cells.x11 / cells.x1_dot
        return 1.0 - self.value * (1.0 - c_hat) / n


def _no_maximum(what: str) -> NoFiniteMaximumError:
    """The failure of a search whose step is still positive at HARD_CEILING."""
    return NoFiniteMaximumError(f"{what}: no finite maximum detected up to N = {HARD_CEILING:.0e}")


def _ignore(rows, error) -> None:
    """The failure rule of a batch: failed rows stay -1 inside and NaN outside."""


def _raise(rows, error) -> None:
    """The failure rule of a single table, solved as a one-row batch: raise for its row."""
    if np.count_nonzero(rows):
        raise error()


def _argmax(step, lower: int, guess: int, what: str) -> int:
    """Smallest integer N in [lower, HARD_CEILING] with step(N) <= 0.

    With step(N) the sign of l(N+1) - l(N) of a kernel whose step changes
    sign at most once (positive, then non-positive), that N is the kernel's
    exact integer argmax (its first maximizer on a tie). The search probes
    ``guess`` (clamped to [lower, HARD_CEILING]), gallops away from it in
    steps of 1, 2, 4, ... (to guess +- 1, 3, 7, ..., clamped likewise) until
    the sign flips, then bisects the last gap: at most about
    2 + 2*log2(d + 1) step evaluations for an answer d away from the guess,
    and 2 for an answer above ``lower`` that the guess hits. The guess
    changes only the path, never the answer.

    The bracket (lo, hi] holds the answer: step(lo) > 0, or lo = lower - 1
    before a positive step is seen, and step(hi) <= 0, or hi = HARD_CEILING
    + 1 before a non-positive one is; :func:`_next_probe` picks each probe
    from it alone, for this search and the vectorized one alike.

    Raises:
        NoFiniteMaximumError: if the step is still positive at HARD_CEILING
            (the kernel keeps increasing), or at once, evaluating no step,
            when ``lower`` exceeds HARD_CEILING: the step forms are checked
            only up to it.
    """
    lo, hi = lower - 1, HARD_CEILING + 1
    guess = min(max(guess, lower), HARD_CEILING)
    while hi - lo > 1:
        n = _next_probe(lo, hi, guess, lower)
        if step(n) > 0:
            lo = n
        else:
            hi = n
    if hi > HARD_CEILING:
        raise _no_maximum(what)
    return hi


def _next_probe(lo, hi, guess, lower):
    """The next probe of :func:`_argmax` in the bracket (lo, hi], per element for arrays."""
    if isinstance(lo, int):
        if hi > HARD_CEILING:
            return guess if lo < lower else min(2 * lo - guess + 1, HARD_CEILING)
        return max(2 * hi - guess - 1, lower) if lo < lower else (lo + hi) // 2
    lo_open = lo < lower
    return np.where(
        hi > HARD_CEILING,
        np.where(lo_open, guess, np.minimum(lo + lo - guess + 1, HARD_CEILING)),
        np.where(lo_open, np.maximum(hi + hi - guess - 1, lower), (lo + hi) >> 1),
    )


# Each pass of the vectorized search evaluates a multiple of _PAD_ROWS rows:
# the rows still searching, led and followed by copies of the pad row. numpy
# keeps up to 7 freed buffers of each byte size under 1 KiB, so masks of every
# row count below 1024 would ratchet resident memory up over a long run; these
# take 7 such sizes, and 8-byte arrays none. The pad row is the table (1, 0, 0)
# in the closed bracket (2, 3] at delta 0.5: it never searches, and its step
# at N = 2, below -0.3 for each kind, is decided in double.
_PAD_ROWS = 128
_PAD_ROW = (2, 3, 2, 1, 0.5, 1.0, 1.0, 1.0, 1.0)  # lo, hi, guess, lower, delta, table


def _argmax_batch(kind: str, tables: TableArrays, lower, delta, guess, fail=_ignore) -> np.ndarray:
    """:func:`_argmax` of kernel ``kind`` (see :func:`kernels.step_sign`) on every row.

    Row i searches from guess[i] in [lower[i], HARD_CEILING] at delta[i].
    One row is searched by :func:`_argmax` itself on exact
    :func:`kernels.step_sign`. More rows follow the scalar search's own
    path, probe by probe: each pass evaluates the next probe of every row
    still searching in one :func:`kernels.step_signs` call. The state
    (brackets, guesses, lower bounds, deltas and tables) holds only those
    rows, padded (see _PAD_ROWS), and drops each row as its bracket closes.
    Returns the argmax per row, or -1 where :func:`_argmax` raises
    NoFiniteMaximumError, and tells ``fail`` those rows (rows with lower[i]
    above HARD_CEILING are never probed).
    """
    if len(lower) == 1:
        table, d = tables.row(0), float(delta[0])
        try:
            return np.array([_argmax(lambda m: kernels.step_sign(kind, m, table, d),
                                     int(lower[0]), int(guess[0]), kind)])
        except NoFiniteMaximumError:
            hi = np.array([-1])
    else:
        lower = np.minimum(lower, HARD_CEILING + 1).astype(np.int64)
        guess = np.minimum(np.maximum(guess, lower), HARD_CEILING).astype(np.int64)
        n = lower.size
        hi = np.full(n + 1, HARD_CEILING + 1)  # hi[n] takes the pad rows' answers
        rows, lo, top, guess, low, delta, *cells = (
            np.concatenate([[pad], values]) for pad, values in zip(
                (n, *_PAD_ROW), (np.arange(n), lower - 1, hi[:n], guess, lower,
                                 delta, *tables)))
        searching, active = top - lo > 1, -1
        while True:
            live = np.count_nonzero(searching)
            if live != active:  # rows closed their brackets: keep the others and the pads
                hi[rows] = top  # a searching row's entry is written again later
                if not live:
                    break
                keep = np.zeros(-(-(live + 1) // _PAD_ROWS) * _PAD_ROWS, dtype=np.intp)
                keep[1:live + 1] = np.flatnonzero(searching)  # row 0 is a pad row
                rows, lo, top, guess, low, delta, *cells = (
                    v[keep] for v in (rows, lo, top, guess, low, delta, *cells))
                active = live
            probe = _next_probe(lo, top, guess, low)
            up = kernels.step_signs(kind, probe, TableArrays(*cells), delta) > 0
            lo = np.where(up, probe, lo)
            top = np.where(up, top, probe)
            searching = top - lo > 1
        hi = hi[:n]
        hi[hi > HARD_CEILING] = -1
    fail(hi < 0, lambda: _no_maximum(kind))
    return hi


def recover_nuisance(
    n_hat: float, table: DualRecordTable
) -> tuple[float, float, float, float]:
    """Conditional nuisance estimates at a fixed population size.

    Args:
        n_hat: population size at which to condition (must exceed x1.).
        table: observed table with x1. >= 1.

    Returns:
        Tuple (p1_hat, p_hat, c_hat, phi_hat) with p1_hat = x1./n_hat,
        p_hat = x01/(n_hat - x1.), c_hat = x11/x1. and phi_hat = c_hat/p_hat
        (inf when x01 = 0).

    Raises:
        UndefinedEstimateError: when x1. = 0 (c_hat undefined) or
            n_hat <= x1. (p_hat undefined).
    """
    if table.x1_dot == 0:
        raise UndefinedEstimateError("nuisance recovery undefined: x1. = 0")
    if n_hat <= table.x1_dot:
        raise UndefinedEstimateError(
            f"nuisance recovery undefined: n_hat = {n_hat} does not exceed x1. = {table.x1_dot}"
        )
    p1_hat = table.x1_dot / n_hat
    p_hat = table.x01 / (n_hat - table.x1_dot)
    c_hat = table.x11 / table.x1_dot
    phi_hat = c_hat / p_hat if p_hat > 0 else math.inf
    return p1_hat, p_hat, c_hat, phi_hat


def _bias_dse(n: float, p1_dot: float, p: float, phi: float) -> float:
    return (
        n * (1.0 - p1_dot) * (1.0 - phi) / phi
        + (1.0 - p1_dot) * (1.0 - phi * p) / (p1_dot * phi * phi * p)
    )


def _var_dse(n: float, p1_dot: float, p: float, phi: float) -> float:
    return n * (1.0 - p1_dot) * (1.0 - phi * p) / (p1_dot * phi * phi * p)


def bias_dse_under_mtb(params: MtbParams) -> float:
    """Second-order approximate bias of the dual-system estimator under M_tb.

    Equals N(1-p1.)(1-phi)/phi + (1-p1.)(1-phi*p)/(p1.*phi^2*p); the first
    term is the O(N) mis-specification bias (zero at phi = 1), the second the
    O(1) ratio-moment correction.
    """
    return _bias_dse(params.n, params.p1_dot, params.p, params.phi)


def var_dse_under_mtb(params: MtbParams) -> float:
    """Reduced approximate variance of the dual-system estimator under M_tb.

    Equals N(1-p1.)(1-phi*p)/(p1.*phi^2*p). At phi = 1 this equals the
    classical variance N(1-p1.)(1-p.1)/(p1.*p.1). Under behavioral response
    it omits the covariance terms of the linearization, so at the Table-2
    designs the sampling variance differs from it by about -28% to +48%;
    :func:`_var_dse_first_order` is the form that tracks the sampling
    variance.
    """
    return _var_dse(params.n, params.p1_dot, params.p, params.phi)


def _var_dse_first_order(n: float, p1_dot: float, p: float, phi: float) -> float:
    """Full first-order (delta-method) variance of x1.*x.1/x11 under M_tb.

    Keeps all covariance terms of the linearization, which the reduced
    :func:`var_dse_under_mtb` omits; at phi = 1 both equal the classical
    variance. This is the form that tracks the sampling variance: it agrees
    with large-R Monte Carlo to within a few percent at the Table-2 designs.
    """
    c = phi * p
    p11 = p1_dot * c
    p_dot1 = p11 + (1.0 - p1_dot) * p
    scale = p1_dot * p_dot1 / p11
    bracket = 1.0 / p11 + 2.0 * p11 / (p1_dot * p_dot1) - 1.0 / p1_dot - 1.0 / p_dot1 - 1.0
    return n * scale * scale * bracket


def ratio_moment_approx(
    means: tuple[float, float, float], covs
) -> float:
    """Large-sample approximation to E(x*y/z) from first and second moments.

    Args:
        means: (E(x), E(y), E(z)) with E(z) != 0.
        covs: 3x3 covariance matrix of (x, y, z).

    Returns:
        (E(x)E(y)/E(z)) * (1 + C(x,y)/(E(x)E(y)) - C(x,z)/(E(x)E(z))
        - C(y,z)/(E(y)E(z)) + V(z)/E(z)^2).
    """
    ex, ey, ez = (float(v) for v in means)
    if ez == 0:
        raise ValidationError("ratio moment approximation requires E(z) != 0")
    cov = np.asarray(covs, dtype=float)
    if cov.shape != (3, 3):
        raise ValidationError(f"covariance must be 3x3, got shape {cov.shape}")
    return (ex * ey / ez) * (
        1.0
        + cov[0, 1] / (ex * ey)
        - cov[0, 2] / (ex * ez)
        - cov[1, 2] / (ey * ez)
        + cov[2, 2] / (ez * ez)
    )


def dse(table: DualRecordTable) -> EstimateReport:
    """Dual-system (independence) estimator x1.*x.1/x11.

    The report carries the real-valued estimate together with its floored
    integer, the nuisance values recovered at the real estimate (for which
    phi_hat = 1 exactly: the estimator solves the behavioral-model score with
    a unit behavioral effect), and a plug-in standard error from the
    model-based variance at phi = 1.

    Raises:
        UndefinedEstimateError: when x11 = 0 (the estimate is infinite).
    """
    return _estimate("dse", table)


def mle_profile_mt(table: DualRecordTable) -> EstimateReport:
    """Integer maximizer of the independence-model profile likelihood.

    The maximizer is searched for from round(x1.*x.1/x11) on the exact
    kernel steps. It lies near the dual-system ratio r = x1.*x.1/x11 (exactly r - 1 when r is an
    integer and the overlap correction is negligible) but can drift several
    units below floor(r) - 1 on tables with small x11 and large overlap x0,
    where the score correction -x0 / (2N(N - x0)) is non-negligible. When
    x10*x01 = 0 the maximizer is the domain lower bound x0 itself.

    Raises:
        UndefinedEstimateError: when x11 = 0 (no finite maximizer exists).
        NoFiniteMaximumError: when the maximizer lies beyond HARD_CEILING.
    """
    return _estimate("pl-mt", table)


def mle_mpl_mt(table: DualRecordTable) -> EstimateReport:
    """Integer maximizer of the independence-model modified profile likelihood.

    The maximizer is searched for from round(x1.*x.1/x11) on the exact
    kernel steps. The half-log correction terms are strictly increasing in N, so this estimate
    is never below the plain profile maximizer; in practice it lands within
    a unit of round(x1.*x.1/x11). When x10*x01 = 0 the correction is -inf at
    the lower bound and the maximizer sits strictly above x0.

    Raises:
        UndefinedEstimateError: when x11 = 0.
        NoFiniteMaximumError: when the maximizer lies beyond HARD_CEILING.
    """
    return _estimate("mpl-mt", table)


def mle_profile_mtb(table: DualRecordTable) -> EstimateReport:
    """Boundary maximizer of the behavioral-model profile likelihood.

    The kernel is strictly decreasing on its domain, so the integer maximizer
    is always the lower bound x0 + 1; the report is flagged degenerate because
    the likelihood carries no interior information about N under this model.
    """
    return _estimate("pl-mtb", table)


def mle_adpl_mtb(
    table: DualRecordTable,
    policy: DeltaPolicy,
    *,
    oracle_n: float | None = None,
) -> EstimateReport:
    """Integer maximizer of the behavioral-model adjusted profile likelihood.

    A finite maximizer exists only for delta < 1; fixed policies with
    delta >= 1 are rejected up front, and N-dependent policies are rejected
    whenever the delta they produce reaches 1 (e.g. the recapture policy on a
    table with x10 = 0). An estimate equal to the lower bound x0 + 1 is
    flagged degenerate (the strongly-shrunk regime where the kernel decreases
    from the boundary).

    Args:
        table: observed table with x1. >= 1.
        policy: adjustment policy.
        oracle_n: when given, delta is evaluated once at this size (oracle
            mode); otherwise N-dependent policies use the self-consistent
            fixed point.
    """
    return _estimate("adpl-mtb", table, policy, oracle_n)


def mle_adpl_mt(
    table: DualRecordTable,
    policy: DeltaPolicy,
    *,
    oracle_n: float | None = None,
) -> EstimateReport:
    """Integer maximizer of the independence-model adjusted profile likelihood.

    delta = 1 recovers the modified-profile estimator. Unlike the behavioral
    model, values above 1 can still leave a finite maximizer here: the kernel
    behaves like (2*(delta - 1) - x11) * ln N for large N, so it diverges
    exactly when 2*(delta - 1) >= x11. Fixed policies in that regime are
    rejected up front, where the closed form settles divergence without a
    search to the ceiling. The N-dependent policies produce delta <= 1;
    with x11 = 0 the kernel can still rise past HARD_CEILING, which is
    reported as no finite maximum. ``oracle_n`` is as in :func:`mle_adpl_mtb`.
    """
    return _estimate("adpl-mt", table, policy, oracle_n)


@dataclass(frozen=True)
class BatchEstimate:
    """One estimator's results on replicate tables, row by row.

    Attributes:
        n_hat: the estimate of each row; NaN where :meth:`EstimatorSpec.estimate`
            raises EstimationError on that table, or where the table is
            all-zero.
        delta_used: the adjustment coefficient of each row (NaN on failed
            rows), or None for methods without one.
    """

    n_hat: np.ndarray
    delta_used: np.ndarray | None = None

    @property
    def ok(self) -> np.ndarray:
        """Rows with an estimate."""
        return ~np.isnan(self.n_hat)

    def take(self, rows) -> "BatchEstimate":
        """The estimates of the given rows (index array, mask or slice)."""
        delta_used = None if self.delta_used is None else self.delta_used[rows]
        return BatchEstimate(self.n_hat[rows], delta_used)


def _dse_values(tables: TableArrays) -> np.ndarray:
    """x1.*x.1/x11 on rows with x11 >= 1, rounded once, as Python's int / int.

    Below 2**53 the double product is exact and one correctly rounded
    division follows; rows at or above it are divided in Python integers.
    """
    num = tables.x1_dot * tables.x_dot1
    r = num / tables.x11
    for i in (num >= 2.0**53).nonzero()[0]:
        r[i] = int(tables.x1_dot[i]) * int(tables.x_dot1[i]) / int(tables.x11[i])
    return r


def _dse_batch(tables: TableArrays, *_, fail=_ignore) -> BatchEstimate:
    """Row-by-row :func:`dse`; ``fail`` is as in :func:`_mt_batch`."""
    undefined = tables.x11 == 0
    fail(undefined, lambda: UndefinedEstimateError("dual-system estimate undefined: x11 = 0"))
    rows = (~undefined).nonzero()[0]
    n_hat = np.full(len(undefined), np.nan)
    n_hat[rows] = _dse_values(tables.take(rows))
    return BatchEstimate(n_hat)


def _pl_mtb_batch(tables: TableArrays, *_, fail=_ignore) -> BatchEstimate:
    """Row-by-row :func:`mle_profile_mtb`: x0 + 1, NaN only on all-zero rows."""
    return BatchEstimate(np.where(tables.x0 > 0, tables.x0 + 1.0, np.nan))


def _mt_batch(kind: str, tables: TableArrays, *_, fail=_ignore) -> BatchEstimate:
    """Row-by-row :func:`mle_profile_mt` ("pl-mt") or :func:`mle_mpl_mt` ("mpl-mt").

    ``fail(rows, error)`` is told each mask of failing rows, with a builder
    of their exception: :func:`_ignore` leaves them NaN, :func:`_raise`
    raises it.
    """
    likelihood = "modified profile likelihood" if kind == "mpl-mt" else "profile likelihood"
    undefined = tables.x11 == 0
    fail(undefined, lambda: UndefinedEstimateError(f"{likelihood} has no finite maximizer: x11 = 0"))
    n_hat = np.full(len(undefined), np.nan)
    rows = (~undefined).nonzero()[0]
    t = tables.take(rows)
    found = _argmax_batch(kind, t, t.x0, np.ones(len(rows)), np.rint(_dse_values(t)), fail)
    n_hat[rows] = np.where(found >= 0, found, np.nan)
    return BatchEstimate(n_hat)


def _fixed_point_batch(solve, start: np.ndarray, fail=_ignore, capped=None) -> np.ndarray:
    """The candidate fixed-point iteration of the adjusted estimators, per row.

    ``solve(rows, n)`` returns T(n[j]), the argmax at delta(n[j]), for each
    row rows[j] (increasing indices of the rows still moving), or -1 where
    the solve fails. Row i iterates N -> T(N) from
    its anchor a = start[i] and ends in one of two ways: at a fixed point, or
    failed (-1) when a solve fails or the row is still moving after 60 solves;
    ``fail(rows, capped)`` is told the rows of the latter.

    T is nondecreasing: the adpl-mtb and adpl-mt steps are the mpl steps plus
    (delta-1)[log1p(1/N) + log1p(1/(N-x1.))] and 2(delta-1)log1p(1/N), so with
    exact step signs the argmax is nondecreasing in delta, and the double
    delta(N) = 1 - k/N or 1 - k(1-c_hat)/N is nondecreasing in N (rounding is
    monotone). So the iterates are monotone, never cycle, and rise to the
    least fixed point at or above a, or fall to the greatest at or below it.
    T can have several fixed points: on sparse tables, and at N >~ 1e7, where
    the double delta(N) is constant over runs of N.
    """
    cur = start.copy()
    moving = np.ones(len(start), dtype=bool)
    for _ in range(60):
        rows = moving.nonzero()[0]
        if not len(rows):
            break
        n = cur[rows]
        cur[rows] = nxt = solve(rows, n)
        moving[rows] = (nxt >= 0) & (nxt != n)
    fail(moving, capped)
    cur[moving] = -1
    return cur


def _adpl_batch(
    kind: str, tables: TableArrays, policy: DeltaPolicy, oracle_n: np.ndarray | None, fail=_ignore
) -> BatchEstimate:
    """Row-by-row :func:`mle_adpl_mtb` ("adpl-mtb") or :func:`mle_adpl_mt` ("adpl-mt").

    ``oracle_n``, when given, holds the size that row i evaluates delta at;
    ``fail`` is as in :func:`_mt_batch`. The rows fail, in this order, where
    a fixed adpl-mt delta is at or above the divergence threshold, where
    x1. = 0, and then at the first solve that finds delta >= 1 (adpl-mtb)
    or no maximum below HARD_CEILING, or at the 60-solve cap.
    """
    if oracle_n is not None and policy.requires_n() and not (oracle_n > 0).all():  # NaN too
        bad = oracle_n[~(oracle_n > 0)][0]
        raise ValidationError(f"{policy.variant} policy requires a positive N, got {bad:g}")
    ok = tables.x1_dot > 0
    empty = ~ok
    if kind == "adpl-mt" and not policy.requires_n():
        finite = 2.0 * (policy.value - 1.0) < tables.x11
        fail(~finite, lambda: NoFiniteMaximumError(
            f"adjustment delta = {policy.value:.6g} is at or above the divergence threshold "
            f"1 + x11/2 = {1.0 + tables.x11[~finite][0] / 2.0:.6g}: the adjusted kernel increases "
            "without bound"))
        empty &= finite  # a row fails once, at its first rule
        ok &= finite
    fail(empty, lambda: UndefinedEstimateError("adjusted profile estimation requires x1. >= 1"))
    rows = ok.nonzero()[0]
    t = tables.take(rows)
    lower = t.x0 + 1.0 if kind == "adpl-mtb" else t.x0
    anchor = 2.0 * t.x0
    overlap = (t.x11 > 0).nonzero()[0]
    anchor[overlap] = np.rint(_dse_values(t.take(overlap)))
    start = np.minimum(np.maximum(anchor, lower + 1), HARD_CEILING)
    delta = np.empty(len(rows))  # each row's delta at its latest solve; every row has one

    def solve(idx: np.ndarray, n: np.ndarray, guess: np.ndarray) -> np.ndarray:
        """T at delta(n[j]) for row idx[j], searched from guess[j]; -1 where it fails."""
        sub = t.take(idx)
        delta[idx] = d = policy.deltas(n, sub)
        good = (d < 1.0) | (kind == "adpl-mt")
        fail(~good, lambda: NoFiniteMaximumError(f"adjustment delta = {d[~good][0]:.6g} violates "
                                                 "the finite-maximum requirement delta < 1"))
        searched = good.nonzero()[0]
        if len(searched) == len(idx):  # every row searches: nothing to leave at -1
            return _argmax_batch(kind, sub, lower[idx], d, guess, fail)
        found = np.full(len(idx), -1, dtype=np.int64)
        found[searched] = _argmax_batch(kind, sub.take(searched), lower[idx[searched]],
                                        d[searched], guess[searched], fail)
        return found

    if oracle_n is not None or not policy.requires_n():
        at = start if oracle_n is None else oracle_n[rows]  # a fixed delta ignores N
        found = solve(np.arange(len(rows)), at, start)
    else:
        # Each solve starts from its current iterate, so a settled row costs
        # two probes; a row's last solve was at its fixed point.
        found = _fixed_point_batch(lambda idx, n: solve(idx, n, n), start, fail,
                                   lambda: NoFiniteMaximumError(
                                       f"{kind}: no fixed point of the candidate map in 60 solves"))
    good = found >= 0
    n_hat = np.full(len(tables.x11), np.nan)
    delta_used = n_hat.copy()
    n_hat[rows] = np.where(good, found, np.nan)
    delta_used[rows] = np.where(good, delta, np.nan)
    return BatchEstimate(n_hat, delta_used)


def _report(method: str, table: DualRecordTable, n_hat: float, n_int: int, **fields) -> EstimateReport:
    """The report of n_hat (integer n_int) with ``fields``, and the nuisance values where defined."""
    try:
        fields["p1_hat"], fields["p_hat"], fields["c_hat"], fields["phi_hat"] = recover_nuisance(
            n_hat, table)
    except EstimationError:
        pass
    return EstimateReport(method, n_hat, n_int, **fields)


def _dse_report(method: str, table: DualRecordTable, batch: BatchEstimate) -> EstimateReport:
    """The :func:`dse` report: the estimate, its floor, nuisance values and plug-in se."""
    r = float(batch.n_hat[0])
    se = None
    p1 = table.x1_dot / r
    p2 = table.x_dot1 / r
    if 0.0 < p1 < 1.0 and 0.0 < p2 < 1.0:
        se = math.sqrt(_var_dse(r, p1, p2, 1.0))
    return _report(method, table, r, math.floor(r), se=se)


def _argmax_report(
    method: str, table: DualRecordTable, batch: BatchEstimate, **fields
) -> EstimateReport:
    """The report of an integer estimate, with ``fields`` and the nuisance values at it."""
    n = int(batch.n_hat[0])
    return _report(method, table, float(n), n, **fields)


def _boundary_report(method: str, table: DualRecordTable, batch: BatchEstimate) -> EstimateReport:
    """The :func:`mle_profile_mtb` report, flagged degenerate."""
    note = "boundary estimate: the profile likelihood is decreasing in N"
    return _argmax_report(method, table, batch, degenerate=True, note=note)


def _adjusted_report(method: str, table: DualRecordTable, batch: BatchEstimate) -> EstimateReport:
    """An adjusted-profile report: delta_used, and degenerate at the domain's lower bound."""
    lower = table.x0 + (method == "adpl-mtb")
    return _argmax_report(method, table, batch, delta_used=float(batch.delta_used[0]),
                          degenerate=int(batch.n_hat[0]) == lower)


class _Method(NamedTuple):
    """One estimation method: its solver, its single-table report, and whether it takes a policy.

    ``solve_batch(tables, policy, oracle_n, fail=_ignore)`` solves every row
    of a TableArrays, with one oracle_n per row, and tells ``fail`` the rows
    it fails (see :func:`_mt_batch`). A single table is solved by it as a
    one-row batch with :func:`_raise`; ``report(method, table, batch)`` then
    builds the EstimateReport from that row.
    """

    solve_batch: Callable[..., BatchEstimate]
    report: Callable[..., EstimateReport]
    needs_policy: bool


# The method registry: descriptor name -> solver and report. Descriptor
# parsing, the CLI's --method choices and EstimatorSpec all read it.
_METHODS: dict[str, _Method] = {
    "dse": _Method(_dse_batch, _dse_report, needs_policy=False),
    "pl-mt": _Method(partial(_mt_batch, "pl-mt"), _argmax_report, needs_policy=False),
    "mpl-mt": _Method(partial(_mt_batch, "mpl-mt"), _argmax_report, needs_policy=False),
    "pl-mtb": _Method(_pl_mtb_batch, _boundary_report, needs_policy=False),
    "adpl-mtb": _Method(partial(_adpl_batch, "adpl-mtb"), _adjusted_report, needs_policy=True),
    "adpl-mt": _Method(partial(_adpl_batch, "adpl-mt"), _adjusted_report, needs_policy=True),
}


def _estimate(
    method: str,
    table: DualRecordTable,
    policy: DeltaPolicy | None = None,
    oracle_n: float | None = None,
) -> EstimateReport:
    """``method`` on one table: its solver on a one-row batch that raises, then its report."""
    cells = np.array([table.x11, table.x1_dot, table.x_dot1, table.x0], dtype=float)  # x0 < 2**53
    row = TableArrays(cells[0:1], cells[1:2], cells[2:3], cells[3:4])
    at = None if oracle_n is None else np.array([float(oracle_n)])
    solve_batch, report, _ = _METHODS[method]
    return report(method, table, solve_batch(row, policy, at, fail=_raise))


@dataclass(frozen=True)
class EstimatorSpec:
    """Parsed estimator descriptor: method, optional policy, optional mode tag.

    Descriptor grammar: ``<method>[:<policy>][@oracle]`` where method is one
    of dse, pl-mt, mpl-mt, pl-mtb, adpl-mtb, adpl-mt and policy is a
    :class:`DeltaPolicy` textual form (required for the adjusted-profile
    methods, forbidden otherwise). The ``@oracle`` suffix, the only switch
    for oracle delta mode, evaluates an N-dependent policy once at the
    generating size ``true_n`` instead of at the self-consistent fixed point.
    Other specs ignore the value of ``true_n``.
    """

    method: str
    policy: DeltaPolicy | None = None
    oracle: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of {tuple(_METHODS)}"
            )
        needs_policy = _METHODS[self.method].needs_policy
        if needs_policy and self.policy is None:
            raise ValidationError(
                f"method {self.method} requires a delta policy, e.g. {self.method}:scaled:1.25"
            )
        if not needs_policy and self.policy is not None:
            raise ValidationError(f"method {self.method} does not take a delta policy")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        text = self.method
        if self.policy is not None:
            text += f":{self.policy.spec_string()}"
        if self.oracle:
            text += "@oracle"
        return text

    def _oracle_n(self, true_n: float | None) -> float | None:
        """The size the solver evaluates delta at: ``true_n`` in oracle mode, else None."""
        if not (self.oracle and self.policy is not None and self.policy.requires_n()):
            return None
        if true_n is None:
            raise ValidationError(f"{self.label}: oracle delta mode needs the generating true_n")
        return true_n

    def estimate(self, table: DualRecordTable, *, true_n: float | None = None) -> EstimateReport:
        """Apply this estimator to a table."""
        return _estimate(self.method, table, self.policy, self._oracle_n(true_n))

    def estimate_batch(self, x11, x10, x01, *, true_n=None) -> BatchEstimate:
        """Apply this estimator to every replicate table: row i is (x11[i], x10[i], x01[i]).

        ``true_n`` is one generating size for all rows or an array of one per
        row, so rows drawn from populations of different sizes can share a
        batch; an array of another length raises ValidationError.

        Row by row the result equals :meth:`estimate` on that table at that
        row's ``true_n``: the same n_hat and delta_used, and a failure (NaN)
        exactly where it raises EstimationError or the table is all-zero.
        :meth:`estimate` runs this same solver on its table as a one-row
        batch and adds the report, so it costs about the same: about 0.1 ms
        for ``adpl-mtb:scaled:1.25`` on (50, 30, 20) on a 2-core Xeon, of
        which its six scalar step signs take about 15 us. A batch of one row
        reads its counts without validating a table again, and a solve in
        which every row takes part selects none. The closed forms are
        array expressions; each argmax search advances every row still
        searching by one probe per pass, on a state that holds only those
        rows, and a single row takes the scalar search. Each row keeps the count
        rule of a table: a row whose total x0 is 2**53 or more raises
        ValidationError, as :class:`~dualrec.tables.DualRecordTable` does.
        """
        tables = TableArrays.from_cells(x11, x10, x01)
        if np.ndim(true_n) and np.shape(true_n) != tables.x11.shape:
            raise ValidationError(
                f"true_n must be a scalar or hold one size per row ({tables.x11.size}), "
                f"got shape {np.shape(true_n)}"
            )
        oracle_n = self._oracle_n(true_n)
        if oracle_n is not None:
            oracle_n = np.broadcast_to(np.asarray(oracle_n, dtype=float), tables.x11.shape)
        return _METHODS[self.method].solve_batch(tables, self.policy, oracle_n)


def parse_estimator(descriptor: str) -> EstimatorSpec:
    """Parse an estimator descriptor string (see :class:`EstimatorSpec`)."""
    text = descriptor.strip()
    oracle = False
    if text.endswith("@oracle"):
        oracle = True
        text = text[: -len("@oracle")]
    parts = text.split(":", 1)
    method = parts[0]
    policy = DeltaPolicy.parse(parts[1]) if len(parts) == 2 else None
    return EstimatorSpec(method=method, policy=policy, oracle=oracle, label=descriptor.strip())


@dataclass(frozen=True)
class BootstrapResult:
    """Parametric bootstrap summary for a single-dataset estimate."""

    se: float
    ci_low: float
    ci_high: float
    replicates: int
    failures: int


def parametric_bootstrap(
    table: DualRecordTable,
    estimator: EstimatorSpec | str,
    b: int = 500,
    seed: int = DEFAULT_SEED,
) -> BootstrapResult:
    """Parametric bootstrap standard error and 95% percentile interval.

    The observed table is fitted with the requested estimator; bootstrap
    tables are drawn from the behavioral model at the fitted
    (n_hat, p1_hat, p_hat, phi_hat) and re-estimated with the same method and
    policy. Replicates on which the estimator fails are excluded and counted.

    Raises:
        ValidationError: when ``b`` < 2 (no spread can be estimated).
        EstimationError: when the fitted parameters cannot seed a valid
            generating model (e.g. x01 = 0 gives p_hat = 0, or x10 = 0 gives
            c_hat = 1), when the fitted N exceeds ``randomness.MAX_N`` (the
            sampler's range, as in studies; nothing is drawn), or when fewer
            than two bootstrap replicates succeed.
    """
    if b < 2:
        raise ValidationError(f"bootstrap needs at least 2 replicates, got {b}")
    spec = parse_estimator(estimator) if isinstance(estimator, str) else estimator
    fit = spec.estimate(table)
    if fit.p1_hat is None or not 0.0 < fit.p_hat < 1.0 or not 0.0 < fit.c_hat < 1.0:
        raise EstimationError(
            "bootstrap unavailable: fitted nuisance values do not define a valid generating model"
        )
    n0 = max(int(round(fit.n_hat)), table.x0 + 1)
    if n0 > MAX_N:
        raise EstimationError(f"bootstrap unavailable: fitted N = {n0} is above {MAX_N:.0e}, "
                              "the largest size tables are drawn at")
    try:
        params = MtbParams(n=n0, p1_dot=fit.p1_hat, p=fit.p_hat, phi=fit.phi_hat)
    except ValidationError as exc:
        raise EstimationError(f"bootstrap unavailable: {exc}") from exc
    cells = cell_probs_mtb(params).as_tuple()
    u = uniforms(seed, PURPOSE_BOOTSTRAP, 0, b)
    batch = spec.estimate_batch(*draw_tables(n0, cells, u))
    arr = batch.n_hat[batch.ok]
    failures = b - arr.size
    if arr.size < 2:
        raise EstimationError(f"bootstrap failed on {failures} of {b} replicates")
    lo, hi = np.percentile(arr, [2.5, 97.5])
    return BootstrapResult(
        se=float(np.std(arr, ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
        replicates=int(arr.size),
        failures=failures,
    )
