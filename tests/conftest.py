import math

import numpy as np
import pytest
from scipy.special import gammaln

from dualrec.estimators import BatchEstimate
from dualrec.tables import DualRecordTable, EstimationError

# The benchmark's descriptors: every method, and every policy of the
# adjusted methods.
DESCRIPTORS = (
    "dse", "pl-mt", "mpl-mt", "pl-mtb",
    "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
    "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25", "adpl-mt:recapture:1.25",
)
# Tables whose likelihood domain starts above HARD_CEILING (x0 = 2**53 - 1,
# the largest total a table may have, 2**53 - 2 and 1e9 + 5), beyond the
# range the step forms are checked on.
BEYOND_CEILING = ((2**51, 2**51, 2**52 - 1), (2**53 - 4, 1, 1), (10**9, 5, 0))


def full_binomial_cdf(n: int, p: float) -> np.ndarray:
    """Reference Binomial(n, p) CDF over all of k = 0..n, with F[n] pinned to 1.

    The full-length builder that the windowed ``randomness.binomial_cdf``
    must reproduce bit for bit on its window (0.0 below it, 1.0 above it).
    """
    k = np.arange(n + 1, dtype=float)
    logpmf = (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )
    f = np.cumsum(np.exp(logpmf - logpmf.max()))
    f /= f[-1]
    f[-1] = 1.0
    return f


def reference_draw_binomial(n: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    """Inversion of ``full_binomial_cdf``: the smallest k with F(k) >= u_i."""
    n = np.asarray(n)
    u = np.asarray(u)
    out = np.zeros(n.shape, dtype=np.int64)
    if p <= 0.0:
        return out
    if p >= 1.0:
        return n.astype(np.int64)
    for n_val in np.unique(n):
        if n_val:
            idx = n == n_val
            out[idx] = np.searchsorted(full_binomial_cdf(int(n_val), p), u[idx], side="left")
    return out


def scalar_estimate_batch(spec, x11, x10, x01, *, true_n=None):
    """Reference for ``EstimatorSpec.estimate_batch``: ``estimate`` on each row alone.

    ``true_n`` is a scalar or one generating size per row; each row is
    estimated at its own. A row fails (NaN) where ``estimate`` raises
    EstimationError or the table is all-zero; delta_used is None when no row
    reports an adjustment.
    """
    sizes = np.broadcast_to(np.asarray(true_n, dtype=object), np.shape(x11))
    n_hat, deltas = [], []
    for cells, size in zip(zip(x11, x10, x01), sizes):
        try:
            if not sum(cells):
                raise EstimationError("all-zero table")
            rep = spec.estimate(DualRecordTable(*map(int, cells)), true_n=size)
        except EstimationError:
            n_hat.append(math.nan)
            deltas.append(math.nan)
            continue
        n_hat.append(rep.n_hat)
        deltas.append(math.nan if rep.delta_used is None else rep.delta_used)
    adjusted = spec.policy is not None
    return BatchEstimate(np.array(n_hat), np.array(deltas) if adjusted else None)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def random_tables(rng):
    """Factory drawing random tables with cells uniform in [low, high]."""

    def make(count, low=1, high=200, require_x11=True):
        out = []
        while len(out) < count:
            x11, x10, x01 = (int(v) for v in rng.integers(low, high + 1, size=3))
            if require_x11 and x11 == 0:
                continue
            out.append(DualRecordTable(x11, x10, x01))
        return out

    return make


@pytest.fixture
def grid_argmax():
    """Brute-force integer argmax of a kernel over [lower, upper]."""

    def argmax(objective, lower, upper):
        ns = np.arange(lower, upper + 1, dtype=float)
        vals = np.asarray(objective(ns))
        return lower + int(np.argmax(vals))

    return argmax
