"""Deterministic Monte Carlo studies of dual-record estimators.

The harness draws replicate tables from the behavioral model, applies a set
of estimators to each replicate, and aggregates sampling-distribution
summaries (mean, s.d. reported as s.e., RMSE against the generating size,
and 2.5/97.5 percentile interval). On top of the basic study it provides
three derived experiments:

    se_scaling_study    s.d. against population size on a log-log grid, with
                        an OLS growth exponent per estimator,
    coverage_bands      95% relative confidence band endpoints
                        (mean +/- 1.96 sd)/N across a size grid,
    robustness_sweep    relative mean and bands across a grid of behavioral
                        effect values for fixed capture-probability pairs.

Everything is deterministic given the seed: replicate r of population i
reads counter block r of the Philox stream keyed by (seed, purpose, i), so
results are bit-identical across reruns. The replicates of a stack of
consecutive populations, at most max(replicates, STACK_ROWS) rows, are drawn
together, one :func:`~dualrec.randomness.draw_tables` call whose every stage
is one draw over the stack's rows, each row at its own population's N and
cell probabilities; each estimator then solves the stack's rows together
(:meth:`EstimatorSpec.estimate_batch`, each row at its own population's N).
Each row is drawn and estimated as it would be alone, so a study's output
does not depend on which replicates share a stack.
Replicates on which an estimator fails (e.g. x11 = 0 making the dual-system
estimate infinite) are excluded and counted; a cell losing more than 10% of
its replicates is flagged invalid.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .estimators import BatchEstimate, parse_estimator
from .randomness import (
    DEFAULT_SEED,
    MAX_N,
    PURPOSE_BANDS,
    PURPOSE_SCALING,
    PURPOSE_STUDY,
    PURPOSE_SWEEP,
    draw_tables,
    uniforms,
)
from .tables import (
    FeasibilityError,
    MtbParams,
    ValidationError,
    _integer,
    cell_probs_mtb,
    expected_distinct,
    p_from_marginals,
)

__all__ = [
    "PopulationSpec",
    "StudyConfig",
    "StudySummary",
    "CSV_HEADER",
    "TABLE2_POPULATIONS",
    "SCALING_SITUATIONS",
    "SWEEP_SITUATIONS",
    "DEFAULT_PHI_GRID",
    "DEFAULT_N_GRID",
    "sample_tables",
    "run_study",
    "summaries_to_csv",
    "se_scaling_study",
    "coverage_bands",
    "robustness_sweep",
    "ScalingPoint",
    "ScalingResult",
    "BandPoint",
    "SweepPoint",
    "SweepResult",
]

CSV_HEADER = "population,estimator,mean,se,rmse,ci_low,ci_high,failures,delta_used"
# Rows per stacked estimation batch of run_study; a group holds at least one
# whole population. It bounds estimation memory; 2048 rows cost about 5% of
# the throughput of the paper's reproduce targets.
STACK_ROWS = 4096


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PopulationSpec:
    """Generating population for the behavioral model.

    The second-list marginal capture probability p.1 is the specification
    input; the first-capture probability p is derived from it, so an
    infeasible combination (derived p outside (0,1), or recapture
    probability phi*p >= 1) is rejected at construction. N is at most
    ``randomness.MAX_N`` = 10**9: the sampler's CDF window grows as sqrt(N)
    (a study at 1e9 samples in under 64 MB), and above HARD_CEILING = 1e8 every likelihood estimator
    already reports no finite maximum. The label, written unquoted into the
    study CSV, has no comma, double quote or line break.
    """

    label: str
    n: int
    p1_dot: float
    p_dot1: float
    phi: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or any(c in self.label for c in ',"\r\n'):
            raise ValidationError(
                "population label must be a string without a comma, double quote "
                f"or line break, got {self.label!r}"
            )
        if not (isinstance(self.n, int) and 1 <= self.n <= MAX_N):
            raise ValidationError(
                f"population size must be a positive integer up to 10**9, got {self.n!r}"
            )
        # Full feasibility check: raises FeasibilityError on a bad combination.
        self.params()

    def params(self) -> MtbParams:
        p = p_from_marginals(self.p1_dot, self.p_dot1, self.phi)
        return MtbParams(n=self.n, p1_dot=self.p1_dot, p=p, phi=self.phi)

    def cells(self) -> tuple[float, float, float, float]:
        return cell_probs_mtb(self.params()).as_tuple()

    def expected_distinct(self) -> float:
        return expected_distinct(self.params())

    def with_n(self, n: int, label: str | None = None) -> "PopulationSpec":
        return replace(self, n=n, label=self.label if label is None else label)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "N": self.n,
            "p1": self.p1_dot,
            "p_dot1": self.p_dot1,
            "phi": self.phi,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PopulationSpec":
        if not isinstance(data, dict):
            raise ValidationError(f"population entry must be an object, got {data!r}")
        keys = ["label", "N", "p1", "p_dot1", "phi"]
        if set(data) != set(keys):
            raise ValidationError(f"population keys must be exactly {keys}, got {sorted(data)}")
        return cls(
            label=data["label"],
            n=_integer(data["N"], "population size N"),
            p1_dot=_number(data["p1"], "p1"),
            p_dot1=_number(data["p_dot1"], "p_dot1"),
            phi=_number(data["phi"], "phi"),
        )


TABLE2_POPULATIONS: tuple[PopulationSpec, ...] = (
    PopulationSpec("P1", 500, 0.50, 0.65, 1.25),
    PopulationSpec("P2", 500, 0.60, 0.70, 1.25),
    PopulationSpec("P3", 500, 0.80, 0.70, 1.25),
    PopulationSpec("P4", 500, 0.70, 0.55, 1.25),
    PopulationSpec("P5", 500, 0.50, 0.65, 0.80),
    PopulationSpec("P6", 500, 0.60, 0.70, 0.80),
    PopulationSpec("P7", 500, 0.80, 0.70, 0.80),
    PopulationSpec("P8", 500, 0.70, 0.55, 0.80),
)

# The four scaling situations are the Table-2 populations with the shared
# capture-probability pairs, taken at both behavioral-effect values.
SCALING_SITUATIONS: tuple[PopulationSpec, ...] = (
    replace(TABLE2_POPULATIONS[1], label="S1"),
    replace(TABLE2_POPULATIONS[3], label="S2"),
    replace(TABLE2_POPULATIONS[5], label="S3"),
    replace(TABLE2_POPULATIONS[7], label="S4"),
)

# Capture-probability pairs for the behavioral-effect sweep: the four
# distinct (p1., p.1) combinations appearing in the study populations.
SWEEP_SITUATIONS: tuple[tuple[str, float, float], ...] = (
    ("p50-65", 0.50, 0.65),
    ("p60-70", 0.60, 0.70),
    ("p80-70", 0.80, 0.70),
    ("p70-55", 0.70, 0.55),
)

DEFAULT_PHI_GRID: tuple[float, ...] = tuple(0.5 + 0.25 * i for i in range(11))
DEFAULT_N_GRID: tuple[int, ...] = tuple(range(100, 1001, 100))


_CONFIG_KEYS = ("populations", "estimators", "replicates", "seed")


@dataclass(frozen=True)
class StudyConfig:
    """Study description: populations x estimators at a replicate count.

    JSON form (exactly these keys):
        {"populations": [{"label", "N", "p1", "p_dot1", "phi"}, ...],
         "estimators": [str, ...], "replicates": int, "seed": int}
    An estimator runs in oracle delta mode when its descriptor ends in
    ``@oracle``; there is no study-wide mode. ``replicates`` and ``seed``
    follow the JSON count rule in Python too: an integer (numpy's included)
    or an integral float such as 1e3, never a bool.
    """

    populations: tuple[PopulationSpec, ...]
    estimators: tuple[str, ...]
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "populations", tuple(self.populations))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in ("replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, np.integer):
                value = int(value)
            object.__setattr__(self, name, _integer(value, name))
        if self.replicates < 2:
            raise ValidationError(f"replicates must be >= 2, got {self.replicates}")
        if not self.populations:
            raise ValidationError("study needs at least one population")
        if not self.estimators:
            raise ValidationError("study needs at least one estimator")
        for descriptor in self.estimators:
            parse_estimator(descriptor)

    def to_json(self) -> str:
        return json.dumps(
            {
                "populations": [p.to_json_dict() for p in self.populations],
                "estimators": list(self.estimators),
                "replicates": self.replicates,
                "seed": self.seed,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        if set(data) != set(_CONFIG_KEYS):
            raise ValidationError(
                f"config keys must be exactly {list(_CONFIG_KEYS)}, got {sorted(data)}; "
                "oracle delta mode is chosen per estimator by the @oracle suffix"
            )
        populations, estimators = data["populations"], data["estimators"]
        if not isinstance(populations, list):
            raise ValidationError(f"populations must be a list, got {populations!r}")
        if not (isinstance(estimators, list) and all(isinstance(e, str) for e in estimators)):
            raise ValidationError(f"estimators must be a list of strings, got {estimators!r}")
        return cls(
            populations=tuple(PopulationSpec.from_json_dict(p) for p in populations),
            estimators=tuple(estimators),
            replicates=data["replicates"],
            seed=data["seed"],
        )


@dataclass(frozen=True)
class StudySummary:
    """Sampling-distribution summary for one population x estimator cell.

    ``se`` is the sample standard deviation across replicate estimates (the
    convention in simulation reporting); ``rmse`` is against the generating
    size; the interval is the 2.5/97.5 percentile of the replicate
    estimates. ``invalid`` marks cells that lost more than 10% of their
    replicates to estimator failures. ``delta_used`` is the mean adjustment
    coefficient across successful replicates (None for unadjusted methods).
    """

    population: str
    estimator: str
    mean: float
    se: float
    rmse: float
    ci_low: float
    ci_high: float
    replicate_count: int
    failures: int
    invalid: bool
    true_n: int
    delta_used: float | None = None


def sample_tables(
    spec: PopulationSpec,
    seed: int,
    purpose: int,
    unit: int,
    count: int,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` replicate tables for blocks [start, start + count)."""
    u = uniforms(seed, purpose, unit, count, start)
    return draw_tables(spec.n, spec.cells(), u)


def _exact_mean(values: np.ndarray) -> float:
    """Mean of finite doubles, rounded once: the double ``statistics.mean`` gives.

    Each value is m * 2**e with an integer mantissa m of at most 53 bits
    (``np.frexp`` scaled by 2**53); shifted to the smallest exponent, the
    mantissas sum exactly as Python integers, and the one int / int
    division rounds correctly. A constant adjustment averages to itself with
    no accumulation error in the reports.
    """
    fraction, exponent = np.frexp(values)
    exponent -= 53
    low = int(exponent.min())
    mantissas = (fraction * 2.0**53).astype(np.int64).tolist()
    total = sum(map(operator.lshift, mantissas, (exponent - low).tolist()))
    if low >= 0:
        return (total << low) / values.size
    return total / (values.size << -low)


def _intervals(n_hat: np.ndarray) -> np.ndarray:
    """2.5/97.5 percentiles of each row of a (populations, R) matrix of estimates.

    One ``np.percentile`` call covers a stack group. A row of it equals the
    1-D call on that row bit for bit, and is NaN where the row holds a
    failure (NaN); that row's summary takes the percentiles of the rest.
    """
    return np.percentile(n_hat, [2.5, 97.5], axis=1).T


def _summarize(
    population: str,
    estimator: str,
    batch: BatchEstimate,
    replicates: int,
    true_n: int,
    interval: np.ndarray,
) -> StudySummary:
    """Summary of one estimator's replicate estimates; failed rows are counted.

    ``interval`` is the row's entry of :func:`_intervals`, used when no
    replicate failed.
    """
    ok = batch.ok
    estimates = batch.n_hat[ok]
    failures = replicates - estimates.size
    if estimates.size < 2:
        return StudySummary(
            population=population,
            estimator=estimator,
            mean=math.nan,
            se=math.nan,
            rmse=math.nan,
            ci_low=math.nan,
            ci_high=math.nan,
            replicate_count=estimates.size,
            failures=failures,
            invalid=True,
            true_n=true_n,
        )
    deltas = None if batch.delta_used is None else batch.delta_used[ok]
    ci_low, ci_high = np.percentile(estimates, [2.5, 97.5]) if failures else interval
    return StudySummary(
        population=population,
        estimator=estimator,
        mean=float(np.mean(estimates)),
        se=float(np.std(estimates, ddof=1)),
        rmse=float(np.sqrt(np.mean((estimates - true_n) ** 2))),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        replicate_count=estimates.size,
        failures=failures,
        invalid=failures > 0.1 * replicates,
        true_n=true_n,
        delta_used=None if deltas is None else _exact_mean(deltas),
    )


def run_study(config: StudyConfig, *, purpose: int = PURPOSE_STUDY) -> list[StudySummary]:
    """Run the configured study; one summary per population x estimator.

    Summaries are emitted in population-major, estimator-minor order.
    Deterministic given (config.seed, purpose). Population i is sampled from
    stream unit i. Consecutive populations are stacked into groups of at
    most max(replicates, STACK_ROWS) rows; a group's tables are drawn in one
    ``draw_tables`` call over the group's uniforms, and each estimator
    solves the group's rows in one batch, each row at its own population's
    ``true_n``. Rows are drawn and solved independently, so the summaries
    do not depend on the grouping, and memory is bounded by the group size.
    """
    specs = [parse_estimator(e) for e in config.estimators]
    r = config.replicates
    per_group = max(1, STACK_ROWS // r)
    out: list[StudySummary] = []
    for first in range(0, len(config.populations), per_group):
        group = config.populations[first : first + per_group]
        units = range(first, first + len(group))
        u = np.concatenate([uniforms(config.seed, purpose, unit, r) for unit in units])
        true_n = np.repeat([pop.n for pop in group], r)
        cells = (np.repeat(c, r) for c in zip(*(pop.cells() for pop in group)))
        x11, x10, x01 = draw_tables(true_n, tuple(cells), u)
        batches = [est.estimate_batch(x11, x10, x01, true_n=true_n) for est in specs]
        intervals = [_intervals(batch.n_hat.reshape(len(group), r)) for batch in batches]
        for j, pop in enumerate(group):
            rows = slice(j * r, (j + 1) * r)
            for est, batch, interval in zip(specs, batches, intervals):
                out.append(
                    _summarize(pop.label, est.label, batch.take(rows), r, pop.n, interval[j])
                )
    return out


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def summaries_to_csv(summaries: list[StudySummary]) -> str:
    """Render summaries as CSV text under the fixed nine-column CSV_HEADER.

    The last column, ``delta_used``, is populated only on rows from
    adjusted-profile estimators.
    """
    lines = [CSV_HEADER]
    for s in summaries:
        lines.append(
            f"{s.population},{s.estimator},{_fmt(s.mean)},{_fmt(s.se)},{_fmt(s.rmse)},"
            f"{_fmt(s.ci_low)},{_fmt(s.ci_high)},{s.failures},{_fmt(s.delta_used)}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalingPoint:
    """Per-(situation, estimator, N) sampling s.d. with its study mean."""

    situation: str
    estimator: str
    n: int
    mean: float
    sd: float


@dataclass(frozen=True)
class ScalingResult:
    """Scaling-study output: grid points plus fitted log-log growth slopes."""

    points: tuple[ScalingPoint, ...]
    slopes: tuple[tuple[str, str, float], ...]

    def slope(self, situation: str, estimator: str) -> float:
        for sit, est, value in self.slopes:
            if sit == situation and est == estimator:
                return value
        raise KeyError((situation, estimator))

    def point(self, situation: str, estimator: str, n: int) -> ScalingPoint:
        for p in self.points:
            if p.situation == situation and p.estimator == estimator and p.n == n:
                return p
        raise KeyError((situation, estimator, n))


def _grid_study(
    grid: list[tuple[object, PopulationSpec]],
    replicates: int,
    seed: int,
    estimators,
    purpose: int,
) -> list[tuple[object, StudySummary]]:
    """Run one study over the (meta, population) grid; (meta, summary) pairs.

    Grid point i reads stream unit i, so every point has its own stream;
    each summary is paired with its point's metadata.
    """
    config = StudyConfig(
        populations=tuple(pop for _, pop in grid),
        estimators=tuple(estimators),
        replicates=replicates,
        seed=seed,
    )
    n_est = len(config.estimators)
    return [(grid[i // n_est][0], s) for i, s in enumerate(run_study(config, purpose=purpose))]


def _size_grid(specs, n_grid) -> list[tuple[tuple[str, int], PopulationSpec]]:
    """Each population at every N of the grid, with (label, N) as metadata."""
    return [
        ((spec.label, int(n)), spec.with_n(int(n), label=f"{spec.label}|N={int(n)}"))
        for spec in specs
        for n in n_grid
    ]


def _rel_band(s: StudySummary, n: int) -> tuple[float, float]:
    """95% relative band endpoints (mean -/+ 1.96 sd)/N."""
    half = 1.96 * s.se
    return (s.mean - half) / n, (s.mean + half) / n


def se_scaling_study(
    situations=SCALING_SITUATIONS,
    n_grid=DEFAULT_N_GRID,
    replicates: int = 200,
    seed: int = DEFAULT_SEED,
    estimators=("dse", "adpl-mtb:scaled:1.25"),
) -> ScalingResult:
    """Sampling s.d. versus population size, with log-log growth exponents.

    For each situation and estimator the replicate s.d. is computed at every
    N in the grid and the OLS slope of ln(sd) on ln(N) is reported: 0.5
    corresponds to square-root growth of the estimator's spread.
    """
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValidationError("scaling N grid must be strictly increasing")
    points = [
        ScalingPoint(sit_label, s.estimator, n, s.mean, s.se)
        for (sit_label, n), s in _grid_study(
            _size_grid(situations, n_grid), replicates, seed, estimators, PURPOSE_SCALING
        )
    ]
    est_labels = [parse_estimator(e).label for e in estimators]
    slopes = []
    for spec in situations:
        for est_label in est_labels:
            sub = [
                p for p in points
                if p.situation == spec.label and p.estimator == est_label and p.sd > 0
            ]
            if len(sub) < 2:
                slopes.append((spec.label, est_label, math.nan))
                continue
            xs = np.log([p.n for p in sub])
            ys = np.log([p.sd for p in sub])
            slopes.append((spec.label, est_label, float(np.polyfit(xs, ys, 1)[0])))
    return ScalingResult(points=tuple(points), slopes=tuple(slopes))


@dataclass(frozen=True)
class BandPoint:
    """95% relative confidence band endpoints at one (population, estimator, N).

    rel_lcl/rel_ucl are (mean -/+ 1.96 sd)/N; their difference is
    3.92 sd / N by construction.
    """

    population: str
    estimator: str
    n: int
    mean: float
    sd: float
    rel_lcl: float
    rel_ucl: float


def coverage_bands(
    populations=TABLE2_POPULATIONS,
    n_grid=DEFAULT_N_GRID,
    replicates: int = 200,
    seed: int = DEFAULT_SEED,
    estimators=("dse", "adpl-mtb:scaled:1.25"),
) -> list[BandPoint]:
    """Relative confidence bands across a size grid.

    Uses the replicate mean as the point estimate and the replicate s.d. as
    its s.e.; endpoints are scaled by the generating N so bands for
    different sizes share an axis and a band containing 1 brackets the truth.
    """
    return [
        BandPoint(pop_label, s.estimator, n, s.mean, s.se, *_rel_band(s, n))
        for (pop_label, n), s in _grid_study(
            _size_grid(populations, n_grid), replicates, seed, estimators, PURPOSE_BANDS
        )
    ]


@dataclass(frozen=True)
class SweepPoint:
    """Study summary at one (situation, behavioral effect, estimator) point."""

    situation: str
    phi: float
    estimator: str
    rel_mean: float
    rel_lcl: float
    rel_ucl: float
    mean: float
    sd: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    skipped: tuple[tuple[str, float, str], ...]


def robustness_sweep(
    situations=SWEEP_SITUATIONS,
    phi_grid=DEFAULT_PHI_GRID,
    n: int = 500,
    replicates: int = 200,
    seed: int = DEFAULT_SEED,
    estimators=("dse", "adpl-mtb:scaled:1.25"),
) -> SweepResult:
    """Estimator behavior across a grid of behavioral-effect values.

    Situations are (label, p1., p.1) pairs held fixed while the behavioral
    effect varies. Grid points whose derived first-capture probability is
    infeasible are skipped and reported in ``skipped`` rather than failing
    the sweep.
    """
    grid = []
    skipped = []
    for label, p1_dot, p_dot1 in situations:
        for phi in phi_grid:
            try:
                spec = PopulationSpec(f"{label}|phi={phi:g}", int(n), p1_dot, p_dot1, float(phi))
            except FeasibilityError as exc:
                skipped.append((label, float(phi), str(exc)))
            else:
                grid.append(((label, float(phi)), spec))
    points = [
        SweepPoint(sit_label, phi, s.estimator, s.mean / n, *_rel_band(s, n), s.mean, s.se)
        for (sit_label, phi), s in _grid_study(grid, replicates, seed, estimators, PURPOSE_SWEEP)
    ]
    return SweepResult(points=tuple(points), skipped=tuple(skipped))
