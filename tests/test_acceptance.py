"""Acceptance suite: end-to-end checks against published study values.

Each test covers one acceptance criterion and finishes with a single
pass/fail assertion; the body prints per-cell detail so a failure shows
exactly which comparisons missed. Three tests also print a known discrepancy
between the published reference values and this implementation, while
asserting what the package itself promises:

- the expected observed-count column: each published entry is an integer
  rendering (floor or ceiling) of the exact expectation; P5 prints 430
  where round-half-up gives 431, and no single stated rounding rule
  matches the whole column;
- the dual-system moments: Monte Carlo bias matches the closed form, and
  Monte Carlo variance matches the full first-order (delta-method)
  variance; the reduced expression ``var_dse_under_mtb``, which omits the
  covariance terms, is printed as a ratio;
- the spread growth: both estimators' fitted log-log slopes lie near the
  square-root rate, and the adjusted spread is strictly below the
  dual-system spread at every grid point; the pointwise ln(sd)/ln(N) at
  the smallest N is printed.

A fourth checks the published case studies, whose raw cells were not
published: a table consistent with the urban summaries reproduces the urban
adjusted estimate, and for the rural and drug-user cases the estimates over
every table consistent with the summaries are printed, none of which gives
the published pair.
"""

import math

import numpy as np
import pytest

from dualrec import kernels
from dualrec.cli import load_published_reference
from dualrec.estimators import (
    EstimatorSpec,
    _var_dse_first_order,
    bias_dse_under_mtb,
    parse_estimator,
    recover_nuisance,
    var_dse_under_mtb,
)
from dualrec.randomness import DEFAULT_SEED, PURPOSE_STUDY
from dualrec.simulate import (
    TABLE2_POPULATIONS,
    StudyConfig,
    coverage_bands,
    robustness_sweep,
    run_study,
    sample_tables,
    se_scaling_study,
    summaries_to_csv,
)
from dualrec.tables import DualRecordTable, NoFiniteMaximumError

from conftest import scalar_estimate_batch

ADPL = "adpl-mtb:scaled:1.25"


def _verdict(label: str, failures: list) -> None:
    if failures:
        for line in failures:
            print(f"  FAIL {line}")
        print(f"FAIL: {label} ({len(failures)} violation(s))")
    else:
        print(f"PASS: {label}")
    assert not failures, f"{label}: {len(failures)} violation(s); see captured output"


def test_expected_observed_counts_match_published_column():
    """Each published expected distinct count is the floor or ceiling of the exact value.

    The column is an integer rendering of N(1 - (1-p1.)(1-p)); its rounding
    convention is not stated and no single rule fits all eight entries (P5
    prints 430 for 430.56). A design error that moves an expected count by
    two individuals or more always moves it outside [floor, ceil].
    """
    published = load_published_reference()["expected_distinct_published"]
    failures = []
    for pop in TABLE2_POPULATIONS:
        exact = pop.expected_distinct()
        want = published[pop.label]
        low, high = math.floor(exact), math.ceil(exact)
        note = "" if round(exact) == want else "  <-- published differs from round()"
        print(
            f"  {pop.label}: exact={exact:.4f} rounded={round(exact)} "
            f"published={want}{note}"
        )
        if not low <= want <= high:
            failures.append(
                f"{pop.label}: published {want} outside [{low}, {high}] "
                f"around computed {exact:.4f}"
            )
    _verdict("expected observed-count column", failures)


def test_independence_maximizers_match_grid_oracles_and_orderings(random_tables):
    """Estimator argmaxes equal brute-force grids; orderings and boundary laws hold."""
    tables = random_tables(1000)
    pl = parse_estimator("pl-mt")
    mpl = parse_estimator("mpl-mt")
    pl_mtb = parse_estimator("pl-mtb")
    failures = []
    checked = 0
    for t in tables:
        num = t.x1_dot * t.x_dot1
        grid = np.arange(t.x0, num // t.x11 + 81)
        with np.errstate(divide="ignore"):
            pl_oracle = int(grid[np.argmax(kernels.log_profile_mt(grid, t))])
            mpl_oracle = int(grid[np.argmax(kernels.log_mpl_mt(grid, t))])
        pl_hat = int(pl.estimate(t).n_hat)
        mpl_hat = int(mpl.estimate(t).n_hat)
        if pl_hat != pl_oracle:
            failures.append(f"profile argmax {pl_hat} != grid {pl_oracle} on {t}")
        if mpl_hat != mpl_oracle:
            failures.append(f"modified argmax {mpl_hat} != grid {mpl_oracle} on {t}")
        if pl_hat > mpl_hat:
            failures.append(f"ordering violated: {pl_hat} > {mpl_hat} on {t}")
        bgrid = np.arange(t.x0 + 1, t.x0 + 3001)
        b_oracle = int(bgrid[np.argmax(kernels.log_profile_mtb(bgrid, t))])
        b_hat = int(pl_mtb.estimate(t).n_hat)
        if b_oracle != t.x0 + 1 or b_hat != t.x0 + 1:
            failures.append(
                f"behavioral profile argmax {b_hat} (grid {b_oracle}) != x0+1 on {t}"
            )
        checked += 1
    for x0 in sorted({t.x0 for t in tables}):
        steps = kernels.log_mpl_mtb_step(np.arange(x0 + 1, 10**5), x0)
        if steps.min() <= 0.0:
            failures.append(f"behavioral MPL not strictly increasing for x0={x0}")
    print(f"  {checked} random tables checked (argmax equality, ordering, boundary)")
    print(f"  strict-increase verified to 1e5 for {len({t.x0 for t in tables})} distinct x0")
    _verdict("integer-grid oracle suite", failures)


# (x11, x10, x01) -> (argmax at delta=0.2, argmax at delta=0.99); every
# delta=0.2 value is x0+1 (boundary collapse), every delta=0.99 value is a
# finite interior maximizer strictly above it.
REGIME_GOLDENS = {
    (50, 30, 20): (101, 115),
    (60, 45, 10): (116, 128),
    (80, 20, 5): (106, 116),
    (100, 80, 15): (196, 210),
    (120, 60, 18): (199, 213),
    (90, 100, 12): (203, 216),
    (150, 50, 8): (209, 220),
    (70, 40, 3): (114, 123),
    (200, 100, 12): (313, 326),
    (110, 75, 6): (192, 203),
    (130, 90, 16): (237, 251),
    (95, 60, 11): (167, 179),
    (300, 80, 10): (391, 404),
    (250, 130, 15): (396, 410),
}


def test_adjustment_regime_boundaries_and_goldens():
    """Adjustment coefficient regimes: divergence, boundary collapse, interior golden."""
    low = parse_estimator("adpl-mtb:fixed:0.2")
    near_one = parse_estimator("adpl-mtb:fixed:0.99")
    failures = []
    for cells, (want_low, want_high) in REGIME_GOLDENS.items():
        t = DualRecordTable(*cells)
        for delta in ("1.0", "1.5"):
            try:
                parse_estimator(f"adpl-mtb:fixed:{delta}").estimate(t)
                failures.append(f"delta={delta} returned a finite estimate on {t}")
            except NoFiniteMaximumError:
                pass
        r_low = low.estimate(t)
        r_high = near_one.estimate(t)
        print(
            f"  {cells} x0={t.x0}: delta=0.2 -> {int(r_low.n_hat)} "
            f"(degenerate={r_low.degenerate}), delta=0.99 -> {int(r_high.n_hat)}"
        )
        if int(r_low.n_hat) != want_low or not r_low.degenerate:
            failures.append(f"delta=0.2 on {t}: got {int(r_low.n_hat)}, want {want_low}")
        if int(r_low.n_hat) != t.x0 + 1:
            failures.append(f"delta=0.2 on {t}: boundary is x0+1={t.x0 + 1}")
        if int(r_high.n_hat) != want_high or r_high.degenerate:
            failures.append(f"delta=0.99 on {t}: got {int(r_high.n_hat)}, want {want_high}")
        if not int(r_high.n_hat) > t.x0 + 1:
            failures.append(f"delta=0.99 on {t}: not strictly interior")
    _verdict("adjustment regime suite", failures)


def _consistent_tables(c_hat: float, dse: int) -> list[tuple[int, int, int]]:
    """Every table (x11, x10, x01) whose summaries print as the published ones.

    That is round(x11/x1., 3) == c_hat, and the DSE x1.*x.1/x11 floors or
    rounds to dse. x.1 >= x11 puts x1. at most the DSE.
    """
    out = []
    for x1 in range(1, dse + 2):
        low, high = math.floor((c_hat - 1e-3) * x1), math.ceil((c_hat + 1e-3) * x1)
        for x11 in range(max(1, low), min(x1, high) + 1):
            if round(x11 / x1, 3) != c_hat:
                continue
            first, last = math.floor((dse - 0.5) * x11 / x1), math.ceil((dse + 1) * x11 / x1)
            for xd1 in range(max(x11, first), last + 1):
                value = x1 * xd1 / x11
                if math.floor(value) == dse or round(value) == dse:
                    out.append((x11, x1 - x11, xd1 - x11))
    return out


def test_case_studies_urban_reproduced_rural_and_drug_user_printed():
    """The published urban adjusted estimate is reproduced on a consistent table.

    The case studies give c_hat = x11/x1. to three decimals, the DSE, and the
    ``adpl-mtb`` estimate under delta = 1 - 4(1 - c_hat)/N
    (``adpl-mtb:recapture:4``), not the cells. (1646, 316, 804) prints as the
    urban summaries and gives the published 3428 and phi 1.53. For the rural
    and drug-user cases every table consistent with the summaries is
    estimated in one batch; the printed ranges and nearest tables show that
    none gives the published pair.
    """
    cases = load_published_reference()["case_studies"]
    regions = cases["death-registration"]["regions"]
    spec = parse_estimator("adpl-mtb:recapture:4")
    failures = []
    urban = regions["urban-area"]
    cells = (1646, 316, 804)
    table = DualRecordTable(*cells)
    c_hat = round(table.x11 / table.x1_dot, 3)
    dse = parse_estimator("dse").estimate(table).n_hat
    adpl = spec.estimate(table)
    phi_hat = round(adpl.phi_hat, 2)
    print(
        f"  urban-area {cells}: c_hat {c_hat} (published {urban['c_hat']}), DSE {dse:.2f} "
        f"(published {urban['dse']}), adpl-mtb {adpl.n_hat:.0f} phi {adpl.phi_hat:.4f} "
        f"(published {urban['adpl-mtb']['n_hat']} phi {urban['adpl-mtb']['phi_hat']})"
    )
    if c_hat != urban["c_hat"] or round(dse) != urban["dse"]:
        failures.append(f"{cells} does not print as the urban summaries")
    if cells not in _consistent_tables(urban["c_hat"], urban["dse"]):
        failures.append(f"{cells} is not among the tables consistent with the urban summaries")
    if adpl.n_hat != urban["adpl-mtb"]["n_hat"] or phi_hat != urban["adpl-mtb"]["phi_hat"]:
        failures.append(f"urban adpl-mtb: got {adpl.n_hat} phi {phi_hat}")
    # Printed, not asserted: the published rural and drug-user pairs.
    others = {"rural-area": regions["rural-area"], "drug-user-cohort": cases["drug-user-cohort"]}
    for label, case in others.items():
        tables = _consistent_tables(case["c_hat"], case["dse"])
        n_hat = spec.estimate_batch(*(np.array(c) for c in zip(*tables))).n_hat
        want = case["adpl-mtb"]
        nearest = sorted(zip(np.abs(n_hat - want["n_hat"]), tables, n_hat))[:2]
        near = ", ".join(
            f"{t} -> {n:.0f} phi {recover_nuisance(n, DualRecordTable(*t))[3]:.3f}"
            for _, t, n in nearest
        )
        print(
            f"  {label}: published adpl-mtb {want['n_hat']} phi {want['phi_hat']}; "
            f"{len(tables)} tables consistent with c_hat {case['c_hat']} and DSE {case['dse']} "
            f"give {np.min(n_hat):.0f}-{np.max(n_hat):.0f}; nearest {near}"
        )
    _verdict("published case studies", failures)


def test_desk_scale_study_reproduces_published_cells():
    """Study means and spreads at R=200 match the published cells within noise."""
    ks = ("0.75", "1.25", "1.75")
    estimators = (
        ("dse",)
        + tuple(f"adpl-mtb:scaled:{k}" for k in ks)
        + tuple(f"adpl-mtb:scaled:{k}@oracle" for k in ks)
    )
    config = StudyConfig(
        populations=TABLE2_POPULATIONS,
        estimators=estimators,
        replicates=200,
        seed=DEFAULT_SEED,
    )
    summaries = {(s.population, s.estimator): s for s in run_study(config)}
    published = load_published_reference()["study_summaries"]
    failures = []
    for pop in TABLE2_POPULATIONS:
        for est in estimators:
            s = summaries[(pop.label, est)]
            ref = published[pop.label][est.removesuffix("@oracle")]
            tol = 3.0 * ref["se"] / math.sqrt(200.0) + 1.0
            mean_ok = abs(s.mean - ref["mean"]) <= tol
            sd_ok = 0.7 * ref["se"] <= s.se <= 1.3 * ref["se"]
            asserted = not est.endswith("@oracle")
            tag = "asserted" if asserted else "informational"
            print(
                f"  {pop.label} {est}: mean={s.mean:.1f} vs {ref['mean']}+-{tol:.1f} "
                f"[{'ok' if mean_ok else 'MISS'}], sd={s.se:.2f} vs {ref['se']} +-30% "
                f"[{'ok' if sd_ok else 'MISS'}] ({tag})"
            )
            if asserted and not mean_ok:
                failures.append(
                    f"{pop.label} {est}: mean {s.mean:.2f} outside {ref['mean']} +- {tol:.2f}"
                )
            if asserted and not sd_ok:
                failures.append(
                    f"{pop.label} {est}: sd {s.se:.2f} outside 30% of {ref['se']}"
                )
    _verdict("desk-scale study reproduction", failures)


def test_dse_moment_formulas_match_monte_carlo():
    """Dual-system bias and first-order variance match large-R Monte Carlo moments.

    The variance target is the full first-order (delta-method) form; the
    ratio of Monte Carlo variance to the reduced ``var_dse_under_mtb``
    expression is printed as a recorded discrepancy.
    """
    replicates = 10**5
    failures = []
    for pi, pop in enumerate(TABLE2_POPULATIONS):
        x11, x10, x01 = sample_tables(pop, DEFAULT_SEED, PURPOSE_STUDY, pi, replicates)
        keep = x11 > 0
        dse = (x11 + x10)[keep] * (x11 + x01)[keep] / x11[keep]
        params = pop.params()
        mean_target = pop.n + bias_dse_under_mtb(params)
        var_target = _var_dse_first_order(params.n, params.p1_dot, params.p, params.phi)
        var_reduced = var_dse_under_mtb(params)
        mc_mean = dse.mean()
        mc_var = dse.var(ddof=1)
        centered = dse - mc_mean
        se_mean = dse.std(ddof=1) / math.sqrt(dse.size)
        se_var = math.sqrt(max((centered**4).mean() - mc_var**2, 0.0) / dse.size)
        mean_tol = 3.0 * se_mean + 0.10 * abs(bias_dse_under_mtb(params))
        var_tol = 3.0 * se_var + 0.10 * var_target
        mean_ok = abs(mc_mean - mean_target) <= mean_tol
        var_ok = abs(mc_var - var_target) <= var_tol
        print(
            f"  {pop.label}: mean {mc_mean:.2f} vs {mean_target:.2f}+-{mean_tol:.2f} "
            f"[{'ok' if mean_ok else 'MISS'}], var {mc_var:.1f} vs first-order "
            f"{var_target:.1f}+-{var_tol:.1f} [{'ok' if var_ok else 'MISS'}] "
            f"(ratio {mc_var / var_target:.3f}; reduced {var_reduced:.1f}, "
            f"ratio {mc_var / var_reduced:.3f})"
        )
        if not mean_ok:
            failures.append(
                f"{pop.label} mean: {mc_mean:.2f} vs {mean_target:.2f} +- {mean_tol:.2f}"
            )
        if not var_ok:
            failures.append(
                f"{pop.label} variance: {mc_var:.1f} vs {var_target:.1f} +- {var_tol:.1f}"
            )
    _verdict("dual-system moment formulas", failures)


def test_spread_growth_exponents_and_dominance():
    """Log-log spread growth: both exponents near 1/2, adjusted spread dominated.

    At fixed capture probabilities every cell count is Binomial(N, .), so
    the spread of an estimator whose mean scales with N grows at least like
    sqrt(N) (Cramer-Rao). The pointwise ln(sd)/ln(N) = 0.5 + ln(a)/ln(N) at
    the smallest N is printed for reference; it is not a growth exponent.
    """
    result = se_scaling_study(replicates=2000)
    situations = sorted({p.situation for p in result.points})
    failures = []
    for sit in situations:
        dse_slope = result.slope(sit, "dse")
        adpl_slope = result.slope(sit, ADPL)
        small_n = min(p.n for p in result.points if p.situation == sit)
        pointwise = {
            est: math.log(result.point(sit, est, small_n).sd) / math.log(small_n)
            for est in ("dse", ADPL)
        }
        print(
            f"  {sit}: slope dse={dse_slope:.3f} adpl={adpl_slope:.3f}; "
            f"pointwise ln(sd)/ln(N) at N={small_n}: "
            f"dse={pointwise['dse']:.3f} adpl={pointwise[ADPL]:.3f}"
        )
        if not 0.40 <= dse_slope <= 0.60:
            failures.append(f"{sit}: dse exponent {dse_slope:.3f} outside [0.40, 0.60]")
        if not 0.40 <= adpl_slope <= 0.60:
            failures.append(f"{sit}: adjusted exponent {adpl_slope:.3f} outside [0.40, 0.60]")
        for p in result.points:
            if p.situation == sit and p.estimator == "dse":
                rival = result.point(sit, ADPL, p.n)
                if not rival.sd < p.sd:
                    failures.append(f"{sit} N={p.n}: sd {rival.sd:.2f} !< {p.sd:.2f}")
    _verdict("spread growth exponents", failures)


def test_relative_bands_and_effect_sweep_dominance():
    """Adjusted bands never wider than dual-system bands; sweep centered and dominated."""
    failures = []
    points = coverage_bands(replicates=2000)
    by_cell = {(p.population, p.estimator, p.n): p for p in points}
    band_checks = 0
    for pop in TABLE2_POPULATIONS:
        for n in sorted({p.n for p in points}):
            dse_p = by_cell[(pop.label, "dse", n)]
            adpl_p = by_cell[(pop.label, ADPL, n)]
            dse_w = dse_p.rel_ucl - dse_p.rel_lcl
            adpl_w = adpl_p.rel_ucl - adpl_p.rel_lcl
            band_checks += 1
            if not adpl_w <= dse_w:
                failures.append(
                    f"band width {pop.label} N={n}: {adpl_w:.4f} > {dse_w:.4f}"
                )
    print(f"  band-width dominance: {band_checks} grid cells compared")
    sweep = robustness_sweep(replicates=2000)
    for label, phi, reason in sweep.skipped:
        print(f"  skipped infeasible sweep point {label} phi={phi:g}: {reason}")
    if {(label, phi) for label, phi, _ in sweep.skipped} != {("p60-70", 0.5), ("p80-70", 0.5)}:
        failures.append(f"unexpected skipped set {sweep.skipped}")
    situations = sorted({p.situation for p in sweep.points})
    for sit in situations:
        errs = {
            est: max(
                abs(p.rel_mean - 1.0)
                for p in sweep.points
                if p.situation == sit and p.estimator == est
            )
            for est in ("dse", ADPL)
        }
        print(
            f"  {sit}: max |rel mean - 1| dse={errs['dse']:.4f} adpl={errs[ADPL]:.4f}"
        )
        if not errs[ADPL] <= errs["dse"]:
            failures.append(
                f"{sit}: adjusted worst error {errs[ADPL]:.4f} > dse {errs['dse']:.4f}"
            )
        at_one = [
            p for p in sweep.points
            if p.situation == sit and p.estimator == "dse" and p.phi == 1.0
        ]
        if not at_one or abs(at_one[0].rel_mean - 1.0) > 0.02:
            failures.append(f"{sit}: dse not centered at phi=1 ({at_one})")
    _verdict("relative bands and effect sweep", failures)


def test_studies_byte_identical_across_reruns_and_batch_composition(monkeypatch):
    """Identical seed gives byte-identical study CSV, whatever rows share a batch.

    A rerun reproduces the CSV; so does the study with every replicate
    estimated on its own by the scalar search, and so do batches of
    replicate halves.
    """
    config = StudyConfig(
        populations=(TABLE2_POPULATIONS[0], TABLE2_POPULATIONS[4]),
        estimators=("dse", ADPL, ADPL + "@oracle", "pl-mtb"),
        replicates=80,
        seed=DEFAULT_SEED,
    )
    baseline = summaries_to_csv(run_study(config))
    failures = []
    if summaries_to_csv(run_study(config)) != baseline:
        failures.append("rerun differs from first run")
    cells = sample_tables(TABLE2_POPULATIONS[0], DEFAULT_SEED, PURPOSE_STUDY, 0, 80)
    for descriptor in config.estimators:
        spec = parse_estimator(descriptor)
        whole = spec.estimate_batch(*cells, true_n=500).n_hat
        halves = np.concatenate(
            [spec.estimate_batch(*(c[part] for c in cells), true_n=500).n_hat
             for part in (slice(0, 37), slice(37, None))]
        )
        if not np.array_equal(whole, halves, equal_nan=True):
            failures.append(f"{descriptor}: halves estimated apart differ from one batch")
    monkeypatch.setattr(EstimatorSpec, "estimate_batch", scalar_estimate_batch)
    if summaries_to_csv(run_study(config)) != baseline:
        failures.append("per-replicate scalar estimates give a different CSV")
    print(f"  {len(baseline.splitlines())} CSV lines compared across 3 runs")
    _verdict("byte-identical determinism", failures)
