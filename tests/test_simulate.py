"""Study harness: deterministic sampling, summaries, derived experiments."""

import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrec import simulate
from dualrec.estimators import EstimatorSpec
from dualrec.randomness import DEFAULT_SEED, PURPOSE_STUDY
from dualrec.simulate import (
    CSV_HEADER,
    DEFAULT_N_GRID,
    DEFAULT_PHI_GRID,
    SCALING_SITUATIONS,
    SWEEP_SITUATIONS,
    TABLE2_POPULATIONS,
    PopulationSpec,
    StudyConfig,
    coverage_bands,
    robustness_sweep,
    run_study,
    sample_tables,
    se_scaling_study,
    summaries_to_csv,
)
from dualrec.tables import FeasibilityError, ValidationError

from conftest import scalar_estimate_batch

P1 = TABLE2_POPULATIONS[0]


def _config(populations, estimators, replicates=200, seed=DEFAULT_SEED):
    return StudyConfig(
        populations=tuple(populations),
        estimators=tuple(estimators),
        replicates=replicates,
        seed=seed,
    )


class TestPopulationSpec:
    def test_derived_first_capture_probability(self):
        params = P1.params()
        assert params.p == pytest.approx(26.0 / 45.0, rel=1e-15)
        assert sum(P1.cells()) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_combination_rejected(self):
        with pytest.raises(FeasibilityError):
            PopulationSpec("bad", 500, 0.80, 0.70, 0.5)

    def test_population_size_must_be_positive_integer(self):
        with pytest.raises(ValidationError):
            PopulationSpec("bad", 0, 0.5, 0.65, 1.25)
        with pytest.raises(ValidationError):
            PopulationSpec("bad", 500.0, 0.5, 0.65, 1.25)
        # Sampling memory grows as sqrt(N); 10**9 is the largest size.
        assert PopulationSpec("edge", 10**9, 0.5, 0.65, 1.25).n == 10**9
        for n in (10**9 + 1, 2**53):
            with pytest.raises(ValidationError, match="up to 10\\*\\*9"):
                PopulationSpec("big", n, 0.5, 0.65, 1.25)

    def test_resizing_keeps_probabilities(self):
        resized = P1.with_n(800)
        assert resized.n == 800
        assert resized.label == "P1"
        assert resized.p_dot1 == P1.p_dot1
        assert P1.with_n(800, label="P1|N=800").label == "P1|N=800"

    def test_json_round_trip(self):
        data = P1.to_json_dict()
        assert set(data) == {"label", "N", "p1", "p_dot1", "phi"}
        assert PopulationSpec.from_json_dict(data) == P1
        with pytest.raises(ValidationError):
            PopulationSpec.from_json_dict({"label": "x", "N": 10})


class TestExpectedDistinctColumn:
    def test_rounded_expected_counts(self):
        # P5's exact value is 430.555...; rounding gives 431.
        column = [round(p.expected_distinct()) for p in TABLE2_POPULATIONS]
        assert column == [394, 422, 458, 420, 431, 459, 483, 446]


class TestStudyConfig:
    def test_json_round_trip_and_exact_keys(self):
        config = _config([P1], ["dse", "adpl-mtb:scaled:1.25"], replicates=10)
        text = config.to_json()
        assert StudyConfig.from_json(text) == config
        data = json.loads(text)
        assert set(data) == {"populations", "estimators", "replicates", "seed"}
        assert set(data["populations"][0]) == {"label", "N", "p1", "p_dot1", "phi"}
        # Oracle mode is a per-estimator suffix; a study-wide key is an error.
        for mode in ("candidate", "oracle"):
            with pytest.raises(ValidationError, match="@oracle"):
                StudyConfig.from_json(json.dumps({**data, "delta_mode": mode}))

    def test_validation(self):
        with pytest.raises(ValidationError):
            _config([P1], ["dse"], replicates=1)
        with pytest.raises(ValidationError):
            _config([], ["dse"])
        with pytest.raises(ValidationError):
            _config([P1], [])
        with pytest.raises(ValidationError):
            _config([P1], ["petersen"])
        with pytest.raises(ValidationError):
            StudyConfig.from_json("{not json")
        with pytest.raises(ValidationError):
            StudyConfig.from_json('{"estimators": ["dse"], "replicates": 5, "seed": 1}')


    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "7"), ("seed", None),
         ("replicates", 2.5), ("replicates", False), ("replicates", "20")],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            _config([P1], ["dse"], **{"replicates": 20, "seed": 3, field: value})

    def test_integral_floats_and_numpy_integers_are_the_integer(self):
        want = run_study(_config([P1], ["dse", "adpl-mtb:scaled:1.25"], replicates=20, seed=3))
        for replicates, seed in [(20.0, 3.0), (np.int64(20), np.uint32(3))]:
            config = _config([P1], ["dse", "adpl-mtb:scaled:1.25"], replicates, seed)
            assert (type(config.replicates), type(config.seed)) == (int, int)
            assert run_study(config) == want


class TestExactMean:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.floats(0.5, 1.0)
            | st.floats(-1e-300, 1e-300),
            min_size=1,
            max_size=60,
        )
    )
    @example([0.1] * 200)
    @example([5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_equals_statistics_mean(self, values):
        assert simulate._exact_mean(np.array(values)) == statistics.mean(values)


class TestIntervals:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 300)),
        spread=st.integers(2, 10**9),  # narrow spreads make ties
        fraction=st.sampled_from([0.0, 1.0]),  # integer argmaxes, or DSE-like values
        seed=st.integers(0, 2**32 - 1),
        failed=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_group_call_equals_the_per_summary_call(self, shape, spread, fraction, seed, failed):
        rng = np.random.default_rng(seed)
        n_hat = rng.integers(1, spread, shape) + fraction * rng.random(shape)
        failed = np.array(failed[: shape[0]])
        n_hat[failed, 0] = math.nan  # a failed replicate
        got = simulate._intervals(n_hat)
        for row, interval, row_failed in zip(n_hat, got, failed):
            if row_failed:
                assert np.isnan(interval).all()
            else:
                np.testing.assert_array_equal(interval, np.percentile(row, [2.5, 97.5]))


class TestSampling:
    def test_single_draw_equals_batch_row(self):
        x11, x10, x01 = sample_tables(P1, DEFAULT_SEED, PURPOSE_STUDY, 0, 10)
        for r in (0, 4, 9):
            one = sample_tables(P1, DEFAULT_SEED, PURPOSE_STUDY, 0, 1, start=r)
            assert tuple(int(c[0]) for c in one) == (int(x11[r]), int(x10[r]), int(x01[r]))

    def test_study_draws_each_stack_group_at_once(self, monkeypatch):
        # Two groups: 13 populations of 300 rows fill a group, the 14th makes
        # another. Each group's single draw holds every population's rows as
        # that population drawn alone from its own stream unit.
        pops = [P1.with_n(n, label=f"A{i}|{n}") for i in range(4) for n in (200, 500, 1000)]
        pops += [TABLE2_POPULATIONS[5].with_n(500, label="B"), P1.with_n(20, label="C")]
        calls, draw = [], simulate.draw_tables
        monkeypatch.setattr(
            simulate, "draw_tables", lambda *a: calls.append(draw(*a)) or calls[-1]
        )
        run_study(_config(pops, ["dse"], replicates=300, seed=11))
        assert len(calls) == 2
        drawn = [np.concatenate(cells) for cells in zip(*calls)]
        for i, pop in enumerate(pops):
            alone = sample_tables(pop, 11, PURPOSE_STUDY, i, 300)
            for got, want in zip(drawn, alone):
                assert np.array_equal(got[i * 300 : (i + 1) * 300], want)

    def test_mean_distinct_count_matches_expectation(self):
        count = 20000
        x11, x10, x01 = sample_tables(P1, DEFAULT_SEED, PURPOSE_STUDY, 0, count)
        x0 = x11 + x10 + x01
        expected = P1.expected_distinct()
        p0 = expected / P1.n
        se_mean = math.sqrt(P1.n * p0 * (1.0 - p0) / count)
        assert abs(x0.mean() - expected) < 3.0 * se_mean


class TestRunStudy:
    def test_summary_internal_consistency(self):
        config = _config([P1], ["dse"])
        (s,) = run_study(config)
        assert s.population == "P1" and s.estimator == "dse"
        assert s.replicate_count + s.failures == 200
        assert s.ci_low < s.mean < s.ci_high
        assert 440.0 < s.mean < 460.0  # near truth + documented upward bias
        bias_sq = (s.mean - s.true_n) ** 2
        var_term = s.se**2 * (s.replicate_count - 1) / s.replicate_count
        assert s.rmse**2 == pytest.approx(bias_sq + var_term, rel=1e-9)

    def test_population_major_ordering(self):
        config = _config([P1, TABLE2_POPULATIONS[4]], ["dse", "pl-mtb"], replicates=5)
        labels = [(s.population, s.estimator) for s in run_study(config)]
        assert labels == [
            ("P1", "dse"), ("P1", "pl-mtb"), ("P5", "dse"), ("P5", "pl-mtb"),
        ]

    def test_study_equals_per_replicate_scalar_estimates(self, monkeypatch):
        # The sparse design fails rows: x11 = 0, x1. = 0 or x10 = 0.
        sparse = PopulationSpec("sparse", 30, 0.10, 0.30, 1.0)
        config = _config(
            [P1, sparse], ["dse", "adpl-mtb:recapture:4.0", "mpl-mt"], replicates=60, seed=99
        )
        baseline = summaries_to_csv(run_study(config))
        assert summaries_to_csv(run_study(config)) == baseline
        assert all(s.failures > 0 for s in run_study(config)[3:])
        monkeypatch.setattr(EstimatorSpec, "estimate_batch", scalar_estimate_batch)
        assert summaries_to_csv(run_study(config)) == baseline

    def test_candidate_and_oracle_modes_differ_and_suffix_selects_oracle(self):
        delta = 1.0 - 1.25 / 500.0
        descriptors = ["adpl-mtb:scaled:1.25", "adpl-mtb:scaled:1.25@oracle"]
        (c, s, f) = run_study(
            _config([P1], descriptors + [f"adpl-mtb:fixed:{delta!r}"], replicates=40)
        )
        assert c.mean != s.mean
        # Oracle mode evaluates delta once at the generating N = 500.
        assert (s.mean, s.se, s.rmse) == (f.mean, f.se, f.rmse)
        assert s.delta_used == delta

    def test_failures_are_counted_and_flagged(self):
        sparse = PopulationSpec("sparse", 100, 0.10, 0.10, 1.0)
        config = _config([sparse], ["dse"], replicates=100, seed=5)
        (s,) = run_study(config)
        assert s.failures > 10
        assert s.replicate_count + s.failures == 100
        assert s.invalid

    def test_cell_with_too_few_successes_is_nan(self):
        barren = PopulationSpec("barren", 50, 0.002, 0.002, 1.0)
        config = _config([barren], ["dse"], replicates=50, seed=5)
        (s,) = run_study(config)
        assert s.replicate_count < 2
        assert s.invalid
        assert math.isnan(s.mean) and math.isnan(s.rmse)

    def test_study_at_a_billion_runs_in_bounded_memory(self):
        # Sampling holds a window of about 50 sd per CDF (39.2 sd left of the
        # mean, 10.7 sd right of it), never n + 1 points.
        huge = PopulationSpec("G", 10**9, 0.60, 0.70, 1.25)
        config = _config([huge], ["dse", "pl-mtb"], replicates=20)
        tracemalloc.start()
        try:
            summaries = run_study(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert [s.replicate_count for s in summaries] == [20, 20]
        assert all(0.8 * 10**9 < s.mean < 10**9 for s in summaries)  # both biased low at phi > 1

    def test_group_of_far_apart_populations_runs_in_bounded_memory(self):
        # One stack group of N = 20 and N = 1e8 at R = 80: the large
        # population's 80 stage-2 windows (about 161k points each, 1.29e7 in
        # all) lie about 1.4e7 points from the small population's, a gap
        # that a log-factorial table shared by the whole group would span
        # (over 200 MB). Each population's windows keep tables of their own,
        # as in a study of either alone.
        pops = [
            PopulationSpec("T", 20, 0.60, 0.70, 1.25),
            PopulationSpec("H", 10**8, 0.60, 0.70, 1.25),
        ]
        config = _config(pops, ["dse"], replicates=80, seed=7)
        tracemalloc.start()
        try:
            summaries = run_study(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 0.8 * 10**8 < summaries[1].mean < 10**8  # biased low at phi > 1

    def test_study_csv_does_not_depend_on_the_stacking(self, monkeypatch):
        # Populations of different N, in candidate and oracle mode; groups of
        # one population, of two, and one group of all five.
        pops = [P1.with_n(n, label=f"P1|{n}") for n in (20, 100, 500, 20_000)] + [
            PopulationSpec("sparse", 40, 0.10, 0.30, 1.0)
        ]
        estimators = ["dse", "mpl-mt", "adpl-mtb:recapture:1.25", "adpl-mtb:scaled:1.25@oracle"]
        config = _config(pops, estimators, replicates=30, seed=17)
        csvs = []
        for rows in (1, 60, 10**6):
            monkeypatch.setattr(simulate, "STACK_ROWS", rows)
            csvs.append(summaries_to_csv(run_study(config)))
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
        assert len(csvs[0].splitlines()) == 1 + len(pops) * len(estimators)

    def test_oracle_rows_of_each_population_use_its_own_size(self):
        # One stack holds both populations; each oracle row evaluates delta
        # at its own population's N, as a study of that population alone does.
        pops = [P1.with_n(100, label="small"), P1]
        descriptor = "adpl-mtb:scaled:1.25@oracle"
        together = run_study(_config(pops, [descriptor], replicates=40))
        assert [s.delta_used for s in together] == [1.0 - 1.25 / 100, 1.0 - 1.25 / 500]
        alone = run_study(_config(pops[:1], [descriptor], replicates=40))
        assert together[0] == alone[0]

    def test_csv_rendering(self):
        config = _config([P1], ["dse", "adpl-mtb:fixed:0.99"], replicates=20)
        summaries = run_study(config)
        lines = summaries_to_csv(summaries).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "population,estimator,mean,se,rmse,ci_low,ci_high,failures,delta_used"
        assert len(lines) == 3
        assert lines[1].endswith(",")  # dse row has no delta
        assert lines[2].endswith(",0.99")


class TestScalingStudy:
    def test_slopes_and_point_lookup(self):
        result = se_scaling_study(
            situations=SCALING_SITUATIONS[:1],
            n_grid=(100, 200, 400),
            replicates=60,
        )
        slope = result.slope("S1", "dse")
        assert math.isfinite(slope)
        assert 0.2 < slope < 0.8  # square-root-like spread growth
        point = result.point("S1", "dse", 200)
        assert point.sd > 0
        with pytest.raises(KeyError):
            result.slope("S1", "nope")
        with pytest.raises(KeyError):
            result.point("S9", "dse", 200)

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            se_scaling_study(n_grid=(100, 100), replicates=10)

    def test_slope_needs_two_positive_spreads(self):
        result = se_scaling_study(
            situations=SCALING_SITUATIONS[:1], n_grid=(100,), replicates=10
        )
        assert result.point("S1", "dse", 100).sd > 0
        assert math.isnan(result.slope("S1", "dse"))


class TestCoverageBands:
    def test_band_width_identity_and_truth_coverage(self):
        points = coverage_bands(
            populations=(TABLE2_POPULATIONS[4], TABLE2_POPULATIONS[7]),
            n_grid=(500,),
            replicates=200,
            estimators=("adpl-mtb:scaled:1.25",),
        )
        assert len(points) == 2
        for p in points:
            assert p.rel_ucl - p.rel_lcl == pytest.approx(3.92 * p.sd / p.n, rel=1e-12)
            assert p.rel_lcl < 1.0 < p.rel_ucl


class TestRobustnessSweep:
    def test_infeasible_grid_points_are_skipped_not_fatal(self):
        result = robustness_sweep(
            phi_grid=(0.5, 1.0), replicates=60, estimators=("dse",)
        )
        skipped = {(label, phi) for label, phi, _ in result.skipped}
        assert skipped == {("p60-70", 0.5), ("p80-70", 0.5)}
        for _, _, reason in result.skipped:
            assert reason  # carries the feasibility diagnostic
        # 4 situations x 2 phis - 2 skipped = 6 evaluated points
        assert len(result.points) == 6

    def test_dse_is_centered_without_behavioral_effect(self):
        result = robustness_sweep(
            situations=SWEEP_SITUATIONS[:2],
            phi_grid=(1.0,),
            replicates=100,
            estimators=("dse",),
        )
        for point in result.points:
            assert point.phi == 1.0
            assert abs(point.rel_mean - 1.0) < 0.02
            assert point.rel_lcl < 1.0 < point.rel_ucl

    def test_default_grids_are_as_documented(self):
        assert DEFAULT_PHI_GRID[0] == 0.5 and DEFAULT_PHI_GRID[-1] == 3.0
        assert len(DEFAULT_PHI_GRID) == 11
        assert DEFAULT_N_GRID == tuple(range(100, 1001, 100))
        assert [s[0] for s in SWEEP_SITUATIONS] == [
            "p50-65", "p60-70", "p80-70", "p70-55",
        ]
