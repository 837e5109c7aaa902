"""Point-estimator behavior: exact argmaxes, policies, moments, bootstrap."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dualrec.estimators as est_module
from dualrec import kernels
from dualrec.estimators import (
    BootstrapResult,
    DeltaPolicy,
    EstimatorSpec,
    HARD_CEILING,
    _argmax,
    _var_dse_first_order,
    bias_dse_under_mtb,
    dse,
    mle_adpl_mt,
    mle_adpl_mtb,
    mle_mpl_mt,
    mle_profile_mt,
    mle_profile_mtb,
    parametric_bootstrap,
    parse_estimator,
    ratio_moment_approx,
    recover_nuisance,
    var_dse_under_mtb,
)
from dualrec.kernels import (
    log_adpl_mt,
    log_adpl_mtb,
    log_mpl_mt,
    log_profile_mt,
    log_profile_mtb,
)
from dualrec.simulate import TABLE2_POPULATIONS
from dualrec.tables import (
    DualRecordTable,
    TableArrays,
    EstimationError,
    MtbParams,
    NoFiniteMaximumError,
    UndefinedEstimateError,
    ValidationError,
    cell_probs_mtb,
    p_from_marginals,
)

from conftest import BEYOND_CEILING, DESCRIPTORS, scalar_estimate_batch

T = DualRecordTable(50, 30, 20)
SMALL = DualRecordTable(7, 5, 3)


class TestDse:
    def test_worked_values(self):
        rep = dse(T)
        assert rep.n_hat == 112.0
        assert rep.n_hat_integer == 112
        small = dse(SMALL)
        assert small.n_hat == pytest.approx(120.0 / 7.0, rel=1e-15)
        assert small.n_hat_integer == 17

    def test_plug_in_standard_error(self):
        # var = n*(1-p1)(1-p2)/(p1*p2) at the estimate itself: 112*32*42/(80*70)
        assert dse(T).se == pytest.approx(math.sqrt(26.88), rel=1e-12)

    def test_recovered_behavioral_effect_is_unity_at_the_estimate(self, random_tables):
        # x1.*x.1/x11 solves the behavioral score with phi = 1: p_hat equals
        # c_hat identically at the real-valued estimate.
        assert dse(T).phi_hat == 1.0
        for t in random_tables(50):
            rep = dse(t)
            if rep.phi_hat is not None:
                assert rep.phi_hat == pytest.approx(1.0, abs=1e-12)

    def test_undefined_when_no_overlap_count(self):
        with pytest.raises(UndefinedEstimateError):
            dse(DualRecordTable(0, 5, 3))

    def test_degenerate_margins_leave_no_nuisance_or_se(self):
        rep = dse(DualRecordTable(50, 0, 0))
        assert rep.n_hat == 50.0
        assert rep.p1_hat is None
        assert rep.se is None


class TestIndependenceMaximizers:
    def test_reference_table_argmaxes(self):
        assert mle_profile_mt(T).n_hat_integer == 111
        assert mle_mpl_mt(T).n_hat_integer == 112
        assert mle_profile_mt(SMALL).n_hat_integer == 16
        assert mle_mpl_mt(SMALL).n_hat_integer == 17

    def test_profile_maximizer_drifts_below_the_ratio_on_flat_tables(self):
        # The score correction -x0/(2N(N-x0)) pulls the maximizer well below
        # x1.*x.1/x11 - 1 when x11 is small relative to the overlap.
        assert mle_profile_mt(DualRecordTable(22, 62, 58)).n_hat_integer == 302
        assert mle_profile_mt(DualRecordTable(13, 193, 146)).n_hat_integer == 2506
        assert mle_profile_mt(DualRecordTable(1, 200, 200)).n_hat_integer == 40201
        assert mle_profile_mt(DualRecordTable(98, 95, 196)).n_hat_integer == 577
        assert mle_profile_mt(DualRecordTable(20, 10, 40)).n_hat_integer == 88

    def test_modified_profile_tracks_the_ratio(self):
        assert mle_mpl_mt(DualRecordTable(22, 62, 58)).n_hat_integer == 305
        assert mle_mpl_mt(DualRecordTable(13, 193, 146)).n_hat_integer == 2519
        assert mle_mpl_mt(DualRecordTable(1, 200, 200)).n_hat_integer == 40401
        assert mle_mpl_mt(DualRecordTable(20, 10, 40)).n_hat_integer == 90

    def test_empty_off_diagonal_tables(self):
        t = DualRecordTable(50, 0, 30)
        assert mle_profile_mt(t).n_hat_integer == t.x0
        assert mle_mpl_mt(t).n_hat_integer == t.x0 + 1
        t2 = DualRecordTable(50, 0, 0)
        assert mle_profile_mt(t2).n_hat_integer == 50
        assert mle_mpl_mt(t2).n_hat_integer == 51

    def test_equal_to_brute_force_argmax_on_random_tables(self, random_tables, grid_argmax):
        for t in random_tables(300):
            hi = (t.x1_dot * t.x_dot1) // t.x11 + 80
            assert mle_profile_mt(t).n_hat_integer == grid_argmax(
                lambda ns: log_profile_mt(ns, t), t.x0, hi
            )
            assert mle_mpl_mt(t).n_hat_integer == grid_argmax(
                lambda ns: log_mpl_mt(ns, t), t.x0, hi
            )
            # The adjusted kernels at a fixed delta; an estimate short of the
            # window edge shows the window holds the maximizer.
            for d in (0.5, 0.95):
                n_mtb = mle_adpl_mtb(t, DeltaPolicy.fixed(d)).n_hat_integer
                n_mt = mle_adpl_mt(t, DeltaPolicy.fixed(d)).n_hat_integer
                assert n_mtb < 2 * hi and n_mt < 2 * hi
                assert n_mtb == grid_argmax(lambda ns: log_adpl_mtb(ns, t, d), t.x0 + 1, 2 * hi)
                assert n_mt == grid_argmax(lambda ns: log_adpl_mt(ns, t, d), t.x0, 2 * hi)

    def test_modified_profile_never_below_plain_profile(self, random_tables):
        for t in random_tables(300):
            assert mle_profile_mt(t).n_hat_integer <= mle_mpl_mt(t).n_hat_integer

    def test_undefined_when_no_overlap_count(self):
        with pytest.raises(UndefinedEstimateError):
            mle_profile_mt(DualRecordTable(0, 5, 3))
        with pytest.raises(UndefinedEstimateError):
            mle_mpl_mt(DualRecordTable(0, 5, 3))


class TestBehavioralBoundary:
    def test_always_one_above_the_observed_count(self):
        rep = mle_profile_mtb(T)
        assert rep.n_hat_integer == 101
        assert rep.degenerate
        assert "decreasing" in rep.note
        assert mle_profile_mtb(DualRecordTable(1, 1, 1)).n_hat_integer == 4

    def test_matches_grid_argmax_of_decreasing_kernel(self, random_tables, grid_argmax):
        for t in random_tables(10):
            assert mle_profile_mtb(t).n_hat_integer == grid_argmax(
                lambda ns: log_profile_mtb(ns, t), t.x0 + 1, t.x0 + 2000
            )


class TestAdjustedBehavioral:
    def test_reference_argmaxes(self):
        rep = mle_adpl_mtb(T, DeltaPolicy.fixed(0.99))
        assert rep.n_hat_integer == 115
        assert not rep.degenerate
        assert rep.delta_used == 0.99

    def test_strong_shrinkage_collapses_to_lower_bound(self):
        rep = mle_adpl_mtb(T, DeltaPolicy.fixed(0.2))
        assert rep.n_hat_integer == 101
        assert rep.degenerate

    def test_delta_at_or_above_one_has_no_finite_maximum(self, random_tables):
        tables = [T, *random_tables(5)]
        for t in tables:
            for d in (1.0, 1.5):
                with pytest.raises(NoFiniteMaximumError):
                    mle_adpl_mtb(t, DeltaPolicy.fixed(d))

    def test_estimates_shrink_as_delta_shrinks(self, random_tables):
        for t in [T, *random_tables(3, low=20, high=120)]:
            deltas = [0.999, 0.95, 0.8, 0.5, 0.2]
            values = [
                mle_adpl_mtb(t, DeltaPolicy.fixed(d)).n_hat_integer for d in deltas
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_recapture_policy_with_full_recapture_is_rejected(self):
        with pytest.raises(NoFiniteMaximumError):
            mle_adpl_mtb(DualRecordTable(50, 0, 30), DeltaPolicy.recapture_scaled(4.0))

    def test_requires_first_list_captures(self):
        with pytest.raises(UndefinedEstimateError):
            mle_adpl_mtb(DualRecordTable(0, 0, 5), DeltaPolicy.fixed(0.99))


class TestAdjustedIndependence:
    def test_unit_delta_recovers_the_modified_profile(self):
        assert mle_adpl_mt(T, DeltaPolicy.fixed(1.0)).n_hat_integer == 112
        assert mle_adpl_mt(T, DeltaPolicy.fixed(0.99)).n_hat_integer == 111

    def test_moderate_inflation_keeps_a_finite_maximum(self):
        rep = mle_adpl_mt(T, DeltaPolicy.fixed(2.0))
        assert rep.n_hat_integer == 112
        assert mle_adpl_mt(T, DeltaPolicy.fixed(25.9)).n_hat_integer > 112

    def test_divergence_threshold_scales_with_the_overlap_count(self):
        # The kernel grows without bound once 2*(delta - 1) reaches x11.
        for d in (26.0, 30.0):
            with pytest.raises(NoFiniteMaximumError):
                mle_adpl_mt(T, DeltaPolicy.fixed(d))
        t = DualRecordTable(2, 30, 20)
        with pytest.raises(NoFiniteMaximumError):
            mle_adpl_mt(t, DeltaPolicy.fixed(2.0))
        assert mle_adpl_mt(t, DeltaPolicy.fixed(1.9)).n_hat_integer > t.x0

    def test_no_overlap_tables(self):
        # With x11 = 0 the step is about (x1.*x.1 + 2(delta - 1)N)/N^2: under
        # the scaled policy, delta - 1 = -k/N, it is still positive at the
        # ceiling; a fixed delta < 1 puts the maximizer near
        # x1.*x.1/(2(1 - delta)).
        for cells in ((0, 1808, 2090), (0, 402, 502)):
            with pytest.raises(NoFiniteMaximumError):
                mle_adpl_mt(DualRecordTable(*cells), DeltaPolicy.scaled(1.25))
        half = DeltaPolicy.fixed(0.5)
        assert mle_adpl_mt(DualRecordTable(0, 1808, 2090), half).n_hat_integer == 3782617
        assert mle_adpl_mt(DualRecordTable(0, 402, 502), half).n_hat_integer == 202707

    def test_full_recapture_yields_unit_delta_and_still_converges(self):
        # Contrast with the behavioral model, where delta = 1 is rejected.
        rep = mle_adpl_mt(DualRecordTable(50, 0, 30), DeltaPolicy.recapture_scaled(4.0))
        assert rep.delta_used == 1.0
        assert rep.n_hat_integer == 81


class TestDeltaModes:
    def test_fixed_point_golden_and_self_consistency(self):
        rep = mle_adpl_mtb(T, DeltaPolicy.recapture_scaled(4.0))
        assert rep.n_hat_integer == 112
        assert rep.delta_used == 1.0 - 1.5 / 112.0
        # Self-consistent: re-solving at the reported delta reproduces N-hat.
        again = mle_adpl_mtb(T, DeltaPolicy.fixed(rep.delta_used))
        assert again.n_hat_integer == 112

    def test_oracle_mode_requires_the_generating_size(self):
        with pytest.raises(ValidationError, match="true_n"):
            parse_estimator("adpl-mtb:scaled:1.25@oracle").estimate(T)
        # The solvers take the size as oracle_n; the old keyword fails loudly
        # instead of silently selecting or ignoring oracle mode.
        with pytest.raises(TypeError):
            mle_adpl_mtb(T, DeltaPolicy.scaled(1.25), true_n=500.0)

    def test_oracle_mode_equals_fixed_delta_at_the_generating_size(self):
        oracle = mle_adpl_mtb(T, DeltaPolicy.scaled(1.25), oracle_n=500.0)
        fixed = mle_adpl_mtb(T, DeltaPolicy.fixed(1.0 - 1.25 / 500.0))
        assert oracle.n_hat_integer == fixed.n_hat_integer
        assert oracle.delta_used == 1.0 - 1.25 / 500.0


class TestCandidateFixedPoint:
    """The candidate iteration N -> T(N) = argmax at delta(N) of the adjusted solvers."""

    _count = st.just(0) | st.integers(0, 60) | st.integers(0, 10**4)

    @staticmethod
    def _map(kind, policy, table, m):
        """T(m): the scalar argmax at policy.delta(m), inf where none is finite."""
        d = policy.delta(float(m), table)
        if kind == "adpl-mtb" and d >= 1.0:
            return math.inf
        lower = table.x0 + (kind == "adpl-mtb")
        try:
            return _argmax(lambda n: kernels.step_sign(kind, n, table, d), lower, m, kind)
        except NoFiniteMaximumError:
            return math.inf

    @pytest.mark.parametrize("variant", ["scaled", "recapture"])
    @pytest.mark.parametrize("kind", ["adpl-mtb", "adpl-mt"])
    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.tuples(_count, _count, _count),
        k=st.floats(0.25, 20.0),
        offset=st.integers(0, 100) | st.integers(0, 10**6),
        j=st.integers(1, 10) | st.integers(1, 10**6),
    )
    def test_map_is_nondecreasing(self, kind, variant, cells, k, offset, j):
        # Monotone iterates can repeat a value only at a fixed point.
        assume(cells[0] + cells[1] > 0)
        table = DualRecordTable(*cells)
        policy = DeltaPolicy(variant, k)
        m = table.x0 + (kind == "adpl-mtb") + offset
        assert self._map(kind, policy, table, m) <= self._map(kind, policy, table, m + j)

    def test_iteration_cap_fails_the_row(self):
        # The map creeps upward here for every one of the 60 solves.
        spec = parse_estimator("adpl-mt:scaled:1.25")
        table = DualRecordTable(0, 1, 3)
        with pytest.raises(NoFiniteMaximumError, match="60 solves"):
            spec.estimate(table)
        assert np.isnan(spec.estimate_batch([0], [1], [3]).n_hat[0])
        assert self._map("adpl-mt", spec.policy, table, 1358086) > 1358086

    @pytest.mark.parametrize(
        "cells, descriptor, first, second",
        [
            ((205177, 1307, 37712), "adpl-mtb:recapture:0.25", 13122788, 13122794),
            ((178155, 270, 162507), "adpl-mtb:recapture:1.25", 15442161, 15442168),
        ],
    )
    def test_iteration_returns_the_least_fixed_point_above_the_anchor(
        self, cells, descriptor, first, second
    ):
        # delta(N) is one double over runs of N near 1e7, so T is flat there
        # and holds two fixed points; the iterates rise to the first, on the
        # scalar search (one row) and on the vectorized passes (two rows).
        spec = parse_estimator(descriptor)
        table = DualRecordTable(*cells)
        assert spec.estimate(table).n_hat_integer == first
        assert spec.estimate_batch(*([c] for c in cells)).n_hat[0] == first
        assert list(spec.estimate_batch(*([c, c] for c in cells)).n_hat) == [first, first]
        for fixed in (first, second):
            assert self._map("adpl-mtb", spec.policy, table, fixed) == fixed

    def test_a_settled_solve_costs_two_probes(self, monkeypatch):
        # The anchor 112 of (50, 30, 20) moves to 114 in four probes; the
        # solve at delta(114) starts from 114 and confirms it with
        # step(114) <= 0 < step(113). Both engines probe the same N.
        spec = parse_estimator("adpl-mtb:scaled:1.25")
        probes = []
        step_sign, step_signs = kernels.step_sign, kernels.step_signs
        monkeypatch.setattr(
            kernels, "step_sign", lambda kind, n, *a: probes.append(n) or step_sign(kind, n, *a)
        )
        monkeypatch.setattr(
            kernels, "step_signs",
            lambda kind, n, *a: probes.append(list(n)) or step_signs(kind, n, *a),
        )
        assert spec.estimate(T).n_hat == 114
        assert probes == [112, 113, 115, 114, 114, 113]
        probes.clear()
        assert list(spec.estimate_batch([50, 50], [30, 30], [20, 20]).n_hat) == [114, 114]
        pad = [2] * (est_module._PAD_ROWS - 3)  # pad rows lead and follow the two rows
        assert probes == [[2, n, n] + pad for n in (112, 113, 115, 114, 114, 113)]


class TestRecoverNuisance:
    def test_worked_values(self):
        p1_hat, p_hat, c_hat, phi_hat = recover_nuisance(200.0, T)
        assert p1_hat == 0.4
        assert p_hat == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert c_hat == 0.625
        assert phi_hat == pytest.approx(3.75, rel=1e-15)

    def test_infinite_behavioral_effect_without_second_list_only_captures(self):
        assert recover_nuisance(120.0, DualRecordTable(50, 30, 0))[3] == math.inf

    def test_errors(self):
        with pytest.raises(UndefinedEstimateError):
            recover_nuisance(80.0, T)  # does not exceed x1.
        with pytest.raises(UndefinedEstimateError):
            recover_nuisance(50.0, DualRecordTable(0, 0, 5))  # x1. = 0


def _dse_moments(params):
    """Exact multinomial mean vector and covariance of (x1., x.1, x11)."""
    cells = cell_probs_mtb(params)
    p3 = np.array([cells.p11, cells.p10, cells.p01])
    cov_counts = params.n * (np.diag(p3) - np.outer(p3, p3))
    lift = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    means = lift @ (params.n * p3)
    return tuple(means), lift @ cov_counts @ lift.T


class TestMomentFormulas:
    def test_bias_worked_values(self):
        p = p_from_marginals(0.5, 0.65, 1.25)
        params = MtbParams(n=500, p1_dot=0.5, p=p, phi=1.25)
        assert bias_dse_under_mtb(params) == pytest.approx(-50.0 + 4.0 / 13.0, rel=1e-12)
        p5 = MtbParams(n=500, p1_dot=0.5, p=p_from_marginals(0.5, 0.65, 0.8), phi=0.8)
        assert bias_dse_under_mtb(p5) == pytest.approx(62.5 + 95.0 / 104.0, rel=1e-12)

    def test_bias_reduces_to_unity_for_balanced_independent_lists(self):
        params = MtbParams(n=800, p1_dot=0.5, p=0.5, phi=1.0)
        assert bias_dse_under_mtb(params) == pytest.approx(1.0, rel=1e-12)

    def test_variance_worked_values(self):
        p = p_from_marginals(0.5, 0.65, 1.25)
        params = MtbParams(n=500, p1_dot=0.5, p=p, phi=1.25)
        assert var_dse_under_mtb(params) == pytest.approx(500.0 * 4.0 / 13.0, rel=1e-12)

    def test_variance_reduces_to_classical_form_without_behavior(self):
        params = MtbParams(n=500, p1_dot=0.5, p=0.65, phi=1.0)
        classical = 500.0 * 0.5 * 0.35 / (0.5 * 0.65)
        assert var_dse_under_mtb(params) == pytest.approx(classical, rel=1e-12)

    def test_variance_is_linear_in_population_size(self):
        p = p_from_marginals(0.6, 0.7, 1.25)
        small = MtbParams(n=400, p1_dot=0.6, p=p, phi=1.25)
        large = MtbParams(n=800, p1_dot=0.6, p=p, phi=1.25)
        assert var_dse_under_mtb(large) / var_dse_under_mtb(small) == pytest.approx(2.0)

    def test_first_order_variance_matches_classical_without_behavior(self):
        fo = _var_dse_first_order(500.0, 0.5, 0.65, 1.0)
        assert fo == pytest.approx(500.0 * 0.5 * 0.35 / (0.5 * 0.65), rel=1e-12)

    def test_first_order_variance_exceeds_reduced_form_under_behavior(self):
        p = p_from_marginals(0.5, 0.65, 1.25)
        params = MtbParams(n=500, p1_dot=0.5, p=p, phi=1.25)
        ratio = _var_dse_first_order(500.0, 0.5, p, 1.25) / var_dse_under_mtb(params)
        assert 1.1 < ratio < 1.3

    def test_ratio_moment_identity_with_exact_multinomial_moments(self):
        # Plugging the exact moments of (x1., x.1, x11) reproduces
        # N + bias exactly: the bias formula is this approximation evaluated
        # in closed form.
        for pop in TABLE2_POPULATIONS:
            params = pop.params()
            means, covs = _dse_moments(params)
            approx = ratio_moment_approx(means, covs)
            assert approx == pytest.approx(
                params.n + bias_dse_under_mtb(params), abs=1e-8
            )

    def test_ratio_moment_degenerate_and_error_cases(self):
        assert ratio_moment_approx((6.0, 10.0, 4.0), np.zeros((3, 3))) == 15.0
        with pytest.raises(ValidationError):
            ratio_moment_approx((6.0, 10.0, 0.0), np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            ratio_moment_approx((6.0, 10.0, 4.0), np.zeros((2, 2)))


class TestBootstrap:
    def test_deterministic_for_fixed_seed(self):
        a = parametric_bootstrap(T, "adpl-mtb:recapture:4.0", b=60, seed=11)
        b = parametric_bootstrap(T, "adpl-mtb:recapture:4.0", b=60, seed=11)
        assert a == b
        assert isinstance(a, BootstrapResult)
        assert a.replicates + a.failures == 60

    def test_seed_changes_the_resample(self):
        a = parametric_bootstrap(T, "dse", b=40, seed=1)
        b = parametric_bootstrap(T, "dse", b=40, seed=2)
        assert a.se != b.se

    def test_scale_agrees_with_plug_in_error_for_dse(self):
        boot = parametric_bootstrap(T, "dse", b=200)
        assert 0.6 * 5.18 < boot.se < 1.6 * 5.18
        assert boot.ci_low < 112.0 < boot.ci_high

    @pytest.mark.parametrize("descriptor", ["dse", "adpl-mtb:recapture:4.0"])
    def test_equals_per_replicate_scalar_estimates(self, monkeypatch, descriptor):
        sparse = DualRecordTable(3, 3, 8)
        batched = parametric_bootstrap(sparse, descriptor, b=80, seed=3)
        monkeypatch.setattr(EstimatorSpec, "estimate_batch", scalar_estimate_batch)
        assert parametric_bootstrap(sparse, descriptor, b=80, seed=3) == batched
        assert batched.failures > 0  # x11 = 0 or x10 = 0 on some resampled tables

    @pytest.mark.parametrize("b", [-3, 0, 1])
    def test_needs_two_replicates(self, b):
        with pytest.raises(ValidationError, match="at least 2 replicates"):
            parametric_bootstrap(T, "dse", b=b)

    @pytest.mark.parametrize("descriptor", ["dse", "pl-mtb"])
    def test_fit_above_the_sampler_range_draws_nothing(self, descriptor, monkeypatch):
        # The fits are 4e10 and 3e10; studies stop at N = 1e9 too.
        monkeypatch.setattr(est_module, "draw_tables", lambda *a: pytest.fail("tables were drawn"))
        huge = DualRecordTable(10**10, 10**10, 10**10)
        with pytest.raises(EstimationError, match="bootstrap unavailable: fitted N = "):
            parametric_bootstrap(huge, descriptor, b=5)

    def test_degenerate_fit_cannot_seed_a_generating_model(self):
        with pytest.raises(EstimationError):
            parametric_bootstrap(DualRecordTable(50, 30, 0), "dse", b=20)
        with pytest.raises(EstimationError):
            parametric_bootstrap(DualRecordTable(50, 0, 30), "pl-mt", b=20)


class TestDescriptors:
    def test_parse_round_trips(self):
        spec = parse_estimator("adpl-mtb:recapture:4.0@oracle")
        assert spec.method == "adpl-mtb"
        assert spec.policy == DeltaPolicy.recapture_scaled(4.0)
        assert spec.oracle
        assert spec.label == "adpl-mtb:recapture:4.0@oracle"
        plain = parse_estimator("dse")
        assert plain.method == "dse"
        assert plain.policy is None and not plain.oracle

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_estimator("petersen")
        with pytest.raises(ValidationError):
            parse_estimator("dse:fixed:1.0")
        with pytest.raises(ValidationError):
            parse_estimator("adpl-mtb")
        with pytest.raises(ValidationError):
            parse_estimator("adpl-mtb:shrunk:0.9")
        with pytest.raises(ValidationError):
            parse_estimator("adpl-mt:fixed:lots")

    def test_estimator_spec_dispatch(self):
        assert parse_estimator("pl-mt").estimate(T).n_hat_integer == 111
        assert parse_estimator("mpl-mt").estimate(T).n_hat_integer == 112
        assert parse_estimator("pl-mtb").estimate(T).n_hat_integer == 101
        rep = parse_estimator("adpl-mtb:fixed:0.99").estimate(T)
        assert rep.n_hat_integer == 115

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            DeltaPolicy.scaled(0.0)
        with pytest.raises(ValidationError):
            DeltaPolicy.fixed(math.inf)
        with pytest.raises(ValidationError):
            DeltaPolicy("tapered", 0.5)
        with pytest.raises(ValidationError):
            DeltaPolicy.scaled(1.25).delta(None)
        with pytest.raises(ValidationError):
            DeltaPolicy.recapture_scaled(4.0).delta(100.0, None)
        with pytest.raises(UndefinedEstimateError):
            DeltaPolicy.recapture_scaled(4.0).delta(100.0, DualRecordTable(0, 0, 5))

    def test_policy_textual_forms(self):
        assert DeltaPolicy.parse("scaled:1.25").spec_string() == "scaled:1.25"
        assert DeltaPolicy.parse("fixed:0.99").delta() == 0.99
        assert DeltaPolicy.parse("scaled:1.25").delta(500.0) == 1.0 - 1.25 / 500.0
        assert DeltaPolicy.parse("recapture:4.0").delta(112.0, T) == 1.0 - 1.5 / 112.0


# Guesses of the argmax search: (where, offset) relative to the row's domain
# and answer.
_GUESSES = (
    st.tuples(st.just("below lower"), st.integers(1, 10**6))
    | st.tuples(st.just("at lower"), st.just(0))
    | st.tuples(st.just("near the answer"), st.integers(-40, 40))
    | st.tuples(st.just("at the ceiling"), st.just(0))
    | st.tuples(st.just("above the ceiling"), st.integers(1, 10**9))
)
_KERNELS = {
    "pl-mt": lambda ns, t, d: log_profile_mt(ns, t),
    "mpl-mt": lambda ns, t, d: log_mpl_mt(ns, t),
    "adpl-mt": log_adpl_mt,
    "adpl-mtb": log_adpl_mtb,
}


class TestArgmax:
    @pytest.mark.parametrize("kind", list(_KERNELS))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 60)] * 3), st.floats(-1.0, 0.99), _GUESSES
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_any_guess_gives_the_oracle_answer_on_one_probe_path(self, kind, rows, grid_argmax):
        # Each row is searched alone by _argmax and all together by the
        # vectorized passes: both give the brute-force argmax, or fail where
        # the step is still positive at HARD_CEILING, and pass k of the
        # batch probes the k-th probe of every row still searching, in row
        # order.
        assume(all(cells[0] + cells[1] for cells, _, _ in rows))  # x1. >= 1
        tables = [DualRecordTable(*cells) for cells, _, _ in rows]
        deltas = [d if kind.startswith("adpl") else 1.0 for _, d, _ in rows]
        lowers = [t.x0 + (kind == "adpl-mtb") for t in tables]
        paths, found, guesses = [], [], []
        for t, d, low, (_, _, (where, offset)) in zip(tables, deltas, lowers, rows):
            def step(n, t=t, d=d):
                return kernels.step_sign(kind, n, t, d)

            try:
                answer = _argmax(step, low, low, kind)
            except NoFiniteMaximumError:
                answer = None
            guess = {
                "below lower": low - offset,
                "at lower": low,
                "near the answer": (HARD_CEILING if answer is None else answer) + offset,
                "at the ceiling": HARD_CEILING,
                "above the ceiling": HARD_CEILING + offset,
            }[where]
            path = []
            try:
                got = _argmax(lambda n: path.append(n) or step(n), low, guess, kind)
            except NoFiniteMaximumError:
                got = None
            assert got == answer
            if answer is None:
                assert step(HARD_CEILING) > 0
                assert path[-1] == HARD_CEILING
            else:
                window = grid_argmax(lambda ns: _KERNELS[kind](ns, t, d), low, 2 * answer + 100)
                assert answer == window
            paths.append(path)
            found.append(-1 if answer is None else answer)
            guesses.append(guess)
        passes = []
        step_signs = kernels.step_signs
        with mock.patch.object(
            kernels, "step_signs",
            lambda k, n, *a: passes.append(list(n)) or step_signs(k, n, *a),
        ):
            cells = TableArrays.from_cells(*zip(*(cells for cells, _, _ in rows)))
            got = est_module._argmax_batch(kind, cells, np.array(lowers), np.array(deltas),
                                           np.array(guesses))
        assert list(got) == found
        assert len(passes) == max(map(len, paths))
        for k, probes in enumerate(passes):
            # The rows still searching, between pad rows probed at N = 2.
            want = [path[k] for path in paths if len(path) > k]
            assert len(probes) % est_module._PAD_ROWS == 0
            assert probes == [2] + want + [2] * (len(probes) - 1 - len(want))

    def test_reports_unbounded_growth_at_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(est_module, "HARD_CEILING", 10**4)
        with pytest.raises(NoFiniteMaximumError):
            _argmax(lambda n: 1e-3, 10, 10, "test")

    def test_finds_an_interior_maximum_of_a_step_function(self):
        calls = []

        def step(n):
            calls.append(n)
            return 4999.5 - n

        assert _argmax(step, 10, 10, "test") == 5000
        assert len(calls) <= 2 * math.log2(HARD_CEILING)
        assert _argmax(lambda n: 77 - n, 10, 10, "test") == 77  # first of a tie
        assert _argmax(lambda n: -1.0, 10, 10, "test") == 10
        assert _argmax(lambda n: HARD_CEILING - n, 10, 10, "test") == HARD_CEILING

    def test_maximizer_beyond_the_ceiling_fails_at_once(self):
        # The dual-system estimate is 100001**2 = 1.00002e10.
        t = DualRecordTable(1, 100000, 100000)
        for estimator in (mle_profile_mt, mle_mpl_mt):
            with pytest.raises(NoFiniteMaximumError):
                estimator(t)

    @pytest.mark.parametrize("cells", BEYOND_CEILING)
    @pytest.mark.parametrize("descriptor", DESCRIPTORS)
    def test_domain_above_the_ceiling_evaluates_no_step(self, descriptor, cells, monkeypatch):
        # The closed forms (dse, pl-mtb) still give their value; every search
        # fails at once, NoFiniteMaximumError alone and NaN in a batch.
        for name in ("step_sign", "step_signs"):
            monkeypatch.setattr(kernels, name, lambda *a: pytest.fail("a step was evaluated"))
        spec = parse_estimator(descriptor)
        batch = spec.estimate_batch(*([c] for c in cells)).n_hat
        if spec.method in ("dse", "pl-mtb"):
            assert batch[0] == spec.estimate(DualRecordTable(*cells)).n_hat
        else:
            assert np.isnan(batch[0])
            with pytest.raises(NoFiniteMaximumError):
                spec.estimate(DualRecordTable(*cells))

    @pytest.mark.parametrize(
        "cells, descriptor, exact",
        [
            ((15000, 9000, 6000), "adpl-mtb:scaled:1.25", 34200),
            ((15000, 9000, 6000), "adpl-mtb:recapture:1.25", 38184),
            ((25000, 15000, 20000), "adpl-mtb:scaled:1.25", 69751),
            ((25000, 15000, 20000), "adpl-mtb:recapture:1.25", 78434),
            ((25000, 15000, 20000), "mpl-mt", 72000),
            ((250000, 150000, 200000), "adpl-mtb:scaled:1.25", 697511),
            ((250000, 150000, 200000), "adpl-mtb:recapture:1.25", 784337),
            ((250000, 150000, 200000), "mpl-mt", 720000),
        ],
    )
    def test_exact_where_kernel_values_drown_in_rounding(self, cells, descriptor, exact):
        # Near these maximizers the true steps are below the rounding of
        # kernel values (and, at N = 7e5, of the double step forms).
        rep = parse_estimator(descriptor).estimate(DualRecordTable(*cells))
        assert rep.n_hat_integer == exact
        assert rep.note is None


# Each failure of a single-table estimate: descriptor, table, exception class
# and exact message. The batch gives NaN on the same row.
FAILURES = [
    ("dse", (0, 30, 20), UndefinedEstimateError, "dual-system estimate undefined: x11 = 0"),
    ("pl-mt", (0, 30, 20), UndefinedEstimateError,
     "profile likelihood has no finite maximizer: x11 = 0"),
    ("mpl-mt", (0, 30, 20), UndefinedEstimateError,
     "modified profile likelihood has no finite maximizer: x11 = 0"),
    ("adpl-mtb:scaled:1.25", (0, 0, 7), UndefinedEstimateError,
     "adjusted profile estimation requires x1. >= 1"),
    ("adpl-mt:fixed:3", (2, 5, 5), NoFiniteMaximumError,
     "adjustment delta = 3 is at or above the divergence threshold 1 + x11/2 = 2: "
     "the adjusted kernel increases without bound"),
    # x1. = 0 as well: the divergence check comes first.
    ("adpl-mt:fixed:1.5", (0, 0, 5), NoFiniteMaximumError,
     "adjustment delta = 1.5 is at or above the divergence threshold 1 + x11/2 = 1: "
     "the adjusted kernel increases without bound"),
    ("adpl-mtb:fixed:1.5", (50, 30, 20), NoFiniteMaximumError,
     "adjustment delta = 1.5 violates the finite-maximum requirement delta < 1"),
    ("adpl-mtb:recapture:1.25", (50, 0, 20), NoFiniteMaximumError,  # x10 = 0: delta = 1
     "adjustment delta = 1 violates the finite-maximum requirement delta < 1"),
    ("pl-mt", (1, 100000, 100000), NoFiniteMaximumError,
     "pl-mt: no finite maximum detected up to N = 1e+08"),
    ("adpl-mt:scaled:1.25", (0, 1, 3), NoFiniteMaximumError,
     "adpl-mt: no fixed point of the candidate map in 60 solves"),
]


class TestFailures:
    @pytest.mark.parametrize("descriptor, cells, error, message", FAILURES)
    def test_class_and_message_and_nan_in_a_batch(self, descriptor, cells, error, message):
        spec = parse_estimator(descriptor)
        with pytest.raises(EstimationError) as exc:
            spec.estimate(DualRecordTable(*cells))
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert np.isnan(spec.estimate_batch(*([c] for c in cells)).n_hat[0])
        rows = np.array([(7, 5, 3), cells, (25, 15, 20)]).T
        got = spec.estimate_batch(*rows).n_hat
        assert np.isnan(got[1])
        np.testing.assert_array_equal(got, scalar_estimate_batch(spec, *rows).n_hat)

    def test_oracle_size_must_be_positive_on_both_paths(self):
        spec = parse_estimator("adpl-mtb:scaled:1.25@oracle")
        message = "scaled policy requires a positive N, got -3"
        with pytest.raises(ValidationError) as exc:
            spec.estimate(T, true_n=-3)
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            spec.estimate_batch([50], [30], [20], true_n=-3)
        assert str(exc.value) == message

    @pytest.mark.parametrize("method", ["adpl-mtb", "adpl-mt"])
    @pytest.mark.parametrize("variant", ["scaled", "recapture"])
    def test_a_nan_oracle_size_is_rejected_on_both_paths(self, method, variant):
        # NaN passes a test of N <= 0: it reached the decimal recheck
        # (decimal.InvalidOperation) or the delta >= 1 rule ("delta = nan").
        spec = parse_estimator(f"{method}:{variant}:1.25@oracle")
        message = f"{variant} policy requires a positive N, got nan"
        with pytest.raises(ValidationError) as exc:
            spec.estimate(T, true_n=math.nan)
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            spec.estimate_batch([50, 60], [30, 30], [20, 20], true_n=[500, math.nan])
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            spec.policy.delta(math.nan, T)
        assert str(exc.value) == message
        # An infinite size stays accepted: its delta is exactly 1.
        assert spec.policy.delta(math.inf, T) == 1.0
        if method == "adpl-mt":
            assert spec.estimate(T, true_n=math.inf).delta_used == 1.0
        else:
            with pytest.raises(NoFiniteMaximumError, match="delta = 1 violates"):
                spec.estimate(T, true_n=math.inf)

    @pytest.mark.parametrize("descriptor", [d for d in DESCRIPTORS if d not in ("dse", "pl-mtb")])
    def test_the_search_engine_follows_the_row_count(self, descriptor, monkeypatch):
        # One row is searched by the scalar bisection, two or more by the
        # vectorized passes.
        passes = []
        step_signs = kernels.step_signs
        monkeypatch.setattr(
            kernels, "step_signs", lambda *args: passes.append(1) or step_signs(*args)
        )
        spec = parse_estimator(descriptor)
        one = spec.estimate_batch([50], [30], [20])
        assert not passes
        want = spec.estimate(T)
        assert one.n_hat[0] == want.n_hat
        if want.delta_used is not None:
            assert one.delta_used[0] == want.delta_used
        two = spec.estimate_batch([50, 50], [30, 30], [20, 20])
        assert passes
        assert list(two.n_hat) == [want.n_hat] * 2


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_a_single_table_builds_no_table_and_evaluates_each_probe_once(descriptor, monkeypatch):
    # The one-row solve reads its counts without validating a table again,
    # and calls step_sign once per probe of the scalar search. (1, 3000, 3000)
    # takes the decimal recheck in every kernel, which reads the row too.
    tables = [T, DualRecordTable(1, 3000, 3000)]
    spec = parse_estimator(descriptor)
    built, probes, signs = [], [], []
    post_init, next_probe, step_sign = DualRecordTable.__post_init__, est_module._next_probe, kernels.step_sign
    monkeypatch.setattr(DualRecordTable, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(est_module, "_next_probe", lambda *args: probes.append(1) or next_probe(*args))
    monkeypatch.setattr(kernels, "step_sign", lambda *args: signs.append(1) or step_sign(*args))
    monkeypatch.setattr(kernels, "step_signs", None)  # the vectorized engine is not run
    for table in tables:
        spec.estimate(table)
    assert not built
    assert len(signs) == len(probes)
    assert (len(signs) > 0) == (descriptor not in ("dse", "pl-mtb"))
    if descriptor == "adpl-mtb:scaled:1.25":
        signs.clear()
        spec.estimate(T)
        assert len(signs) == 6


# x1.*x.1 > 2**53 and DSE = x0 + 2.5: the double quotient rounds to x0 + 3
# where the exact one rounds half-even to x0 + 2, which moves the anchor
# of the candidate fixed point.
ANCHOR_ROW = (94987230, 15405, 15415)
EDGE_ROWS = (
    (0, 30, 20),  # x11 = 0
    (50, 0, 20),  # x10 = 0
    (0, 0, 7),  # x1. = 0
    (0, 0, 0),  # all-zero
    (2, 500, 400),
    (1, 3000, 3000),  # steps of all four kernels decided in decimal
    (15000, 9000, 6000),
    (250000, 150000, 200000),  # M_tb steps decided in decimal
    ANCHOR_ROW,
    (7, 3 * 10**9, 5 * 10**9),  # x1.*x.1 beyond 64-bit integers
    (2, 2**53 - 4, 1),  # the largest total a table may have
    (95000001, 0, 0),  # x1.*x.1 rounds: the pl-mt ratio at N = x0 rounds to -1
)


def test_step_forms_give_values_without_warnings_on_edge_rows():
    # N = x0 and x0 + 1 (adpl-mtb: x0 + 1 only), scalar and array forms.
    # At N = x0 the pl-mt ratio of (95000001, 0, 0) rounds to -1: the
    # profile step is -inf there, and the forms with margin terms are +inf.
    forms = {
        "pl-mt": kernels.log_profile_mt_step,
        "mpl-mt": kernels.log_mpl_mt_step,
        "adpl-mt": lambda n, t: kernels.log_adpl_mt_step(n, t, 0.5),
        "adpl-mtb": lambda n, t: kernels.log_adpl_mtb_step(n, t, 0.5),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cells in filter(sum, EDGE_ROWS):  # the all-zero row is no table
            t = DualRecordTable(*cells)
            rows = TableArrays.from_cells(*([c, c] for c in cells))
            for kind, form in forms.items():
                for n in (t.x0, t.x0 + 1)[kind == "adpl-mtb":]:
                    value = form(n, t)
                    array = form(np.array([n, n], dtype=float), rows)
                    np.testing.assert_array_equal(array, [value, value])
                    if cells == (95000001, 0, 0) and n == t.x0:
                        assert value == (-math.inf if kind == "pl-mt" else math.inf)


class TestBatchEstimates:
    """``estimate_batch`` equals ``estimate`` row by row."""

    _cell = st.integers(0, 60) | st.integers(0, 10**4)

    @pytest.mark.parametrize("descriptor", [d + m for d in DESCRIPTORS for m in ("", "@oracle")])
    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.lists(st.tuples(_cell, _cell, _cell) | st.sampled_from(EDGE_ROWS), min_size=1, max_size=6),
        true_n=st.integers(1, 10**6),
    )
    def test_rows_equal_scalar_estimates(self, descriptor, rows, true_n):
        spec = parse_estimator(descriptor)
        cells = np.array(rows, dtype=np.int64).T
        got = spec.estimate_batch(*cells, true_n=true_n)
        want = scalar_estimate_batch(spec, *cells, true_n=true_n)
        np.testing.assert_array_equal(got.n_hat, want.n_hat)  # NaN where estimate raises
        if spec.policy is None:
            assert got.delta_used is None
        else:
            np.testing.assert_array_equal(got.delta_used, want.delta_used)

    @pytest.mark.parametrize("descriptor", [d + "@oracle" for d in DESCRIPTORS])
    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.tuples(_cell, _cell, _cell) | st.sampled_from(EDGE_ROWS), st.integers(1, 10**6)),
            min_size=1,
            max_size=6,
        )
    )
    def test_rows_equal_scalar_estimates_at_their_own_true_n(self, descriptor, rows):
        # Rows drawn from populations of different sizes share one batch.
        spec = parse_estimator(descriptor)
        cells = np.array([c for c, _ in rows], dtype=np.int64).T
        sizes = np.array([n for _, n in rows])
        got = spec.estimate_batch(*cells, true_n=sizes)
        want = scalar_estimate_batch(spec, *cells, true_n=sizes)
        np.testing.assert_array_equal(got.n_hat, want.n_hat)
        if spec.policy is not None:
            np.testing.assert_array_equal(got.delta_used, want.delta_used)

    def test_per_row_true_n_must_fit_the_rows(self):
        cells = ([50, 60], [30, 30], [20, 20])
        spec = parse_estimator("adpl-mtb:scaled:1.25@oracle")
        with pytest.raises(ValidationError, match="one size per row"):
            spec.estimate_batch(*cells, true_n=[500, 500, 500])
        with pytest.raises(ValidationError, match="positive N"):
            spec.estimate_batch(*cells, true_n=[500, 0])
        # A spec that ignores true_n still rejects sizes of another count.
        with pytest.raises(ValidationError, match="one size per row"):
            parse_estimator("dse").estimate_batch(*cells, true_n=[500])

    def test_edge_rows_take_the_decimal_recheck_and_the_exact_quotient(self, monkeypatch):
        kinds = set()
        decimal_step = kernels._decimal_step

        def counted(kind, *args):
            kinds.add(kind)
            return decimal_step(kind, *args)

        monkeypatch.setattr(kernels, "_decimal_step", counted)
        cells = np.array(EDGE_ROWS).T
        for descriptor in DESCRIPTORS:
            parse_estimator(descriptor).estimate_batch(*cells)
        assert kinds == {"pl-mt", "mpl-mt", "adpl-mt", "adpl-mtb"}
        x11, x10, x01 = ANCHOR_ROW
        a, b = x11 + x10, x11 + x01
        assert round(float(a) * float(b) / x11) == sum(ANCHOR_ROW) + 3
        assert round(a * b / x11) == sum(ANCHOR_ROW) + 2
        batch = parse_estimator("dse").estimate_batch([x11], [x10], [x01])
        assert batch.n_hat[0] == a * b / x11 != float(a) * float(b) / x11

    def test_the_rounding_bound_leaves_few_probes_to_decimal(self, monkeypatch):
        # 78 of this estimate's 112 probes fall inside their rounding bound;
        # an absolute tolerance of 1e-10 sent every probe to decimal.
        calls = []
        decimal_step = kernels._decimal_step
        monkeypatch.setattr(
            kernels, "_decimal_step", lambda *args: calls.append(1) or decimal_step(*args)
        )
        table = DualRecordTable(250000, 150000, 200000)
        assert parse_estimator("adpl-mtb:recapture:1.25").estimate(table).n_hat == 784337
        assert len(calls) == 78

    def test_one_pass_advances_every_row_along_its_scalar_path(self, monkeypatch):
        passes = []
        step_signs = kernels.step_signs
        monkeypatch.setattr(
            kernels, "step_signs", lambda *args: passes.append(1) or step_signs(*args)
        )
        x11, x10, x01 = np.array([(50, 30, 20)] * 40 + [(25000, 15000, 20000)] * 40).T
        spec = parse_estimator("pl-mt")
        n_hat = spec.estimate_batch(x11, x10, x01).n_hat
        assert list(n_hat) == [111.0] * 40 + [spec.estimate(DualRecordTable(25000, 15000, 20000)).n_hat] * 40
        assert len(passes) <= 2 * math.log2(HARD_CEILING)

    def test_fixed_point_rules_per_row(self):
        # Fixed point, a rising and a falling creep that settle after
        # several solves, failed solve, iteration cap (still moving after
        # 60 solves), the first of two fixed points; each row as if solved
        # alone.
        moves = {10: 12, 12: 12, 20: 23, 23: 25, 25: 26, 26: 26, 40: 36, 36: 33, 33: 33, 5: -1}
        moves.update({300: 302, 301: 302, 302: 302, 303: 304, 304: 304})

        def solve(rows, n):
            return np.array([moves.get(int(v), int(v) + 1) for v in n], dtype=np.int64)

        start = np.array([10, 20, 40, 5, 100, 300])
        want = [12, 26, 33, -1, -1, 302]
        assert list(est_module._fixed_point_batch(solve, start)) == want
        for row, value in zip(start, want):
            assert list(est_module._fixed_point_batch(solve, np.array([row]))) == [value]

    def test_rejects_invalid_cells(self):
        spec = parse_estimator("dse")
        with pytest.raises(ValidationError):
            spec.estimate_batch([1, -1], [2, 2], [3, 3])
        with pytest.raises(ValidationError):
            spec.estimate_batch([1.5], [2], [3])
        with pytest.raises(ValidationError):
            spec.estimate_batch([1, 2], [2], [3])
        with pytest.raises(ValidationError):
            TableArrays.from_cells([2.0**53], [0], [0])

    @pytest.mark.parametrize(
        "cells", [(2, 2**53 - 1, 1), (2**52, 2**52, 2**52), (2**53, 0, 0), (10**400, 1, 1)]
    )
    def test_totals_from_two_to_the_53_up_are_rejected_on_both_paths(self, cells):
        # (2, 2**53 - 1, 1) used to give dse 1.351079888211149e16 alone and
        # 1.3510798882111488e16 in a batch: x1. = 2**53 + 1 is no double.
        message = "table total x0 = x11 + x10 + x01 must be below 2**53"
        with pytest.raises(ValidationError) as exc:
            DualRecordTable(*cells)
        assert str(exc.value) == message
        for descriptor in DESCRIPTORS:
            with pytest.raises(ValidationError) as exc:
                parse_estimator(descriptor).estimate_batch(*([c] for c in cells))
            assert str(exc.value) == message

    def test_oracle_mode_requires_the_generating_size(self):
        spec = parse_estimator("adpl-mtb:scaled:1.25@oracle")
        with pytest.raises(ValidationError, match="true_n"):
            spec.estimate_batch([50], [30], [20])
        with pytest.raises(ValidationError, match="positive N"):
            spec.estimate_batch([50], [30], [20], true_n=-3)

    @pytest.mark.parametrize("true_n", [None, 500, 0])
    @pytest.mark.parametrize("suffix", ["", "@oracle"])
    @pytest.mark.parametrize("descriptor", DESCRIPTORS)
    def test_oracle_suffix_is_the_only_switch(self, descriptor, suffix, true_n):
        # A plain spec ignores true_n; @oracle evaluates an N-dependent policy
        # once at true_n, which must then be given and positive; fixed:<v>@oracle
        # and the unadjusted methods need no true_n. Same rule on both paths.
        spec = parse_estimator(descriptor + suffix)
        kw = {} if true_n is None else {"true_n": true_n}
        cells = ([50], [30], [20])
        at_true_n = suffix and spec.policy is not None and spec.policy.requires_n()
        if at_true_n and not true_n:
            with pytest.raises(ValidationError):
                spec.estimate(T, **kw)
            with pytest.raises(ValidationError):
                spec.estimate_batch(*cells, **kw)
            return
        want = parse_estimator(descriptor)
        if at_true_n:
            want = EstimatorSpec(spec.method, DeltaPolicy.fixed(spec.policy.delta(500.0, T)))
        got, ref = spec.estimate(T, **kw), want.estimate(T)
        assert (got.n_hat, got.delta_used, got.note) == (ref.n_hat, ref.delta_used, ref.note)
        got, ref = spec.estimate_batch(*cells, **kw), want.estimate_batch(*cells)
        np.testing.assert_array_equal(got.n_hat, ref.n_hat)
        assert (got.delta_used is None) == (ref.delta_used is None)
        if ref.delta_used is not None:
            np.testing.assert_array_equal(got.delta_used, ref.delta_used)
