"""Log-likelihood kernels: domains, identities, reductions, stable steps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec import kernels
from dualrec.estimators import HARD_CEILING, _argmax
from dualrec.kernels import (
    log_adpl_mt,
    log_adpl_mt_step,
    log_adpl_mtb,
    log_adpl_mtb_step,
    log_mpl_mt,
    log_mpl_mt_step,
    log_mpl_mtb,
    log_mpl_mtb_step,
    log_profile_mt,
    log_profile_mt_step,
    log_profile_mtb,
    log_profile_mtb_step,
    loglik_mt_full,
    loglik_mtb_full,
    step_sign,
    step_signs,
)
from dualrec.tables import (
    DomainError,
    DualRecordTable,
    MtParams,
    NoFiniteMaximumError,
    TableArrays,
)

T = DualRecordTable(50, 30, 20)  # x1. = 80, x.1 = 70, x0 = 100
SMALL = DualRecordTable(7, 5, 3)  # x0 = 15


class TestDomains:
    def test_profile_mt_defined_from_total(self):
        assert math.isfinite(log_profile_mt(100.0, T))
        with pytest.raises(DomainError):
            log_profile_mt(99.0, T)

    def test_behavioral_kernels_need_n_above_total(self):
        assert math.isfinite(log_profile_mtb(101.0, T))
        for fn in (log_profile_mtb, log_mpl_mtb):
            with pytest.raises(DomainError):
                fn(100.0, T)
        with pytest.raises(DomainError):
            log_adpl_mtb(100.0, T, 0.9)

    def test_array_with_out_of_domain_entry_rejected(self):
        with pytest.raises(DomainError):
            log_profile_mt(np.array([100.0, 99.0]), T)

    def test_scalar_in_float_out_array_in_array_out(self):
        assert isinstance(log_profile_mt(105.0, T), float)
        out = log_profile_mt(np.array([105.0, 110.0]), T)
        assert isinstance(out, np.ndarray) and out.shape == (2,)


class TestGridGoldens:
    def grid(self, fn, lower, upper):
        ns = np.arange(lower, upper + 1, dtype=float)
        return lower + int(np.argmax(fn(ns)))

    def test_profile_argmaxes(self):
        assert self.grid(lambda ns: log_profile_mt(ns, T), 100, 400) == 111
        # The half-log correction is strictly increasing, which lifts the
        # maximizer one unit above the profile maximizer on this table.
        assert self.grid(lambda ns: log_mpl_mt(ns, T), 100, 400) == 112
        assert self.grid(lambda ns: log_profile_mt(ns, SMALL), 15, 200) == 16
        assert self.grid(lambda ns: log_mpl_mt(ns, SMALL), 15, 200) == 17

    def test_adjusted_argmaxes(self):
        assert self.grid(lambda ns: log_adpl_mtb(ns, T, 0.99), 101, 600) == 115
        assert self.grid(lambda ns: log_adpl_mtb(ns, T, 0.2), 101, 600) == 101

    def test_behavioral_profile_argmax_at_lower_bound(self):
        assert self.grid(lambda ns: log_profile_mtb(ns, T), 101, 600) == 101


class TestIdentities:
    def test_adjusted_equals_modified_plus_penalty_mtb(self):
        ns = np.arange(101.0, 2000.0)
        for delta in (0.2, 0.7, 0.99, 1.3):
            lhs = log_adpl_mtb(ns, T, delta)
            rhs = (
                log_mpl_mtb(ns, T)
                + 2.0 * (delta - 1.0) * np.log(ns)
                + (delta - 1.0) * np.log1p(-T.x1_dot / ns)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_adjusted_equals_modified_plus_penalty_mt(self):
        ns = np.arange(100.0, 2000.0)
        for delta in (0.5, 1.0, 2.0):
            lhs = log_adpl_mt(ns, T, delta)
            rhs = log_mpl_mt(ns, T) + 2.0 * (delta - 1.0) * np.log(ns)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unit_delta_recovers_modified_profile(self):
        ns = np.arange(101.0, 1000.0)
        assert np.max(np.abs(log_adpl_mtb(ns, T, 1.0) - log_mpl_mtb(ns, T))) < 1e-10
        ns = np.arange(100.0, 1000.0)
        assert np.max(np.abs(log_adpl_mt(ns, T, 1.0) - log_mpl_mt(ns, T))) < 1e-10


class TestFullLikelihoodConsistency:
    """Profile kernels equal the full likelihood at the conditional MLEs,
    up to an additive constant free of N (the dropped combinatorial terms)."""

    def test_independence_profile_matches_conditional_maximum(self):
        ns = np.arange(120, 400, 7, dtype=float)
        diffs = [
            log_profile_mt(n, T)
            - loglik_mt_full(MtParams(n=int(n), p1_dot=T.x1_dot / n, p_dot1=T.x_dot1 / n), T)
            for n in ns
        ]
        assert max(diffs) - min(diffs) < 1e-8

    def test_behavioral_profile_matches_conditional_maximum(self):
        ns = np.arange(120, 400, 7, dtype=float)
        c_hat = T.x11 / T.x1_dot
        diffs = [
            log_profile_mtb(n, T)
            - loglik_mtb_full(n, T.x1_dot / n, T.x01 / (n - T.x1_dot), T, c=c_hat)
            for n in ns
        ]
        assert max(diffs) - min(diffs) < 1e-8

    def test_conditional_mles_dominate_random_nuisance_values(self, rng):
        n = 150.0
        best_mt = loglik_mt_full(
            MtParams(n=150, p1_dot=T.x1_dot / n, p_dot1=T.x_dot1 / n), T
        )
        best_mtb = loglik_mtb_full(
            n, T.x1_dot / n, T.x01 / (n - T.x1_dot), T, c=T.x11 / T.x1_dot
        )
        for _ in range(100):
            p1, p2, p, c = rng.uniform(0.05, 0.95, size=4)
            assert loglik_mt_full(MtParams(n=150, p1_dot=p1, p_dot1=p2), T) <= best_mt + 1e-12
            assert loglik_mtb_full(n, p1, p, T, c=c) <= best_mtb + 1e-12

    def test_behavioral_effect_parameterizations_agree(self):
        via_c = loglik_mtb_full(150.0, 0.5, 0.4, T, c=0.6)
        via_phi = loglik_mtb_full(150.0, 0.5, 0.4, T, phi=1.5)
        assert via_c == pytest.approx(via_phi, abs=1e-12)

    def test_exactly_one_behavioral_argument_required(self):
        with pytest.raises(ValueError):
            loglik_mtb_full(150.0, 0.5, 0.4, T)
        with pytest.raises(ValueError):
            loglik_mtb_full(150.0, 0.5, 0.4, T, c=0.6, phi=1.5)


class TestStableSteps:
    """Cancellation-free first differences of the kernels.

    Direct subtraction of kernel values drowns in float noise for large N
    (true differences are O(N^-3) against kernel magnitudes of ~1e7); the
    step functions compute the same difference algebraically."""

    def test_steps_match_direct_differences_at_moderate_n(self):
        ns = np.arange(101.0, 2001.0)
        pairs = [
            (lambda n: log_mpl_mtb(n, T), lambda n: log_mpl_mtb_step(n, T.x0)),
            (lambda n: log_profile_mtb(n, T), lambda n: log_profile_mtb_step(n, T.x0)),
            (lambda n: log_profile_mt(n, T), lambda n: log_profile_mt_step(n, T)),
            (lambda n: log_mpl_mt(n, T), lambda n: log_mpl_mt_step(n, T)),
        ]
        for d in (0.3, 0.99, 1.7):
            pairs.append((lambda n, d=d: log_adpl_mt(n, T, d), lambda n, d=d: log_adpl_mt_step(n, T, d)))
            pairs.append((lambda n, d=d: log_adpl_mtb(n, T, d), lambda n, d=d: log_adpl_mtb_step(n, T, d)))
        for kernel, step in pairs:
            direct = kernel(ns + 1.0) - kernel(ns)
            steps = step(ns)
            assert np.max(np.abs(steps - direct)) < 1e-8
            # Scalar N is evaluated with math, arrays with numpy.
            for i in range(0, ns.size, 97):
                assert step(int(ns[i])) == pytest.approx(steps[i], abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.tuples(*[st.integers(0, 10**6)] * 3).filter(lambda c: sum(c) > 0),
        offset=st.integers(0, 7 * 10**6),
        delta=st.floats(-1.0, 3.0),
        kind=st.sampled_from(["pl-mt", "mpl-mt", "adpl-mt", "adpl-mtb"]),
    )
    def test_double_steps_agree_with_the_decimal_closed_form(self, cells, offset, delta, kind):
        t = DualRecordTable(*cells)
        n = t.x0 + offset + (kind == "adpl-mtb")
        form = {
            "pl-mt": lambda m, d: log_profile_mt_step(m, t),
            "mpl-mt": lambda m, d: log_mpl_mt_step(m, t),
            "adpl-mt": lambda m, d: log_adpl_mt_step(m, t, d),
            "adpl-mtb": lambda m, d: log_adpl_mtb_step(m, t, d),
        }[kind]
        double = form(n, delta)
        exact = kernels._decimal_step(kind, n, t, delta)
        # Array N with array delta: each element is the scalar form at its
        # delta, and step_signs is step_sign row by row.
        deltas = np.array([delta, delta / 2])
        np.testing.assert_allclose(
            form(np.array([n, n]), deltas), [form(n, d) for d in deltas], rtol=1e-12, atol=1e-15
        )
        rows = TableArrays.from_cells(*([c, c] for c in cells))
        assert list(step_signs(kind, [n, n], rows, deltas)) == [
            step_sign(kind, n, t, d) for d in deltas
        ]
        if math.isinf(double):  # N on a margin: the kernel is -inf at N
            assert double > 0 and exact == double
            return
        s, m = kernels._step(kind, n, t, delta)
        assert s == double
        bound = kernels._C * kernels._EPS * m
        assert abs(double - float(exact)) <= bound
        if abs(double) > bound:
            assert (double > 0) == (exact > 0)
        assert step_sign(kind, n, t, delta) == (exact > 0) - (exact < 0)

    # x1.*x.1 is at least (95e6)**2 > 2**53 in the second family, so the
    # pl-mt ratio's products round, and its maximizers lie near x0 <= 99e6.
    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.tuples(st.integers(1, 4 * 10**6), *[st.integers(0, 3 * 10**6)] * 2)
        | st.tuples(st.integers(95 * 10**6, 97 * 10**6), *[st.integers(0, 10**6)] * 2),
        delta=st.floats(-1.0, 1.0, exclude_max=True) | st.floats(0.999, 1.0, exclude_max=True),
        kind=st.sampled_from(["pl-mt", "mpl-mt", "adpl-mt", "adpl-mtb"]),
    )
    def test_rounding_bound_holds_around_the_argmax(self, cells, delta, kind):
        # Where the step changes sign it is smallest: probe argmax - 1,
        # argmax and argmax + 1 (the ceiling when no maximum is found).
        t = DualRecordTable(*cells)
        lower = t.x0 + (kind == "adpl-mtb")
        try:
            center = _argmax(lambda m: step_sign(kind, m, t, delta), lower, lower, kind)
        except NoFiniteMaximumError:
            center = HARD_CEILING
        probes = [m for m in (center - 1, center, center + 1) if m >= lower]
        rows = TableArrays.from_cells(*([c] * len(probes) for c in cells))
        exact_signs = []
        for n in probes:
            s, m = kernels._step(kind, n, t, delta)
            exact = kernels._decimal_step(kind, n, t, delta)
            exact_signs.append((exact > 0) - (exact < 0))
            bound = kernels._C * kernels._EPS * m
            if math.isfinite(s):  # see the test of a ratio rounded to -1 below
                assert abs(s - float(exact)) <= bound
            if abs(s) > bound:
                assert (s > 0) == (exact > 0)
        assert [step_sign(kind, n, t, delta) for n in probes] == exact_signs
        assert list(step_signs(kind, probes, rows, delta)) == exact_signs

    def test_a_near_tie_the_double_form_can_tell_skips_the_decimal_form(self, monkeypatch):
        # The step is -8.9e-11 here: within the absolute 1e-10 that once sent
        # it to decimal, and far outside its rounding bound.
        t, n, delta = DualRecordTable(266, 126, 68), 538, 0.9984756097560976
        assert -1e-10 < log_adpl_mtb_step(n, t, delta) < -8e-11
        monkeypatch.setattr(kernels, "_decimal_step", lambda *args: pytest.fail("decimal"))
        assert step_sign("adpl-mtb", n, t, delta) == -1
        rows = TableArrays.from_cells([266], [126], [68])
        assert list(step_signs("adpl-mtb", [n], rows, delta)) == [-1]

    def test_a_ratio_rounded_to_minus_one_is_decided_in_decimal(self):
        # x1.*x.1 = 95000001**2 rounds down to an even double, so at N = x0
        # the pl-mt ratio -1 + 1/(x0+1) rounds to -1: the double pl-mt step
        # is -inf and goes to decimal; the mpl-mt and adpl-mt steps, whose
        # margin terms are +inf at N = x0, are +inf.
        t = DualRecordTable(95000001, 0, 0)
        n = t.x0
        assert log_profile_mt_step(n, t) == -math.inf
        rows = TableArrays.from_cells([t.x11] * 2, [0, 0], [0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("pl-mt", "mpl-mt", "adpl-mt"):
                exact = kernels._decimal_step(kind, n, t, 0.5)
                want = (exact > 0) - (exact < 0)
                assert step_sign(kind, n, t, 0.5) == want
                assert step_signs(kind, [n, n], rows, 0.5).tolist() == [want, want]

    def test_step_sign_rejects_unknown_kernels(self):
        with pytest.raises(ValueError):
            step_sign("pl-mtb", 150, T)

    def test_modified_profile_strictly_increasing_to_1e5(self):
        ns = np.arange(101.0, 100001.0)
        assert np.all(log_mpl_mtb_step(ns, T.x0) > 0)

    def test_profile_strictly_decreasing_to_1e5(self):
        ns = np.arange(101.0, 100001.0)
        assert np.all(log_profile_mtb_step(ns, T.x0) < 0)

    def test_adjusted_independence_kernel_divergence_threshold(self):
        # Large-N behavior is (2*(delta - 1) - x11) * ln N: with x11 = 50 the
        # kernel still decays for delta = 2 but grows without bound once
        # delta clears 1 + x11/2 = 26.
        decaying = [log_adpl_mt(n, T, 2.0) for n in (1e3, 1e4, 1e5, 1e6)]
        assert all(b < a for a, b in zip(decaying, decaying[1:]))
        growing = [log_adpl_mt(n, T, 30.0) for n in (1e3, 1e4, 1e5, 1e6)]
        assert all(b > a for a, b in zip(growing, growing[1:]))


class TestBoundaryBehavior:
    def test_modified_profile_mt_hard_zero_at_margin_without_warning(self):
        t = DualRecordTable(5, 0, 3)  # x.1 = 8 = x0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_mpl_mt(8.0, t) == -math.inf
            assert math.isfinite(log_profile_mt(8.0, t))
