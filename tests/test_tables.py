"""Table and parameter types: validation, serialization, cell probabilities."""

import math

import pytest

from dualrec.tables import (
    CellProbabilities,
    DualRecordTable,
    FeasibilityError,
    MtParams,
    MtbParams,
    ValidationError,
    cell_probs_mt,
    cell_probs_mtb,
    expected_distinct,
    p_from_marginals,
)


class TestDualRecordTable:
    def test_margins_and_total(self):
        t = DualRecordTable(50, 30, 20)
        assert (t.x1_dot, t.x_dot1, t.x0) == (80, 70, 100)

    def test_zero_cells_allowed_individually(self):
        assert DualRecordTable(0, 3, 4).x0 == 7
        assert DualRecordTable(5, 0, 0).x0 == 5

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            DualRecordTable(0, 0, 0)

    @pytest.mark.parametrize("bad", [(-1, 2, 3), (1, -2, 3), (1, 2, -3)])
    def test_negative_rejected(self, bad):
        with pytest.raises(ValidationError):
            DualRecordTable(*bad)

    @pytest.mark.parametrize("bad", [(1.5, 2, 3), (True, 2, 3), ("1", 2, 3)])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ValidationError):
            DualRecordTable(*bad)

    def test_json_round_trip_bit_exact(self):
        t = DualRecordTable(50, 30, 20)
        assert DualRecordTable.from_json(t.to_json()) == t

    def test_json_keys(self):
        t = DualRecordTable.from_json('{"x11": 5, "x10": 3, "x01": 2}')
        assert (t.x11, t.x10, t.x01) == (5, 3, 2)

    def test_json_counts_read_as_in_a_study_config(self):
        # Integral floats are counts, as a config's "N": 5e2 is.
        assert DualRecordTable.from_json('{"x11": 5e1, "x10": 3.0, "x01": 2}') == (
            DualRecordTable(50, 3, 2)
        )
        for bad in ("50.5", "true", '"50"', "null"):
            with pytest.raises(ValidationError, match="x11 must be an integer"):
                DualRecordTable.from_json(f'{{"x11": {bad}, "x10": 3, "x01": 2}}')

    def test_csv_counts_are_ascii_decimal_digits(self):
        assert DualRecordTable.from_csv("x11,x10,x01\n 50 ,\t3, 2\n") == DualRecordTable(50, 3, 2)
        # Python's int() would read each of these fields as a count.
        for bad in ("5_0", "+50", "\u0665\u0660", "\uff15\uff10", "", "-1"):
            with pytest.raises(ValidationError, match="x11 must be decimal digits"):
                DualRecordTable.from_csv(f"x11,x10,x01\n{bad},3,2\n")

    def test_json_missing_key_rejected(self):
        with pytest.raises(ValidationError):
            DualRecordTable.from_json('{"x11": 5, "x10": 3}')

    def test_csv_round_trip(self):
        t = DualRecordTable(7, 5, 3)
        text = t.to_csv()
        assert text.splitlines()[0] == "x11,x10,x01"
        assert DualRecordTable.from_csv(text) == t

    def test_csv_bad_header_rejected(self):
        with pytest.raises(ValidationError):
            DualRecordTable.from_csv("a,b,c\n1,2,3\n")

    def test_csv_blank_lines_skipped(self):
        assert DualRecordTable.from_csv("\nx11,x10,x01\n\n7,5,3\n\n") == DualRecordTable(7, 5, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "x11,x10,x01\n7,5,3\n1,2,3\n",  # a second data row
            "x11,x10,x01\n7,5,3,4\n",  # a fourth field
            "x11,x10,x01\n7,5\n",  # a missing field
            "x11,x10,x01\n",  # no data row
            "",
        ],
        ids=["second-row", "fourth-field", "two-fields", "header-only", "empty"],
    )
    def test_csv_must_hold_one_row_of_three_counts(self, text):
        with pytest.raises(ValidationError):
            DualRecordTable.from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"x11": 5, "x10": 3, "x01": 2, "x00": 4}',
            '{"x11": 5, "x10": 3, "x01": 2, "X11": 5}',
            "[5, 3, 2]",
            "null",
            "{not json",
        ],
        ids=["extra-x00", "extra-case-variant", "array", "null", "invalid"],
    )
    def test_json_must_be_an_object_with_exactly_three_keys(self, text):
        with pytest.raises(ValidationError):
            DualRecordTable.from_json(text)


class TestParams:
    def test_mt_params_validation(self):
        MtParams(n=100, p1_dot=0.5, p_dot1=0.6)
        with pytest.raises(ValidationError):
            MtParams(n=0, p1_dot=0.5, p_dot1=0.6)
        with pytest.raises(ValidationError):
            MtParams(n=100, p1_dot=0.0, p_dot1=0.6)
        with pytest.raises(ValidationError):
            MtParams(n=100, p1_dot=0.5, p_dot1=1.0)

    def test_mtb_recapture_probability_derived(self):
        params = MtbParams(n=100, p1_dot=0.5, p=0.4, phi=1.5)
        assert params.c == pytest.approx(0.6, abs=1e-15)

    def test_mtb_infeasible_recapture_rejected(self):
        with pytest.raises(FeasibilityError):
            MtbParams(n=100, p1_dot=0.5, p=0.6, phi=2.0)

    def test_mtb_phi_must_be_positive(self):
        with pytest.raises(ValidationError):
            MtbParams(n=100, p1_dot=0.5, p=0.4, phi=0.0)


class TestCellProbabilities:
    def test_sum_to_one_enforced(self):
        with pytest.raises(ValidationError):
            CellProbabilities(0.3, 0.3, 0.3, 0.2)

    def test_marginal_properties(self):
        cells = CellProbabilities(0.24, 0.16, 0.3, 0.3)
        assert cells.p1_dot == pytest.approx(0.40, abs=1e-15)
        assert cells.p_dot1 == pytest.approx(0.54, abs=1e-15)
        assert cells.p0 == pytest.approx(0.70, abs=1e-15)

    def test_mtb_cells_arithmetic(self):
        # p1. = 0.5, p = 0.4, phi = 1.5 so c = 0.6:
        # p11 = 0.30, p10 = 0.20, p01 = 0.20, p00 = 0.30.
        cells = cell_probs_mtb(MtbParams(n=100, p1_dot=0.5, p=0.4, phi=1.5))
        assert cells.as_tuple() == pytest.approx((0.30, 0.20, 0.20, 0.30), abs=1e-15)
        assert sum(cells.as_tuple()) == 1.0

    def test_unit_behavioral_effect_gives_independence_cells(self):
        mtb = cell_probs_mtb(MtbParams(n=100, p1_dot=0.6, p=0.7, phi=1.0))
        mt = cell_probs_mt(MtParams(n=100, p1_dot=0.6, p_dot1=0.7))
        for a, b in zip(mtb.as_tuple(), mt.as_tuple()):
            assert a == pytest.approx(b, abs=1e-15)


class TestPFromMarginals:
    def test_worked_values(self):
        assert p_from_marginals(0.5, 0.65, 1.25) == pytest.approx(0.65 / 1.125, abs=1e-15)
        assert p_from_marginals(0.6, 0.7, 1.0) == pytest.approx(0.7, abs=1e-15)
        assert p_from_marginals(0.7, 0.55, 0.8) == pytest.approx(0.55 / 0.86, rel=1e-12)

    def test_round_trip_through_cells(self):
        for (p1, p2, phi) in [(0.5, 0.65, 1.25), (0.8, 0.7, 0.8), (0.7, 0.55, 1.25)]:
            p = p_from_marginals(p1, p2, phi)
            cells = cell_probs_mtb(MtbParams(n=500, p1_dot=p1, p=p, phi=phi))
            assert cells.p1_dot == pytest.approx(p1, abs=1e-12)
            assert cells.p_dot1 == pytest.approx(p2, abs=1e-12)

    def test_infeasible_combinations_rejected(self):
        with pytest.raises(FeasibilityError):
            p_from_marginals(0.6, 0.7, 0.5)  # derived p = 1.0
        with pytest.raises(FeasibilityError):
            p_from_marginals(0.8, 0.7, 0.5)  # derived p > 1


class TestExpectedDistinct:
    def test_exact_fractions(self):
        # With p1. = 0.5, p.1 = 0.65, phi = 0.8: p = 0.65/0.9 = 13/18,
        # p00 = 0.5 * 5/18 = 5/36, so E(x0) = 500 * 31/36.
        params = MtbParams(n=500, p1_dot=0.5, p=p_from_marginals(0.5, 0.65, 0.8), phi=0.8)
        assert expected_distinct(params) == pytest.approx(500 * 31 / 36, rel=1e-12)
        # p1. = 0.5, p.1 = 0.65, phi = 1.25: p = 26/45, p00 = 19/90.
        params = MtbParams(n=500, p1_dot=0.5, p=p_from_marginals(0.5, 0.65, 1.25), phi=1.25)
        assert expected_distinct(params) == pytest.approx(500 * 71 / 90, rel=1e-12)

    def test_unit_behavioral_effect_product_form(self):
        params = MtbParams(n=400, p1_dot=0.6, p=0.7, phi=1.0)
        assert expected_distinct(params) == pytest.approx(400 * (1 - 0.4 * 0.3), rel=1e-12)

    def test_scales_linearly_in_n(self):
        p = p_from_marginals(0.6, 0.7, 1.25)
        small = expected_distinct(MtbParams(n=500, p1_dot=0.6, p=p, phi=1.25))
        large = expected_distinct(MtbParams(n=1000, p1_dot=0.6, p=p, phi=1.25))
        assert large == pytest.approx(2 * small, rel=1e-12)

    def test_near_complete_capture(self):
        params = MtbParams(n=500, p1_dot=0.999, p=0.999, phi=1.0)
        assert expected_distinct(params) > 499.9
