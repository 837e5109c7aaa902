"""The benchmark's checks pass on known-good outputs and fail on perturbed ones.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from scipy.special import gammaln

import checks
import designs
import reference as ref
from dualrec import cli, parse_estimator, randomness
from dualrec.simulate import PopulationSpec, StudyConfig, run_study
from dualrec.tables import DualRecordTable

METHODS = ("pl-mt", "mpl-mt", "adpl-mtb", "adpl-mt")


def _dense_kernel(kind, ns, x11, x10, x01, delta):
    a, b, x0 = x11 + x10, x11 + x01, x11 + x10 + x01
    lg = gammaln(ns + 1) - gammaln(ns - x0 + 1)

    def xlogx(v):
        return np.where(v > 0, v * np.log(np.where(v > 0, v, 1)), 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "adpl-mtb":
            return lg + (delta - ns - 1.5) * np.log(ns) + (delta - 1) * np.log(ns - a) \
                + (ns - x0 + 0.5) * np.log(ns - x0)
        v = lg + xlogx(ns - a) + xlogx(ns - b) - 2 * xlogx(ns)
        if kind == "pl-mt":
            return v
        v = v + 0.5 * np.log(ns - a) + 0.5 * np.log(ns - b) - np.log(ns)
        return v if kind == "mpl-mt" else v + 2 * (delta - 1) * np.log(ns)


@pytest.mark.parametrize("kind", METHODS)
def test_bisection_argmax_equals_dense_grid(kind):
    """Small tables, where a dense double grid is exact: one sign change."""
    rng = np.random.default_rng(7)
    cells = rng.integers(1, 200, size=(60, 3))
    delta = 0.5 if kind.startswith("adpl") else None
    lower = cells.sum(1) + (1 if kind == "adpl-mtb" else 0)
    got = ref.argmax(kind, lower, cells[:, 0], cells[:, 1], cells[:, 2], delta)
    for (x11, x10, x01), lo, n in zip(cells, lower, got):
        ns = np.arange(lo, 3 * n + 1000, dtype=float)
        assert n == lo + int(np.argmax(_dense_kernel(kind, ns, x11, x10, x01, delta)))


@pytest.mark.parametrize("kind", METHODS)
def test_double_step_matches_mpmath(kind):
    rng = np.random.default_rng(3)
    for x11, x10, x01 in rng.integers(1, 5000, size=(20, 3)):
        n = int(x11 + x10 + x01) + int(rng.integers(1, 50000))
        want = ref.step_mp(kind, n, int(x11), int(x10), int(x01), 0.9)
        got = ref.step_f64(kind, [n], [x11], [x10], [x01], 0.9)[0]
        assert abs(got - float(want)) < 1e-13


def test_closed_forms_and_named_fixed_points():
    assert ref.estimate("dse", [30], [20], [25])[0][0] == 50 * 55 / 30
    assert ref.estimate("pl-mtb", [30], [20], [25])[0][0] == 76
    # Exact answers quoted for the grid-argmax fault (60-digit checks).
    assert ref.estimate("adpl-mtb:scaled:1.25", [25000], [15000], [20000])[0][0] == 69751
    assert ref.estimate("adpl-mtb:scaled:1.25", [250000], [150000], [200000])[0][0] == 697511


@pytest.mark.parametrize("method", [
    "dse", "pl-mt", "mpl-mt", "pl-mtb", "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25",
    "adpl-mtb:recapture:1.25", "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25",
    "adpl-mt:recapture:1.25",
])
def test_estimate_check_passes_and_catches_off_by_one(method):
    cells = (50, 30, 20)
    r = parse_estimator(method).estimate(DualRecordTable(*cells))
    want = checks.reference_estimate(cells, method)
    assert checks.check_estimate(cells, method, (r.n_hat, r.n_hat_integer, r.delta_used), want) == []
    for shift in (-1, 1):
        bad = (r.n_hat + shift, r.n_hat_integer + shift, r.delta_used)
        assert checks.check_estimate(cells, method, bad, want)


def test_sampler_matches_program_draw_for_draw():
    spec = PopulationSpec("T", 20000, 0.6, 0.7, 1.25)
    u = randomness.uniforms(99, designs.PURPOSE_STUDY, 3, 40)
    got = randomness.draw_tables(spec.n, spec.cells(), u)
    p11, p10, p01 = ref.cells(0.6, 0.7, 1.25)
    want = ref.draw_tables(spec.n, p11, p10, p01, ref.uniforms(99, designs.PURPOSE_STUDY, 3, 40))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert ref.draws_ok(want[0], np.full(40, spec.n), p11, u[:, 0])
    assert not ref.draws_ok(want[0] + 1, np.full(40, spec.n), p11, u[:, 0])


def test_large_n_study_check_catches_one_changed_draw(monkeypatch):
    design = ("L1", 20000, 0.6, 0.7, 1.25)
    config = StudyConfig((PopulationSpec(*design),), ("dse", "pl-mtb"), 30, seed=5)
    summaries = run_study(config)
    assert checks.check_large_n_study(5, summaries, design, 30, ("dse", "pl-mtb")) == []
    original = ref.draw_tables

    def one_off(*args):
        x11, x10, x01 = original(*args)
        x11 = x11.copy()
        x11[0] += 1
        return x11, x10, x01

    monkeypatch.setattr(ref, "draw_tables", one_off)
    assert checks.check_large_n_study(5, summaries, design, 30, ("dse", "pl-mtb"))


def _reproduce(target, replicates, svg=None):
    argv = ["reproduce", "--target", target, "--seed", "11", "--replicates", str(replicates)]
    if svg is not None:
        argv += ["--svg", str(svg)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _shift_first_mean(text, row_label):
    """Move the mean of the first row whose estimator is row_label by 1e-6."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[1] == row_label:
            col = 2 if len(cells) == 9 else 3
            cells[col] = repr(float(cells[col]) * (1 + 1e-6))
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError(row_label)


def test_study_table_check_passes_and_catches_shifted_mean():
    text = _reproduce("table3", 20)
    assert checks.check_study_table("table3", 11, text, 20) == []
    assert checks.check_study_table("table3", 11, _shift_first_mean(text, "adpl-mtb:scaled:1.25"), 20)
    assert checks.check_study_table("table3", 12, text, 20)  # another seed's draws
    assert checks.check_table2(_reproduce("table2", 20)) == []


def test_band_and_sweep_checks(tmp_path):
    svg = tmp_path / "fig2.svg"
    text = _reproduce("fig2", 20, svg)
    assert checks.check_bands("fig2", 11, text, 20) == []
    assert checks.check_svg("fig2", svg.read_text()) == []
    assert checks.check_bands("fig2", 11, _shift_first_mean(text, "dse"), 20)
    assert checks.check_svg("fig2", svg.read_text()[:-20])
    fig4 = _reproduce("fig4", 20)
    assert checks.check_fig4(11, fig4, 20) == []
    dropped = "\n".join(l for l in fig4.splitlines() if "skipped" not in l) + "\n"
    assert checks.check_fig4(11, dropped, 20)


def test_fig1_slope_window_is_checked():
    text = _reproduce("fig1", 200)
    assert checks.check_fig1(11, text, 200) == []
    flat = re.sub(r",([0-9.e-]+)$", ",0.25", text, flags=re.M)
    assert any("slope" in p for p in checks.check_fig1(11, flat, 200))
