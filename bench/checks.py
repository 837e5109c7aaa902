"""Checks of the program's outputs against ``reference``.

Every check returns a list of problems; an empty list means the output is
right. Numbers printed by the program are compared with a relative
tolerance of ``REL_TOL``: summation order may differ from the reference in
the last bits, while one changed draw or estimate moves a study summary by
far more (1/200 of an estimate in a mean).
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET

import designs
import reference as ref

REL_TOL = 1e-9
# Figure 1's log-log slopes grow like sqrt(N): 0.5. The acceptance suite
# checks [0.40, 0.60] at 2000 replicates; at the 200 replicates here a
# slope's standard error is 0.018-0.028 (40 seeds), so that window would
# miss on about 1 round in 700 by chance. This one is 6.6 or more standard
# errors wide on each side.
SLOPE_WINDOW = (0.30, 0.70)
TABLE_ESTIMATORS = ("dse",) + tuple(f"adpl-mtb:scaled:{k}" for k in ("0.75", "1.25", "1.75"))
TABLE_ESTIMATORS += tuple(f"{e}@oracle" for e in TABLE_ESTIMATORS[1:])
FIGURE_ESTIMATORS = ("dse", "adpl-mtb:scaled:1.25")
SVG_SERIES = {"fig1": 8, "fig2": 16, "fig3": 16, "fig4": 8}


def close(got, want, rel=REL_TOL) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _num(text: str):
    return None if text == "" else float(text)


def _rows(text: str) -> list[list[str]]:
    return [r for r in csv.reader(io.StringIO(text)) if r]


def _compare(where: str, got: dict, want: dict) -> list[str]:
    return [f"{where}: {k} = {got[k]!r}, reference {want[k]!r}"
            for k in want if not close(got[k], want[k])]


# ------------------------------------------------------------ single estimates


def reference_estimate(cells, method):
    """(n_hat, delta_used) of the reference for one table and descriptor."""
    n_hat, deltas, ok = ref.estimate(method, [cells[0]], [cells[1]], [cells[2]])
    if not ok[0] or n_hat[0] < 0:
        return None
    return float(n_hat[0]), (None if deltas is None else float(deltas[0]))


def check_estimate(cells, method, output, want) -> list[str]:
    """One ``estimate`` call: exact n_hat (and integer), delta at n_hat."""
    where = f"{method} on {cells}"
    if isinstance(output, BaseException):
        return [f"{where}: raised {output!r}"]
    if want is None:
        return [f"{where}: reference estimate undefined, program gave {output[0]!r}"]
    n_hat, n_int, delta = output
    problems = []
    if n_hat != want[0]:
        problems.append(f"{where}: n_hat {n_hat!r}, reference {want[0]!r}")
    if n_int != math.floor(want[0]):
        problems.append(f"{where}: n_hat_integer {n_int!r}, reference {math.floor(want[0])}")
    if not close(delta, want[1], 1e-15):
        problems.append(f"{where}: delta_used {delta!r}, reference {want[1]!r}")
    return problems


# ------------------------------------------------------------ studies


def check_summary(where: str, summary: dict, want: ref.Summary) -> list[str]:
    keys = ("mean", "se", "rmse", "ci_low", "ci_high", "delta_used")
    problems = _compare(where, {k: summary[k] for k in keys}, {k: getattr(want, k) for k in keys})
    if summary["failures"] != want.failures:
        problems.append(f"{where}: failures {summary['failures']}, reference {want.failures}")
    return problems


def check_large_n_study(seed, summaries, design, replicates, estimators) -> list[str]:
    """run_study summaries at large N against independently drawn tables."""
    label, n, p1_dot, p_dot1, phi = design
    x11, x10, x01 = ref.study_tables(seed, designs.PURPOSE_STUDY, 0, n,
                                     ref.cells(p1_dot, p_dot1, phi), replicates)
    if len(summaries) != len(estimators):
        return [f"{len(summaries)} summaries for {len(estimators)} estimators"]
    problems = []
    for s, est in zip(summaries, estimators):
        n_hat, deltas, ok = ref.estimate(est, x11, x10, x01, true_n=n)
        want = ref.summarize(n_hat, deltas, ok, n)
        got = {k: getattr(s, k) for k in ("mean", "se", "rmse", "ci_low", "ci_high",
                                          "delta_used", "failures")}
        if (s.population, s.estimator) != (label, est):
            problems.append(f"row ({s.population}, {s.estimator}), expected ({label}, {est})")
        problems += check_summary(f"{label}/{est}", got, want)
    return problems


# ------------------------------------------------------------ reproduce targets


def check_table2(text: str) -> list[str]:
    rows = _rows(text)
    problems = []
    if len(rows) != 1 + len(designs.TABLE2):
        return [f"table2: {len(rows) - 1} rows, expected {len(designs.TABLE2)}"]
    for row, (label, n, p1_dot, p_dot1, phi) in zip(rows[1:], designs.TABLE2):
        exact = ref.expected_distinct(n, p1_dot, p_dot1, phi)
        if row[0] != label or int(row[1]) != n:
            problems.append(f"table2: row {row[:2]}, expected {label}, {n}")
        if not close(float(row[6]), exact, 1e-12):
            problems.append(f"table2 {label}: exact {row[6]}, reference {exact!r}")
        if int(row[5]) != round(exact):
            problems.append(f"table2 {label}: rounded {row[5]}, reference {round(exact)}")
    return problems


def check_study_table(target: str, seed: int, text: str, replicates: int) -> list[str]:
    """table3/table4: every computed row recomputed in full."""
    block = designs.TABLE2[:4] if target == "table3" else designs.TABLE2[4:]
    rows = _rows(text)[1:]
    per_pop = len(TABLE_ESTIMATORS) + 1
    if len(rows) != per_pop * len(block):
        return [f"{target}: {len(rows)} rows, expected {per_pop * len(block)}"]
    problems = []
    for unit, (label, n, p1_dot, p_dot1, phi) in enumerate(block):
        x11, x10, x01 = ref.study_tables(seed, designs.PURPOSE_STUDY, unit, n,
                                         ref.cells(p1_dot, p_dot1, phi), replicates)
        pop_rows = rows[unit * per_pop:(unit + 1) * per_pop]
        for row, est in zip(pop_rows, TABLE_ESTIMATORS):
            if row[:2] != [label, est]:
                problems.append(f"{target}: row {row[:2]}, expected {[label, est]}")
                continue
            n_hat, deltas, ok = ref.estimate(est, x11, x10, x01, true_n=n)
            want = ref.summarize(n_hat, deltas, ok, n)
            got = dict(zip(("mean", "se", "rmse", "ci_low", "ci_high"), map(_num, row[2:7])))
            got["failures"] = int(row[7])
            got["delta_used"] = _num(row[8])
            problems += check_summary(f"{target} {label}/{est}", got, want)
        if pop_rows[-1][:2] != [label, "lee-published-reference"]:
            problems.append(f"{target}: no published reference row for {label}")
    return problems


def _dse_rows(seed, purpose, populations, replicates):
    """Reference dse (mean, sd) per population, in stream-unit order."""
    out = []
    for unit, (n, p1_dot, p_dot1, phi) in enumerate(populations):
        x11, x10, x01 = ref.study_tables(seed, purpose, unit, n,
                                         ref.cells(p1_dot, p_dot1, phi), replicates)
        n_hat, _, ok = ref.estimate("dse", x11, x10, x01)
        s = ref.summarize(n_hat, None, ok, n)
        out.append((s.mean, s.se))
    return out


def check_fig1(seed: int, text: str, replicates: int) -> list[str]:
    rows = _rows(text)[1:]
    pops = [(n, p1, pd1, phi) for _, _, p1, pd1, phi in designs.SCALING for n in designs.N_GRID]
    if len(rows) != len(pops) * len(FIGURE_ESTIMATORS):
        return [f"fig1: {len(rows)} rows, expected {len(pops) * len(FIGURE_ESTIMATORS)}"]
    problems = []
    dse = _dse_rows(seed, designs.PURPOSE_SCALING, pops, replicates)
    series = {}
    for i, row in enumerate(rows):
        sit, est, n = row[0], row[1], int(row[2])
        mean, sd, slope = float(row[3]), float(row[4]), float(row[5])
        series.setdefault((sit, est), []).append((n, sd, slope))
        if est == "dse":
            want_mean, want_sd = dse[i // len(FIGURE_ESTIMATORS)]
            problems += _compare(f"fig1 {sit}/dse N={n}", {"mean": mean, "sd": sd},
                                 {"mean": want_mean, "sd": want_sd})
    for (sit, est), pts in series.items():
        xs = [math.log(n) for n, _, _ in pts]
        ys = [math.log(sd) for _, sd, _ in pts]
        slope = pts[0][2]
        if not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
            problems.append(f"fig1 {sit}/{est}: slope {slope} outside {SLOPE_WINDOW}")
        if not close(slope, ref.ols_slope(xs, ys), 1e-9):
            problems.append(f"fig1 {sit}/{est}: slope {slope} is not the OLS slope of its rows")
    return problems


def check_bands(target: str, seed: int, text: str, replicates: int) -> list[str]:
    block = designs.TABLE2[:4] if target == "fig2" else designs.TABLE2[4:]
    pops = [(n, p1, pd1, phi) for _, _, p1, pd1, phi in block for n in designs.N_GRID]
    rows = _rows(text)[1:]
    if len(rows) != len(pops) * len(FIGURE_ESTIMATORS):
        return [f"{target}: {len(rows)} rows, expected {len(pops) * len(FIGURE_ESTIMATORS)}"]
    problems = []
    dse = _dse_rows(seed, designs.PURPOSE_BANDS, pops, replicates)
    for i, row in enumerate(rows):
        pop, est, n = row[0], row[1], int(row[2])
        mean, sd, lcl, ucl = map(float, row[3:7])
        where = f"{target} {pop}/{est} N={n}"
        if not math.isclose(ucl - lcl, 3.92 * sd / n, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: rel_ucl - rel_lcl = {ucl - lcl!r}, 3.92 sd/N = {3.92 * sd / n!r}")
        if not close(lcl, (mean - 1.96 * sd) / n):
            problems.append(f"{where}: rel_lcl {lcl!r} is not (mean - 1.96 sd)/N")
        if est == "dse":
            want_mean, want_sd = dse[i // len(FIGURE_ESTIMATORS)]
            problems += _compare(where, {"mean": mean, "sd": sd}, {"mean": want_mean, "sd": want_sd})
    return problems


def check_fig4(seed: int, text: str, replicates: int, n: int = 500) -> list[str]:
    feasible, infeasible = designs.sweep_points()
    rows = _rows(text)[1:]
    points = [r for r in rows if r[2] != ""]
    skipped = {(r[0], float(r[1])) for r in rows if r[2] == ""}
    problems = []
    if skipped != {(label, phi) for label, _, _, phi in infeasible}:
        problems.append(f"fig4: skipped {sorted(skipped)}, infeasible {infeasible}")
    if len(points) != len(feasible) * len(FIGURE_ESTIMATORS):
        return problems + [f"fig4: {len(points)} rows, expected {len(feasible) * 2}"]
    pops = [(n, p1, pd1, phi) for _, p1, pd1, phi in feasible]
    dse = _dse_rows(seed, designs.PURPOSE_SWEEP, pops, replicates)
    for i, row in enumerate(points):
        label, phi, est = row[0], float(row[1]), row[2]
        rel_mean, lcl, ucl, mean, sd = map(float, row[3:8])
        where = f"fig4 {label}/{est} phi={phi:g}"
        if (label, phi) != (feasible[i // 2][0], feasible[i // 2][3]):
            problems.append(f"{where}: expected point {feasible[i // 2]}")
        if not math.isclose(ucl - lcl, 3.92 * sd / n, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: band width is not 3.92 sd/N")
        if not close(rel_mean, mean / n):
            problems.append(f"{where}: rel_mean {rel_mean!r} is not mean/N")
        if est == "dse":
            want_mean, want_sd = dse[i // len(FIGURE_ESTIMATORS)]
            problems += _compare(where, {"mean": mean, "sd": sd}, {"mean": want_mean, "sd": want_sd})
    return problems


def check_svg(target: str, svg_text: str | None) -> list[str]:
    if svg_text is None:
        return [f"{target}: no SVG written"]
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return [f"{target}: SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    problems = []
    if root.tag != f"{ns}svg":
        problems.append(f"{target}: SVG root is {root.tag}")
    lines = len(root.findall(f"{ns}polyline"))
    if lines != SVG_SERIES[target]:
        problems.append(f"{target}: {lines} plotted series, expected {SVG_SERIES[target]}")
    return problems


def check_target(target, seed, text, svg_text, replicates) -> list[str]:
    if target == "table2":
        return check_table2(text)
    if target in ("table3", "table4"):
        return check_study_table(target, seed, text, replicates)
    if target == "fig1":
        problems = check_fig1(seed, text, replicates)
    elif target in ("fig2", "fig3"):
        problems = check_bands(target, seed, text, replicates)
    else:
        problems = check_fig4(seed, text, replicates)
    return problems + check_svg(target, svg_text)
