"""Command-line front end.

Three subcommands:

    estimate    fit one estimator to a user-supplied 2x2 table file
    simulate    run a JSON-configured Monte Carlo study, emit summary CSV
    reproduce   emit the bundled study tables and figure datasets

Exit codes are a stable contract: 0 success, 1 usage/input error, 2
estimation error (undefined estimate, infeasible adjustment, or no finite
maximum).

Study CSV output uses the fixed header
``population,estimator,mean,se,rmse,ci_low,ci_high,failures,delta_used``;
``delta_used`` is populated on adjusted-profile rows only. Rows labeled
``lee-published-reference`` are transcribed comparison values from the
bundled reference file, never computed here.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

from .estimators import (
    _METHODS,
    EstimateReport,
    parametric_bootstrap,
    parse_estimator,
)
from .randomness import DEFAULT_SEED
from .simulate import (
    StudyConfig,
    TABLE2_POPULATIONS,
    _fmt,
    coverage_bands,
    robustness_sweep,
    run_study,
    se_scaling_study,
    summaries_to_csv,
)
from .tables import (
    DrsError,
    DualRecordTable,
    EstimationError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ESTIMATION = 2

_TARGET_CHOICES = ("table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")

_ESTIMATE_EPILOG = """\
notes:
  Table files may be JSON ({"x11": ..., "x10": ..., "x01": ...}) or CSV with
  header x11,x10,x01; the format is sniffed from the content.

  The adjusted-profile methods require --delta with a policy string:
  fixed:<v>, scaled:<k> (delta = 1 - k/N), or recapture:<k>
  (delta = 1 - k*(1 - c_hat)/N). N-dependent policies are resolved
  self-consistently at the estimate; one that has not settled after 60
  solves is an estimation error (exit 2).

  The cell counts behind the published real-data estimates were never
  published. The urban-area estimate is reproduced on a consistent table:
  (1646, 316, 804) under --method adpl-mtb --delta recapture:4 gives 3428;
  no table consistent with the other two gives its published pair. This
  command reports what the supplied table supports.
"""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_published_reference() -> dict:
    """Bundled transcription of the source study's reported values."""
    text = resources.files("dualrec").joinpath("data/published_reference.json").read_text()
    return json.loads(text)


def _read_text(path: str) -> str:
    """The text of a table or config file; bytes that are not UTF-8 are an input error.

    A leading UTF-8 byte-order mark, as some editors save it, is dropped.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_table(path: str) -> DualRecordTable:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return DualRecordTable.from_json(text)
    return DualRecordTable.from_csv(text)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_fields(record) -> dict:
    """A dataclass's fields, with each non-finite float as the text report writes it.

    JSON has no inf or nan, and null already means "not recoverable".
    """
    return {
        k: f"{v:g}" if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in asdict(record).items()
    }


def _report_json(report: EstimateReport, bootstrap=None) -> str:
    payload = _json_fields(report)
    if bootstrap is not None:
        payload["bootstrap"] = _json_fields(bootstrap)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _report_text(report: EstimateReport, bootstrap=None) -> str:
    lines = [f"method: {report.method}"]
    if report.n_hat_integer is not None and report.n_hat != report.n_hat_integer:
        lines.append(f"n_hat: {report.n_hat:g} (integer part {report.n_hat_integer})")
    else:
        lines.append(f"n_hat: {report.n_hat:g}")
    if report.p1_hat is not None:
        lines.append(
            "recovered: "
            f"p1_hat={report.p1_hat:.6g} p_hat={report.p_hat:.6g} "
            f"c_hat={report.c_hat:.6g} phi_hat={report.phi_hat:.6g}"
        )
    if report.delta_used is not None:
        lines.append(f"delta_used: {report.delta_used:.10g}")
    if report.se is not None:
        lines.append(f"se: {report.se:.6g}")
    if report.degenerate:
        lines.append(
            "warning: degenerate boundary estimate; the likelihood for this "
            "model carries no interior information about N on this table"
        )
    if report.note:
        lines.append(f"note: {report.note}")
    if bootstrap is not None:
        lines.append(
            f"bootstrap (B={bootstrap.replicates + bootstrap.failures}): "
            f"se={bootstrap.se:.6g} ci95=({bootstrap.ci_low:.6g}, {bootstrap.ci_high:.6g}) "
            f"failures={bootstrap.failures}"
        )
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    table = _read_table(args.table)
    if _METHODS[args.method].needs_policy:
        if args.delta is None:
            raise ValidationError(
                f"method {args.method} requires --delta (e.g. --delta scaled:1.25)"
            )
        descriptor = f"{args.method}:{args.delta}"
    else:
        if args.delta is not None:
            raise ValidationError(f"method {args.method} does not take --delta")
        descriptor = args.method
    spec = parse_estimator(descriptor)
    report = spec.estimate(table)
    bootstrap = None
    if args.bootstrap is not None:
        bootstrap = parametric_bootstrap(table, spec, b=args.bootstrap, seed=args.seed)
        report = replace(
            report, se=bootstrap.se, ci_low=bootstrap.ci_low, ci_high=bootstrap.ci_high
        )
    text = _report_json(report, bootstrap) if args.json else _report_text(report, bootstrap)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = StudyConfig.from_json(_read_text(args.config))
    summaries = run_study(config)
    _write_out(summaries_to_csv(summaries), args.out)
    return EXIT_OK


def _reproduce_table2() -> str:
    lines = ["population,n,p1,p_dot1,phi,expected_distinct,expected_distinct_exact"]
    for pop in TABLE2_POPULATIONS:
        exact = pop.expected_distinct()
        lines.append(
            f"{pop.label},{pop.n},{pop.p1_dot:g},{pop.p_dot1:g},{pop.phi:g},"
            f"{round(exact)},{exact!r}"
        )
    return "\n".join(lines) + "\n"


def _reproduce_study_table(populations, seed: int, replicates: int) -> str:
    """Study CSV for a population block: computed rows plus reference rows.

    Per population: the dual-system estimator, the three adjusted-profile
    estimators in self-consistent delta mode and again in oracle mode
    (``@oracle`` labels), then the transcribed Bayes comparator row.
    """
    ks = ("0.75", "1.25", "1.75")
    estimators = (
        ("dse",)
        + tuple(f"adpl-mtb:scaled:{k}" for k in ks)
        + tuple(f"adpl-mtb:scaled:{k}@oracle" for k in ks)
    )
    config = StudyConfig(
        populations=tuple(populations),
        estimators=estimators,
        replicates=replicates,
        seed=seed,
    )
    rows = summaries_to_csv(run_study(config)).splitlines()
    reference = load_published_reference()["study_summaries"]
    lines = rows[:1]
    per_pop = len(estimators)
    for pi, pop in enumerate(populations):
        lines += rows[1 + pi * per_pop:1 + (pi + 1) * per_pop]
        lee = reference[pop.label]["lee"]
        lines.append(
            f"{pop.label},lee-published-reference,{lee['mean']},{lee['se']},"
            f"{lee['rmse']},{lee['ci'][0]},{lee['ci'][1]},,"
        )
    return "\n".join(lines) + "\n"


def _reproduce_fig1(seed: int, replicates: int):
    result = se_scaling_study(replicates=replicates, seed=seed)
    lines = ["situation,estimator,n,mean,sd,slope"]
    series = {}
    for p in result.points:
        slope = result.slope(p.situation, p.estimator)
        lines.append(
            f"{p.situation},{p.estimator},{p.n},{_fmt(p.mean)},"
            f"{_fmt(p.sd)},{_fmt(slope)}"
        )
        if p.sd > 0:  # ln sd is undefined at sd = 0, as in the slope fit
            series.setdefault(f"{p.situation}/{p.estimator}", []).append(
                (math.log(p.n), math.log(p.sd))
            )
    return "\n".join(lines) + "\n", series, ("ln N", "ln sd")


def _reproduce_bands(populations, seed: int, replicates: int):
    points = coverage_bands(populations=populations, replicates=replicates, seed=seed)
    lines = ["population,estimator,n,mean,sd,rel_lcl,rel_ucl"]
    series = {}
    for p in points:
        lines.append(
            f"{p.population},{p.estimator},{p.n},{_fmt(p.mean)},{_fmt(p.sd)},"
            f"{_fmt(p.rel_lcl)},{_fmt(p.rel_ucl)}"
        )
        series.setdefault(f"{p.population}/{p.estimator}/lcl", []).append((p.n, p.rel_lcl))
        series.setdefault(f"{p.population}/{p.estimator}/ucl", []).append((p.n, p.rel_ucl))
    return "\n".join(lines) + "\n", series, ("N", "relative band")


def _reproduce_fig4(seed: int, replicates: int):
    result = robustness_sweep(replicates=replicates, seed=seed)
    lines = ["situation,phi,estimator,rel_mean,rel_lcl,rel_ucl,mean,sd,note"]
    series = {}
    for p in result.points:
        lines.append(
            f"{p.situation},{p.phi:g},{p.estimator},{_fmt(p.rel_mean)},"
            f"{_fmt(p.rel_lcl)},{_fmt(p.rel_ucl)},{_fmt(p.mean)},"
            f"{_fmt(p.sd)},"
        )
        series.setdefault(f"{p.situation}/{p.estimator}", []).append((p.phi, p.rel_mean))
    for label, phi, reason in result.skipped:
        lines.append(f'{label},{phi:g},,,,,,,"skipped infeasible point: {reason}"')
    return "\n".join(lines) + "\n", series, ("phi", "relative mean")


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)


def _svg_plot(series: dict, xlabel: str, ylabel: str, title: str) -> str:
    """Minimal dependency-free SVG line plot of {label: [(x, y), ...]}."""
    width, height, margin = 720, 480, 60
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{x_hi:.4g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{y_lo:.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{y_hi:.4g}</text>',
    ]
    for i, (label, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * (i + 1)}" '
            f'font-size="9" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_reproduce(args) -> int:
    target = args.target
    if args.svg is not None and not target.startswith("fig"):
        raise ValidationError(f"--svg applies only to figure targets, not {target}")
    # table3 and fig2 cover populations P1-P4; table4 and fig3 cover P5-P8.
    block = TABLE2_POPULATIONS[:4] if target in ("table3", "fig2") else TABLE2_POPULATIONS[4:]
    if target == "table2":
        text = _reproduce_table2()
    elif target in ("table3", "table4"):
        text = _reproduce_study_table(block, args.seed, args.replicates)
    else:
        if target == "fig1":
            text, series, (xlabel, ylabel) = _reproduce_fig1(args.seed, args.replicates)
        elif target in ("fig2", "fig3"):
            text, series, (xlabel, ylabel) = _reproduce_bands(block, args.seed, args.replicates)
        else:
            text, series, (xlabel, ylabel) = _reproduce_fig4(args.seed, args.replicates)
        if args.svg is not None:
            Path(args.svg).write_text(_svg_plot(series, xlabel, ylabel, target))
    _write_out(text, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dualrec",
        description="Population-size estimation from dual-record (two-list) count data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser(
        "estimate",
        help="fit one estimator to a 2x2 table file",
        epilog=_ESTIMATE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_est.add_argument("--table", required=True, help="table file (JSON or CSV)")
    p_est.add_argument("--method", required=True, choices=_METHODS)
    p_est.add_argument("--delta", help="delta policy for the adjusted-profile methods")
    p_est.add_argument("--bootstrap", type=int, metavar="B",
                       help="parametric bootstrap with B replicates for se and CI")
    p_est.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_est.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_est.add_argument("--out", help="write output to this file instead of stdout")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a JSON-configured study, emit CSV")
    p_sim.add_argument("--config", required=True, help="StudyConfig JSON file")
    p_sim.add_argument("--out", help="write CSV to this file instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="emit bundled study tables / figure datasets")
    p_rep.add_argument("--target", required=True, choices=_TARGET_CHOICES)
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_rep.add_argument("--replicates", type=int, default=200)
    p_rep.add_argument("--out", help="write CSV to this file instead of stdout")
    p_rep.add_argument("--svg", help="also write a minimal SVG plot (figure targets only)")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationError as exc:
        print(f"dualrec: estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DrsError as exc:
        print(f"dualrec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"dualrec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
