"""Run every case of the output diff through one side's dualrec, in one process.

Usage: PYTHONPATH=SRC python .github/diff_cases.py SRC WORK_DIR SIDE

.github/diff-outputs.sh runs this once with the base commit's src and once
with the head's. Each case is a dualrec command line, run through
``dualrec.cli.main`` as ``python -m dualrec`` runs it. It writes, under
WORK_DIR/SIDE, each case's stdout to CASE.out, its stderr followed by
``exit CODE`` to CASE.err and a figure's --svg plot to CASE.svg, where CASE
is the case's name with each space as "_". It first writes the names, one a
line in report order, to WORK_DIR/SIDE/cases, and the study configs and
tables the cases read to WORK_DIR/inputs, the same paths for both sides.

The cases: every reproduce target (with the --svg plot of each figure), a
simulate study of every method and policy in both delta modes, and the
studies of STUDIES below, each kept for the sampling or search path it
reaches; and single-table estimate reports in text and JSON (ESTIMATES). The
tiny population and the (0, 1, 3) table reach the 60-solve cap of the
candidate fixed point and fail there.
"""

import contextlib
import io
import json
import sys
import traceback
import warnings
from pathlib import Path

TARGETS = ("table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")


def _study(populations, estimators, replicates=20, seed=7):
    """A StudyConfig's JSON fields; each population is (label, N, p1, p_dot1, phi)."""
    keys = ("label", "N", "p1", "p_dot1", "phi")
    populations = [dict(zip(keys, row)) for row in populations]
    return dict(populations=populations, estimators=estimators, replicates=replicates, seed=seed)


CLOSED_FORMS = ["dse", "pl-mtb"]

STUDIES = {
    "study": _study(
        [("P1", 500, 0.5, 0.65, 1.25), ("P6", 500, 0.6, 0.7, 0.8),
         ("sparse", 40, 0.1, 0.3, 1.0), ("tiny", 20, 0.1, 0.3, 1.0)],
        ["dse", "pl-mt", "mpl-mt", "pl-mtb",
         "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
         "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25", "adpl-mt:recapture:1.25",
         "adpl-mt:scaled:4",
         "dse@oracle", "pl-mt@oracle", "mpl-mt@oracle", "pl-mtb@oracle",
         "adpl-mtb:fixed:0.5@oracle", "adpl-mtb:scaled:1.25@oracle",
         "adpl-mtb:recapture:1.25@oracle", "adpl-mt:fixed:0.5@oracle",
         "adpl-mt:scaled:1.25@oracle", "adpl-mt:recapture:1.25@oracle"],
    ),
    # Large-N draws: at N <= 500 every binomial_cdf window starts at 0, so
    # only these populations exercise that window's left bound and rows that
    # are wide or hold many points on each side of their cuts; the closed
    # forms keep the study to sampling. At seed 7, 7 of the 19 distinct
    # stage-3 rows of "straddle" are at least _ALONE wide, each a block of
    # its own, and 12 are narrower and share padded blocks, so one
    # draw_binomial call has rows on both sides of that size.
    "large": _study(
        [("M", 1000000, 0.6, 0.7, 1.25), ("G", 1000000000, 0.6, 0.7, 1.25),
         ("skewed", 1000000, 0.02, 0.3, 1.0), ("straddle", 523000, 0.5, 0.65, 1.25)],
        CLOSED_FORMS,
    ),
    # Window ends: at p1 = 0.98, p.1 = 0.97 (N = 2000) every stage's window
    # ends at n; at N = 1e7 every row is at least _ALONE wide, so each is a
    # block of one row that reads its log-factorials as slices; N = 3 has
    # windows of a few points.
    "ends": _study(
        [("high", 2000, 0.98, 0.97, 1.0), ("wide", 10000000, 0.6, 0.7, 1.25),
         ("three", 3, 0.5, 0.65, 1.25)],
        CLOSED_FORMS,
    ),
    # Mixed-N likelihood study: run_study stacks the rows of populations of
    # different N into one batch, and @oracle rows evaluate delta at their
    # own population's N.
    "mixed": _study(
        [("N20", 20, 0.5, 0.65, 1.25), ("N500", 500, 0.6, 0.7, 0.8),
         ("N20000", 20000, 0.5, 0.65, 1.25)],
        ["mpl-mt", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
         "adpl-mtb:scaled:1.25@oracle", "adpl-mtb:recapture:1.25@oracle"],
    ),
    # Group draw: at R = 300 a stack group holds 13 populations (4096 // 300,
    # with R not dividing STACK_ROWS), so these 14 make two groups.
    # Populations of one design at N = 200, 500 and 1000 share (trials,
    # probability) pairs across populations within a draw, and the padded
    # blocks hold several rows with several draws each.
    "group": _study(
        [(f"A{copy}{n}", n, 0.6, 0.7, 1.25) for copy in "abcd" for n in (200, 500, 1000)]
        + [("B500", 500, 0.7, 0.55, 0.8), ("B1000", 1000, 0.7, 0.55, 0.8)],
        ["dse", "pl-mtb", "adpl-mtb:scaled:1.25"],
        replicates=300,
    ),
    # Candidate fixed points at N = 1e5: at seed 7 the iterates of
    # adpl-mtb:scaled:1.25 and adpl-mtb:recapture:1.25 rise from the anchor
    # on all 20 rows of "rise" and fall on all 20 rows of "fall", so the
    # searches started from each solve's current iterate gallop both ways;
    # the other estimators start from round(DSE) (pl-mt, mpl-mt) or the DSE
    # anchor (fixed delta, @oracle).
    "gallop": _study(
        [("rise", 100000, 0.5, 0.65, 1.25), ("fall", 100000, 0.1, 0.2, 1.0)],
        ["pl-mt", "mpl-mt", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
         "adpl-mt:fixed:0.5", "adpl-mtb:scaled:1.25@oracle"],
    ),
    # Narrow rows: 1100 populations of N = 2 to 4, each with a p1 of its
    # own, make one stack group whose stages draw 1100 to over 2000 distinct
    # (trials, probability) pairs of windows a few points wide, all in one
    # cluster, so they are packed into padded blocks of many rows, each
    # inverted by one bisection over its rows.
    "narrow": _study(
        [(f"n{i}", 2 + i % 3, 0.3 + 0.0004 * i, 0.6, 1.0) for i in range(1100)],
        CLOSED_FORMS,
        replicates=3,
        seed=9,
    ),
    # Draw check: P2 at R = 20 000, seed 13. Its 60 000 draws come from rows
    # cut on both sides at N = 500, and one stage-1 draw, of (500, 0.4565...),
    # lies within the rows' bound B of a CDF step: it fails the check and is
    # inverted again on binomial_cdf's window.
    "recheck": _study([("P2", 500, 0.6, 0.7, 1.25)], CLOSED_FORMS, replicates=20000, seed=13),
    # Shared cluster: two populations at N = 1e6 that differ only in p1 (0.6
    # and 0.6002) form one stack group, and in each stage their wide rows, of
    # two probabilities, overlap and share one cluster's log-factorial
    # tables, each probability reading k ln p and (n - k) ln(1 - p) from its
    # own.
    "shared": _study(
        [("A", 1000000, 0.6, 0.7, 1.25), ("B", 1000000, 0.6002, 0.7, 1.25)], CLOSED_FORMS
    ),
    # The benchmark's sample-large-n study (N = 1e6, R = 50, the closed
    # forms) at two seeds.
    **{
        f"sample{seed}": _study(
            [("L1", 1000000, 0.6, 0.7, 1.25)], CLOSED_FORMS, replicates=50, seed=seed
        )
        for seed in (4, 5)
    },
}

EVERY_DESCRIPTOR = [
    "dse", "pl-mt", "mpl-mt", "pl-mtb",
    "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
    "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25", "adpl-mt:recapture:1.25", "adpl-mt:scaled:4",
]

# (cells, descriptors, extra args): each descriptor on that (x11, x10, x01)
# table, in text and in JSON. (1, 3000, 3000) and (95000001, 0, 0) take the
# decimal recheck in all four kernels; (95000001, 0, 0) also reaches the
# search ceiling (adpl-mtb:scaled), delta = 1 (adpl-mtb:recapture, as
# (5, 0, 3) does) and the nuisance edges c_hat = 1, p_hat = 0 and
# phi_hat = inf, or none at all where N_hat = x1. (2, 9007199254740985, 4)
# has the largest total a table may have, 2**53 - 1, and on the four tables
# from (15000, 9000, 6000) to (400000, 240000, 320000) steps near the
# maximizers fall on both sides of the double form's rounding bound, so some
# step signs are decided in double and some again in decimal. estimate
# solves its table as a one-row batch, and the bootstrap solves its fit as
# one row and its replicates as one batch.
ESTIMATES = [
    *(
        (cells, EVERY_DESCRIPTOR, [])
        for cells in [
            (50, 30, 20), (2, 500, 400), (0, 0, 5), (0, 1, 3), (2, 9007199254740985, 4),
            (15000, 9000, 6000), (25000, 15000, 20000), (250000, 150000, 200000),
            (400000, 240000, 320000), (1, 3000, 3000), (95000001, 0, 0), (5, 0, 3),
        ]
    ),
    *(
        (cells, ["dse", "pl-mt", "adpl-mtb:recapture:1.25", "adpl-mt:scaled:1.25"],
         ["--bootstrap", "40", "--seed", "7"])
        for cells in [(50, 30, 20), (2, 500, 400)]
    ),
    # Candidate maps with two fixed points each (13122788 and 13122794, then
    # 15442161 and 15442168): the iteration returns the first.
    ((205177, 1307, 37712), ["adpl-mtb:recapture:0.25"], []),
    ((178155, 270, 162507), ["adpl-mtb:recapture:1.25"], []),
]


def cases(inputs: Path, out: Path):
    """(name, argv) of every case, in report order; writes the inputs they read."""
    for target in TARGETS:
        argv = ["reproduce", "--target", target, "--replicates", "20"]
        if target.startswith("fig"):
            argv += ["--svg", str(out / f"reproduce_{target}.svg")]
        yield f"reproduce {target}", argv
    for study, config in STUDIES.items():
        path = inputs / f"{study}.json"
        path.write_text(json.dumps(config))
        yield f"simulate {study}", ["simulate", "--config", str(path)]
    for cells, descriptors, extra in ESTIMATES:
        table = inputs / ("table-" + "-".join(map(str, cells)) + ".json")
        table.write_text(json.dumps(dict(zip(("x11", "x10", "x01"), cells))))
        for descriptor in descriptors:
            method, _, delta = descriptor.partition(":")
            argv = ["estimate", "--table", str(table), "--method", method]
            if delta:
                argv += ["--delta", delta]
            argv += extra
            name = " ".join(["estimate", *map(str, cells), descriptor, *extra])
            yield f"{name} text", argv
            yield f"{name} json", argv + ["--json"]


def run(main, argv) -> tuple[str, str]:
    """The stdout and stderr, then ``exit CODE``, of ``main(argv)`` as a process of its own.

    Warning filters and the once-per-location registries are restored after
    each case, so a warning prints in every case that raises it. An
    exception other than SystemExit, which argparse raises on a usage
    error, prints its traceback and exits 1, as an uncaught one does.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
    return stdout.getvalue(), stderr.getvalue() + f"exit {code}\n"


def main(src, work, side):
    inputs, out = Path(work, "inputs"), Path(work, side)
    for folder in (inputs, out):
        folder.mkdir(parents=True, exist_ok=True)
    todo = list(cases(inputs, out))
    (out / "cases").write_text("".join(f"{name}\n" for name, _ in todo))
    from dualrec import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"dualrec was imported from {cli.__file__}, not from {src}")
    for name, argv in todo:
        stdout, stderr = run(cli.main, argv)
        file = name.replace(" ", "_")
        (out / f"{file}.out").write_text(stdout)
        (out / f"{file}.err").write_text(stderr)


if __name__ == "__main__":
    main(*sys.argv[1:])
