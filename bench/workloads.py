"""The benchmark's workloads: inputs built from a seed, and rounds of calls.

A round is a fixed list of calls into the program's public functions. Each
call is timed from outside with the workload's ``timed``; its outputs are kept so
that the checks can run after the timed section. Every round of a workload
makes the same number of operations, and an operation is one (table,
estimator) estimate: a replicate x estimator pair inside a study, or one
call in ``estimate-tables``.

The program keeps its binomial CDFs in a process-wide cache. A user runs one
``reproduce`` target or one study per process, so the workloads clear that
cache before every study call (``reset_program_caches``) and study rounds
draw from a new seed each round; no round reuses another's work.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualrec import cli, randomness, simulate
from dualrec.estimators import parse_estimator
from dualrec.tables import DualRecordTable

import designs
import speed

REPLICATES = 200  # the ``reproduce`` default the paper's tables use
TARGETS = ("table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")
FIGURES = ("fig1", "fig2", "fig3", "fig4")

# estimate-tables: every method, and every policy of the adjusted methods.
METHODS = (
    "dse", "pl-mt", "mpl-mt", "pl-mtb",
    "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
    "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25", "adpl-mt:recapture:1.25",
)
# Seed-drawn tables exclude adpl-mtb with an N-dependent policy: its grid
# argmax misses the exact one on a share of tables of every size (flat
# kernel, rounding-limited comparisons), so whether it fails would depend
# on the seed. It runs on the fixed tables below instead, as do the
# closed forms (dse, pl-mtb), which need one table each.
SEEDED_METHODS = ("pl-mt", "mpl-mt", "adpl-mtb:fixed:0.5") + METHODS[7:]
# x0 of the seed-drawn tables. Beyond about 5e3 the grid argmax of the
# M_t kernels also misses the exact one on about 1 table in 1000, so the
# larger sizes come from fixed tables.
SEEDED_LEVELS = (100, 200, 500, 1000, 2000, 5000)
SEEDED_SHARES = ((0.35, 0.30, 0.35), (0.40, 0.35, 0.25))  # (x11, x10, x01) / x0
LARGE = (15000, 9000, 6000), (25000, 15000, 20000), (250000, 150000, 200000)
# Fixed tables: the README's example, a sparse-overlap table (x11 = 2, so
# the 10 * DSE window reaches 1e6 while the adpl-mtb estimates sit near
# 1e3), and three large tables. adpl-mt is left out on the largest (5 s of
# dense grid per round, with no fault to show).
FIXED = (
    ((50, 30, 20), METHODS),
    ((2, 500, 400), METHODS),
    (LARGE[0], METHODS),
    (LARGE[1], METHODS),
    (LARGE[2], METHODS[:7]),
)
# Operations whose answer is not the exact argmax or fixed point: the
# dense-grid comparison of kernel values of size N log N in double
# precision (README, "Expected failures"). They fail on every run.
EXPECTED_FAILURES = frozenset(
    [(t, m) for t in LARGE for m in ("adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25")]
    + [(LARGE[1], "mpl-mt"), (LARGE[2], "mpl-mt")]
)

# sample-large-n: one population of a million, closed-form estimators only.
LARGE_N_DESIGN = ("L1", 1_000_000, 0.60, 0.70, 1.25)
LARGE_N_REPLICATES = 50
LARGE_N_ESTIMATORS = ("dse", "pl-mtb")


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a study workload; distinct for index < 1000."""
    return seed * 1000 + index


def reset_program_caches(hooks=()) -> None:
    """Start the next study as a fresh process would: no cached CDFs."""
    cache = getattr(randomness, "_cdf_cache", None)
    if isinstance(cache, dict):
        cache.clear()
    for hook in hooks:
        hook()


@dataclass
class Round:
    """Timed calls of one round: operations, seconds, outputs, failures."""

    index: int
    seed: int
    ops: int = 0
    seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    output_bytes: int = 0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.reset_hooks: list = []
        self.timed = speed.timed  # or a speed.SpeedProbe's, in untraced runs

    def run_round(self, index: int) -> Round:
        raise NotImplementedError


class ReproducePaper(Workload):
    """Every ``reproduce`` target through ``cli.main``, stdout captured."""

    name = "reproduce-paper"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        grid = len(designs.N_GRID) * 2 * REPLICATES
        self.ops = {
            "table2": 0,
            "table3": 4 * 7 * REPLICATES,  # 4 designs x 7 estimators
            "table4": 4 * 7 * REPLICATES,
            "fig1": len(designs.SCALING) * grid,
            "fig2": 4 * grid,
            "fig3": 4 * grid,
            "fig4": len(designs.sweep_points()[0]) * 2 * REPLICATES,
        }

    def run_round(self, index):
        rnd = Round(index, round_seed(self.seed, index))
        for target in TARGETS:
            argv = ["reproduce", "--target", target, "--seed", str(rnd.seed)]
            svg = self.work_dir / f"{target}.svg"
            if target in FIGURES:
                argv += ["--svg", str(svg)]
            reset_program_caches(self.reset_hooks)
            buf = io.StringIO()

            def call():
                try:
                    with contextlib.redirect_stdout(buf):
                        return cli.main(argv)
                except Exception as exc:  # a crash fails the target's operations
                    return repr(exc)

            code, elapsed = self.timed(call)
            text = buf.getvalue()
            svg_text = svg.read_text() if target in FIGURES and svg.exists() else None
            rnd.seconds += elapsed
            rnd.ops += self.ops[target]
            if self.ops[target]:
                rnd.latencies_ms.append(1e3 * elapsed / self.ops[target])
            if code != 0:
                rnd.failed.append((target, self.ops[target], f"exit {code}"))
            rnd.output_bytes += len(text.encode()) + (len(svg_text.encode()) if svg_text else 0)
            rnd.outputs.append((target, text, svg_text))
        return rnd


def seeded_tables(seed: int) -> list[tuple[int, int, int]]:
    """Tables at each x0 level: fixed cell shares, each cell moved up to 3% by the seed.

    The shares are kept fixed so that every seed gives calls of about the
    same cost: a run's figures then reflect the program, not the draw of
    tables.
    """
    rng = np.random.default_rng([seed, 0xE57])
    out = []
    for level in SEEDED_LEVELS:
        for shares in SEEDED_SHARES:
            jitter = np.exp(rng.uniform(-0.03, 0.03, size=3))
            out.append(tuple(max(1, round(level * s * j)) for s, j in zip(shares, jitter)))
    return out


class EstimateTables(Workload):
    """Single-table ``parse_estimator(d).estimate(t)`` calls, one by one."""

    name = "estimate-tables"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        ops = [(cells, m) for cells in seeded_tables(seed) for m in SEEDED_METHODS]
        ops += [(cells, m) for cells, methods in FIXED for m in methods]
        self.op_list = ops
        self.tables = [DualRecordTable(*cells) for cells, _ in ops]

    def run_round(self, index):
        rnd = Round(index, self.seed)
        for (cells, method), table in zip(self.op_list, self.tables):

            def call():
                try:
                    report = parse_estimator(method).estimate(table)
                except Exception as exc:  # checked: only expected failures may occur
                    return exc
                return report.n_hat, report.n_hat_integer, report.delta_used

            out, elapsed = self.timed(call)
            rnd.seconds += elapsed
            rnd.ops += 1
            rnd.latencies_ms.append(1e3 * elapsed)
            rnd.outputs.append(((cells, method), out))
        return rnd


class SampleLargeN(Workload):
    """``run_study`` at N = 1e6 with the closed-form estimators only."""

    name = "sample-large-n"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        label, n, p1, pd1, phi = LARGE_N_DESIGN
        self.population = simulate.PopulationSpec(label, n, p1, pd1, phi)

    def run_round(self, index):
        rnd = Round(index, round_seed(self.seed, index))
        config = simulate.StudyConfig(
            populations=(self.population,),
            estimators=LARGE_N_ESTIMATORS,
            replicates=LARGE_N_REPLICATES,
            seed=rnd.seed,
        )
        reset_program_caches(self.reset_hooks)
        ops = LARGE_N_REPLICATES * len(LARGE_N_ESTIMATORS)

        def call():
            try:
                return simulate.run_study(config)
            except Exception as exc:  # a crash fails the study's operations
                rnd.failed.append(("run_study", ops, repr(exc)))
                return None

        summaries, elapsed = self.timed(call)
        rnd.seconds = elapsed
        rnd.ops = ops
        rnd.latencies_ms.append(1e3 * elapsed / ops)
        rnd.outputs.append(summaries)
        return rnd


WORKLOADS = {w.name: w for w in (ReproducePaper, EstimateTables, SampleLargeN)}
