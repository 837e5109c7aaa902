"""Benchmark of the dualrec package: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload estimate-tables --seed 1 --seconds 15 --trace 0

The workloads are ``reproduce-paper``, ``estimate-tables`` and
``sample-large-n`` (see bench/README.md). The untraced run (``--trace 0``)
repeats whole rounds of the workload until ``--seconds`` have passed and
reports the end-to-end metrics; the traced run (``--trace 1``) makes one
untraced and one traced pass over the first round and reports the
per-layer metrics. Both check every output against ``reference`` after
the timed section and print, as the last line of stdout, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the package."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    import dualrec

    if src.resolve() not in Path(dualrec.__file__).resolve().parents:
        raise ImportError(f"dualrec imported from {dualrec.__file__}, not from {src}")


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to inputs built, over fresh processes.

    Measured as is: interpreter start-up and imports did not slow down with
    the calibration of ``speed``, so scaling by it only added spread.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def check_rounds(wl, rounds) -> tuple[int, list[str]]:
    """Failed operations, and problems that make the run incorrect."""
    import checks
    import workloads

    failed = 0
    problems: list[str] = []
    if wl.name == "estimate-tables":
        want = {op: checks.reference_estimate(*op) for op in dict.fromkeys(wl.op_list)}
        for rnd in rounds:
            for op, output in rnd.outputs:
                found = checks.check_estimate(*op, output, want[op])
                if found:
                    failed += 1
                    if op not in workloads.EXPECTED_FAILURES:
                        problems += found
        return failed, problems
    for rnd in rounds:
        for what, ops, reason in rnd.failed:
            failed += ops
            problems.append(f"round {rnd.index}: {what} failed: {reason}")
        if wl.name == "reproduce-paper":
            done = {what for what, _, _ in rnd.failed}
            for target, text, svg_text in rnd.outputs:
                if target not in done:
                    problems += checks.check_target(target, rnd.seed, text, svg_text,
                                                    workloads.REPLICATES)
        elif rnd.outputs[0] is not None:
            problems += checks.check_large_n_study(
                rnd.seed, rnd.outputs[0], workloads.LARGE_N_DESIGN,
                workloads.LARGE_N_REPLICATES, workloads.LARGE_N_ESTIMATORS,
            )
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        load_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, RESULTS)
        print("ready", flush=True)
        return 0

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        tracer = None
        speed_samples = 0
        if args.trace:
            from tracing import Tracer

            rounds = [wl.run_round(0)]
            with Tracer() as tracer:
                wl.reset_hooks.append(tracer.new_epoch)
                rounds.append(wl.run_round(0))
        else:
            import speed

            setup_s = measure_setup(args.workload, args.seed)
            with speed.SpeedProbe() as probe:
                wl.timed = probe.timed
                start = time.perf_counter()
                rounds = []
                while not rounds or time.perf_counter() - start < args.seconds:
                    rounds.append(wl.run_round(len(rounds)))
            speed_samples = len(probe.samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = check_rounds(wl, rounds)

    # Every round makes the same calls: each call's median over the rounds.
    latencies = [statistics.median(ms) for ms in zip(*(r.latencies_ms for r in rounds))]
    if args.trace:
        metrics = dict(tracer.metrics())
        untraced, traced = rounds
        metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")
        metrics["trace.ops_per_s"] = (traced.ops / traced.seconds, "ops/s")
        metrics["trace.untraced_ops_per_s"] = (untraced.ops / untraced.seconds, "ops/s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(r.ops / r.seconds for r in rounds), "ops/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "result": result,
        "rounds": [{"index": r.index, "seed": r.seed, "ops": r.ops, "seconds": r.seconds,
                    "latency_samples": len(r.latencies_ms)} for r in rounds],
        "speed_samples": speed_samples,
        # Not metrics: too unsteady between runs to bound (bench/README.md).
        "estimate_latency_ms": {"samples": len(latencies), "p50": statistics.median(latencies),
                                "p90": percentile(latencies, 90)},
        "problems": problems,
    }
    if tracer is not None:
        detail["spans"] = [dict(zip(("name", "start_s", "end_s", "parent"), s)) for s in tracer.spans]
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
