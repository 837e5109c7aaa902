"""Traced runs: wrap each module's public functions and time the layers.

Each function is wrapped under the name its caller looks it up by:
``simulate`` imports ``uniforms`` and ``draw_tables`` by name, ``cli``
imports ``run_study`` by name, the estimators call ``kernels.log_*``
through the module, and every estimate goes through
``EstimatorSpec.estimate``. A layer's self time is its calls' time minus
the time of the wrapped calls made directly inside them. A kernel called
from inside another kernel counts only as part of the outer call, so
``kernels.calls`` counts evaluations requested by the estimators.

Spans of the coarse calls (``cli.main``, ``run_study``, ``draw_tables``,
``uniforms``) are kept in memory and written out at the end; the fine
calls (estimates, kernels, CDFs) number in the hundreds of thousands per
round and are aggregated only.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from dualrec import cli, estimators, kernels, randomness, simulate
from dualrec.tables import EstimationError

_SPANS = ("cli.main", "simulate.run_study", "randomness.uniforms", "randomness.draw_tables")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager that installs the wrappers and collects counts."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.kernel_points = 0
        self.cdf_points = 0
        self.estimate_failed = 0
        self.study_estimates = 0
        self.study_pairs = 0
        self._cdf_seen: set = set()
        self._stack: list[list] = []
        self._kernel_depth = 0
        self._study_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def new_epoch(self) -> None:
        """The program's caches were cleared: CDFs are built afresh."""
        self._cdf_seen.clear()

    # -- wrapping

    def _timed(self, name, fn, before=None, on_error=None):
        tracer = self
        span = name in _SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0, len(tracer.spans) if span else -1]
            parent = tracer._stack[-1][1] if tracer._stack else -1
            if span:
                tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except EstimationError:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end = time.perf_counter()
                elapsed = end - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                stat = tracer.stats.setdefault(name, _Stat())
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if span:
                    tracer.spans[frame[1]] = (name, start - tracer._origin, end - tracer._origin, parent)

        return wrapper

    def _kernel(self, fn):
        timed = self._timed("kernels", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(n, *args, **kwargs):
            if tracer._kernel_depth:
                return fn(n, *args, **kwargs)
            tracer.kernel_points += int(np.size(n))
            tracer._kernel_depth += 1
            try:
                return timed(n, *args, **kwargs)
            finally:
                tracer._kernel_depth -= 1

        return wrapper

    def _study(self, fn):
        timed = self._timed("simulate.run_study", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            tracer.study_pairs += (
                config.replicates * len(config.populations) * len(config.estimators)
            )
            tracer._study_depth += 1
            try:
                return timed(config, *args, **kwargs)
            finally:
                tracer._study_depth -= 1

        return wrapper

    def _count_cdf(self, args, kwargs):
        n, p = args[0], args[1]
        if (n, p) not in self._cdf_seen:
            self._cdf_seen.add((n, p))
            self.cdf_points += int(n) + 1

    def _count_estimate(self, args, kwargs):
        if self._study_depth:
            self.study_estimates += 1

    def _failed_estimate(self):
        self.estimate_failed += 1

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        study = self._study(simulate.run_study)
        for owner in (simulate, cli):
            self._patch(owner, "run_study", lambda f: study)
        self._patch(cli, "main", lambda f: self._timed("cli.main", f))
        for attr in ("uniforms", "draw_tables"):
            self._patch(simulate, attr, lambda f, a=attr: self._timed(f"randomness.{a}", f))
        self._patch(randomness, "binomial_cdf",
                    lambda f: self._timed("randomness.binomial_cdf", f, before=self._count_cdf))
        self._patch(estimators.EstimatorSpec, "estimate",
                    lambda f: self._timed("estimators.estimate", f, before=self._count_estimate,
                                          on_error=self._failed_estimate))
        for attr in dir(kernels):
            if attr.startswith("log_") and callable(getattr(kernels, attr)):
                self._patch(kernels, attr, self._kernel)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results

    def _get(self, name) -> _Stat:
        return self.stats.get(name, _Stat())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        est = self._get("estimators.estimate")
        study = self._get("simulate.run_study")
        main = self._get("cli.main")
        kern = self._get("kernels")
        ratio = 1.0 - self.study_estimates / self.study_pairs if self.study_pairs else 0.0
        return {
            "randomness.uniforms_s": (self._get("randomness.uniforms").total, "s"),
            "randomness.draw_tables_s": (self._get("randomness.draw_tables").total, "s"),
            "randomness.cdf_calls": (self._get("randomness.binomial_cdf").calls, "count"),
            "randomness.cdf_points": (self.cdf_points, "count"),
            "kernels.calls": (kern.calls, "count"),
            "kernels.points": (self.kernel_points, "count"),
            "kernels.s": (kern.total, "s"),
            "estimators.estimate_calls": (est.calls, "count"),
            "estimators.estimate_s": (est.total, "s"),
            "estimators.self_s": (est.self_time, "s"),
            "estimators.failed": (self.estimate_failed, "count"),
            "simulate.run_study_s": (study.total, "s"),
            "simulate.self_s": (study.self_time, "s"),
            "simulate.memo_hit_ratio": (ratio, "ratio"),
            "cli.self_s": (main.self_time, "s"),
        }
