"""The paper's study designs and the stream layout, as published.

Kept free of heavy imports: the timed workload process loads this module,
while ``reference`` (scipy.stats, mpmath) loads only after timing ends.
"""

from __future__ import annotations

# Stream purposes of the documented address layout (one per kind of study).
PURPOSE_STUDY = 0
PURPOSE_SCALING = 2
PURPOSE_SWEEP = 3
PURPOSE_BANDS = 4

# The eight study designs of the paper's Table 2: (label, N, p1., p.1, phi).
TABLE2 = (
    ("P1", 500, 0.50, 0.65, 1.25),
    ("P2", 500, 0.60, 0.70, 1.25),
    ("P3", 500, 0.80, 0.70, 1.25),
    ("P4", 500, 0.70, 0.55, 1.25),
    ("P5", 500, 0.50, 0.65, 0.80),
    ("P6", 500, 0.60, 0.70, 0.80),
    ("P7", 500, 0.80, 0.70, 0.80),
    ("P8", 500, 0.70, 0.55, 0.80),
)
# Figure 1 scales the designs P2, P4, P6, P8 (as S1..S4) over N = 100..1000.
SCALING = tuple((f"S{i + 1}",) + TABLE2[j][1:] for i, j in enumerate((1, 3, 5, 7)))
N_GRID = tuple(range(100, 1001, 100))
# Figure 4 holds the four (p1., p.1) pairs fixed and sweeps phi at N = 500.
SWEEP = (("p50-65", 0.50, 0.65), ("p60-70", 0.60, 0.70),
         ("p80-70", 0.80, 0.70), ("p70-55", 0.70, 0.55))
PHI_GRID = tuple(0.5 + 0.25 * i for i in range(11))


def conditional_p(p1_dot: float, p_dot1: float, phi: float) -> float | None:
    """p = p.1 / (1 - p1. + phi p1.), or None when (p, phi p) is infeasible."""
    p = p_dot1 / (1.0 - p1_dot + phi * p1_dot)
    if not 0.0 < p < 1.0 or phi * p >= 1.0:
        return None
    return p


def sweep_points() -> tuple[list, list]:
    """(feasible, infeasible) (situation, p1., p.1, phi) points of Figure 4."""
    feasible, infeasible = [], []
    for label, p1_dot, p_dot1 in SWEEP:
        for phi in PHI_GRID:
            ok = conditional_p(p1_dot, p_dot1, phi) is not None
            (feasible if ok else infeasible).append((label, p1_dot, p_dot1, phi))
    return feasible, infeasible
