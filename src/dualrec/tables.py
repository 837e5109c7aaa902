"""Domain types and probability bookkeeping for dual-record systems.

A dual-record system (DRS) cross-classifies one closed population by two
overlapping enumeration attempts (lists), giving an incomplete 2x2 table: the
observed cells are x11 (captured in both lists), x10 (list 1 only) and x01
(list 2 only); the cell x00 (missed by both) and the population size N are
unknown.

Two generative models are supported. Under the independence model M_t each
individual is captured in list 1 with probability p1_dot and in list 2 with
probability p_dot1, independently. Under the behavioral-response model M_tb
the list-2 capture probability depends on list-1 capture status: p is the
probability of list-2 capture given the individual was missed by list 1, and
c = phi * p is the recapture probability given list-1 capture. phi > 1 means
recapture-prone behavior, phi < 1 recapture-averse, phi = 1 recovers M_t.

Conventions:
    - counts are non-negative integers whose table total x0 = x11 + x10 + x01
      is below 2**53, so every count, margin and x0 + 1 is an exact double;
      probabilities are double-precision floats;
    - all value objects are immutable after construction and safe to share
      across threads;
    - an all-zero table is rejected at construction (every estimator divides
      by a margin).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DrsError",
    "ValidationError",
    "FeasibilityError",
    "DomainError",
    "EstimationError",
    "UndefinedEstimateError",
    "NoFiniteMaximumError",
    "DualRecordTable",
    "TableArrays",
    "MtParams",
    "MtbParams",
    "CellProbabilities",
    "cell_probs_mtb",
    "cell_probs_mt",
    "p_from_marginals",
    "expected_distinct",
]


class DrsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DrsError):
    """A value object was constructed from invalid inputs."""


class FeasibilityError(ValidationError):
    """A parameter combination is structurally infeasible (e.g. phi*p >= 1)."""


class DomainError(DrsError):
    """A function was evaluated outside its mathematical domain."""


class EstimationError(DrsError):
    """An estimator could not produce a valid estimate."""


class UndefinedEstimateError(EstimationError):
    """The estimator is undefined for this table (e.g. no list overlap)."""


class NoFiniteMaximumError(EstimationError):
    """The objective has no finite maximizer under the requested settings."""


def _require_count(name: str, value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return int(value)


def _require_total(total) -> None:
    """The count rule of a table: its total x0 = x11 + x10 + x01 is below 2**53.

    Doubles hold every integer up to 2**53, so under this rule every count,
    margin and x0 + 1 that an estimator reads is exact. ``total`` is one
    table's integer total or an array of double totals: a double sum of
    non-negative integers rounds to 2**53 or above exactly when the true sum
    is at least 2**53.
    """
    if np.any(total >= 2**53):
        raise ValidationError("table total x0 = x11 + x10 + x01 must be below 2**53")


def _integer(value, what: str) -> int:
    """A JSON count: an integer, or an integral float such as 1e6, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _require_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0 or not math.isfinite(value):
        raise ValidationError(f"{name} must lie strictly in (0, 1), got {value}")
    return value


@dataclass(frozen=True)
class DualRecordTable:
    """Observed cells of a dual-record 2x2 table.

    Attributes:
        x11: individuals captured in both lists.
        x10: individuals captured in list 1 only.
        x01: individuals captured in list 2 only.
    """

    x11: int
    x10: int
    x01: int

    def __post_init__(self) -> None:
        for name in ("x11", "x10", "x01"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        if self.x11 + self.x10 + self.x01 == 0:
            raise ValidationError("all-zero table: at least one individual must be observed")
        _require_total(self.x0)

    @property
    def x1_dot(self) -> int:
        """List-1 total x1. = x11 + x10."""
        return self.x11 + self.x10

    @property
    def x_dot1(self) -> int:
        """List-2 total x.1 = x11 + x01."""
        return self.x11 + self.x01

    @property
    def x0(self) -> int:
        """Number of distinct captured individuals x0 = x11 + x10 + x01."""
        return self.x11 + self.x10 + self.x01

    def to_json(self) -> str:
        """Serialize to a JSON object with keys x11, x10, x01."""
        return json.dumps({"x11": self.x11, "x10": self.x10, "x01": self.x01})

    @classmethod
    def from_json(cls, text: str) -> "DualRecordTable":
        """Parse the JSON form of :meth:`to_json`: an object with exactly its three keys.

        Counts are integers or integral floats such as 5e1, as in a study config.
        """
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cannot parse table JSON: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) != {"x11", "x10", "x01"}:
            got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
            raise ValidationError(f"table JSON needs exactly the keys x11, x10, x01, got {got}")
        return cls(*(_integer(obj[name], name) for name in ("x11", "x10", "x01")))

    def to_csv(self) -> str:
        """Serialize to a CSV document with header x11,x10,x01 and one row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x11", "x10", "x01"])
        writer.writerow([self.x11, self.x10, self.x01])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DualRecordTable":
        """Parse the CSV form of :meth:`to_csv`: its header and one row of three counts.

        Each count is ASCII decimal digits, with surrounding whitespace ignored.
        """
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        header = [h.strip() for h in rows[0]] if rows else []
        if header != ["x11", "x10", "x01"]:
            raise ValidationError(f"expected CSV header x11,x10,x01, got {header}")
        if len(rows) != 2 or len(rows[1]) != 3:
            raise ValidationError(f"table CSV needs one data row of three counts, got {rows[1:]}")
        fields = [v.strip() for v in rows[1]]
        for name, v in zip(("x11", "x10", "x01"), fields):
            if not (v.isascii() and v.isdigit()):
                raise ValidationError(f"table CSV {name} must be decimal digits 0-9, got {v!r}")
        return cls(*(int(v) for v in fields))


class TableArrays(NamedTuple):
    """Replicate tables as parallel float arrays: row i is one table.

    The fields mirror the :class:`DualRecordTable` attributes that the kernel
    step forms read, so their array branches accept either, and the scalar
    forms accept a :meth:`row` of Python integers as a table. Every row keeps
    the count rule of a table, a total x0 below 2**53, so its counts, margins
    and x0 + 1 are exact doubles, and sums and products of them round
    exactly as the same Python integer expressions do when converted.
    """

    x11: np.ndarray
    x1_dot: np.ndarray
    x_dot1: np.ndarray
    x0: np.ndarray

    @classmethod
    def from_cells(cls, x11, x10, x01) -> "TableArrays":
        """Rows from equal-length cell arrays of non-negative integers.

        All-zero rows are kept (the estimators fail them); a negative or
        non-integer count, or a row whose total is 2**53 or more, raises
        :class:`ValidationError`, as :class:`DualRecordTable` does.
        """
        try:
            cells = [np.asarray(v, dtype=float).reshape(-1) for v in (x11, x10, x01)]
        except OverflowError:  # an integer beyond the largest double
            _require_total(math.inf)
        if len({c.size for c in cells}) != 1:
            raise ValidationError("cell arrays must have equal lengths")
        for name, c in zip(("x11", "x10", "x01"), cells):
            if np.any(c < 0) or np.any(c != np.floor(c)):
                raise ValidationError(f"{name} must hold non-negative integers")
        a, b, d = cells
        x0 = a + b + d
        _require_total(x0)
        return cls(a, a + b, a + d, x0)

    def take(self, rows: np.ndarray) -> "TableArrays":
        """The tables at the given increasing row indices.

        Indices of every row give back these arrays themselves: the solvers
        only read a TableArrays, so sharing its arrays is safe.
        """
        if len(rows) == len(self.x11):
            return self
        return TableArrays(*(field[rows] for field in self))

    def row(self, i: int) -> "TableArrays":
        """Row ``i`` as Python integers, one table that the kernels read as a DualRecordTable.

        The row is not validated again: it already keeps the count rule.
        """
        return TableArrays(*(int(field[i]) for field in self))


@dataclass(frozen=True)
class MtParams:
    """Generative parameters for the independence model M_t.

    Attributes:
        n: true population size.
        p1_dot: list-1 capture probability.
        p_dot1: list-2 capture probability.
    """

    n: int
    p1_dot: float
    p_dot1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count("n", self.n))
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "p1_dot", _require_prob("p1_dot", self.p1_dot))
        object.__setattr__(self, "p_dot1", _require_prob("p_dot1", self.p_dot1))


@dataclass(frozen=True)
class MtbParams:
    """Generative parameters for the behavioral-response model M_tb.

    Attributes:
        n: true population size.
        p1_dot: list-1 capture probability.
        p: list-2 capture probability given missed by list 1.
        phi: behavioral response effect; the recapture probability is
            c = phi * p, which must stay below 1.
    """

    n: int
    p1_dot: float
    p: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_count("n", self.n))
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "p1_dot", _require_prob("p1_dot", self.p1_dot))
        object.__setattr__(self, "p", _require_prob("p", self.p))
        phi = float(self.phi)
        if not (phi > 0.0 and math.isfinite(phi)):
            raise ValidationError(f"phi must be a positive real, got {phi}")
        object.__setattr__(self, "phi", phi)
        if not 0.0 < self.c < 1.0:
            raise FeasibilityError(
                f"recapture probability c = phi*p = {self.c:.6g} must lie in (0, 1)"
            )

    @property
    def c(self) -> float:
        """Recapture probability c = phi * p."""
        return self.phi * self.p


@dataclass(frozen=True)
class CellProbabilities:
    """Cell probabilities (p11, p10, p01, p00) of the 2x2 table."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self) -> None:
        for name in ("p11", "p10", "p01", "p00"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)
        total = self.p11 + self.p10 + self.p01 + self.p00
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"cell probabilities must sum to 1, got {total!r}")

    @property
    def p1_dot(self) -> float:
        """Marginal list-1 capture probability p1. = p11 + p10."""
        return self.p11 + self.p10

    @property
    def p_dot1(self) -> float:
        """Marginal list-2 capture probability p.1 = p11 + p01."""
        return self.p11 + self.p01

    @property
    def p0(self) -> float:
        """Probability of being captured at all, p0 = 1 - p00."""
        return self.p11 + self.p10 + self.p01

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p10, self.p01, self.p00)


def cell_probs_mtb(params: MtbParams) -> CellProbabilities:
    """Cell probabilities of the 2x2 table under M_tb.

    Args:
        params: valid M_tb parameters.

    Returns:
        CellProbabilities with p11 = p1.*c, p10 = p1.*(1-c), p01 = (1-p1.)*p,
        p00 = (1-p1.)*(1-p).
    """
    p1, p, c = params.p1_dot, params.p, params.c
    p11 = p1 * c
    p10 = p1 * (1.0 - c)
    p01 = (1.0 - p1) * p
    # Close the simplex exactly so the sum-to-one invariant is immune to
    # rounding in the three products above.
    p00 = 1.0 - (p11 + p10 + p01)
    return CellProbabilities(p11=p11, p10=p10, p01=p01, p00=p00)


def cell_probs_mt(params: MtParams) -> CellProbabilities:
    """Cell probabilities of the 2x2 table under the independence model M_t."""
    p1, p2 = params.p1_dot, params.p_dot1
    p11 = p1 * p2
    p10 = p1 * (1.0 - p2)
    p01 = (1.0 - p1) * p2
    p00 = 1.0 - (p11 + p10 + p01)
    return CellProbabilities(p11=p11, p10=p10, p01=p01, p00=p00)


def p_from_marginals(p1_dot: float, p_dot1: float, phi: float) -> float:
    """Solve for the conditional capture probability p from M_tb marginals.

    The marginal list-2 capture probability satisfies
    p.1 = p1. * phi * p + (1 - p1.) * p, so the unique consistent conditional
    probability is p = p.1 / (1 - p1. + phi * p1.).

    Args:
        p1_dot: marginal list-1 capture probability.
        p_dot1: marginal list-2 capture probability.
        phi: behavioral response effect.

    Returns:
        p such that cell_probs_mtb reproduces the marginal p.1 exactly.

    Raises:
        FeasibilityError: if the implied p falls outside (0, 1) or phi*p >= 1;
            the requested population is structurally infeasible.
    """
    p1_dot = _require_prob("p1_dot", p1_dot)
    p_dot1 = _require_prob("p_dot1", p_dot1)
    phi = float(phi)
    if not (phi > 0.0 and math.isfinite(phi)):
        raise ValidationError(f"phi must be a positive real, got {phi}")
    p = p_dot1 / (1.0 - p1_dot + phi * p1_dot)
    if not 0.0 < p < 1.0:
        raise FeasibilityError(
            f"marginals (p1.={p1_dot}, p.1={p_dot1}, phi={phi}) imply p={p:.6g} outside (0, 1)"
        )
    if phi * p >= 1.0:
        raise FeasibilityError(
            f"marginals (p1.={p1_dot}, p.1={p_dot1}, phi={phi}) imply c=phi*p={phi * p:.6g} >= 1"
        )
    return p


def expected_distinct(params: MtbParams) -> float:
    """Expected number of distinct captured individuals, N * (1 - p00)."""
    cells = cell_probs_mtb(params)
    return params.n * (1.0 - cells.p00)
