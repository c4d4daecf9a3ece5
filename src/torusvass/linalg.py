"""Exact dense linear algebra and exact univariate interpolation.

Inputs and results are :class:`fractions.Fraction`s.  Elimination is split
in two: :func:`eliminate` factors a left-hand side once, scaling each row to
integers and eliminating fraction-free, and :meth:`Elimination.solve` applies
that to any right-hand side, so systems that share a left-hand side (one
sampling plan, many knots) eliminate it once.  A right-hand side enters as
rationals or, through :meth:`Elimination.solve_numerators`, as integer
numerators over one denominator.  Pivots are the first nonzero
entry scanning top to bottom; exact arithmetic needs no numerical pivoting
and this keeps the output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DegreeExceeded


@dataclass(frozen=True)
class LinearSolution:
    solution: Optional[tuple[Fraction, ...]]  # present iff unique
    rank: int
    consistent: bool


class Elimination:
    """The elimination of one left-hand side, applied to any right-hand side.

    Stored as integers; rows and inverse are flat tuples.  Row r of the
    left-hand side is rows[r*unknowns:(r+1)*unknowns] / scales[r].  With b
    scaled to integers over its common denominator d the particular solution
    (free unknowns 0) is x[pivot_cols[k]] = sum_i inverse[k*rank + i] *
    b[pivot_rows[i]] / (den * d).  The system is consistent exactly when
    that x satisfies every row.  Immutable and shared through the caches
    that keep eliminations.
    """

    __slots__ = ("unknowns", "rows", "scales", "pivot_cols", "pivot_rows", "inverse", "den")

    def __init__(self, unknowns: int, rows: list[int], scales: tuple[int, ...],
                 pivot_cols: tuple[int, ...], pivot_rows: tuple[int, ...],
                 inverse: list[int], den: int):
        self.unknowns, self.scales, self.den = unknowns, scales, den
        self.pivot_cols, self.pivot_rows = pivot_cols, pivot_rows
        self.rows, self.inverse = tuple(rows), tuple(inverse)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve(self, rhs: Sequence) -> LinearSolution:
        """Rank, consistency and, when unique, the solution for one right-hand
        side of rationals (one entry per row of the eliminated left-hand
        side): :meth:`solve_numerators` over their common denominator."""
        den = lcm(*(v.denominator for v in rhs))
        return self.solve_numerators([v.numerator * (den // v.denominator) for v in rhs], den)

    def solve_numerators(self, b: Sequence[int], den_b: int) -> LinearSolution:
        """Rank, consistency and, when unique, the solution for the
        right-hand side b[i] / den_b: integer numerators over one positive
        denominator, one per row.  No Fraction is built before the
        solution."""
        if len(b) != len(self.scales):
            raise ValueError(f"{len(b)} right-hand entries for {len(self.scales)} rows")
        rank, inverse = self.rank, self.inverse
        picked = [b[i] for i in self.pivot_rows]
        x = [0] * self.unknowns
        for k, c in enumerate(self.pivot_cols):
            x[c] = sum(map(mul, inverse[k * rank:(k + 1) * rank], picked))
        # x / (den * den_b) substituted back into every row, in integers
        w, rows = self.unknowns, self.rows
        consistent = not any(sum(map(mul, rows[r * w:(r + 1) * w], x)) != v * s * self.den
                             for r, (v, s) in enumerate(zip(b, self.scales)))
        if not consistent or rank < w:
            return LinearSolution(None, rank, consistent)
        den = self.den * den_b
        return LinearSolution(tuple(Fraction(v, den) for v in x), rank, True)


def _reduced(row: list) -> list:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def eliminate(lhs: Sequence[Sequence], unknowns: int) -> Elimination:
    """Gaussian elimination of a left-hand side with exact pivoting.

    Each row is scaled to integers and eliminated fraction-free, pivoting on
    the first nonzero entry scanning top to bottom; the pivot rows' square
    block is then inverted by fraction-free Gauss-Jordan elimination.
    Deterministic for a given input.
    """
    if not lhs:
        raise ValueError("system needs at least one row")
    scales, ints = [], []
    for row in lhs:
        if len(row) != unknowns:
            raise ValueError(f"row of width {len(row)} in a system with {unknowns} unknowns")
        s = lcm(*(v.denominator for v in row))
        scales.append(s)
        ints.append([v.numerator * (s // v.denominator) for v in row])
    work = list(ints)
    order = list(range(len(work)))
    pivot_cols: list[int] = []
    prow = 0
    for pcol in range(unknowns):
        pivot = next((i for i in range(prow, len(work)) if work[i][pcol]), None)
        if pivot is None:
            continue
        work[prow], work[pivot] = work[pivot], work[prow]
        order[prow], order[pivot] = order[pivot], order[prow]
        top = work[prow]
        lead = top[pcol]
        for i in range(prow + 1, len(work)):
            f = work[i][pcol]
            if f:
                work[i] = _reduced([lead * v - f * u for v, u in zip(work[i], top)])
        pivot_cols.append(pcol)
        prow += 1
    pivot_rows = order[:prow]
    # Gauss-Jordan on [S | diag(scales)] with S the pivot block, so that the
    # right half ends as diagonal[k] * S^{-1} diag(scales) in row k
    rank = prow
    block = []
    for k, r in enumerate(pivot_rows):
        unit = [0] * rank
        unit[k] = scales[r]
        block.append([ints[r][c] for c in pivot_cols] + unit)
    for k in range(rank):
        pivot = next(i for i in range(k, rank) if block[i][k])
        block[k], block[pivot] = block[pivot], block[k]
        top = block[k]
        lead = top[k]
        for i in range(rank):
            f = block[i][k]
            if i != k and f:
                block[i] = _reduced([lead * v - f * u for v, u in zip(block[i], top)])
    diagonal = [row[k] for k, row in enumerate(block)]
    den = lcm(*diagonal)
    inverse = [v * (den // d) for d, row in zip(diagonal, block) for v in row[rank:]]
    return Elimination(unknowns, list(chain.from_iterable(ints)), tuple(scales),
                       tuple(pivot_cols), tuple(pivot_rows), inverse, den)


@dataclass(frozen=True)
class ExactPoly:
    """A univariate polynomial with rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]
    variable: str = "x"

    @classmethod
    def make(cls, coefficients: Iterable, variable: str = "x") -> "ExactPoly":
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs), variable)

    @classmethod
    def from_degree_map(cls, numerators: dict[int, int], denominator: int = 1,
                        variable: str = "x") -> "ExactPoly":
        """Polynomial sum(numerators[d] * var**d) / denominator."""
        top = max(numerators, default=0)
        coeffs = [Fraction(numerators.get(d, 0), denominator) for d in range(top + 1)]
        return cls.make(coeffs, variable)

    @property
    def degree(self) -> Optional[int]:
        return len(self.coefficients) - 1 if self.coefficients else None

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * Fraction(x) + c
        return acc

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"({c})*{self.variable}")
            else:
                parts.append(f"({c})*{self.variable}^{d}")
        return " + ".join(parts)


def interpolate_poly(points: Sequence[tuple], max_degree: int,
                     variable: str = "x") -> ExactPoly:
    """Unique polynomial of degree <= max_degree through the first
    max_degree+1 points, verified exactly against any remaining points.

    Raises DegreeExceeded when a surplus point is off the fitted polynomial,
    which signals that the true degree exceeds max_degree.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(pts) < max_degree + 1:
        raise ValueError(f"need at least {max_degree + 1} points, got {len(pts)}")
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("point abscissae must be pairwise distinct")

    # the leading points' Vandermonde system, unique for distinct abscissae
    head = pts[: max_degree + 1]
    coeffs = ()  # no leading point (max_degree -1): the zero polynomial
    if head:
        fit = eliminate([[x ** d for d in range(len(head))] for x, _ in head], len(head))
        coeffs = fit.solve([y for _, y in head]).solution
    poly = ExactPoly.make(coeffs, variable)
    for x, y in pts[max_degree + 1:]:
        if poly.evaluate(x) != y:
            raise DegreeExceeded(
                f"point ({x}, {y}) is off the degree-{max_degree} fit; "
                "the data has higher degree"
            )
    return poly
