"""Exact dense linear algebra and exact univariate interpolation.

Inputs and results are :class:`fractions.Fraction`s.  Elimination is split
in two: :func:`eliminate` factors a left-hand side once, scaling each row to
integers and eliminating fraction-free, and :meth:`Elimination.solve` applies
that to any right-hand side, so systems that share a left-hand side (one
sampling plan, many knots) eliminate it once.  A right-hand side enters as
rationals or, through :meth:`Elimination.solve_numerators`, as integer
numerators over one denominator.  An elimination keeps its integer rows and
the inverse of its pivot block as one tuple per row, so applying it slices
nothing: the solution comes from the pivot tuples and is substituted back
into every row.  Pivots are the first nonzero entry scanning top to bottom;
exact arithmetic needs no numerical pivoting and this keeps the output
deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import DegreeExceeded, FrozenRecord, set_field, set_key


class LinearSolution(FrozenRecord):
    __slots__ = _fields = ("solution", "rank", "consistent")

    def __init__(self, solution: tuple[Fraction, ...] | None, rank: int, consistent: bool):
        set_field(self, "solution", solution)  # present iff unique
        set_field(self, "rank", rank)
        set_field(self, "consistent", consistent)
        set_key(self, (solution, rank, consistent))


class Elimination:
    """The elimination of one left-hand side, applied to any right-hand side.

    Stored as integers, one tuple per row: row r of the left-hand side is
    rows[r] / scales[r], and inverse holds one tuple of rank integers per
    pivot.  With b scaled to integers over its common denominator d the
    particular solution (free unknowns 0) is x[pivot_cols[k]] =
    sum_i inverse[k][i] * b[pivot_rows[i]] / (den * d).  The system is
    consistent exactly when that x satisfies every row: row r holds when
    rows[r] . x equals b[r] * checks[r], its check factor scales[r] * den.
    Immutable and shared through the caches that keep eliminations.
    """

    __slots__ = ("unknowns", "rows", "scales", "pivot_cols", "pivot_rows", "inverse", "den",
                 "checks")

    def __init__(self, unknowns: int, rows: list[list[int]], scales: tuple[int, ...],
                 pivot_cols: tuple[int, ...], pivot_rows: tuple[int, ...],
                 inverse: list[list[int]], den: int):
        self.unknowns, self.scales, self.den = unknowns, scales, den
        self.pivot_cols, self.pivot_rows = pivot_cols, pivot_rows
        self.rows, self.inverse = tuple(map(tuple, rows)), tuple(map(tuple, inverse))
        self.checks = tuple(s * den for s in scales)

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
        picked = [b[i] for i in self.pivot_rows]
        x = [0] * self.unknowns
        for c, row in zip(self.pivot_cols, self.inverse):
            x[c] = sum(map(mul, row, picked))
        # x / (den * den_b) substituted back into every row, in integers
        consistent = all(sum(map(mul, row, x)) == v * f
                         for row, v, f in zip(self.rows, b, self.checks))
        rank = self.rank
        if not consistent or rank < self.unknowns:
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
    inverse = [[v * (den // d) for v in row[rank:]] for d, row in zip(diagonal, block)]
    return Elimination(unknowns, ints, tuple(scales), tuple(pivot_cols), tuple(pivot_rows),
                       inverse, den)


class ExactPoly(FrozenRecord):
    """A univariate polynomial with rational coefficients, ascending degree."""

    __slots__ = _fields = ("coefficients", "variable")

    def __init__(self, coefficients: tuple[Fraction, ...], variable: str = "x"):
        set_field(self, "coefficients", coefficients)
        set_field(self, "variable", variable)
        set_key(self, (coefficients, variable))

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
    def degree(self) -> int | None:
        return len(self.coefficients) - 1 if self.coefficients else None

    def evaluate(self, x) -> Fraction:
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
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


@lru_cache(maxsize=16)
def _vandermonde(abscissae: tuple[Fraction, ...]) -> Elimination:
    """The elimination of the Vandermonde block of pairwise distinct
    abscissae, made once per process for each tuple of them."""
    return eliminate([[x ** d for d in range(len(abscissae))] for x in abscissae],
                     len(abscissae))


def interpolate_poly(points: Sequence[tuple], max_degree: int,
                     variable: str = "x") -> ExactPoly:
    """Unique polynomial of degree <= max_degree through the first
    max_degree+1 points, verified exactly against any remaining points.

    The leading points' Vandermonde block is eliminated once per tuple of
    their abscissae and process, so fits that share abscissae (one sampling
    grid, many slots) solve one integer system each.  Raises DegreeExceeded
    when a surplus point is off the fitted polynomial, which signals that the
    true degree exceeds max_degree.
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
        coeffs = _vandermonde(tuple(x for x, _ in head)).solve([y for _, y in head]).solution
    poly = ExactPoly.make(coeffs, variable)
    for x, y in pts[max_degree + 1:]:
        if poly.evaluate(x) != y:
            raise DegreeExceeded(
                f"point ({x}, {y}) is off the degree-{max_degree} fit; "
                "the data has higher degree"
            )
    return poly
