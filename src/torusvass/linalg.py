"""Exact dense linear algebra and exact univariate interpolation.

Inputs and results are :class:`fractions.Fraction`s.  Elimination is split
in two: :func:`eliminate` factors a left-hand side once, scaling each row to
integers and eliminating fraction-free, and :meth:`Elimination.solve` applies
that to any right-hand side, so systems that share a left-hand side (one
sampling plan, many knots) eliminate it once.  Pivots are the first nonzero
entry scanning top to bottom; exact arithmetic needs no numerical pivoting
and this keeps the output deterministic.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DegreeExceeded


@dataclass(frozen=True)
class ExactMatrix:
    """An augmented system: each row is (coefficients of the unknowns, rhs)."""

    entries: tuple[tuple[Fraction, ...], ...]
    unknowns: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("system needs at least one row")
        for row in self.entries:
            if len(row) != self.unknowns + 1:
                raise ValueError(
                    f"row of width {len(row)} in a system with {self.unknowns} unknowns"
                )

    @classmethod
    def augmented(cls, rows: Iterable[Sequence], rhs: Iterable) -> "ExactMatrix":
        packed = []
        width = None
        for row, b in zip(rows, rhs):
            packed.append(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                          + (b if type(b) is Fraction else Fraction(b),))
            width = len(row)
        if width is None:
            raise ValueError("system needs at least one row")
        return cls(tuple(packed), width)

    @property
    def rows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LinearSolution:
    solution: Optional[tuple[Fraction, ...]]  # present iff unique
    rank: int
    consistent: bool


class Elimination:
    """The elimination of one left-hand side, applied to any right-hand side.

    Stored as integers.  rows and inverse are flat lists kept as
    :mod:`marshal` bytes, so a cached elimination costs the bytes of its
    integers, not an object per integer.  Row r of the left-hand side is
    rows[r*unknowns:(r+1)*unknowns] / scales[r].  With b scaled to integers
    over its common denominator d the particular solution (free unknowns 0)
    is x[pivot_cols[k]] = sum_i inverse[k*rank + i] * b[pivot_rows[i]] /
    (den * d).  The system is consistent exactly when that x satisfies every
    row.  Immutable and shared through the caches that keep eliminations.
    """

    __slots__ = ("unknowns", "rows", "scales", "pivot_cols", "pivot_rows", "inverse", "den")

    def __init__(self, unknowns: int, rows: list[int], scales: tuple[int, ...],
                 pivot_cols: tuple[int, ...], pivot_rows: tuple[int, ...],
                 inverse: list[int], den: int):
        self.unknowns, self.scales, self.den = unknowns, scales, den
        self.pivot_cols, self.pivot_rows = pivot_cols, pivot_rows
        self.rows, self.inverse = marshal.dumps(rows), marshal.dumps(inverse)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve(self, rhs: Sequence) -> LinearSolution:
        """Rank, consistency and, when unique, the solution for one right-hand
        side (one entry per row of the eliminated left-hand side)."""
        if len(rhs) != len(self.scales):
            raise ValueError(f"{len(rhs)} right-hand entries for {len(self.scales)} rows")
        den_b = lcm(*(v.denominator for v in rhs))
        b = [v.numerator * (den_b // v.denominator) for v in rhs]
        rank, inverse = self.rank, marshal.loads(self.inverse)
        picked = [b[i] for i in self.pivot_rows]
        x = [0] * self.unknowns
        for k, c in enumerate(self.pivot_cols):
            x[c] = sum(map(mul, inverse[k * rank:(k + 1) * rank], picked))
        # x / (den * den_b) substituted back into every row, in integers
        w, rows = self.unknowns, marshal.loads(self.rows)
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


def solve_exact(system: ExactMatrix) -> LinearSolution:
    """Gaussian elimination over the rationals with exact pivoting.

    Returns the unique solution when ``consistent and rank == unknowns``;
    otherwise the solution is absent and (rank, consistent) diagnose the
    system.  Deterministic for a given input.  This is :func:`eliminate` on
    the left-hand side followed by :meth:`Elimination.solve` on the
    right-hand side.
    """
    return eliminate([row[:-1] for row in system.entries], system.unknowns).solve(
        [row[-1] for row in system.entries])


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
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("point abscissae must be pairwise distinct")

    # Newton divided differences on the leading points
    head = pts[: max_degree + 1]
    hx = [x for x, _ in head]
    dd = [y for _, y in head]
    n = len(head)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (hx[i] - hx[i - level])

    # expand the Newton form into the monomial basis
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # running product (x - x0)...(x - x_{k-1})
    for k in range(n):
        for d, c in enumerate(basis):
            coeffs[d] += dd[k] * c
        grown = [Fraction(0)] * (len(basis) + 1)
        for d, c in enumerate(basis):
            grown[d] -= c * hx[k]
            grown[d + 1] += c
        basis = grown

    poly = ExactPoly.make(coeffs, variable)
    for x, y in pts[max_degree + 1:]:
        if poly.evaluate(x) != y:
            raise DegreeExceeded(
                f"point ({x}, {y}) is off the degree-{max_degree} fit; "
                "the data has higher degree"
            )
    return poly
