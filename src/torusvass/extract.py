"""Solve for the Vassiliev coefficient tables from the series expansions.

At each order i the x^i coefficient of the (normalized) invariant series of a
group instance G equals sum_j r_ij(G) * alpha_tilde_ij.  Sampling enough
instances across the four families gives an overdetermined exact linear
system per order; a unique solution with all surplus rows consistent is
required, and the rank reached must equal the slot count d_i.

The alpha route solves the Wilson-line series over dim R the same way: each
simple factor's normalized series times its unknot factor over its dimension.

The default plan depends on the knot only through n, and equal plans (the
default plan's at n = 2 and 3) are made ready once per process: their
instances, distinct simple factors, each factor's unknot factor over its
dimension and the eliminations of the five left-hand sides.  With each
plan, once per n and in the same cache entry (:func:`_plan`), the solver
fetches each simple factor's kernel, the normalized invariant of every
T(n, m) as polynomials in m, through :func:`.invariants._factor_kernel`.
A knot then costs one polynomial evaluation of a kernel per simple factor
and calls no public evaluator, one series product per simple factor on the
alpha route and per product factor on top of the first, and one integer
solve per order, whose right-hand side is read straight from the series'
numerators over one common denominator.  No Fraction is built before the
solution.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import (AnsatzMismatch, DegreeExceeded, FrozenRecord, Inconsistent,
                     RankDeficient, Record, UnsupportedInput, set_field, set_key)
from .groups import (_PARAMETER_FLOORS, ORDERS, SLOT_COUNTS, SLOTS, Family, GroupInstance,
                     group_factors, product, simple_factors, so_n, su2, su_n)
from .invariants import (DEFAULT_ORDER, MPolySeries, _factor_kernel, normalized_series,
                         unknot_factor)
from .knots import TorusKnot, as_knot
from .linalg import Elimination, ExactPoly, eliminate, interpolate_poly
from .series import TruncSeries
from .tables import (ANSATZ_SLOT_MONOMIALS, TYPO_SLOTS, InvariantTable,
                     ansatz_prefactor, printed_g_table)


def default_instantiation_plan(knot) -> tuple[GroupInstance, ...]:
    """Sampling plan spanning all four families.

    25 rows per order: SU(N) at N = 2..7, SO(N) at six values starting from
    max(5, n+2) (the Kauffman sampling floor), SU(2) at j = 1..6, and seven
    product instances.  Enough to reach rank d_i at every order, which the
    solver verifies rather than assumes.  The extractors ask for it once per
    n, by this module-level name.
    """
    n = as_knot(knot).oriented().n
    base = max(5, n + 2)
    plan = [su_n(N) for N in range(2, 8)]
    plan += [so_n(N) for N in range(base, base + 6)]
    plan += [su2(j) for j in range(1, 7)]
    plan += [product(N, j) for (N, j) in
             [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3)]]
    return tuple(plan)


class ExtractionReport(Record):
    """Per-order solve diagnostics.  Each solve substitutes its solution back
    into every row exactly and raises Inconsistent on a violated row."""

    __slots__ = _fields = ("knot", "kind", "rank", "equations")

    def __init__(self, knot: TorusKnot, kind: str, rank: dict = None, equations: dict = None):
        self.knot = knot
        self.kind = kind
        self.rank = {} if rank is None else rank  # order -> rank reached
        self.equations = {} if equations is None else equations  # order -> row count

    def all_good(self) -> bool:
        return all(self.rank[i] == SLOT_COUNTS[i] for i in self.rank)


class _Plan(FrozenRecord):
    """A sampling plan made ready for solves.  Nothing in it depends on m,
    so a warm knot builds no group instance and needs no group factor."""

    __slots__ = _fields = ("instances", "factors", "factor_indices", "unknots", "eliminations")

    def __init__(self, instances: tuple[GroupInstance, ...], factors: tuple[GroupInstance, ...],
                 factor_indices: tuple[tuple[int, ...], ...], unknots: tuple[TruncSeries, ...],
                 eliminations: tuple[Elimination, ...]):
        # factors: the distinct simple factors, in plan order; factor_indices:
        # each instance's factors in factors; unknots: each factor's unknot
        # factor over its dimension; eliminations: the group factors, one per
        # order of ORDERS
        set_field(self, "instances", instances)
        set_field(self, "factors", factors)
        set_field(self, "factor_indices", factor_indices)
        set_field(self, "unknots", unknots)
        set_field(self, "eliminations", eliminations)
        set_key(self, (instances, factors, factor_indices, unknots, eliminations))

    @classmethod
    def of(cls, instances) -> "_Plan":
        factors: dict = {}
        indices = tuple(tuple(factors.setdefault(f, len(factors)) for f in simple_factors(inst))
                        for inst in instances)
        unknots = [unknot_factor(f, DEFAULT_ORDER) for f in factors]
        vectors = [group_factors(inst) for inst in instances]
        return cls(tuple(instances), tuple(factors), indices,
                   tuple(u.scaled(1 / u.coefficient(0)) for u in unknots),
                   tuple(eliminate([v.row(order) for v in vectors], SLOT_COUNTS[order])
                         for order in ORDERS))


@lru_cache(maxsize=32)
def _plan(plan_of, n: int) -> tuple[_Plan, tuple[MPolySeries, ...]]:
    """The plan that plan_of gives the knots of index n (a solve round of the
    benchmark uses ten values of n), and the kernel at n of each of its
    simple factors, in the order of its factors, known through
    DEFAULT_ORDER at least: fetched once per plan function, n and process,
    so that a warm n builds no kernel and checks no parameter for a new
    knot.  The plan function keys it too, so a rebound
    default_instantiation_plan gets plans of its own."""
    plan = _ready(tuple(plan_of(TorusKnot(n, 1))))
    return plan, tuple(_factor_kernel(f.family, n, f.j if f.family == Family.SU2 else f.N,
                                      DEFAULT_ORDER) for f in plan.factors)


@lru_cache(maxsize=32)
def _ready(instances: tuple) -> _Plan:
    """The plan of these instances, made once per process for every n."""
    return _Plan.of(instances)


def _plan_series(m: int, plan: _Plan, kernels: Sequence[MPolySeries],
                 unnormalized: bool) -> list[TruncSeries]:
    """The series at m of each instance of a plan, from the kernels of its
    simple factors at the knot's n; the Wilson-line series over dim R on the
    unnormalized route.  Each distinct simple factor is evaluated once, in
    plan order, as its kernel at m, and a product instance multiplies its
    factors' series as normalized_series does."""
    simple = [kernel.at(m, DEFAULT_ORDER) for kernel in kernels]
    if unnormalized:
        simple = list(map(mul, simple, plan.unknots))
    series = []
    for first, *rest in plan.factor_indices:
        total = simple[first]
        for i in rest:
            total = total * simple[i]
        series.append(total)
    return series


def _right_hand_sides(series: Sequence[TruncSeries]) -> tuple[list[list[int]], int]:
    """Each series' x^order coefficient, for every order of ORDERS (which are
    consecutive), as integer numerators over one denominator: one lcm per
    knot, one slice of each series' nums, zero below its min_degree and an
    error past its trunc_order as numerator() has it, and no Fraction."""
    dens = [s.den for s in series]
    den = lcm(*dens)
    first, top = ORDERS[0], ORDERS[-1]
    windows = []
    for s in series:
        if s.trunc_order < top:
            s.numerator(top)  # raises numerator()'s error past trunc_order
        lo = s.min_degree
        windows.append(s.nums[first - lo:top - lo + 1] if lo <= first
                       else ((0,) * (lo - first) + s.nums)[:top - first + 1])
    scales = [den // d for d in dens]
    return [list(map(mul, row, scales)) for row in zip(*windows)], den


def _extract(knot, unnormalized: bool, kind: str) -> tuple[InvariantTable, ExtractionReport]:
    """Solve every order of ORDERS on the knot's default plan."""
    k = as_knot(knot).validate().oriented()
    plan, kernels = _plan(default_instantiation_plan, k.n)
    rhs, den = _right_hand_sides(_plan_series(k.m, plan, kernels, unnormalized))
    report = ExtractionReport(knot=k, kind=kind)
    entries = {}
    for order, b, elimination in zip(ORDERS, rhs, plan.eliminations):
        result = elimination.solve_numerators(b, den)
        report.rank[order] = result.rank
        report.equations[order] = len(b)
        if not result.consistent:
            raise Inconsistent(order)
        if result.rank < SLOT_COUNTS[order]:
            raise RankDeficient(order, result.rank, SLOT_COUNTS[order])
        for slot_key, value in zip(SLOTS[order], result.solution):
            entries[slot_key] = value
    return InvariantTable(kind, k, entries), report


def extract_alpha_tilde(knot) -> tuple[InvariantTable, ExtractionReport]:
    """Solve the normalized expansions for the alpha_tilde table."""
    return _extract(knot, False, "alpha_tilde")


def extract_alpha(knot) -> tuple[InvariantTable, ExtractionReport]:
    """Solve the Wilson-line expansions (divided by dim R) for the alpha table."""
    return _extract(knot, True, "alpha")


# ----------------------------------------------------------------------
# ansatz fitting
# ----------------------------------------------------------------------

#: coprime grid making the order-6 monomial design matrix full rank
DEFAULT_FIT_GRID = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5),
                    (4, 5), (5, 6), (3, 8), (4, 7))

#: group-parameter samples per family; one surplus point verifies the degree
FIT_PARAMETERS = {
    Family.SU_N: tuple(range(2, 10)),
    Family.SO_N: tuple(range(7, 15)),
    Family.SU2: tuple(range(1, 7)),
}

#: max polynomial degree of g in the interpolation variable (N, or A for su2)
FIT_DEGREE = {Family.SU_N: 6, Family.SO_N: 6, Family.SU2: 3}


class AnsatzFit(FrozenRecord):
    __slots__ = _fields = ("family", "variable", "polynomials")

    def __init__(self, family: Family, variable: str, polynomials: dict):
        # variable: "N", or "A" for su2; polynomials: (order, slot) -> ExactPoly
        set_field(self, "family", family)
        set_field(self, "variable", variable)
        set_field(self, "polynomials", polynomials)
        set_key(self, (family, variable, polynomials))


@lru_cache(maxsize=16)
def _design(grid: tuple, order: int) -> Elimination:
    """The elimination of one order's slot monomials over a knot grid, each
    row times its knot's ansatz prefactor (nonzero for |n|, |m| >= 2), made
    once per (grid, order) and process and shared by the three families.
    The grid keys it, so a rebound DEFAULT_FIT_GRID gets designs of its own."""
    monomials = ANSATZ_SLOT_MONOMIALS[order]
    return eliminate([[ansatz_prefactor(n, m, order) * mono(Fraction(n * n), Fraction(m * m))
                       for mono in monomials] for (n, m) in grid], len(monomials))


def fit_ansatz(family: Family) -> AnsatzFit:
    """Fit the symmetric-polynomial ansatz over DEFAULT_FIT_GRID at each order
    of ORDERS, then interpolate each slot value over the family's
    FIT_PARAMETERS.

    Each order's design, the ansatz prefactors included, is eliminated once
    per grid and process, and the right-hand sides are read as _extract
    reads them, from the series' numerators over one denominator.  The
    knot-grid solve is overdetermined: a rank-deficient or inconsistent fit raises
    AnsatzMismatch (the Taylor coefficient does not factor through the
    ansatz).  For su2 the interpolation variable is A = -j(j+2)/4.
    """
    if family not in FIT_PARAMETERS:
        raise UnsupportedInput(f"ansatz fitting works on simple families, not {family.value}")
    (name,) = _PARAMETER_FLOORS[family]
    params = FIT_PARAMETERS[family]
    variable = "A" if family == Family.SU2 else "N"
    grid = DEFAULT_FIT_GRID
    per_param: dict[int, dict] = {}
    for parameter in params:
        group = GroupInstance(family, **{name: parameter})
        series = [normalized_series(TorusKnot(n, m), group, DEFAULT_ORDER) for (n, m) in grid]
        rhs, den = _right_hand_sides(series)
        fitted = {}
        for order, b in zip(ORDERS, rhs):
            result = _design(grid, order).solve_numerators(b, den)
            if not result.consistent or result.rank < len(ANSATZ_SLOT_MONOMIALS[order]):
                raise AnsatzMismatch(
                    f"{family.value} parameter {parameter}, order {order}: "
                    f"rank {result.rank}, consistent={result.consistent}"
                )
            fitted[order] = result.solution
        per_param[parameter] = fitted

    def abscissa(parameter: int) -> Fraction:
        if family == Family.SU2:
            return Fraction(-parameter * (parameter + 2), 4)  # A
        return Fraction(parameter)

    polynomials = {}
    for order in ORDERS:
        for slot_index in range(len(ANSATZ_SLOT_MONOMIALS[order])):
            points = [(abscissa(p), per_param[p][order][slot_index]) for p in params]
            try:
                poly = interpolate_poly(points, FIT_DEGREE[family], variable)
            except DegreeExceeded as exc:
                raise AnsatzMismatch(
                    f"{family.value} g_{order},{slot_index + 1}: "
                    f"parameter dependence is not degree <= {FIT_DEGREE[family]} ({exc})"
                ) from exc
            polynomials[(order, slot_index + 1)] = poly
    return AnsatzFit(family, variable, polynomials)


class GTableComparison(FrozenRecord):
    __slots__ = _fields = ("slot", "printed", "fitted", "suspected_typo")

    def __init__(self, slot: tuple[int, int], printed: ExactPoly, fitted: ExactPoly,
                 suspected_typo: bool):
        set_field(self, "slot", slot)
        set_field(self, "printed", printed)
        set_field(self, "fitted", fitted)
        set_field(self, "suspected_typo", suspected_typo)
        set_key(self, (slot, printed, fitted, suspected_typo))

    @property
    def matches(self) -> bool:
        return self.printed == self.fitted


def compare_fit_to_printed(fit: AnsatzFit) -> tuple[GTableComparison, ...]:
    """Slot-by-slot comparison of the fitted polynomials with the printed
    table; suspected-typo slots are flagged rather than required to match."""
    printed = printed_g_table(fit.family.value)
    typos = TYPO_SLOTS[fit.family.value]
    return tuple(
        GTableComparison(slot, printed[slot], fit.polynomials[slot], slot in typos)
        for slot in sorted(printed)
    )
