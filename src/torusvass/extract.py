"""Solve for the Vassiliev coefficient tables from the series expansions.

At each order i the x^i coefficient of the (normalized) invariant series of a
group instance G equals sum_j r_ij(G) * alpha_tilde_ij.  Sampling enough
instances across the four families gives an overdetermined exact linear
system per order; a unique solution with all surplus rows consistent is
required, and the rank reached must equal the slot count d_i.

The unnormalized route divides the Wilson-line series by the representation
dimension first and solves the same way for the alpha table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import AnsatzMismatch, DegreeExceeded, Inconsistent, RankDeficient
from .groups import (ORDERS, SLOT_COUNTS, SLOTS, Family, GroupFactorVector, GroupInstance,
                     group_factors, product, simple_factors, so_n, su2, su_n)
from .invariants import DEFAULT_ORDER, normalized_series, unnormalized_series
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
    solver verifies rather than assumes.
    """
    n = as_knot(knot).oriented().n
    base = max(5, n + 2)
    plan = [su_n(N) for N in range(2, 8)]
    plan += [so_n(N) for N in range(base, base + 6)]
    plan += [su2(j) for j in range(1, 7)]
    plan += [product(N, j) for (N, j) in
             [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3)]]
    return tuple(plan)


@dataclass
class ExtractionReport:
    """Per-order solve diagnostics.  Each solve substitutes its solution back
    into every row exactly and raises Inconsistent on a violated row."""

    knot: TorusKnot
    kind: str
    rank: dict = field(default_factory=dict)          # order -> rank reached
    equations: dict = field(default_factory=dict)     # order -> row count
    consistent: dict = field(default_factory=dict)    # order -> bool

    def all_good(self) -> bool:
        return (
            all(self.consistent.values())
            and all(self.rank[i] == SLOT_COUNTS[i] for i in self.rank)
        )


def _cached_entry(knot: TorusKnot, inst: GroupInstance, trunc_order: int,
                  unnormalized: bool, cache: dict) -> tuple[TruncSeries, GroupFactorVector]:
    """The (undivided) series and group factors of one instance, evaluated at
    most once per cache.  A product instance multiplies the series of its
    simple factors, taking them from the cache (or filling it) rather than
    re-evaluating them; this is the same factorization normalized_series and
    unnormalized_series apply."""
    key = (inst, unnormalized)
    if key not in cache:
        factors = simple_factors(inst)
        if len(factors) == 1:
            evaluate = unnormalized_series if unnormalized else normalized_series
            series = evaluate(knot, inst, trunc_order)
        else:
            left, right = (_cached_entry(knot, f, trunc_order, unnormalized, cache)[0]
                           for f in factors)
            series = (left * right).truncated(trunc_order)
        cache[key] = (series, group_factors(inst))
    return cache[key]


def _right_hand_side(knot: TorusKnot, order: int, instantiations: Sequence[GroupInstance],
                     trunc_order: int, unnormalized: bool, cache: dict) -> list[Fraction]:
    """The x^order coefficient of each instance's series (divided by dim R
    on the unnormalized route), through the series cache."""
    rhs = []
    for inst in instantiations:
        series, factors = _cached_entry(knot, inst, trunc_order, unnormalized, cache)
        c = series.coefficient(order)
        rhs.append(c / factors.dim if unnormalized else c)
    return rhs


@lru_cache(maxsize=64)
def _plan_elimination(instances: tuple[GroupInstance, ...], order: int) -> Elimination:
    """The left-hand side of one order is the plan's group factors, the same
    for every knot, so each (plan, order) is eliminated once per process."""
    if order not in ORDERS:
        raise ValueError(f"no slots at order {order}")
    return eliminate([group_factors(inst).row(order) for inst in instances],
                     SLOT_COUNTS[order])


def _extract(knot, trunc_order: int, plan, unnormalized: bool,
             kind: str) -> tuple[InvariantTable, ExtractionReport]:
    k = as_knot(knot).validate().oriented()
    instances = tuple(plan) if plan is not None else default_instantiation_plan(k)
    report = ExtractionReport(knot=k, kind=kind)
    cache: dict = {}
    entries = {}
    for order in range(2, trunc_order + 1):
        rhs = _right_hand_side(k, order, instances, trunc_order, unnormalized, cache)
        result = _plan_elimination(instances, order).solve(rhs)
        report.rank[order] = result.rank
        report.equations[order] = len(rhs)
        report.consistent[order] = result.consistent
        if not result.consistent:
            raise Inconsistent(order)
        if result.rank < SLOT_COUNTS[order]:
            raise RankDeficient(order, result.rank, SLOT_COUNTS[order])
        for slot_key, value in zip(SLOTS[order], result.solution):
            entries[slot_key] = value
    return InvariantTable(kind, k, entries), report


def extract_alpha_tilde(knot, trunc_order: int = DEFAULT_ORDER,
                        instantiation_plan: Optional[Sequence[GroupInstance]] = None,
                        ) -> tuple[InvariantTable, ExtractionReport]:
    """Solve the normalized expansions for the alpha_tilde table."""
    return _extract(knot, trunc_order, instantiation_plan, False, "alpha_tilde")


def extract_alpha(knot, trunc_order: int = DEFAULT_ORDER,
                  instantiation_plan: Optional[Sequence[GroupInstance]] = None,
                  ) -> tuple[InvariantTable, ExtractionReport]:
    """Solve the unnormalized expansions (divided by dim R) for the alpha table."""
    return _extract(knot, trunc_order, instantiation_plan, True, "alpha")


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


@dataclass(frozen=True)
class AnsatzFit:
    family: Family
    variable: str  # "N", or "A" for su2
    polynomials: dict  # (order, slot) -> ExactPoly


def _family_series(family: Family, knot, parameter: int, trunc_order: int):
    if family == Family.SU_N:
        return normalized_series(knot, su_n(parameter), trunc_order)
    if family == Family.SO_N:
        return normalized_series(knot, so_n(parameter), trunc_order)
    if family == Family.SU2:
        return normalized_series(knot, su2(parameter), trunc_order)
    raise ValueError(f"ansatz fitting works on simple families, not {family}")


def fit_ansatz(family: Family, trunc_order: int = DEFAULT_ORDER,
               knot_grid: Sequence[tuple] = DEFAULT_FIT_GRID,
               parameters: Optional[Sequence[int]] = None) -> AnsatzFit:
    """Fit the symmetric-polynomial ansatz over a knot grid, then interpolate
    each slot value over the group parameter.

    The knot-grid solve is overdetermined: a rank-deficient or inconsistent
    fit raises AnsatzMismatch (the Taylor coefficient does not factor through
    the ansatz).  For su2 the interpolation variable is A = -j(j+2)/4.
    """
    params = tuple(parameters) if parameters is not None else FIT_PARAMETERS[family]
    variable = "A" if family == Family.SU2 else "N"
    per_param: dict[int, dict] = {}
    designs: dict[int, Elimination] = {}  # the grid's monomials, per order
    for parameter in params:
        coeffs = {}
        for (n, m) in knot_grid:
            coeffs[(n, m)] = _family_series(family, TorusKnot(n, m), parameter, trunc_order)
        fitted = {}
        for order in range(2, trunc_order + 1):
            monomials = ANSATZ_SLOT_MONOMIALS[order]
            if order not in designs:
                designs[order] = eliminate(
                    [[mono(Fraction(n * n), Fraction(m * m)) for mono in monomials]
                     for (n, m) in knot_grid], len(monomials))
            rhs = [coeffs[(n, m)].coefficient(order) / ansatz_prefactor(n, m, order)
                   for (n, m) in knot_grid]
            result = designs[order].solve(rhs)
            if not result.consistent or result.rank < len(monomials):
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
    for order in range(2, trunc_order + 1):
        for slot_index in range(len(ANSATZ_SLOT_MONOMIALS[order])):
            points = [(abscissa(p), per_param[p][order][slot_index]) for p in params]
            try:
                poly = interpolate_poly(points, FIT_DEGREE[family], variable)
            except (DegreeExceeded, ValueError) as exc:
                raise AnsatzMismatch(
                    f"{family.value} g_{order},{slot_index + 1}: "
                    f"parameter dependence is not degree <= {FIT_DEGREE[family]} ({exc})"
                ) from exc
            polynomials[(order, slot_index + 1)] = poly
    return AnsatzFit(family, variable, polynomials)


@dataclass(frozen=True)
class GTableComparison:
    slot: tuple[int, int]
    printed: ExactPoly
    fitted: ExactPoly
    suspected_typo: bool

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
