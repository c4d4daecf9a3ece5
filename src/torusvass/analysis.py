"""Properties of the beta invariants: distinguishing power, dependency
relations, integrality scans and the normalization's sharpness, modular
lemmas, and derived scalars.

Everything here runs on the integer rows of the closed-form beta table
(tables.primitive_numerators over BETA_DENOMINATORS), evaluating only the
slots it reads: integrality is num % den, equal numerators over a fixed
denominator are equal values, and a relation's residual is one integer sum
over a common denominator.  A Fraction is built only for a value that goes
into a report, so scans over thousands of knots are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Optional

from .errors import UnsupportedInput
from .knots import TorusKnot, as_knot, canonical_knots, check_int
from .tables import (BETA_DENOMINATORS, PRIMITIVE_ORDER, SHARPNESS_PAIRS,
                     primitive_numerators)

#: the denominators of the twelve primitive betas, in PRIMITIVE_ORDER
_DENS = tuple(BETA_DENOMINATORS[slot] for slot in PRIMITIVE_ORDER)
_B21, _B31 = (2, 1), (3, 1)

#: the least value of each scan bound, by keyword: no canonical knot has
#: n < 3, and an integrality scan below 2 would see only unknots
SCAN_FLOORS = {"max_n": 3, "bound": 2}


def check_floor(keyword: str, value: int) -> None:
    """The one scan-bound check: an int (not a bool) no lower than its floor."""
    check_int(keyword, value)
    if value < SCAN_FLOORS[keyword]:
        raise UnsupportedInput(f"{keyword} must be >= {SCAN_FLOORS[keyword]}")


@dataclass
class ScanReport:
    """Outcome of an exhaustive check; empty violations means the claim holds."""

    name: str
    bound: int
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _fractions(nums, slots) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, BETA_DENOMINATORS[slot]) for num, slot in zip(nums, slots))


def _non_integral(n: int, m: int) -> list:
    """(slot, numerator, denominator) of each primitive beta of (n, m) that
    is not an integer."""
    return [(slot, num, den)
            for slot, num, den in zip(PRIMITIVE_ORDER, primitive_numerators(n, m), _DENS)
            if num % den]


# ----------------------------------------------------------------------
# dependency relations among the primitive betas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyRelation:
    """beta_lhs = sum of coefficient * product of the betas in slots, over rhs."""

    name: str
    statement: str
    lhs: tuple[int, int]
    rhs: tuple  # (coefficient, slots) terms
    # source-text caveat, where the printed equation needed repairing
    note: str = ""

    @cached_property
    def _kernel(self) -> tuple[int, tuple]:
        """The residual beta_lhs - rhs over one denominator D, as (D, terms):
        each term (k, indices) has an integer k and contributes
        k * prod(nums[i] for i in indices) / D."""
        terms = [(Fraction(1), (self.lhs,))] + [(-Fraction(c), slots) for c, slots in self.rhs]
        scaled = [(c / prod(BETA_DENOMINATORS[s] for s in slots), slots) for c, slots in terms]
        den = lcm(*(c.denominator for c, _ in scaled))
        return den, tuple(((c * den).numerator, tuple(PRIMITIVE_ORDER.index(s) for s in slots))
                          for c, slots in scaled)

    @property
    def residual_denominator(self) -> int:
        return self._kernel[0]

    def residual_numerator(self, nums: tuple[int, ...]) -> int:
        """The residual times residual_denominator, on one knot's
        primitive_numerators nums; zero exactly when the relation holds."""
        total = 0
        for coefficient, indices in self._kernel[1]:
            for i in indices:
                coefficient *= nums[i]
            total += coefficient
        return total


#: The published order-5 relations print beta_{5,3} where they mean
#: beta_{5,4}: as printed, the first relation already fails at (2,5)
#: (6*14 + 27/5*15 - 2/5*5 = 163 while beta_{5,2}(2,5) = 157).  With
#: beta_{5,4} on the right-hand side both relations are exact polynomial
#: identities, and order five has a single independent invariant, carried by
#: the slot built from the C5 Casimir, matching the pattern at orders 4 and 6.
DEPENDENCY_RELATIONS = (
    DependencyRelation(
        "order4",
        "beta_{4,2} = 4 beta_{4,3} + 12 beta_{2,1}^2 - beta_{2,1}",
        (4, 2), ((4, ((4, 3),)), (12, (_B21, _B21)), (-1, (_B21,)))),
    DependencyRelation(
        "order5_first",
        "beta_{5,2} = 6 beta_{5,4} + 27/5 beta_{2,1} beta_{3,1} - 2/5 beta_{3,1}",
        (5, 2), ((6, ((5, 4),)), (Fraction(27, 5), (_B21, _B31)), (-Fraction(2, 5), (_B31,))),
        note="source prints beta_{5,3} for the leading right-hand term"),
    DependencyRelation(
        "order5_second",
        "beta_{5,3} = 3/4 beta_{5,4} + 3/10 beta_{2,1} beta_{3,1} - 1/20 beta_{3,1}",
        (5, 3), ((Fraction(3, 4), ((5, 4),)), (Fraction(3, 10), (_B21, _B31)),
                 (-Fraction(1, 20), (_B31,))),
        note="source prints the self-referential beta_{5,3} = 3/4 beta_{5,3} + ..."),
    DependencyRelation(
        "order6_first",
        "beta_{6,5} = 58/9 beta_{6,9} - 80/3 beta_{4,3} + 41/9 beta_{2,1}"
        " - 680/3 beta_{2,1} beta_{4,3} + 5280 beta_{3,1}^2 - 2080/3 beta_{2,1}^3",
        (6, 5), ((Fraction(58, 9), ((6, 9),)), (-Fraction(80, 3), ((4, 3),)),
                 (Fraction(41, 9), (_B21,)), (-Fraction(680, 3), (_B21, (4, 3))),
                 (5280, (_B31, _B31)), (-Fraction(2080, 3), (_B21, _B21, _B21)))),
    DependencyRelation(
        "order6_second",
        "beta_{6,6} = -5/12 beta_{6,9} - 5/3 beta_{4,3} + 1/4 beta_{2,1}"
        " - 10 beta_{2,1} beta_{4,3} + 240 beta_{3,1}^2 - 40 beta_{2,1}^3",
        (6, 6), ((-Fraction(5, 12), ((6, 9),)), (-Fraction(5, 3), ((4, 3),)),
                 (Fraction(1, 4), (_B21,)), (-10, (_B21, (4, 3))),
                 (240, (_B31, _B31)), (-40, (_B21, _B21, _B21)))),
    DependencyRelation(
        "order6_third",
        "beta_{6,7} = 9/2 beta_{6,9} - 5 beta_{4,3} + 1/2 beta_{2,1}"
        " + 432 beta_{3,1}^2 - 96 beta_{2,1}^3",
        (6, 7), ((Fraction(9, 2), ((6, 9),)), (-5, ((4, 3),)), (Fraction(1, 2), (_B21,)),
                 (432, (_B31, _B31)), (-96, (_B21, _B21, _B21)))),
)


def dependency_relations_check(grid: Optional[Iterable] = None,
                               max_n: int = 12) -> ScanReport:
    """Verify all six dependency relations exactly on a knot grid.

    The default grid is every canonical knot (both chiralities) with
    n <= max_n, which needs max_n >= 3: no canonical knot has n < 3.
    """
    if grid is None:
        check_floor("max_n", max_n)
    knots = list(grid) if grid is not None else list(canonical_knots(max_n))
    report = ScanReport("dependency-relations", max_n)
    for knot in knots:
        k = as_knot(knot)
        nums = primitive_numerators(k.n, k.m)
        for rel in DEPENDENCY_RELATIONS:
            report.checked += 1
            residual = rel.residual_numerator(nums)
            if residual:
                report.violations.append(((k.n, k.m), rel.name,
                                          Fraction(residual, rel.residual_denominator)))
    return report


# ----------------------------------------------------------------------
# distinguishing theorem
# ----------------------------------------------------------------------

def distinguishing_check(max_n: int) -> ScanReport:
    """No two canonical torus knots with n <= max_n share
    (beta_{2,1}, beta_{3,1}).  Needs max_n >= 3: no canonical knot has n < 3."""
    check_floor("max_n", max_n)
    report = ScanReport("distinguishing", max_n)
    # beta_{2,1} and beta_{3,1} have fixed denominators: equal numerators
    # are equal values
    seen: dict = {}
    for knot in canonical_knots(max_n):
        key = primitive_numerators(knot.n, knot.m, slots=(_B21, _B31))
        report.checked += 1
        if key in seen:
            report.violations.append((seen[key], (knot.n, knot.m),
                                      _fractions(key, (_B21, _B31))))
        else:
            seen[key] = (knot.n, knot.m)
    return report


# ----------------------------------------------------------------------
# integrality
# ----------------------------------------------------------------------

def integrality_scan(bound: int, include_noncoprime: bool = False) -> ScanReport:
    """All twelve primitive betas are integers for coprime |n|, |m| <= bound.

    With include_noncoprime the scan also walks the non-coprime pairs and
    records every non-integral value it finds there as a note (those are
    expected witnesses, not violations).
    """
    check_floor("bound", bound)
    report = ScanReport("integrality", bound)
    for n in range(1, bound + 1):
        for m in range(-bound, bound + 1):
            if m == 0:
                continue
            if gcd(n, abs(m)) != 1:
                if include_noncoprime:
                    report.notes += [((n, m), slot, Fraction(num, den))
                                     for slot, num, den in _non_integral(n, m)]
                continue
            report.checked += len(PRIMITIVE_ORDER)
            report.violations += [((n, m), slot, Fraction(num, den))
                                  for slot, num, den in _non_integral(n, m)]
    return report


def noncoprime_witnesses(bound: int = 6) -> dict:
    """For each order 2..6, a non-coprime pair whose beta is non-integral."""
    check_int("bound", bound)
    found: dict = {}
    for n in range(2, bound + 1):
        for m in range(n, bound + 1):
            if gcd(n, m) == 1:
                continue
            for slot, num, den in _non_integral(n, m):
                if slot[0] not in found:
                    found[slot[0]] = ((n, m), slot, Fraction(num, den))
    return found


def normalization_sharpness() -> ScanReport:
    """Each primitive beta takes coprime integer values on the two knots that
    SHARPNESS_PAIRS gives its slot.  Then beta / d is integral on both only
    for d = 1, so no integral normalization with a larger common
    denominator exists on all torus knots."""
    report = ScanReport("normalization-sharpness", len(SHARPNESS_PAIRS))
    for slot, knots in SHARPNESS_PAIRS.items():
        report.checked += 1
        den = BETA_DENOMINATORS[slot]
        nums = [primitive_numerators(n, m, slots=(slot,))[0] for n, m in knots]
        if any(num % den for num in nums) or gcd(*(num // den for num in nums)) != 1:
            report.violations.append((slot, knots, _fractions(nums, (slot, slot))))
    return report


# ----------------------------------------------------------------------
# modular lemmas behind the order 2..4 integrality proofs
# ----------------------------------------------------------------------

#: (statement, modulus, hypothesis, conclusion): hypothesis(n) implies
#: conclusion(n), and both read n only modulo the claim's modulus
MODULAR_CLAIMS = (
    ("odd n => n^2-1 = 0 mod 8", 8,
     lambda n: n % 2 == 1, lambda n: (n * n - 1) % 8 == 0),
    ("3 does not divide n => n^2-1 = 0 mod 3", 3,
     lambda n: n % 3 != 0, lambda n: (n * n - 1) % 3 == 0),
    ("odd n, 3 does not divide n => n^2-1 = 0 mod 24", 24,
     lambda n: n % 2 == 1 and n % 3 != 0, lambda n: (n * n - 1) % 24 == 0),
    ("odd n, 3 | n => n(n^2-1) = 0 mod 24", 24,
     lambda n: n % 2 == 1 and n % 3 == 0, lambda n: (n * (n * n - 1)) % 24 == 0),
    ("even n => n(n^2-1) = 0 mod 6", 6,
     lambda n: n % 2 == 0, lambda n: (n * (n * n - 1)) % 6 == 0),
    ("n = 1,4 mod 5 => n^2-1 = 0 mod 5", 5,
     lambda n: n % 5 in (1, 4), lambda n: (n * n - 1) % 5 == 0),
    ("n = 2,3 mod 5 => n^2+1 = 0 mod 5", 5,
     lambda n: n % 5 in (2, 3), lambda n: (n * n + 1) % 5 == 0),
    ("odd n => n^4-1 = 0 mod 16", 16,
     lambda n: n % 2 == 1, lambda n: (n ** 4 - 1) % 16 == 0),
    ("odd n, 3,5 do not divide n => n^4-1 = 0 mod 240", 240,
     lambda n: n % 2 == 1 and n % 3 != 0 and n % 5 != 0,
     lambda n: (n ** 4 - 1) % 240 == 0),
)

#: every claim is decided by n modulo this lcm of their moduli, so checking
#: n = 1..MODULAR_PERIOD proves each claim for every integer n
MODULAR_PERIOD = lcm(*(modulus for _, modulus, _, _ in MODULAR_CLAIMS))


def proposition_modular_checks(bound: int) -> ScanReport:
    """Verify every modular step used in the integrality proofs for all
    n up to bound.  At bound = MODULAR_PERIOD the scan covers one full
    period, which proves every claim for all n."""
    check_int("bound", bound)
    report = ScanReport("modular-lemmas", bound)
    for n in range(1, bound + 1):
        for label, _, hypothesis, conclusion in MODULAR_CLAIMS:
            report.checked += 1
            if hypothesis(n) and not conclusion(n):
                report.violations.append((n, label))
    return report


# ----------------------------------------------------------------------
# derived scalars
# ----------------------------------------------------------------------

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


def lissajous_obstruction(knot) -> str:
    """A Lissajous knot has even Arf invariant, and Arf = beta_{2,1} mod 2;
    odd beta_{2,1} therefore certifies "not Lissajous".  Even beta_{2,1} is
    inconclusive (the obstruction is one-directional)."""
    k = as_knot(knot).validate()
    return lissajous_verdict(*primitive_numerators(k.n, k.m, slots=(_B21,)))


def lissajous_verdict(beta21_numerator: int) -> str:
    """lissajous_obstruction's verdict from the numerator of beta_{2,1} over
    its denominator BETA_DENOMINATORS[(2, 1)]."""
    den = BETA_DENOMINATORS[_B21]
    value, remainder = divmod(beta21_numerator, den)
    if remainder:
        raise UnsupportedInput(f"beta_{{2,1}} = {Fraction(beta21_numerator, den)} is not "
                               "an integer; parity undefined")
    return OBSTRUCTED if value % 2 == 1 else INCONCLUSIVE


@dataclass(frozen=True)
class AuxiliaryScalars:
    v3: Fraction              # 3(beta_{3,1} - beta_{2,1}); equals p^3-p on (2, 2p+1)
    gordian: Fraction         # (|n|-1)(|m|-1)/2, the conjectured unknotting number
    curve_residual: Fraction  # beta_{3,1}^2 - 2/3 beta_{2,1}^3


def auxiliary_scalars(knot) -> AuxiliaryScalars:
    k = as_knot(knot).validate()
    b21, b31 = _fractions(primitive_numerators(k.n, k.m, slots=(_B21, _B31)), (_B21, _B31))
    return AuxiliaryScalars(
        v3=3 * (b31 - b21),
        gordian=Fraction((abs(k.n) - 1) * (abs(k.m) - 1), 2),
        curve_residual=b31 ** 2 - Fraction(2, 3) * b21 ** 3,
    )


def v3_family_value(p: int) -> Fraction:
    """v3 of the (2, 2p+1) torus knot, computed from the beta table."""
    return auxiliary_scalars(TorusKnot(2, 2 * p + 1)).v3


def is_v3_applicable(knot) -> bool:
    """v3 is tabulated for the (2, 2p+1) family, i.e. knots with a strand
    index of absolute value 2."""
    k = as_knot(knot)
    return min(abs(k.n), abs(k.m)) == 2
