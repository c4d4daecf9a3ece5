"""Properties of the beta invariants: distinguishing power, dependency
relations, integrality (a scan, and a certificate for every coprime pair)
and the normalization's sharpness, and derived scalars.

Everything here runs on the integer rows of the closed-form beta table
over BETA_DENOMINATORS, evaluating only the slots it reads: per n over a
whole range of m through tables.primitive_columns in the distinguishing,
integrality and relations scans, and per knot through
tables.primitive_numerators for a relations grid the caller gives (in its
order) and the derived scalars.
Integrality is num % den, equal numerators over a fixed denominator are
equal values, and a relation's residual is one integer sum over a common
denominator.  A Fraction is built only for a value that goes into a report,
so scans over thousands of knots are cheap.  The integrality scan evaluates
only the pairs 1 <= n <= m: every row is symmetric in n and m and even or
odd in m by its order, so the other three quarters of its square are those
values swapped or mirrored, and each of its Fractions is built once.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .errors import (DegreeExceeded, FrozenRecord, Record, UnsupportedInput, set_field,
                     set_key)
from .knots import TorusKnot, as_knot, canonical_ms, check_int
from .tables import (_ROWS, BETA_DENOMINATORS, PRIMITIVE_ORDER, SHARPNESS_PAIRS,
                     primitive_columns, primitive_numerators)

_B21, _B31 = (2, 1), (3, 1)

#: the least value of each scan bound, by keyword: no canonical knot has
#: n < 3, and an integrality scan below 2 would see only unknots
SCAN_FLOORS = {"max_n": 3, "bound": 2}


def check_floor(keyword: str, value: int) -> None:
    """The one scan-bound check: an int (not a bool) no lower than its floor."""
    check_int(keyword, value)
    if value < SCAN_FLOORS[keyword]:
        raise UnsupportedInput(f"{keyword} must be >= {SCAN_FLOORS[keyword]}")


class ScanReport(Record):
    """Outcome of an exhaustive check; empty violations means the claim holds."""

    __slots__ = _fields = ("name", "bound", "checked", "violations", "notes")

    def __init__(self, name: str, bound: int, checked: int = 0, violations: list = None,
                 notes: list = None):
        self.name = name
        self.bound = bound
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return not self.violations


def _fractions(nums, slots) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, BETA_DENOMINATORS[slot]) for num, slot in zip(nums, slots))


def _denominators() -> tuple[int, ...]:
    """The denominators of the twelve primitive betas, in PRIMITIVE_ORDER,
    read from BETA_DENOMINATORS as it stands."""
    return tuple(BETA_DENOMINATORS[slot] for slot in PRIMITIVE_ORDER)


def _non_integral(n: int, ms: list[int], dens: tuple[int, ...]) -> list:
    """(m, slot, numerator, denominator) of each primitive beta of (n, m),
    m in ms, that is not an integer over its denominator in dens, by m and
    then slot.  The numerators come one column per slot, and when no column
    has a remainder mod its denominator, no pair is looked at alone."""
    columns = primitive_columns(n, ms)
    if not any(any(map(den.__rmod__, column)) for column, den in zip(columns, dens)):
        return []
    return [(m, slot, num, den) for m, row in zip(ms, zip(*columns))
            for slot, num, den in zip(PRIMITIVE_ORDER, row, dens) if num % den]


# ----------------------------------------------------------------------
# dependency relations among the primitive betas
# ----------------------------------------------------------------------

class DependencyRelation(FrozenRecord):
    """beta_lhs = sum of coefficient * product of the betas in slots, over rhs."""

    # rhs: (coefficient, slots) terms; note: source-text caveat, where the
    # printed equation needed repairing
    _fields = ("name", "statement", "lhs", "rhs", "note")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the cached _kernel

    def __init__(self, name: str, statement: str, lhs: tuple[int, int], rhs: tuple,
                 note: str = ""):
        set_field(self, "name", name)
        set_field(self, "statement", statement)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "note", note)
        set_key(self, (name, statement, lhs, rhs, note))

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


def dependency_relations_check(grid: Iterable | None = None,
                               max_n: int = 12) -> ScanReport:
    """Verify all six dependency relations exactly on a knot grid.

    The default grid is every canonical knot (both chiralities) with
    n <= max_n, which needs max_n >= 3: no canonical knot has n < 3.  It is
    read one n at a time, and each knot (n, m) with m > 0 once: every term of
    a relation has the parity in m of the relation's order, so the residual
    at the mirror (n, -m) is the one at (n, m), negated at odd orders.
    """
    report = ScanReport("dependency-relations", max_n)
    if grid is not None:
        for knot in grid:
            k = as_knot(knot)
            report.checked += len(DEPENDENCY_RELATIONS)
            report.violations += [((k.n, k.m), rel.name, value)
                                  for rel, value in _violations(primitive_numerators(k.n, k.m))]
        return report
    check_floor("max_n", max_n)
    for n, ms in canonical_ms(max_n, chirality=False):
        report.checked += 2 * len(DEPENDENCY_RELATIONS) * len(ms)
        for m, nums in zip(ms, zip(*primitive_columns(n, ms))):
            found = _violations(nums)
            report.violations += [((n, m), rel.name, value) for rel, value in found]
            report.violations += [((n, -m), rel.name, -value if rel.lhs[0] % 2 else value)
                                  for rel, value in found]
    return report


def _violations(nums: tuple[int, ...]) -> list:
    """(relation, residual) of each relation that fails on one knot's
    primitive numerators, in DEPENDENCY_RELATIONS order."""
    found = []
    for rel in DEPENDENCY_RELATIONS:
        residual = rel.residual_numerator(nums)
        if residual:
            found.append((rel, Fraction(residual, rel.residual_denominator)))
    return found


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
    for n, ms in canonical_ms(max_n):
        report.checked += len(ms)
        for m, key in zip(ms, zip(*primitive_columns(n, ms, slots=(_B21, _B31)))):
            if key in seen:
                report.violations.append((seen[key], (n, m), _fractions(key, (_B21, _B31))))
            else:
                seen[key] = (n, m)
    return report


# ----------------------------------------------------------------------
# integrality
# ----------------------------------------------------------------------

def integrality_scan(bound: int, include_noncoprime: bool = False) -> ScanReport:
    """All twelve primitive betas are integers for coprime |n|, |m| <= bound.

    With include_noncoprime the scan also walks the non-coprime pairs and
    records every non-integral value it finds there as a note (those are
    expected witnesses, not violations).  Records run over n = 1..bound,
    then m from -bound to bound (0 left out), then slot; checked counts the
    values covered, twelve per coprime pair (n, m).

    Only the pairs 1 <= n <= m <= bound are evaluated.  Each row is a sum
    of symmetric monomials in u = n^2, v = m^2 times the prefactor
    (u-1)(v-1), times nm at odd orders, so a beta at (m, n) is its value at
    (n, m), and at (n, -m) the same value at even orders and its negation at
    odd ones.  Each non-integral value, and at odd orders its negation, is
    one Fraction shared by the records of every pair it stands for; what
    (n, m), n < m, found is kept until row m reuses it at (m, n).
    """
    check_floor("bound", bound)
    report = ScanReport("integrality", bound)
    dens = _denominators()
    kept: dict = {}  # kept[m][n], n < m: what (n, m) found, for (m, n)
    for n in range(1, bound + 1):
        coprime = [gcd(n, m) == 1 for m in range(1, bound + 1)]
        report.checked += 2 * len(PRIMITIVE_ORDER) * sum(coprime)
        # |m| -> (slot, (value at (n, |m|), value at (n, -|m|))) of each
        # non-integral beta, by ascending |m| and then slot
        found = kept.pop(n, {})
        above = [m for m in range(n, bound + 1) if include_noncoprime or coprime[m - 1]]
        for m, slot, num, den in _non_integral(n, above, dens):
            value = Fraction(num, den)
            found.setdefault(m, []).append((slot, (value, -value if slot[0] % 2 else value)))
        for m in [-m for m in reversed(found)] + list(found):
            if m > n:
                kept.setdefault(m, {})[n] = found[m]
            pair = (n, m)
            (report.violations if coprime[abs(m) - 1] else report.notes).extend(
                [(pair, slot, values[m < 0]) for slot, values in found[abs(m)]])
    return report


def noncoprime_witnesses(bound: int = 6) -> dict:
    """For each order 2..6, a non-coprime pair whose beta is non-integral."""
    check_int("bound", bound)
    found: dict = {}
    dens = _denominators()
    for n in range(2, bound + 1):
        shared = [m for m in range(n, bound + 1) if gcd(n, m) != 1]
        for m, slot, num, den in _non_integral(n, shared, dens):
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
# integrality on every coprime pair, from finitely many values
# ----------------------------------------------------------------------

#: the highest degree in n, and in m, of a row that the certificate decides
CERTIFICATE_DEGREE = 6


def _grid(p: int, side: str, r: int) -> list[list[list[int]]]:
    """Side "n": primitive_columns at n = r + p a over m = b; side "m": at
    n = a over m = r + p b; one per a, with a, b = 0..CERTIFICATE_DEGREE."""
    grid = range(CERTIFICATE_DEGREE + 1)
    ms = [r + p * b for b in grid] if side == "m" else list(grid)
    return [primitive_columns(a if side == "m" else r + p * a, ms) for a in grid]


def integrality_certificate() -> ScanReport:
    """All twelve primitive betas are integers on every coprime pair.

    An f in Z[a, b] of degree <= D in each variable is divisible by q on Z^2
    when q divides each Delta_a^i Delta_b^j f(0, 0), i, j <= D (Polya 1915;
    Cahen and Chabert 1997, ch. I), so when q divides each f(a, b), a, b <= D,
    of which those are integer combinations.  For each prime p of a slot's
    denominator, its p-part q must divide the slot's numerators in every
    _grid with r prime to p; each coprime pair lies in one of them for
    each p.  A violation is (slot, p, side, r); a row of higher degree
    than D = CERTIFICATE_DEGREE raises.
    """
    for slot, row in _ROWS.items():
        # 2 from n^2-1, 1 from n at odd orders, 2 per power of u = n^2 in the last monomial
        degree = 2 + slot[0] % 2 + 2 * min(2, len(row.coefficients) // 2)
        if degree > CERTIFICATE_DEGREE:
            raise DegreeExceeded(f"row {slot} has degree {degree} > {CERTIFICATE_DEGREE}")
    report = ScanReport("integrality-certificate", CERTIFICATE_DEGREE)
    dens = _denominators()
    rest, p = lcm(*dens), 1
    while rest > 1:  # trial division: p divides rest only if p is prime
        p += 1
        if rest % p:
            continue
        rest //= gcd(rest, p ** rest.bit_length())
        for side, r in product("nm", range(1, p)):
            for slot, den, block in zip(PRIMITIVE_ORDER, dens, zip(*_grid(p, side, r))):
                q = gcd(den, p ** den.bit_length())
                if q > 1:
                    report.checked += sum(map(len, block))
                    if any(num % q for values in block for num in values):
                        report.violations.append((slot, p, side, r))
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


class AuxiliaryScalars(FrozenRecord):
    __slots__ = _fields = ("v3", "gordian", "curve_residual")

    def __init__(self, v3: Fraction, gordian: Fraction, curve_residual: Fraction):
        # v3: 3(beta_{3,1} - beta_{2,1}); equals p^3-p on (2, 2p+1)
        # gordian: (|n|-1)(|m|-1)/2, the conjectured unknotting number
        # curve_residual: beta_{3,1}^2 - 2/3 beta_{2,1}^3
        set_field(self, "v3", v3)
        set_field(self, "gordian", gordian)
        set_field(self, "curve_residual", curve_residual)
        set_key(self, (v3, gordian, curve_residual))


def auxiliary_scalars(knot) -> AuxiliaryScalars:
    """Each scalar as one Fraction over the integer numerators of
    beta_{2,1} = a / d21 and beta_{3,1} = b / d31."""
    k = as_knot(knot).validate()
    a, b = primitive_numerators(k.n, k.m, slots=(_B21, _B31))
    d21, d31 = BETA_DENOMINATORS[_B21], BETA_DENOMINATORS[_B31]
    return AuxiliaryScalars(
        v3=Fraction(3 * (b * d21 - a * d31), d21 * d31),
        gordian=Fraction((abs(k.n) - 1) * (abs(k.m) - 1), 2),
        curve_residual=Fraction(3 * b * b * d21 ** 3 - 2 * a ** 3 * d31 * d31,
                                3 * d21 ** 3 * d31 * d31),
    )


def v3_family_value(p: int) -> Fraction:
    """v3 of the (2, 2p+1) torus knot, computed from the beta table."""
    return auxiliary_scalars(TorusKnot(2, 2 * p + 1)).v3


def is_v3_applicable(knot) -> bool:
    """v3 is tabulated for the (2, 2p+1) family, i.e. knots with a strand
    index of absolute value 2."""
    k = as_knot(knot)
    return min(abs(k.n), abs(k.m)) == 2
