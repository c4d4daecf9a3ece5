"""Properties of the beta invariants: distinguishing power, dependency
relations, integrality scans, modular lemmas, and derived scalars.

Everything here runs on the closed-form beta table, so scans over thousands
of knots are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Optional

from .knots import CanonicalTorusKnot, TorusKnot, as_knot, canonical_knots
from .tables import PRIMITIVE_ORDER, closed_form_beta


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


def _beta(knot) -> dict:
    return closed_form_beta(knot).entries


# ----------------------------------------------------------------------
# dependency relations among the primitive betas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyRelation:
    name: str
    statement: str
    residual: Callable[[dict], Fraction]
    # source-text caveat, where the printed equation needed repairing
    note: str = ""


def _r4(b):
    return b[(4, 2)] - (4 * b[(4, 3)] + 12 * b[(2, 1)] ** 2 - b[(2, 1)])


def _r5_first(b):
    return b[(5, 2)] - (6 * b[(5, 4)] + Fraction(27, 5) * b[(2, 1)] * b[(3, 1)]
                        - Fraction(2, 5) * b[(3, 1)])


def _r5_second(b):
    return b[(5, 3)] - (Fraction(3, 4) * b[(5, 4)]
                        + Fraction(3, 10) * b[(2, 1)] * b[(3, 1)]
                        - Fraction(1, 20) * b[(3, 1)])


def _r6_first(b):
    return b[(6, 5)] - (Fraction(58, 9) * b[(6, 9)] - Fraction(80, 3) * b[(4, 3)]
                        + Fraction(41, 9) * b[(2, 1)]
                        - Fraction(680, 3) * b[(2, 1)] * b[(4, 3)]
                        + 5280 * b[(3, 1)] ** 2
                        - Fraction(2080, 3) * b[(2, 1)] ** 3)


def _r6_second(b):
    return b[(6, 6)] - (-Fraction(5, 12) * b[(6, 9)] - Fraction(5, 3) * b[(4, 3)]
                        + Fraction(1, 4) * b[(2, 1)]
                        - 10 * b[(2, 1)] * b[(4, 3)]
                        + 240 * b[(3, 1)] ** 2
                        - 40 * b[(2, 1)] ** 3)


def _r6_third(b):
    return b[(6, 7)] - (Fraction(9, 2) * b[(6, 9)] - 5 * b[(4, 3)]
                        + Fraction(1, 2) * b[(2, 1)]
                        + 432 * b[(3, 1)] ** 2
                        - 96 * b[(2, 1)] ** 3)


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
        _r4),
    DependencyRelation(
        "order5_first",
        "beta_{5,2} = 6 beta_{5,4} + 27/5 beta_{2,1} beta_{3,1} - 2/5 beta_{3,1}",
        _r5_first,
        note="source prints beta_{5,3} for the leading right-hand term"),
    DependencyRelation(
        "order5_second",
        "beta_{5,3} = 3/4 beta_{5,4} + 3/10 beta_{2,1} beta_{3,1} - 1/20 beta_{3,1}",
        _r5_second,
        note="source prints the self-referential beta_{5,3} = 3/4 beta_{5,3} + ..."),
    DependencyRelation(
        "order6_first",
        "beta_{6,5} = 58/9 beta_{6,9} - 80/3 beta_{4,3} + 41/9 beta_{2,1}"
        " - 680/3 beta_{2,1} beta_{4,3} + 5280 beta_{3,1}^2 - 2080/3 beta_{2,1}^3",
        _r6_first),
    DependencyRelation(
        "order6_second",
        "beta_{6,6} = -5/12 beta_{6,9} - 5/3 beta_{4,3} + 1/4 beta_{2,1}"
        " - 10 beta_{2,1} beta_{4,3} + 240 beta_{3,1}^2 - 40 beta_{2,1}^3",
        _r6_second),
    DependencyRelation(
        "order6_third",
        "beta_{6,7} = 9/2 beta_{6,9} - 5 beta_{4,3} + 1/2 beta_{2,1}"
        " + 432 beta_{3,1}^2 - 96 beta_{2,1}^3",
        _r6_third),
)


def dependency_relations_check(grid: Optional[Iterable] = None,
                               max_n: int = 12) -> ScanReport:
    """Verify all six dependency relations exactly on a knot grid.

    The default grid is every canonical knot (both chiralities) with
    n <= max_n, which needs max_n >= 3: no canonical knot has n < 3.
    """
    if grid is None and max_n < 3:
        raise ValueError("max_n must be >= 3")
    knots = list(grid) if grid is not None else list(canonical_knots(max_n))
    report = ScanReport("dependency-relations", max_n)
    for knot in knots:
        k = knot.as_knot() if isinstance(knot, CanonicalTorusKnot) else as_knot(knot)
        b = _beta(k)
        for rel in DEPENDENCY_RELATIONS:
            report.checked += 1
            res = rel.residual(b)
            if res != 0:
                report.violations.append(((k.n, k.m), rel.name, res))
    return report


# ----------------------------------------------------------------------
# distinguishing theorem
# ----------------------------------------------------------------------

def distinguishing_check(max_n: int) -> ScanReport:
    """No two canonical torus knots with n <= max_n share
    (beta_{2,1}, beta_{3,1}).  Needs max_n >= 3: no canonical knot has n < 3."""
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    report = ScanReport("distinguishing", max_n)
    seen: dict = {}
    for knot in canonical_knots(max_n):
        b = _beta(knot.as_knot())
        key = (b[(2, 1)], b[(3, 1)])
        report.checked += 1
        if key in seen:
            report.violations.append((seen[key], (knot.n, knot.m), key))
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
    if bound < 2:
        raise ValueError("bound must be >= 2")
    report = ScanReport("integrality", bound)
    for n in range(1, bound + 1):
        for m in range(-bound, bound + 1):
            if m == 0:
                continue
            if gcd(n, abs(m)) != 1:
                if include_noncoprime:
                    b = _beta(TorusKnot(n, m))
                    for slot in PRIMITIVE_ORDER:
                        if b[slot].denominator != 1:
                            report.notes.append(((n, m), slot, b[slot]))
                continue
            b = _beta(TorusKnot(n, m))
            for slot in PRIMITIVE_ORDER:
                report.checked += 1
                if b[slot].denominator != 1:
                    report.violations.append(((n, m), slot, b[slot]))
    return report


def noncoprime_witnesses(bound: int = 6) -> dict:
    """For each order 2..6, a non-coprime pair whose beta is non-integral."""
    found: dict = {}
    for n in range(2, bound + 1):
        for m in range(n, bound + 1):
            if gcd(n, m) == 1:
                continue
            b = _beta(TorusKnot(n, m))
            for slot in PRIMITIVE_ORDER:
                order = slot[0]
                if order not in found and b[slot].denominator != 1:
                    found[order] = ((n, m), slot, b[slot])
    return found


# ----------------------------------------------------------------------
# modular lemmas behind the order 2..4 integrality proofs
# ----------------------------------------------------------------------

MODULAR_CLAIMS = (
    ("odd n => n^2-1 = 0 mod 8",
     lambda n: n % 2 == 0 or (n * n - 1) % 8 == 0),
    ("3 does not divide n => n^2-1 = 0 mod 3",
     lambda n: n % 3 == 0 or (n * n - 1) % 3 == 0),
    ("odd n, 3 does not divide n => n^2-1 = 0 mod 24",
     lambda n: n % 2 == 0 or n % 3 == 0 or (n * n - 1) % 24 == 0),
    ("odd n, 3 | n => n(n^2-1) = 0 mod 24",
     lambda n: n % 2 == 0 or n % 3 != 0 or (n * (n * n - 1)) % 24 == 0),
    ("even n => n(n^2-1) = 0 mod 6",
     lambda n: n % 2 == 1 or (n * (n * n - 1)) % 6 == 0),
    ("n = 1,4 mod 5 => n^2-1 = 0 mod 5",
     lambda n: n % 5 not in (1, 4) or (n * n - 1) % 5 == 0),
    ("n = 2,3 mod 5 => n^2+1 = 0 mod 5",
     lambda n: n % 5 not in (2, 3) or (n * n + 1) % 5 == 0),
    ("odd n => n^4-1 = 0 mod 16",
     lambda n: n % 2 == 0 or (n ** 4 - 1) % 16 == 0),
    ("odd n, 3,5 do not divide n => n^4-1 = 0 mod 240",
     lambda n: n % 2 == 0 or n % 3 == 0 or n % 5 == 0 or (n ** 4 - 1) % 240 == 0),
)


def proposition_modular_checks(bound: int) -> ScanReport:
    """Verify every modular step used in the integrality proofs for all
    n up to bound."""
    report = ScanReport("modular-lemmas", bound)
    for n in range(1, bound + 1):
        for label, holds in MODULAR_CLAIMS:
            report.checked += 1
            if not holds(n):
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
    b21 = _beta(as_knot(knot).validate())[(2, 1)]
    if b21.denominator != 1:
        raise ValueError(f"beta_{{2,1}} = {b21} is not an integer; parity undefined")
    return OBSTRUCTED if b21.numerator % 2 == 1 else INCONCLUSIVE


@dataclass(frozen=True)
class AuxiliaryScalars:
    v3: Fraction              # 3(beta_{3,1} - beta_{2,1}); equals p^3-p on (2, 2p+1)
    gordian: Fraction         # (|n|-1)(|m|-1)/2, the conjectured unknotting number
    curve_residual: Fraction  # beta_{3,1}^2 - 2/3 beta_{2,1}^3


def auxiliary_scalars(knot) -> AuxiliaryScalars:
    k = as_knot(knot).validate()
    b = _beta(k)
    return AuxiliaryScalars(
        v3=3 * (b[(3, 1)] - b[(2, 1)]),
        gordian=Fraction((abs(k.n) - 1) * (abs(k.m) - 1), 2),
        curve_residual=b[(3, 1)] ** 2 - Fraction(2, 3) * b[(2, 1)] ** 3,
    )


def v3_family_value(p: int) -> Fraction:
    """v3 of the (2, 2p+1) torus knot, computed from the beta table."""
    return auxiliary_scalars(TorusKnot(2, 2 * p + 1)).v3


def is_v3_applicable(knot) -> bool:
    """v3 is tabulated for the (2, 2p+1) family, i.e. knots with a strand
    index of absolute value 2."""
    k = as_knot(knot)
    return min(abs(k.n), abs(k.m)) == 2
