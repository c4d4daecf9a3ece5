"""Casimir trace values and the group factors r_ij built from them.

The group factors at order i come in d_i slots, d = (1, 0, 1, 1, 3, 4, 9) for
i = 0..6.  Primitive slots are monomials in the Casimir traces C2..C6 summed
over the simple factors of the group; the remaining slots are products of
lower-order factors:

    r_{2,1} = sum C3              r_{5,2} = sum C3^4 / C2^3
    r_{3,1} = sum C3^2 / C2       r_{5,3} = sum C4 C3 / C2
    r_{4,2} = sum C3^3 / C2^2     r_{5,4} = sum C5
    r_{4,3} = sum C4              r_{6,5} = sum C3^5 / C2^4
                                  r_{6,6} = sum C4 C3^2 / C2^2
    r_{4,1} = r_{2,1}^2           r_{6,7} = sum C5 C3 / C2
    r_{5,1} = r_{2,1} r_{3,1}     r_{6,8} = sum C6^1
    r_{6,1} = r_{2,1}^3           r_{6,9} = sum C6^2
    r_{6,2} = r_{3,1}^2
    r_{6,3} = r_{2,1} r_{4,2}
    r_{6,4} = r_{2,1} r_{4,3}

Casimir values are tabulated for SU(N) and SO(N) in the fundamental
representation and for SU(2) in the spin j/2 representation, in the
normalization Tr(T_a T_b) = -delta_ab / 2 for the fundamental.

Convention note for SU(2): the closed forms for the Casimirs are polynomials
in sigma*(sigma+1) where sigma = j/2 is the spin.  With A = -j(j+2)/4 this
gives C2 = C3 = A, which is forced by consistency of the order-2 Taylor
coefficient across the three polynomial families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import UnsupportedInput, ZeroCasimirDivision

#: number of group-factor slots per order 0..6 (no order-1 slot exists)
SLOT_COUNTS = {0: 1, 1: 0, 2: 1, 3: 1, 4: 3, 5: 4, 6: 9}

#: orders carrying Vassiliev data
ORDERS = (2, 3, 4, 5, 6)

#: the (order, slot) keys of each order, and of orders 2..6 in order
SLOTS = {order: tuple((order, j) for j in range(1, count + 1))
         for order, count in SLOT_COUNTS.items()}
ALL_SLOTS = tuple(s for i in ORDERS for s in SLOTS[i])

#: the product-decomposable slots, each a product of lower-order slots of the
#: same table: the group factors here, and the closed-form tables in tables.py
COMPOUND_RULES: dict[tuple[int, int], Callable] = {
    (4, 1): lambda p: p[(2, 1)] ** 2,
    (5, 1): lambda p: p[(2, 1)] * p[(3, 1)],
    (6, 1): lambda p: p[(2, 1)] ** 3,
    (6, 2): lambda p: p[(3, 1)] ** 2,
    (6, 3): lambda p: p[(2, 1)] * p[(4, 2)],
    (6, 4): lambda p: p[(2, 1)] * p[(4, 3)],
}


class Family(str, Enum):
    SU_N = "su_n"          # SU(N), fundamental representation
    SO_N = "so_n"          # SO(N), fundamental representation
    SU2 = "su2"            # SU(2), spin j/2 representation
    PRODUCT = "product"    # SU(N) x SU(2), product representation


#: the parameters each family takes, each with its least value (so_n starts
#: at 5, the Kauffman sampling floor at n = 3)
_PARAMETER_FLOORS = {
    Family.SU_N: {"N": 2},
    Family.SO_N: {"N": 5},
    Family.SU2: {"j": 1},
    Family.PRODUCT: {"N": 2, "j": 1},
}


def check_parameter(family: Family, name: str, value, floor: Optional[int]) -> None:
    """The one group-parameter check: an int (not a bool) no lower than floor;
    Kauffman passes None, as its floor N >= n + 2 depends on the knot."""
    if type(value) is not int:
        raise UnsupportedInput(f"{family.value} needs an int {name} (got {value!r})")
    if floor is not None and value < floor:
        raise UnsupportedInput(f"{family.value} needs {name} >= {floor}")


@dataclass(frozen=True)
class GroupInstance:
    """A concrete group and representation choice.

    The substitution scale fixes how the polynomial variable t maps onto the
    expansion variable x (t = e^x except t = e^{x/2} for SO(N)); it is
    determined by the family, never free.
    """

    family: Family
    N: Optional[int] = None
    j: Optional[int] = None

    def __post_init__(self):
        floors = _PARAMETER_FLOORS[self.family]
        for name, floor in floors.items():
            check_parameter(self.family, name, getattr(self, name), floor)
        for name in ("N", "j"):
            if name not in floors and getattr(self, name) is not None:
                raise UnsupportedInput(f"{self.family.value} takes no {name}")

    @property
    def substitution_scale(self) -> Fraction:
        return Fraction(1, 2) if self.family == Family.SO_N else Fraction(1)

    def label(self) -> str:
        if self.family == Family.SU_N:
            return f"su_n(N={self.N})"
        if self.family == Family.SO_N:
            return f"so_n(N={self.N})"
        if self.family == Family.SU2:
            return f"su2(j={self.j})"
        return f"su_n(N={self.N}) x su2(j={self.j})"


def su_n(N: int) -> GroupInstance:
    return GroupInstance(Family.SU_N, N=N)


def so_n(N: int) -> GroupInstance:
    return GroupInstance(Family.SO_N, N=N)


def su2(j: int) -> GroupInstance:
    return GroupInstance(Family.SU2, j=j)


def product(N: int, j: int) -> GroupInstance:
    return GroupInstance(Family.PRODUCT, N=N, j=j)


@dataclass(frozen=True)
class CasimirSet:
    """Traces of the Casimir operators for one simple factor."""

    c2: Fraction
    c3: Fraction
    c4: Fraction
    c5: Fraction
    c6_1: Fraction
    c6_2: Fraction
    dim: Fraction


def casimirs(family: Family, parameter: int) -> CasimirSet:
    """Exact Casimir values for one simple family.

    parameter is N for su_n (N >= 2) and so_n (N >= 3), and the representation
    label j (spin j/2) for su2 (j >= 1).
    """
    if family == Family.SU_N:
        N = parameter
        check_parameter(family, "N", N, 2)
        c = Fraction(N * N - 1)
        return CasimirSet(
            c2=-c / (2 * N),
            c3=-c / 4,
            c4=c * (N * N + 2) / 16,
            c5=Fraction(N) * c * (N * N + 1) / 32,
            c6_1=c * (N ** 4 + N * N + 2) / 64,
            c6_2=c * (3 * N * N - 2) / 64,
            dim=Fraction(N),
        )
    if family == Family.SO_N:
        N = parameter
        check_parameter(family, "N", N, 3)
        a, b = Fraction(N - 1), Fraction(N - 2)
        return CasimirSet(
            c2=-a / 4,
            c3=-a * b / 16,
            c4=a * b * (N * N - 5 * N + 10) / 256,
            c5=a * b * (N ** 3 - 7 * N * N + 17 * N - 10) / 1024,
            c6_1=a * b * (N * N - 7 * N + 14) * (N * N - 2 * N + 3) / 4096,
            c6_2=a * b * (N - 3) * (7 * N - 18) / 4096,
            dim=Fraction(N),
        )
    if family == Family.SU2:
        j = parameter
        check_parameter(family, "j", j, 1)
        sigma = Fraction(j, 2)
        q = sigma * (sigma + 1)  # equals -A with A = -j(j+2)/4
        return CasimirSet(
            c2=-q,
            c3=-q,
            c4=2 * q * q,
            c5=3 * q * q - q,
            c6_1=2 * q ** 3 + 3 * q * q - 2 * q,
            c6_2=-2 * q ** 3 + 5 * q * q - 2 * q,
            dim=Fraction(j + 1),
        )
    raise UnsupportedInput(f"no Casimir table for {family}")


def simple_factors(group: GroupInstance) -> tuple[GroupInstance, ...]:
    """The simple factors of a group instance: SU(N) and SU(2) for a product,
    the instance itself otherwise.  Casimir traces add over the factors, and
    knot invariants and unknot factors multiply over them."""
    if group.family == Family.PRODUCT:
        return (su_n(group.N), su2(group.j))
    return (group,)


def casimir_sets(group: GroupInstance) -> tuple[CasimirSet, ...]:
    """The simple-factor Casimir sets of a (possibly product) group instance."""
    return tuple(casimirs(g.family, g.j if g.family == Family.SU2 else g.N)
                 for g in simple_factors(group))


@dataclass(frozen=True)
class GroupFactorVector:
    """All r_ij for orders 0..6 plus the representation dimension."""

    entries: Mapping  # read-only (order, slot) -> Fraction, includes (0, 1) -> 1
    dim: Fraction

    def r(self, order: int, slot: int) -> Fraction:
        return self.entries[(order, slot)]

    def row(self, order: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[s] for s in SLOTS[order])


def group_factor_vector(sets: Sequence[CasimirSet]) -> GroupFactorVector:
    """Assemble the r_ij from the simple-factor Casimir sets."""
    if not sets:
        raise ValueError("need at least one simple factor")
    for cs in sets:
        if cs.c2 == 0:
            raise ZeroCasimirDivision("a simple factor has C2 = 0")

    def total(monomial) -> Fraction:
        return sum((monomial(cs) for cs in sets), Fraction(0))

    r = {(0, 1): Fraction(1)}
    r[(2, 1)] = total(lambda c: c.c3)
    r[(3, 1)] = total(lambda c: c.c3 ** 2 / c.c2)
    r[(4, 2)] = total(lambda c: c.c3 ** 3 / c.c2 ** 2)
    r[(4, 3)] = total(lambda c: c.c4)
    r[(5, 2)] = total(lambda c: c.c3 ** 4 / c.c2 ** 3)
    r[(5, 3)] = total(lambda c: c.c4 * c.c3 / c.c2)
    r[(5, 4)] = total(lambda c: c.c5)
    r[(6, 5)] = total(lambda c: c.c3 ** 5 / c.c2 ** 4)
    r[(6, 6)] = total(lambda c: c.c4 * c.c3 ** 2 / c.c2 ** 2)
    r[(6, 7)] = total(lambda c: c.c5 * c.c3 / c.c2)
    r[(6, 8)] = total(lambda c: c.c6_1)
    r[(6, 9)] = total(lambda c: c.c6_2)
    for slot, rule in COMPOUND_RULES.items():
        r[slot] = rule(r)
    dim = Fraction(1)
    for cs in sets:
        dim *= cs.dim
    return GroupFactorVector(MappingProxyType(r), dim)


@lru_cache(maxsize=128)
def group_factors(group: GroupInstance) -> GroupFactorVector:
    """The group factors of one instance, memoized.

    They depend on the instance alone, and every extraction asks for the same
    few instances again; 128 entries hold every instance that the default
    plans use for n < 60.  The vector is frozen and its entries read-only,
    so callers share it safely.
    """
    return group_factor_vector(casimir_sets(group))
