"""Casimir trace values and the group factors r_ij built from them.

The group factors at order i come in d_i slots, d = (1, 0, 1, 1, 3, 4, 9) for
i = 0..6.  Each primitive slot is a Casimir trace times a power of the ratio
s = C3/C2, summed over the simple factors of the group; the remaining slots
are products of lower-order factors:

    r_{2,1} = sum C3              r_{5,2} = sum C3 s^3
    r_{3,1} = sum C3 s            r_{5,3} = sum C4 s
    r_{4,2} = sum C3 s^2          r_{5,4} = sum C5
    r_{4,3} = sum C4              r_{6,5} = sum C3 s^4
                                  r_{6,6} = sum C4 s^2
    r_{4,1} = r_{2,1}^2           r_{6,7} = sum C5 s
    r_{5,1} = r_{2,1} r_{3,1}     r_{6,8} = sum C6^1
    r_{6,1} = r_{2,1}^3           r_{6,9} = sum C6^2
    r_{6,2} = r_{3,1}^2
    r_{6,3} = r_{2,1} r_{4,2}
    r_{6,4} = r_{2,1} r_{4,3}

Casimir values are tabulated for SU(N) and SO(N) in the fundamental
representation and for SU(2) in the spin j/2 representation, in the
normalization Tr(T_a T_b) = -delta_ab / 2 for the fundamental.  The ratio s
is a polynomial in every family: s = N/2 for SU(N), s = (N-2)/4 for SO(N)
and s = 1 for SU(2), so every slot is a polynomial in the group parameter and
no slot divides.

Convention note for SU(2): the closed forms for the Casimirs are polynomials
in q = sigma*(sigma+1) where sigma = j/2 is the spin.  With A = -j(j+2)/4 = -q
this gives C3 = A and s = 1 (so C2 = C3), which is forced by consistency of
the order-2 Taylor coefficient across the three polynomial families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import UnsupportedInput

#: number of group-factor slots per order 0..6 (no order-1 slot exists)
SLOT_COUNTS = {0: 1, 1: 0, 2: 1, 3: 1, 4: 3, 5: 4, 6: 9}

#: orders carrying Vassiliev data
ORDERS = (2, 3, 4, 5, 6)

#: the (order, slot) keys of each order, and of orders 2..6 in order
SLOTS = {order: tuple((order, j) for j in range(1, count + 1))
         for order, count in SLOT_COUNTS.items()}
ALL_SLOTS = tuple(s for i in ORDERS for s in SLOTS[i])

#: each primitive slot as (Casimir, k): the slot sums that Casimir times s^k
#: over the simple factors, s = C3/C2
PRIMITIVE_SLOTS = {
    (2, 1): ("C3", 0), (3, 1): ("C3", 1), (4, 2): ("C3", 2), (4, 3): ("C4", 0),
    (5, 2): ("C3", 3), (5, 3): ("C4", 1), (5, 4): ("C5", 0),
    (6, 5): ("C3", 4), (6, 6): ("C4", 2), (6, 7): ("C5", 1),
    (6, 8): ("C6_1", 0), (6, 9): ("C6_2", 0),
}

#: the product-decomposable slots, each with the primitive slots it is the
#: product of, repeats included: the one definition of the compound structure,
#: read by the group factors here and by the closed-form tables in tables.py
COMPOUND_FACTORS = {
    (4, 1): ((2, 1), (2, 1)),
    (5, 1): ((2, 1), (3, 1)),
    (6, 1): ((2, 1), (2, 1), (2, 1)),
    (6, 2): ((3, 1), (3, 1)),
    (6, 3): ((2, 1), (4, 2)),
    (6, 4): ((2, 1), (4, 3)),
}


def compound_values(primitives: Mapping) -> dict:
    """Each compound slot's value, in COMPOUND_FACTORS order: the product of
    its factors' values in primitives."""
    return {slot: prod([primitives[f] for f in factors])
            for slot, factors in COMPOUND_FACTORS.items()}


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


def _casimirs(group: GroupInstance) -> tuple[dict[str, Fraction], Fraction, int]:
    """The Casimir traces C3..C6 of one simple, validated instance, its ratio
    s = C3/C2 and its dimension, each in closed form."""
    if group.family == Family.SU_N:
        N = group.N
        c = N * N - 1
        return ({"C3": Fraction(-c, 4),
                 "C4": Fraction(c * (N * N + 2), 16),
                 "C5": Fraction(N * c * (N * N + 1), 32),
                 "C6_1": Fraction(c * (N ** 4 + N * N + 2), 64),
                 "C6_2": Fraction(c * (3 * N * N - 2), 64)}, Fraction(N, 2), N)
    if group.family == Family.SO_N:
        N = group.N
        ab = (N - 1) * (N - 2)
        return ({"C3": Fraction(-ab, 16),
                 "C4": Fraction(ab * (N * N - 5 * N + 10), 256),
                 "C5": Fraction(ab * (N ** 3 - 7 * N * N + 17 * N - 10), 1024),
                 "C6_1": Fraction(ab * (N * N - 7 * N + 14) * (N * N - 2 * N + 3), 4096),
                 "C6_2": Fraction(ab * (N - 3) * (7 * N - 18), 4096)}, Fraction(N - 2, 4), N)
    q = Fraction(group.j * (group.j + 2), 4)  # -A
    return ({"C3": -q,
             "C4": 2 * q * q,
             "C5": 3 * q * q - q,
             "C6_1": 2 * q ** 3 + 3 * q * q - 2 * q,
             "C6_2": -2 * q ** 3 + 5 * q * q - 2 * q}, Fraction(1), group.j + 1)


def simple_factors(group: GroupInstance) -> tuple[GroupInstance, ...]:
    """The simple factors of a group instance: SU(N) and SU(2) for a product,
    the instance itself otherwise.  Casimir traces add over the factors, and
    knot invariants and unknot factors multiply over them."""
    if group.family == Family.PRODUCT:
        return (su_n(group.N), su2(group.j))
    return (group,)


@dataclass(frozen=True)
class GroupFactorVector:
    """All r_ij for orders 0..6 plus the representation dimension."""

    entries: Mapping  # read-only (order, slot) -> Fraction, includes (0, 1) -> 1
    dim: Fraction

    def r(self, order: int, slot: int) -> Fraction:
        return self.entries[(order, slot)]

    def row(self, order: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[s] for s in SLOTS[order])


@lru_cache(maxsize=128)
def group_factors(group: GroupInstance) -> GroupFactorVector:
    """The group factors of one instance, memoized.

    They depend on the instance alone.  The solver asks for them only when it
    makes a plan ready, once per instance of each distinct plan (25 for a
    default plan), at about 150-180 us an uncached call on a 2-vCPU Xeon;
    128 entries hold every instance that the default plans use for n < 60.
    The vector is frozen and its entries read-only, so callers share it
    safely.
    """
    primitives = dict.fromkeys(PRIMITIVE_SLOTS, Fraction(0))
    dim = Fraction(1)
    for factor in simple_factors(group):
        casimir, s, factor_dim = _casimirs(factor)
        for slot, (name, k) in PRIMITIVE_SLOTS.items():
            primitives[slot] += casimir[name] * s ** k
        dim *= factor_dim
    r = {(0, 1): Fraction(1), **primitives, **compound_values(primitives)}
    return GroupFactorVector(MappingProxyType(r), dim)
