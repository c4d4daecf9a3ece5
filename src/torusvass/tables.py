"""Closed-form invariant tables for torus knots, and the printed coefficient
polynomials g_ij used to cross-check the ansatz fit.

Evaluating these tables is pure polynomial arithmetic in (n, m); coprimality
is not required here, which is exactly what the integrality scans need.

Slot layout of the Taylor ansatz through order six: with P = (n^2-1)(m^2-1),

    order 2:  P x^2 g_{2,1}
    order 3:  n m P x^3 g_{3,1}
    order 4:  P x^4 (g_{4,1} + (n^2+m^2) g_{4,2} + n^2 m^2 g_{4,3})
    order 5:  n m P x^5 (g_{5,1} + (n^2+m^2) g_{5,2} + n^2 m^2 g_{5,3})
    order 6:  P x^6 (g_{6,1} + (n^2+m^2) g_{6,2} + n^2 m^2 g_{6,3}
                     + (n^4 m^2 + n^2 m^4) g_{6,4} + (n^4+m^4) g_{6,5}
                     + n^4 m^4 g_{6,6})

Each closed-form primitive is one integer row: the integer coefficients of
its numerator over the slot monomials above (1, u+v, uv, u^2v+uv^2, u^2+v^2,
u^2v^2 in u = n^2, v = m^2; one at orders 2-3, three at 4-5, six at 6), and
its alpha_tilde and beta denominators; the three tables share the rows.
The prefactor is P at even orders and nm P at odd ones, so at one n a row is
(v-1) times a quadratic in v, times m at odd orders, with the n-part of the
prefactor folded into the quadratic.  _forms keeps these per (n, slots), so
a knot costs a few integer products per slot.  primitive_numerators
evaluates them at one m: the tables build one Fraction per entry from it,
a compound entry's numerator being the product of its factors'
(groups.COMPOUND_FACTORS), and the relations and derived scalars read it
directly.
primitive_columns evaluates them over every m of one n, one list per slot,
for the scans that walk whole ranges of knots.

alpha is alpha_tilde less its value at (n, m) = (0, 0), over the same
denominators: the Wilson line is the normalized series times the unknot
factor, so their primitive parts add, and the unknot's part
-alpha_tilde(0, 0) is nonzero at even orders only (there P = 1 and nm P = 0).

Three printed g entries are typos in the source tables (marked below); the
exact ansatz fit is authoritative for those slots and the corrected forms are
stored alongside the printed ones.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul, sub

from .errors import FrozenRecord, set_field, set_key
from .groups import ALL_SLOTS, COMPOUND_FACTORS, compound_values
from .knots import KnotLike, TorusKnot, as_knot
from .linalg import ExactPoly

TREFOIL = TorusKnot(2, 3)

#: integer factors fixing the normalization of beta relative to its trefoil value
TREFOIL_NORMALIZERS = {
    (2, 1): 1, (3, 1): 1,
    (4, 2): 31, (4, 3): 5,
    (5, 2): 11, (5, 3): 1, (5, 4): 1,
    (6, 5): 5071, (6, 6): 29, (6, 7): 1531, (6, 8): 17, (6, 9): 271,
}

PRIMITIVE_ORDER = tuple(sorted(TREFOIL_NORMALIZERS))

#: two knots per primitive slot on which beta takes coprime integer values
#: (beta_{4,3} is 5 and 85 on the first pair, 5 and 39 on its own): any d
#: with beta / d integral on every torus knot divides both, so d = 1 and the
#: normalization above is sharp (analysis.normalization_sharpness checks it)
SHARPNESS_PAIRS = {**dict.fromkeys(PRIMITIVE_ORDER, ((3, 2), (4, 3))),
                   (4, 3): ((3, 2), (5, 2))}


class InvariantTable(FrozenRecord):
    """Entries (order, slot) -> value for orders 2..6."""

    __slots__ = _fields = ("kind", "knot", "entries")

    def __init__(self, kind: str, knot: TorusKnot, entries: dict):
        set_field(self, "kind", kind)  # kind: "alpha_tilde" | "alpha" | "beta"
        set_field(self, "knot", knot)
        set_field(self, "entries", entries)
        set_key(self, (kind, knot, entries))

    def value(self, order: int, slot: int) -> Fraction:
        return self.entries[(order, slot)]

    def through_order(self, order: int) -> dict:
        return {k: v for k, v in self.entries.items() if k[0] <= order}


#: the symmetric monomials in u = n^2, v = m^2 of the ansatz, in slot order;
#: an order reads the first 1, 1, 3, 3 or 6 of them (ANSATZ_SLOT_MONOMIALS),
#: and so do its rows' coefficients
_MONOMIALS = (lambda u, v: 1, lambda u, v: u + v, lambda u, v: u * v,
              lambda u, v: u * u * v + u * v * v, lambda u, v: u * u + v * v,
              lambda u, v: u * u * v * v)


class _Row(namedtuple("_Row", ("coefficients", "den", "beta_den"))):
    """prefactor * numerator(n^2, m^2) / den, where the prefactor is
    (n^2-1)(m^2-1), times nm at odd orders, and the numerator is the sum of
    coefficients (a tuple of ints) times the first len(coefficients) of
    _MONOMIALS; beta_den is the printed denominator of the beta value of the
    same numerator."""

    __slots__ = ()


#: the three tables share these numerators.  The order-4 slot 2 entry is
#: taken in its n <-> m symmetric form 9 n^2 m^2 (the sole reading consistent
#: with the beta table and the trefoil normalizer 31).  Coefficients of
#: 1, u+v, uv, u^2v+uv^2, u^2+v^2, u^2v^2:
_ROWS = {
    (2, 1): _Row((1,), 6, 24),
    (3, 1): _Row((1,), 18, 144),
    (4, 2): _Row((-1, -1, 9), 360, 240),
    (4, 3): _Row((1, 1, 1), 360, 240),
    (5, 2): _Row((-11, -21, 69), 5400, 28800),
    (5, 3): _Row((-9, 1, 11), 5400, 57600),
    (5, 4): _Row((1, 1, 1), 900, 7200),
    (6, 5): _Row((5, 5, -44, -289, 5, 516), 75600, 2520),
    (6, 6): _Row((-24, -24, -115, -101, -24, 53), 90720, 12096),
    (6, 7): _Row((20, 20, -1, 209, 20, 419), 226800, 10080),
    (6, 8): _Row((-50, -50, 13, 13, -50, 13), 453600, 25200),
    (6, 9): _Row((10, 10, 31, 31, 10, 31), 151200, 5040),
}


@lru_cache(maxsize=1024)
def _forms(n: int, slots: tuple) -> tuple[tuple[bool, int, int, int], ...]:
    """Each slot's row at one n, as (odd, a0, a1, a2): its numerator at
    (n, m) is (v-1)(a0 + a1 v + a2 v^2), times m when odd, with v = m^2.
    The n-part of the prefactor, (u-1) or n(u-1) at odd orders, is folded
    into the a's.  Kept per (n, slots), so a call resolves its slots once
    per n; ``verify --suite all --bound 300`` keeps 624 of them."""
    u = n * n
    out = []
    for slot in slots:
        coefficients = _ROWS[slot].coefficients
        c0, c1, c2, c3, c4, c5 = coefficients + (0,) * (6 - len(coefficients))
        odd = slot[0] % 2 == 1
        part = n * (u - 1) if odd else u - 1
        out.append((odd, part * (c0 + (c1 + c4 * u) * u), part * (c1 + (c2 + c3 * u) * u),
                    part * (c4 + (c3 + c5 * u) * u)))
    return tuple(out)


def primitive_numerators(n: int, m: int, slots: tuple = PRIMITIVE_ORDER) -> tuple[int, ...]:
    """Each slot's row in integers: prefactor * numerator(n^2, m^2).

    The slot's alpha_tilde value is this over the row's den, and its beta
    value this over its beta_den.  Coprimality is not required.
    """
    v = m * m
    even = v - 1
    odd = m * even
    return tuple([(odd if is_odd else even) * (a0 + v * (a1 + v * a2))
                  for is_odd, a0, a1, a2 in _forms(n, slots)])


def primitive_columns(n: int, ms: list[int],
                      slots: tuple = PRIMITIVE_ORDER) -> list[list[int]]:
    """primitive_numerators at one n over every m of ms, one list per slot
    of slots: [primitive_numerators(n, m, slots)[k] for m in ms] for each k."""
    vs = [m * m for m in ms]
    even = [v - 1 for v in vs]
    odd = list(map(mul, ms, even))
    return [[pre * (a0 + v * (a1 + v * a2)) for pre, v in zip(odd if is_odd else even, vs)]
            for is_odd, a0, a1, a2 in _forms(n, slots)]


#: the rows at (n, m) = (0, 0); alpha is alpha_tilde less these, over den
_AT_ORIGIN = primitive_numerators(0, 0)


#: the denominator of each primitive beta, over its primitive_numerators
BETA_DENOMINATORS = {slot: row.beta_den for slot, row in _ROWS.items()}


def _entry_plan(beta: bool) -> tuple[tuple[tuple[int, int], tuple[int, ...], int], ...]:
    """Each entry of a table, in ALL_SLOTS order, as (slot, indices, d): the
    entry is the product of the primitive numerators at indices (the slot's
    own, or its factors' for a compound) over d, the product of the factors'
    denominators.  beta's compounds are plain products; the alpha-like
    tables, being symmetric powers, also divide by the factorial of each
    factor's multiplicity (1/2 for a square, 1/6 for a cube)."""
    plan = []
    for slot in ALL_SLOTS:
        factors = COMPOUND_FACTORS.get(slot, (slot,))
        d = prod([_ROWS[f].beta_den if beta else _ROWS[f].den for f in factors])
        if not beta:
            d *= prod([factorial(factors.count(f)) for f in set(factors)])
        plan.append((slot, tuple(map(PRIMITIVE_ORDER.index, factors)), d))
    return tuple(plan)


_ENTRY_PLANS = {"alpha_tilde": _entry_plan(False), "beta": _entry_plan(True)}
_ENTRY_PLANS["alpha"] = _ENTRY_PLANS["alpha_tilde"]


def _closed_form(kind: str, knot: KnotLike) -> InvariantTable:
    """One Fraction per entry, from one primitive_numerators call."""
    k = as_knot(knot)
    nums = primitive_numerators(k.n, k.m)
    if kind == "alpha":
        nums = tuple(map(sub, nums, _AT_ORIGIN))
    get = nums.__getitem__
    return InvariantTable(kind, k, {slot: Fraction(prod(map(get, indices)), d)
                                    for slot, indices, d in _ENTRY_PLANS[kind]})


def closed_form_alpha_tilde(knot: KnotLike) -> InvariantTable:
    """The seventeen-polynomial table for the normalized expansion."""
    return _closed_form("alpha_tilde", knot)


def closed_form_alpha(knot: KnotLike) -> InvariantTable:
    """The unnormalized-expansion table: alpha_tilde less its value at
    (0, 0) on every primitive slot; compounds are the usual products."""
    return _closed_form("alpha", knot)


def closed_form_beta(knot: KnotLike) -> InvariantTable:
    """The trefoil-normalized table; integer-valued on coprime (n, m)."""
    return _closed_form("beta", knot)


def beta_from_alpha_tilde(table: InvariantTable) -> InvariantTable:
    """Normalize an alpha_tilde table against the trefoil values.

    beta_ij = factor_ij * alpha_tilde_ij(K) / alpha_tilde_ij(trefoil) for the
    primitive slots; compounds are products of primitives.
    """
    if table.kind != "alpha_tilde":
        raise ValueError(f"expected an alpha_tilde table, got {table.kind}")
    ref = closed_form_alpha_tilde(TREFOIL).entries
    prim = {
        slot: Fraction(TREFOIL_NORMALIZERS[slot]) * table.entries[slot] / ref[slot]
        for slot in PRIMITIVE_ORDER
    }
    entries = {**prim, **compound_values(prim)}
    return InvariantTable("beta", table.knot, {slot: entries[slot] for slot in ALL_SLOTS})


# ----------------------------------------------------------------------
# Taylor-coefficient ansatz: prefactors and slot monomials
# ----------------------------------------------------------------------

ANSATZ_SLOT_MONOMIALS = {order: _MONOMIALS[:width]
                         for order, width in ((2, 1), (3, 1), (4, 3), (5, 3), (6, 6))}


def ansatz_prefactor(n: int, m: int, order: int) -> int:
    """(n^2-1)(m^2-1) at even orders, times nm at odd orders."""
    p = (n * n - 1) * (m * m - 1)
    return n * m * p if order % 2 else p


# ----------------------------------------------------------------------
# printed g tables, one polynomial per (order, slot)
# ----------------------------------------------------------------------

def _poly_n(den: int, coeffs: dict[int, int]) -> ExactPoly:
    return ExactPoly.from_degree_map(coeffs, den, variable="N")


def _poly_a(den: int, coeffs: dict[int, int]) -> ExactPoly:
    return ExactPoly.from_degree_map(coeffs, den, variable="A")


PRINTED_G_SU_N = {
    (2, 1): _poly_n(24, {0: 1, 2: -1}),
    (3, 1): _poly_n(144, {1: 1, 3: -1}),
    (4, 1): _poly_n(5760, {4: 7, 2: -10, 0: 3}),
    (4, 2): _poly_n(5760, {4: -3, 2: 10, 0: -7}),
    (4, 3): _poly_n(1920, {4: -1, 0: 1}),
    (5, 1): _poly_n(86400, {5: 29, 3: -60, 1: 31}),
    (5, 2): _poly_n(86400, {5: -11, 3: 40, 1: -29}),
    # printed as -N(N^4 - 10N + 11)/86400; see TYPO_SLOTS
    (5, 3): _poly_n(86400, {5: -1, 2: 10, 1: -11}),
    (6, 1): _poly_n(967680, {6: -31, 4: 49, 2: -21, 0: 3}),
    (6, 2): _poly_n(483840, {6: 9, 4: -35, 2: 35, 0: -9}),
    (6, 3): _poly_n(1451520, {6: 55, 4: -98, 2: -35, 0: 78}),
    (6, 4): _poly_n(1451520, {6: -22, 4: 77, 2: -28, 0: -27}),
    (6, 5): _poly_n(967680, {6: -3, 4: 21, 2: -49, 0: 31}),
    (6, 6): _poly_n(2903040, {6: 5, 4: -49, 2: 35, 0: 9}),
}

PRINTED_G_SO_N = {
    (2, 1): _poly_n(96, {2: -1, 1: 3, 0: -2}),
    (3, 1): _poly_n(1152, {3: -1, 2: 5, 1: -8, 0: 4}),  # -(N-2)^2 (N-1)/1152
    (4, 1): _poly_n(92160, {4: 7, 3: -45, 2: 110, 1: -120, 0: 48}),
    (4, 2): _poly_n(92160, {4: -3, 3: 15, 2: -20, 0: 8}),
    (4, 3): _poly_n(92160, {4: -3, 3: 25, 2: -70, 1: 80, 0: -32}),
    (5, 1): _poly_n(5529600, {5: 58, 4: -469, 3: 1455, 2: -2120, 1: 1412, 0: -336}),
    (5, 2): _poly_n(5529600, {5: -22, 4: 141, 3: -295, 2: 180, 1: 92, 0: -96}),
    (5, 3): _poly_n(5529600, {5: -2, 4: 51, 3: -245, 2: 480, 1: -428, 0: 144}),
    (6, 1): _poly_n(61931520, {6: -31, 5: 315, 4: -1358, 3: 3150, 2: -4116, 1: 2856, 0: -816}),
    (6, 2): _poly_n(61931520, {6: 18, 5: -147, 4: 455, 3: -630, 2: 280, 1: 168, 0: -144}),
    (6, 3): _poly_n(928972800, {6: 550, 5: -5768, 4: 23443, 3: -46865, 2: 47740,
                                1: -22652, 0: 3552}),
    (6, 4): _poly_n(928972800, {6: -220, 5: 1757, 4: -5152, 3: 6335, 2: -1540,
                                1: -3052, 0: 1872}),
    (6, 5): _poly_n(61931520, {6: -3, 5: 21, 4: -42, 2: 56, 0: -32}),
    (6, 6): _poly_n(928972800, {6: 25, 5: 112, 4: -1442, 3: 4585, 2: -6860,
                                1: 5068, 0: -1488}),
}

PRINTED_G_SU2 = {
    (2, 1): _poly_a(6, {1: 1}),
    (3, 1): _poly_a(18, {1: 1}),
    (4, 1): _poly_a(360, {2: 7, 1: -1}),
    (4, 2): _poly_a(360, {2: -3, 1: -1}),
    (4, 3): _poly_a(360, {2: 7, 1: 9}),
    (5, 1): _poly_a(1080, {2: 10, 1: -1}),
    (5, 2): _poly_a(1080, {2: -6, 1: -3}),
    (5, 3): _poly_a(1080, {2: 18, 1: 15}),
    # printed as A(155A^2 - 55A^2 + 5)/75600, i.e. A(100A^2+5)/75600; see TYPO_SLOTS
    (6, 1): _poly_a(75600, {3: 100, 1: 5}),
    (6, 2): _poly_a(75600, {3: -90, 2: -20, 1: 5}),
    # printed with an unbalanced parenthesis; the digits themselves are sound
    (6, 3): _poly_a(75600, {3: 260, 2: 358, 1: -9}),
    (6, 4): _poly_a(75600, {3: -90, 2: -342, 1: -184}),
    (6, 5): _poly_a(75600, {3: 15, 2: 15, 1: 5}),
    (6, 6): _poly_a(75600, {3: 155, 2: 1023, 1: 691}),
}

#: slots whose printed source text is suspect; the fit decides them
TYPO_SLOTS = {
    "su_n": {(5, 3)},
    "so_n": set(),
    "su2": {(6, 1), (6, 3)},
}

PRINTED_G_TABLES = {
    "su_n": PRINTED_G_SU_N,
    "so_n": PRINTED_G_SO_N,
    "su2": PRINTED_G_SU2,
}


def printed_g_table(family_name: str) -> dict[tuple[int, int], ExactPoly]:
    return PRINTED_G_TABLES[family_name]
