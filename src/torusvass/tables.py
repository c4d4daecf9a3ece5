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

Each closed-form primitive is one integer row: its prefactor kind (P, nm P,
or 1 for the even-order alpha forms), a numerator polynomial in u = n^2,
v = m^2, and its denominators; alpha_tilde and beta share the numerators.
primitive_numerators evaluates the rows in integers: the tables build one
Fraction per primitive from it, and the analysis scans read it directly.

Three printed g entries are typos in the source tables (marked below); the
exact ansatz fit is authoritative for those slots and the corrected forms are
stored alongside the printed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .groups import ALL_SLOTS, COMPOUND_RULES
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


@dataclass(frozen=True)
class InvariantTable:
    """Entries (order, slot) -> value for orders 2..6."""

    kind: str  # "alpha_tilde" | "alpha" | "beta"
    knot: TorusKnot
    entries: dict

    def value(self, order: int, slot: int) -> Fraction:
        return self.entries[(order, slot)]

    def through_order(self, order: int) -> dict:
        return {k: v for k, v in self.entries.items() if k[0] <= order}


def _with_compounds(primitives: dict, scale: dict | None = None) -> dict:
    """Fill the product-decomposable slots from the primitive ones.

    scale maps a compound slot to the coefficient in front of the product
    (1/2 and 1/6 for the symmetric powers of alpha-like tables); beta has
    none.
    """
    entries = dict(primitives)
    for slot, rule in COMPOUND_RULES.items():
        entries[slot] = rule(primitives) * scale[slot] if scale else rule(primitives)
    return {s: entries[s] for s in ALL_SLOTS}


_ALPHA_LIKE_SCALE = {
    (4, 1): Fraction(1, 2), (5, 1): Fraction(1), (6, 1): Fraction(1, 6),
    (6, 2): Fraction(1, 2), (6, 3): Fraction(1), (6, 4): Fraction(1),
}


def _prefactors(n: int, m: int) -> dict[str, int]:
    """Each prefactor kind: "P" = (n^2-1)(m^2-1), "nmP" = nm P, and "1"."""
    p = (n * n - 1) * (m * m - 1)
    return {"1": 1, "P": p, "nmP": n * m * p}


class _Row(NamedTuple):
    """prefactor * numerator(n^2, m^2) / den; beta_den is the printed
    denominator of the beta value of the same numerator (alpha rows have none)."""

    prefactor: str
    numerator: Callable[[int, int], int]
    den: int
    beta_den: int | None = None


#: alpha_tilde and beta share these numerators.  The order-4 slot 2 entry is
#: taken in its n <-> m symmetric form 9 n^2 m^2 (the sole reading consistent
#: with the beta table and the trefoil normalizer 31).
_TILDE_ROWS = {
    (2, 1): _Row("P", lambda u, v: 1, 6, 24),
    (3, 1): _Row("nmP", lambda u, v: 1, 18, 144),
    (4, 2): _Row("P", lambda u, v: 9 * u * v - u - v - 1, 360, 240),
    (4, 3): _Row("P", lambda u, v: (u + 1) * (v + 1), 360, 240),
    (5, 2): _Row("nmP", lambda u, v: 69 * u * v - 21 * (u + v) - 11, 5400, 28800),
    (5, 3): _Row("nmP", lambda u, v: 11 * u * v + u + v - 9, 5400, 57600),
    (5, 4): _Row("nmP", lambda u, v: (u + 1) * (v + 1), 900, 7200),
    (6, 5): _Row("P", lambda u, v: (516 * u * u * v * v - 289 * (u * v * v + u * u * v)
                 - 44 * u * v + 5 * (u * u + v * v) + 5 * (u + v) + 5), 75600, 2520),
    (6, 6): _Row("P", lambda u, v: (53 * u * u * v * v - 101 * (u * v * v + u * u * v)
                 - 115 * u * v - 24 * (u * u + v * v) - 24 * (u + v) - 24), 90720, 12096),
    (6, 7): _Row("P", lambda u, v: (419 * u * u * v * v + 209 * (u * v * v + u * u * v)
                 - u * v + 20 * (u * u + v * v) + 20 * (u + v) + 20), 226800, 10080),
    (6, 8): _Row("P", lambda u, v: (13 * u * u * v * v + 13 * (u * v * v + u * u * v)
                 + 13 * u * v - 50 * (u * u + v * v) - 50 * (u + v) - 50), 453600, 25200),
    (6, 9): _Row("P", lambda u, v: (31 * u * u * v * v + 31 * (u * v * v + u * u * v)
                 + 31 * u * v + 10 * (u * u + v * v) + 10 * (u + v) + 10), 151200, 5040),
}

#: alpha: odd orders coincide with alpha_tilde (the unknot factor is even in
#: x); the even-order primitives have their own closed forms
_ALPHA_ROWS = {
    **{slot: row for slot, row in _TILDE_ROWS.items() if slot[0] % 2},
    (2, 1): _Row("1", lambda u, v: u * v - u - v, 6),
    (4, 2): _Row("1", lambda u, v: (9 * u**2 * v**2 - 10 * (u * v**2 + u**2 * v)
                 + (u**2 + v**2) + 10 * u * v), 360),
    (4, 3): _Row("1", lambda u, v: u**2 * v**2 - u**2 - v**2, 360),
    (6, 5): _Row("1", lambda u, v: (516 * u**3 * v**3 - 805 * (u**2 * v**3 + u**3 * v**2)
                 + 1050 * u**2 * v**2 + 294 * (u * v**3 + u**3 * v)
                 - 245 * (u * v**2 + u**2 * v) - 5 * (u**3 + v**3) - 49 * u * v), 75600),
    (6, 6): _Row("1", lambda u, v: (53 * u**3 * v**3 - 154 * (u**2 * v**3 + u**3 * v**2)
                 + 140 * u**2 * v**2 + 77 * (u * v**3 + u**3 * v)
                 + 14 * (u * v**2 + u**2 * v) + 24 * (u**3 + v**3) - 91 * u * v), 90720),
    (6, 7): _Row("1", lambda u, v: (419 * u**3 * v**3 - 210 * (u**2 * v**3 + u**3 * v**2)
                 - 189 * (u * v**3 + u**3 * v) + 210 * (u * v**2 + u**2 * v)
                 - 20 * (u**3 + v**3) - 21 * u * v), 226800),
    (6, 8): _Row("1", lambda u, v: (13 * u**3 * v**3 - 63 * (u * v**3 + u**3 * v)
                 + 50 * (u**3 + v**3) + 63 * u * v), 453600),
    (6, 9): _Row("1", lambda u, v: (31 * u**3 * v**3 - 21 * (u * v**3 + u**3 * v)
                 - 10 * (u**3 + v**3) + 21 * u * v), 151200),
}


def primitive_numerators(n: int, m: int, rows: dict = _TILDE_ROWS,
                         slots: tuple = PRIMITIVE_ORDER) -> tuple[int, ...]:
    """Each slot's row in integers: prefactor * numerator(n^2, m^2).

    The slot's value is this over the row's den (its beta_den in the beta
    table); the default rows are the numerators alpha_tilde and beta share.
    Coprimality is not required.
    """
    u, v = n * n, m * m
    prefactors = _prefactors(n, m)
    return tuple([prefactors[rows[slot].prefactor] * rows[slot].numerator(u, v)
                  for slot in slots])


#: the denominator of each primitive beta, over its primitive_numerators
BETA_DENOMINATORS = {slot: row.beta_den for slot, row in _TILDE_ROWS.items()}


def _closed_form(kind: str, knot: KnotLike, rows: dict) -> InvariantTable:
    """One Fraction per primitive, over the integer rows."""
    k = as_knot(knot)
    beta = kind == "beta"
    prim = {
        slot: Fraction(num, rows[slot].beta_den if beta else rows[slot].den)
        for slot, num in zip(PRIMITIVE_ORDER, primitive_numerators(k.n, k.m, rows))
    }
    return InvariantTable(kind, k, _with_compounds(prim, None if beta else _ALPHA_LIKE_SCALE))


def closed_form_alpha_tilde(knot: KnotLike) -> InvariantTable:
    """The seventeen-polynomial table for the normalized expansion."""
    return _closed_form("alpha_tilde", knot, _TILDE_ROWS)


def closed_form_alpha(knot: KnotLike) -> InvariantTable:
    """The unnormalized-expansion table; compounds are the usual products."""
    return _closed_form("alpha", knot, _ALPHA_ROWS)


def closed_form_beta(knot: KnotLike) -> InvariantTable:
    """The trefoil-normalized table; integer-valued on coprime (n, m)."""
    return _closed_form("beta", knot, _TILDE_ROWS)


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
    return InvariantTable("beta", table.knot, _with_compounds(prim))


# ----------------------------------------------------------------------
# Taylor-coefficient ansatz: prefactors and slot monomials
# ----------------------------------------------------------------------

ANSATZ_SLOT_MONOMIALS = {
    2: (lambda u, v: Fraction(1),),
    3: (lambda u, v: Fraction(1),),
    4: (lambda u, v: Fraction(1), lambda u, v: u + v, lambda u, v: u * v),
    5: (lambda u, v: Fraction(1), lambda u, v: u + v, lambda u, v: u * v),
    6: (lambda u, v: Fraction(1), lambda u, v: u + v, lambda u, v: u * v,
        lambda u, v: u * u * v + u * v * v, lambda u, v: u * u + v * v,
        lambda u, v: u * u * v * v),
}


def ansatz_prefactor(n: int, m: int, order: int) -> int:
    """(n^2-1)(m^2-1) at even orders, times nm at odd orders."""
    return _prefactors(n, m)["P" if order % 2 == 0 else "nmP"]


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
