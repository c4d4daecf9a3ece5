"""Torus knots, their equivalence moves, and canonical representatives.

A torus knot {n, m} needs gcd(|n|, |m|) = 1.  The pairs {n,m}, {m,n},
{-n,-m} and {-m,-n} describe the same knot, while {n,m} and {n,-m} are mirror
images.  |n| = 1 or |m| = 1 gives the unknot.

The one knot check: a TorusKnot holds two ints (anything else, bools included,
raises UnsupportedInput), and validate() adds the nonzero and coprime rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Union

from .errors import NotAKnot, UnsupportedInput


@dataclass(frozen=True)
class TorusKnot:
    n: int
    m: int

    def __post_init__(self):
        if type(self.n) is not int or type(self.m) is not int:
            raise UnsupportedInput(f"({self.n!r}, {self.m!r}): knot indices must be ints")

    def validate(self) -> "TorusKnot":
        if self.n == 0 or self.m == 0 or gcd(abs(self.n), abs(self.m)) != 1:
            raise NotAKnot(f"({self.n}, {self.m}) is not a torus knot (indices must be "
                           "nonzero and coprime)")
        return self

    def oriented(self) -> "TorusKnot":
        """The equivalent knot with n >= 1 (negating both indices if needed)."""
        if self.n >= 1:
            return self
        return TorusKnot(-self.n, -self.m)

    def swapped(self) -> "TorusKnot":
        return TorusKnot(self.m, self.n)

    def mirrored(self) -> "TorusKnot":
        return TorusKnot(self.n, -self.m)

    def is_unknot(self) -> bool:
        return abs(self.n) == 1 or abs(self.m) == 1


class _UnknotType:
    """Distinguished value returned by canonicalize for trivial knots."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unknot"


UNKNOT = _UnknotType()


@dataclass(frozen=True)
class CanonicalTorusKnot:
    """The unique representative with n > |m| >= 2; the sign of m carries chirality."""

    n: int
    m: int

    def __post_init__(self):
        knot = self.as_knot()
        if not (self.n > abs(self.m) >= 2):
            raise ValueError(f"({self.n}, {self.m}) violates n > |m| >= 2")
        knot.validate()

    def as_knot(self) -> TorusKnot:
        return TorusKnot(self.n, self.m)


KnotLike = Union[TorusKnot, CanonicalTorusKnot, tuple]


def as_knot(knot: KnotLike) -> TorusKnot:
    """The TorusKnot of a TorusKnot, a CanonicalTorusKnot or an (n, m) pair."""
    if isinstance(knot, TorusKnot):
        return knot
    if isinstance(knot, CanonicalTorusKnot):
        return knot.as_knot()
    try:
        n, m = knot
    except (TypeError, ValueError):
        raise UnsupportedInput(f"{knot!r} is not a torus knot (give a TorusKnot or a "
                               "pair of ints)") from None
    return TorusKnot(n, m)


def canonicalize(n: int, m: int) -> Union[CanonicalTorusKnot, _UnknotType]:
    """Deterministic representative of the knot class of (n, m).

    Nonzero coprime input is required.  The unknot (|n| = 1 or |m| = 1) maps
    to the UNKNOT sentinel.
    """
    if TorusKnot(n, m).validate().is_unknot():
        return UNKNOT
    if abs(n) < abs(m):
        n, m = m, n
    if n < 0:
        n, m = -n, -m
    return CanonicalTorusKnot(n, m)


def check_int(name: str, value) -> None:
    """The type rule of a count or a bound: an int, not a bool."""
    if type(value) is not int:
        raise UnsupportedInput(f"{name} must be an int (got {value!r})")


def canonical_ms(max_n: int, chirality: bool = True) -> Iterator[tuple[int, list[int]]]:
    """(n, ms) for each n in 3..max_n, with ms the m of every canonical torus
    knot (n, m), in the order canonical_knots yields them: m ascending from
    2, each followed by its mirror -m when chirality is True.  This is the
    one definition of that order; the per-n scans evaluate a whole ms at once.
    """
    check_int("max_n", max_n)
    for n in range(3, max_n + 1):
        ms = [m for m in range(2, n) if gcd(n, m) == 1]
        yield n, [s for m in ms for s in (m, -m)] if chirality else ms


def canonical_knots(max_n: int, chirality: bool = True) -> Iterator[CanonicalTorusKnot]:
    """All canonical torus knots with n <= max_n, ordered deterministically
    (canonical_ms gives the order).

    With chirality=True both (n, m) and its mirror (n, -m) are yielded.  A
    max_n that is not an int raises UnsupportedInput before the first knot.
    """
    for n, ms in canonical_ms(max_n, chirality):
        for m in ms:
            yield CanonicalTorusKnot(n, m)
