"""Torus knots, their equivalence moves, and canonical representatives.

A torus knot {n, m} needs gcd(|n|, |m|) = 1.  The pairs {n,m}, {m,n},
{-n,-m} and {-m,-n} describe the same knot, while {n,m} and {n,-m} are mirror
images.  |n| = 1 or |m| = 1 gives the unknot.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Union

from .errors import NotAKnot


@dataclass(frozen=True)
class TorusKnot:
    n: int
    m: int

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


def as_knot(knot: Union[TorusKnot, tuple[int, int]]) -> TorusKnot:
    if isinstance(knot, TorusKnot):
        return knot
    n, m = knot
    return TorusKnot(int(n), int(m))


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
        if not (self.n > abs(self.m) >= 2):
            raise ValueError(f"({self.n}, {self.m}) violates n > |m| >= 2")
        self.as_knot().validate()

    def as_knot(self) -> TorusKnot:
        return TorusKnot(self.n, self.m)


def canonicalize(n: int, m: int) -> Union[CanonicalTorusKnot, _UnknotType]:
    """Deterministic representative of the knot class of (n, m).

    Nonzero coprime input is required.  The unknot (|n| = 1 or |m| = 1) maps
    to the UNKNOT sentinel.
    """
    TorusKnot(n, m).validate()
    if abs(n) == 1 or abs(m) == 1:
        return UNKNOT
    if abs(n) < abs(m):
        n, m = m, n
    if n < 0:
        n, m = -n, -m
    return CanonicalTorusKnot(n, m)


def canonical_knots(max_n: int, chirality: bool = True) -> Iterator[CanonicalTorusKnot]:
    """All canonical torus knots with n <= max_n, ordered deterministically.

    With chirality=True both (n, m) and its mirror (n, -m) are yielded.
    """
    for n in range(3, max_n + 1):
        for m in range(2, n):
            if gcd(n, m) != 1:
                continue
            yield CanonicalTorusKnot(n, m)
            if chirality:
                yield CanonicalTorusKnot(n, -m)
