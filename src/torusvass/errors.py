"""Exception types shared across the package."""

from __future__ import annotations


class TorusVassError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZeroSeries(TorusVassError, ZeroDivisionError):
    """Series division by a denominator whose stored coefficients are all zero."""


class TruncationUnderflow(TorusVassError, ArithmeticError):
    """A series result is not reliable through the degree it must reach.

    Its operands were computed to too few terms.
    """


class DegreeExceeded(TorusVassError, ValueError):
    """Interpolation samples, or a closed-form row, exceed the degree asked for."""


class NotAKnot(TorusVassError, ValueError):
    """A pair (n, m) with n, m not coprime (or zero) is a link, not a torus knot."""


class UnsupportedInput(TorusVassError, ValueError):
    """An argument lies outside its documented range."""


class CancellationFailure(TorusVassError, ArithmeticError):
    """A pole that should cancel algebraically survived into a series result."""


class SingularBracket(TorusVassError, ArithmeticError):
    """A quantum bracket with identically vanishing leading coefficient was requested."""


class RankDeficient(TorusVassError, ArithmeticError):
    """The linear system at some order has too few independent equations."""

    def __init__(self, order: int, rank: int, unknowns: int):
        self.order = order
        self.rank = rank
        self.unknowns = unknowns
        super().__init__(
            f"order {order}: rank {rank} < {unknowns} unknowns; "
            "the instantiation plan does not span the slot space"
        )


class Inconsistent(TorusVassError, ArithmeticError):
    """The overdetermined linear system at some order has no solution."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(
            f"order {order}: surplus equations are inconsistent "
            "(signals a formula or convention bug)"
        )


class AnsatzMismatch(TorusVassError, ArithmeticError):
    """A Taylor coefficient does not fit the symmetric-polynomial ansatz."""
