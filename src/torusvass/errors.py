"""Exception types shared across the package, and the base of its records."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A record of named fields that compares and prints as a dataclass does.

    A subclass names its two or more fields, in the order its __init__
    takes them, in _fields, and holds them in __slots__.  Records are equal
    when they are of one class and their fields are equal, and the repr is
    Name(field=value!r, ...).  A Record is mutable, so it is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # one C-level read of every field, in _fields order
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild a record by calling its class with its fields
        return type(self), self._values(self)


class FrozenRecord(Record):
    """A Record whose fields are set once, by its __init__, which ends by
    setting _key, the tuple of the fields in _fields order.  It hashes and
    compares by _key: knots and groups key the package's caches, and one
    stored tuple hashes and compares faster than the fields read one by one.
    Setting or deleting an attribute raises dataclasses.FrozenInstanceError,
    and only that path imports dataclasses.
    """

    __slots__ = ("_key",)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


#: how a FrozenRecord's __init__ sets each field and then _key, past its
#: __setattr__ (TorusKnot and GroupInstance, made on hot paths, set their
#: fields through their own slots' setters, which are faster still)
set_field = object.__setattr__
set_key = FrozenRecord._key.__set__


class TorusVassError(Exception):
    """Base class for every error raised by this package."""


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
