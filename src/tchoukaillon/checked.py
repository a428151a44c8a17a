"""The one input check: exact non-negative integers within 128 bits.

Stone counts, bin counts, sizes, indices and vertex labels are exact
integers, and the library promises a 128-bit unsigned range.  Every
public entry point passes such a value through :func:`as_uint` once;
objects the library derives itself are built without re-checking.
Results that could leave the range (periods, minimum stone counts) go
through the same check, so they raise OverflowError instead of
silently growing.

The library's value classes derive from :class:`_Frozen`, which gives
them equality, hashing, a repr, immutability and pickling from their
fields.
"""

from __future__ import annotations

UINT128_MAX = 2**128 - 1


def as_uint(value: object, what: str) -> int:
    """Return *value* if it is an int in [0, 2^128 - 1].

    Raises ValueError, naming *what*, for anything but an ``int``
    (``bool``, float, str and None included) and for a negative value;
    raises OverflowError above 2^128 - 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__} {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value > UINT128_MAX:
        raise OverflowError(f"{what} exceeds the 128-bit limit ({value} > {UINT128_MAX})")
    return value


class _Frozen:
    """Immutable value built from its fields, named in ``__match_args__``.

    A subclass declares ``__slots__`` (its fields, then anything derived
    from them) and an ``__init__`` that checks its arguments and stores
    each slot once through ``object.__setattr__``.  Equality, hashing and
    the repr use the fields in order; instances of different classes are
    never equal.  Assignment and deletion raise AttributeError.  Pickle
    and copy rebuild the value through the constructor, which checks the
    fields again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()
