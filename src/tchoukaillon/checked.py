"""The one input check: exact non-negative integers within 128 bits.

Stone counts, bin counts, sizes, indices and vertex labels are exact
integers, and the library promises a 128-bit unsigned range.  Every
public entry point passes such a value through :func:`as_uint` once;
objects the library derives itself are built without re-checking.
Results that could leave the range (periods, minimum stone counts) go
through the same check, so they raise OverflowError instead of
silently growing.
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
