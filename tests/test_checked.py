import pytest

from tchoukaillon import UINT128_MAX
from tchoukaillon.checked import as_uint


@pytest.mark.parametrize("value", [0, 1, 17, UINT128_MAX])
def test_accepts_uint128(value):
    assert as_uint(value, "stone count") == value


@pytest.mark.parametrize("value", [True, False, 1.0, 1.7, "1", None, [1], -1, -(2**130)])
def test_rejects_non_uint_and_names_the_field(value):
    with pytest.raises(ValueError, match="stone count"):
        as_uint(value, "stone count")


def test_overflow_above_128_bits():
    with pytest.raises(OverflowError, match="stone count"):
        as_uint(UINT128_MAX + 1, "stone count")
