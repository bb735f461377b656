"""Each test ends by emptying ``functions._divisor_values``. A test that
faults the divisor-lattice walk empties the caches it names; f's divisor
values built under the fault must not reach the next test either."""

import pytest

from gcdft.functions import _divisor_values


@pytest.fixture(autouse=True)
def _forget_divisor_values():
    yield
    _divisor_values.cache_clear()
