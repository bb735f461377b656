"""Factorization, primality and the Factorization constructor take ints
only: a float, a bool or a string raises DomainError, so no float reaches an
exact result."""

import pytest

from gcdft.errors import DomainError
from gcdft.numtheory import (
    Factorization,
    divisor_tuple,
    divisors,
    factorize,
    is_prime,
    totient,
)


@pytest.mark.parametrize(
    "call, args",
    [
        (factorize, (True,)),
        (factorize, (12.0,)),
        (factorize, ("12",)),
        (is_prime, (7.0,)),
        (is_prime, (True,)),
        (divisor_tuple, (12.0,)),
        (divisors, (12.0,)),
        (totient, (12.0,)),
        (Factorization, (12, ((2.0, 2), (3, 1)))),
        (Factorization, (12, ((2, 2.0), (3, 1)))),
        (Factorization, (12.0, ((2, 2), (3, 1)))),
        (Factorization, (True, ())),
    ],
)
def test_non_integers_are_domain_errors(call, args):
    with pytest.raises(DomainError, match="must be an integer"):
        call(*args)
    assert factorize(12) == Factorization(12, ((2, 2), (3, 1)))
    assert factorize(1) == Factorization(1, ())
    assert is_prime(7) and not is_prime(True + 0)
    assert factorize.cache_info().maxsize is not None
    assert factorize.__wrapped__(12) == factorize(12)
