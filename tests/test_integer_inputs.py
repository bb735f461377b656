"""Factorization, primality, the Factorization constructor and a general
f's table take ints only: a float, a bool or a string raises DomainError, so
no float reaches an exact result."""

from fractions import Fraction

import pytest

from gcdft.errors import DomainError
from gcdft.functions import ArithmeticFunction, evaluate
from gcdft.numtheory import Factorization, divisor_tuple, factorize, is_prime


# the public functions are swept in test_typed_boundary.py; these ids are the
# positions the cases had among them
@pytest.mark.parametrize(
    "call, args",
    [
        (divisor_tuple, (12.0,)),
        (Factorization, (12, ((2.0, 2), (3, 1)))),
        (Factorization, (12, ((2, 2.0), (3, 1)))),
        (Factorization, (12.0, ((2, 2), (3, 1)))),
        (Factorization, (True, ())),
    ],
    ids=["divisor_tuple-args5", *(f"Factorization-args{i}" for i in range(8, 12))],
)
def test_non_integers_are_domain_errors(call, args):
    with pytest.raises(DomainError, match="must be an integer"):
        call(*args)


def test_the_checked_functions_answer_at_integers():
    assert factorize(12) == Factorization(12, ((2, 2), (3, 1)))
    assert factorize(1) == Factorization(1, ())
    assert is_prime(7) and not is_prime(True + 0)
    assert factorize.cache_info().maxsize is not None
    assert factorize.__wrapped__(12) == factorize(12)


@pytest.mark.parametrize("n", [12.5, Fraction(25, 2), 12.0, True, "12"])
def test_a_general_table_is_read_at_integers_only(n):
    f = ArithmeticFunction.from_table("general", {1: 3, 12: 5})
    with pytest.raises(DomainError, match="must be an integer"):
        evaluate(f, n)
    assert evaluate(f, 12) == f(12) == evaluate(f, factorize(12)) == 5
