"""Every public function of ``gcdft`` that takes an integer, and every public
method or constructor of a class in ``gcdft.__all__`` that takes one, refuses
a bool, a float or a string there with :class:`DomainError`, rather than
answering or raising a bare ``TypeError``; so does ``divisor_tuple``. A
cache entry made at an equal numpy int does not answer for a non-integer."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

import gcdft
from gcdft import SIGMA
from gcdft.errors import DomainError
from gcdft.functions import catalog_names, get_function
from gcdft.numtheory import divisor_tuple

NOT_INTEGERS = [True, 12.0, "12", 2.5]
ID_2 = get_function("id_2")

# each called at (n, m) = (12, 5) with one of the two replaced
AT_N_AND_M = {
    "dft_brute_float": lambda n, m: gcdft.dft_brute_float(SIGMA, n, m),
    "dft_closed_form_completely_mult": lambda n, m: gcdft.dft_closed_form_completely_mult(
        ID_2, n, m
    ),
    "dft_closed_form_gcd": gcdft.dft_closed_form_gcd,
    "dft_closed_form_multiplicative": lambda n, m: gcdft.dft_closed_form_multiplicative(
        SIGMA, n, m
    ),
    "dft_dispatch": lambda n, m: gcdft.dft_dispatch(SIGMA, n, m),
    "dft_dispatch(verify=True)": lambda n, m: gcdft.dft_dispatch(SIGMA, n, m, verify=True),
    "dft_exact_convolution": lambda n, m: gcdft.dft_exact_convolution(SIGMA, n, m),
    "gcd": gcdft.gcd,
    "jordan": lambda n, m: gcdft.jordan(m, n),
    "ramanujan_definition": gcdft.ramanujan_definition,
    "ramanujan_kluyver": gcdft.ramanujan_kluyver,
    "ramanujan_von_sterneck": gcdft.ramanujan_von_sterneck,
    "reduce_order": lambda n, m: gcdft.reduce_order(m, n),
}
# each called at n = 12 replaced; the catalog functions are called at n
AT_N = {
    "as_factorization": gcdft.as_factorization,
    "dft_brute_spectrum": lambda n: gcdft.dft_brute_spectrum(SIGMA, n),
    "dirichlet_convolve": lambda n: gcdft.dirichlet_convolve(SIGMA, SIGMA, n),
    "divisors": gcdft.divisors,
    "evaluate": lambda n: gcdft.evaluate(SIGMA, n),
    "factorize": gcdft.factorize,
    "gcd_power_sum": lambda n: gcdft.gcd_power_sum(SIGMA, n),
    "id_power": gcdft.id_power,
    "is_prime": gcdft.is_prime,
    "jordan_function": gcdft.jordan_function,
    "moebius": gcdft.moebius,
    "moebius_invert": lambda n: gcdft.moebius_invert(SIGMA, n),
    "sum_function": lambda n: gcdft.sum_function(SIGMA, n),
    "sum_function_product": lambda n: gcdft.sum_function_product(SIGMA, n),
    "totient": gcdft.totient,
    **{
        name: getattr(gcdft, name)
        for name in ("ID", "LIOUVILLE", "MU", "ONE", "PHI", "SIGMA", "TAU")
    },
}
TAKES_NO_INTEGER = {"catalog_names", "get_function", "sum_function_of"}


def test_every_public_function_is_swept():
    public = {
        name
        for name in gcdft.__all__
        if callable(getattr(gcdft, name)) and not isinstance(getattr(gcdft, name), type)
    }
    swept = {name.split("(")[0] for name in [*AT_N_AND_M, *AT_N]}
    assert public == swept | TAKES_NO_INTEGER


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", list(AT_N_AND_M))
def test_n_and_m_must_be_integers(name, value):
    call = AT_N_AND_M[name]
    call(12, 5)  # answers at integers
    with pytest.raises(DomainError, match="must be an integer"):
        call(value, 5)
    with pytest.raises(DomainError, match="must be an integer"):
        call(12, value)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", list(AT_N))
def test_n_must_be_an_integer(name, value):
    AT_N[name](12)  # answers at an integer
    with pytest.raises(DomainError, match="must be an integer"):
        AT_N[name](value)


# each equal to a numpy int, which a cache keyed on the value alone would
# take for it
EQUAL_TO_A_NUMPY_INT = [12.0, True, Fraction(12)]
ONE_INTEGER = {
    **{f"{name}(n)": lambda v, call=call: call(v, 5) for name, call in AT_N_AND_M.items()},
    **{f"{name}(m)": lambda v, call=call: call(12, v) for name, call in AT_N_AND_M.items()},
    **AT_N,
    "divisor_tuple": divisor_tuple,
}


@pytest.mark.parametrize("value", EQUAL_TO_A_NUMPY_INT, ids=repr)
@pytest.mark.parametrize("name", list(ONE_INTEGER))
def test_a_cached_numpy_int_admits_no_equal_non_integer(cold, name, value):
    ONE_INTEGER[name](np.int64(value))  # answers at a numpy int, and caches it
    with pytest.raises(DomainError, match="must be an integer"):
        ONE_INTEGER[name](value)


# "Class.method" of each public method or constructor that takes an integer:
# __call__ is swept as the catalog instances of AT_N, prime_power below and the
# constructor in test_integer_inputs.py; a DftReport is a result record, built
# by the library from checked values
SWEPT_METHODS = {"ArithmeticFunction.__call__", "ArithmeticFunction.prime_power",
                 "Factorization.__init__"}
EXEMPT_METHODS = {"DftReport.__init__"}


def takes_an_integer(function):
    """Whether a parameter of ``function`` is annotated ``int`` or a union with it."""
    for parameter in inspect.signature(function).parameters.values():
        text = parameter.annotation
        text = text if isinstance(text, str) else inspect.formatannotation(text)
        if "int" in text.replace(" ", "").split("|"):
            return True
    return False


def test_every_public_method_is_swept():
    found = set()
    for name in gcdft.__all__:
        cls = getattr(gcdft, name)
        if not isinstance(cls, type):
            continue
        for attr, member in vars(cls).items():
            method = getattr(member, "__func__", member)
            public = not attr.startswith("_") or attr in ("__init__", "__call__")
            if public and inspect.isfunction(method) and takes_an_integer(method):
                found.add(f"{name}.{attr}")
    assert found == SWEPT_METHODS | EXEMPT_METHODS


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", catalog_names())
def test_p_and_e_must_be_integers(name, value):
    f = get_function(name)
    f.prime_power(2, 3)  # answers at integers
    with pytest.raises(DomainError, match="p must be an integer"):
        f.prime_power(value, 3)
    with pytest.raises(DomainError, match="e must be an integer"):
        f.prime_power(2, value)


@pytest.mark.parametrize("p", [1, 0, -3])
@pytest.mark.parametrize("name", catalog_names())
def test_p_must_be_at_least_two(name, p):
    f = get_function(name)
    for e in (0, 1, 2):
        with pytest.raises(DomainError, match="p must be at least 2"):
            f.prime_power(p, e)
