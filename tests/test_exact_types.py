"""Every exact path returns a plain ``int`` when its value is integral and a
``Fraction`` only when it is not, for rational-valued f too."""

from fractions import Fraction

import pytest

from gcdft import transform
from gcdft.errors import OracleScaleError
from gcdft.functions import (
    MU,
    ArithmeticFunction,
    dirichlet_convolve,
    id_power,
    moebius_invert,
    sum_function,
    sum_function_product,
)
from gcdft.transform import dft_closed_form_multiplicative, dft_exact_convolution

# a multiplicative rational f, with values of both signs and zeros
RATIONAL_MULTIPLICATIVE = ArithmeticFunction.multiplicative(
    "rational-multiplicative", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
)
N_MAX = 300


def assert_exact_type(value, where):
    integral = Fraction(value).denominator == 1
    assert type(value) is (int if integral else Fraction), where


@pytest.mark.parametrize("f", [id_power(-1), RATIONAL_MULTIPLICATIVE], ids=lambda f: f.name)
class TestIntegralValuesAreInts:
    def test_transform_paths(self, f):
        for n in range(1, N_MAX + 1):
            for m in range(1, n + 1):
                for path in (dft_exact_convolution, dft_closed_form_multiplicative):
                    assert_exact_type(path(f, n, m), (path.__name__, n, m))

    def test_divisor_sums(self, f):
        for n in range(1, N_MAX + 1):
            for path in (sum_function, sum_function_product, moebius_invert):
                assert_exact_type(path(f, n), (path.__name__, n))
            for g in (f, MU):
                assert_exact_type(dirichlet_convolve(f, g, n), ("dirichlet_convolve", g.name, n))

    def test_convolution_over_the_class_lattice(self, f, monkeypatch):
        # the walk over every divisor refuses at every n, as it does past the
        # limit, so the convolution walks the class's own terms
        def refuse(*args):
            raise OracleScaleError("the walk over every divisor is refused")

        monkeypatch.setattr(transform, "_divisor_values", refuse)
        for n in range(1, 121):
            for m in range(1, n + 1):
                value = dft_exact_convolution(f, n, m)
                assert value == dft_closed_form_multiplicative(f, n, m)
                assert_exact_type(value, (n, m))
