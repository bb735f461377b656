"""Arithmetic-function algebra: evaluation, convolution, sum functions and
Moebius inversion, checked against divisor-sum oracles."""

from fractions import Fraction

import pytest

from gcdft.errors import DomainError, UndefinedValueError
from gcdft.functions import (
    ID,
    LIOUVILLE,
    MU,
    ONE,
    PHI,
    SIGMA,
    TAU,
    ArithmeticFunction,
    Kind,
    as_exact,
    catalog_names,
    dirichlet_convolve,
    evaluate,
    get_function,
    id_power,
    jordan_function,
    moebius_invert,
    sum_function,
    sum_function_of,
    sum_function_product,
)
from gcdft.numtheory import divisors, factorize, jordan, moebius, totient

CATALOG = [ONE, ID, id_power(2), id_power(3), PHI, MU, TAU, SIGMA, LIOUVILLE,
           jordan_function(2)]
MULTIPLICATIVE_SMALL = [PHI, MU, TAU, SIGMA, jordan_function(2)]


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def brute_tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def brute_liouville(n):
    count = 0
    d, value = 2, n
    while d * d <= value:
        while value % d == 0:
            count += 1
            value //= d
        d += 1
    if value > 1:
        count += 1
    return (-1) ** count


class TestEvaluate:
    def test_identity(self):
        assert evaluate(ID, 12) == 12

    def test_complete_multiplicativity(self):
        assert evaluate(id_power(2), 6) == 36
        f = id_power(3)
        for p in (2, 3, 5):
            for e in range(1, 5):
                assert f.prime_power(p, e) == f.prime_power(p, 1) ** e

    def test_phi_matches_totient(self):
        assert evaluate(PHI, 12) == 4
        for n in range(1, 2001):
            assert evaluate(PHI, n) == totient(n)

    def test_value_at_one(self):
        for f in CATALOG:
            assert evaluate(f, 1) == 1

    def test_multiplicative_prime_power_product(self):
        for f in CATALOG:
            for n in (12, 360, 1001):
                fac = factorize(n)
                product = Fraction(1)
                for p, s in fac.factors:
                    product *= f.prime_power(p, s)
                assert evaluate(f, n) == product

    def test_catalog_against_brute(self):
        for n in range(1, 301):
            assert evaluate(TAU, n) == brute_tau(n)
            assert evaluate(SIGMA, n) == brute_sigma(n)
            assert evaluate(LIOUVILLE, n) == brute_liouville(n)
            assert evaluate(MU, n) == moebius(n)

    def test_general_function_table(self):
        f = ArithmeticFunction.from_table("sample", {1: 1, 2: Fraction(1, 2)})
        assert evaluate(f, 2) == Fraction(1, 2)
        with pytest.raises(UndefinedValueError):
            evaluate(f, 3)

    def test_rational_valued_function(self):
        f = id_power(-1)
        assert not f.integer_valued
        assert evaluate(f, 12) == Fraction(1, 12)


class TestExactValues:
    def test_integer_valued_functions_give_ints(self):
        assert type(evaluate(SIGMA, 12)) is int and evaluate(SIGMA, 12) == 28
        assert type(SIGMA.prime_power(2, 0)) is int
        for name in catalog_names():
            f = get_function(name)
            assert all(type(evaluate(f, n)) is int for n in range(1, 200)), name

    def test_rational_values_stay_fractions(self):
        f = id_power(-1)
        assert all(type(evaluate(f, n)) is Fraction for n in range(2, 200))
        half = ArithmeticFunction.completely_multiplicative("half", lambda p: Fraction(1, 2))
        assert half.prime_power(2, 3) == Fraction(1, 8)
        assert evaluate(half, 12) == Fraction(1, 8)

    def test_integral_products_of_fractions_are_ints(self):
        f = ArithmeticFunction.multiplicative(
            "swap", lambda p, e: Fraction(1, 2) if p == 2 else 2, integer_valued=False
        )
        assert type(evaluate(f, 6)) is int and evaluate(f, 6) == 1
        g = ArithmeticFunction.from_table("g", {1: Fraction(4, 2), 2: Fraction(1, 3)})
        assert type(evaluate(g, 1)) is int and evaluate(g, 1) == 2
        assert evaluate(g, 2) == Fraction(1, 3)

    def test_as_exact(self):
        assert type(as_exact(Fraction(6, 3))) is int and as_exact(Fraction(6, 3)) == 2
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)
        assert as_exact(-7) == -7
        for bad in (0.5, 2.0, "3", None, complex(1, 0)):
            with pytest.raises(DomainError):
                as_exact(bad)

    def test_float_from_a_rule_is_rejected(self):
        f = ArithmeticFunction.multiplicative("t", lambda p, e: 0.1)
        with pytest.raises(DomainError):
            f(2)
        g = ArithmeticFunction.completely_multiplicative("t", lambda p: 0.5)
        with pytest.raises(DomainError):
            g(4)
        with pytest.raises(DomainError):
            g.prime_power(3, 1)

    def test_float_from_a_table_is_rejected(self):
        with pytest.raises(DomainError):
            ArithmeticFunction.from_table("t", {1: 1, 2: 0.5})
        with pytest.raises(DomainError):
            ArithmeticFunction.from_table("t", {1: 1.0})


class TestConstructor:
    """Each kind takes only the rule it reads, and a table maps integers >= 1."""

    @pytest.mark.parametrize("kind", ["general", "multiplicative", None], ids=repr)
    def test_a_kind_that_is_not_a_kind_is_a_domain_error(self, kind):
        with pytest.raises(DomainError, match="must be a Kind"):
            ArithmeticFunction("x", kind, prime_power_rule=lambda p, e: e + 1)
        with pytest.raises(DomainError, match="must be a Kind"):
            ArithmeticFunction("x", kind, direct_rule={1: 1})

    @pytest.mark.parametrize("kind", [Kind.MULTIPLICATIVE, Kind.COMPLETELY_MULTIPLICATIVE])
    def test_a_multiplicative_kind_takes_no_table(self, kind):
        with pytest.raises(DomainError, match="no table"):
            ArithmeticFunction("x", kind, prime_power_rule=lambda p, e: e + 1, direct_rule={2: 5})

    def test_a_general_kind_takes_no_rule(self):
        with pytest.raises(DomainError, match="no rule"):
            ArithmeticFunction(
                "x", Kind.GENERAL, prime_power_rule=lambda p, e: e + 1, direct_rule={2: 5}
            )

    @pytest.mark.parametrize("table", [[1, 2, 3], (1, 2), {1, 2}], ids=repr)
    def test_a_table_that_is_not_a_mapping_is_a_domain_error(self, table):
        with pytest.raises(DomainError, match="mapping"):
            ArithmeticFunction.from_table("x", table)

    @pytest.mark.parametrize("key", [2.0, True, 0, -6, "x", 2.5], ids=repr)
    def test_a_table_key_below_one_or_not_an_integer_is_a_domain_error(self, key):
        with pytest.raises(DomainError, match="table key"):
            ArithmeticFunction.from_table("x", {key: 5})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArithmeticFunction.multiplicative("x", 5),
            lambda: ArithmeticFunction.completely_multiplicative("x", 5),
            lambda: ArithmeticFunction("x", Kind.MULTIPLICATIVE, prime_power_rule="p ** e"),
        ],
        ids=["multiplicative", "completely-multiplicative", "constructor"],
    )
    def test_a_rule_that_is_not_callable_is_a_domain_error(self, build):
        with pytest.raises(DomainError, match="must be callable"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArithmeticFunction(5, Kind.MULTIPLICATIVE, prime_power_rule=lambda p, e: 1),
            lambda: ArithmeticFunction.completely_multiplicative(None, lambda p: p),
            lambda: ArithmeticFunction.from_table(b"x", {1: 1}),
        ],
        ids=["int", "None", "bytes"],
    )
    def test_a_name_that_is_not_a_string_is_a_domain_error(self, build):
        with pytest.raises(DomainError, match="must be a string"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArithmeticFunction.multiplicative("x", lambda p, e: 1, integer_valued="no"),
            lambda: ArithmeticFunction.completely_multiplicative("x", lambda p: p, integer_valued=1),
            lambda: ArithmeticFunction.from_table("x", {1: 1}, integer_valued=None),
        ],
        ids=["str", "int", "None"],
    )
    def test_an_integer_valued_flag_that_is_not_a_bool_is_a_domain_error(self, build):
        with pytest.raises(DomainError, match="integer_valued must be a bool"):
            build()


class TestCatalog:
    def test_required_names_present(self):
        for name in ("1", "id", "id_2", "phi", "mu", "J_2", "tau", "sigma", "lambda"):
            get_function(name)

    def test_kinds(self):
        assert ONE.kind is Kind.COMPLETELY_MULTIPLICATIVE
        assert ID.kind is Kind.COMPLETELY_MULTIPLICATIVE
        assert LIOUVILLE.kind is Kind.COMPLETELY_MULTIPLICATIVE
        assert id_power(4).kind is Kind.COMPLETELY_MULTIPLICATIVE
        assert PHI.kind is Kind.MULTIPLICATIVE
        assert MU.kind is Kind.MULTIPLICATIVE
        assert TAU.kind is Kind.MULTIPLICATIVE
        assert SIGMA.kind is Kind.MULTIPLICATIVE
        assert jordan_function(3).kind is Kind.MULTIPLICATIVE

    def test_parametrized_names(self):
        assert evaluate(get_function("id_0"), 9) == 1
        assert evaluate(get_function("id_3"), 2) == 8
        assert evaluate(get_function("J_3"), 4) == jordan(3, 4)

    def test_unknown_name(self):
        # a parameter is ASCII digits alone: no other decimal digit, no trailing newline
        for name in ("zeta", "id_\u0663", "J_\u0663", "id_-\u0663", "id_3\n", "J_3\n"):
            with pytest.raises(UndefinedValueError):
                get_function(name)

    @pytest.mark.parametrize("name", [12, None, b"id_2", 1.5], ids=repr)
    def test_a_name_that_is_not_a_string_is_a_domain_error(self, name):
        with pytest.raises(DomainError, match="must be a string"):
            get_function(name)

    @pytest.mark.parametrize("prefix", ["id_", "id_-", "J_"])
    def test_a_parameter_past_the_int_digit_limit_is_a_domain_error(self, prefix):
        with pytest.raises(DomainError, match="4301 digits"):
            get_function(prefix + "9" * 4301)

    def test_names_listing_resolves(self):
        for name in catalog_names():
            get_function(name)


class TestDirichletConvolve:
    def test_id_mu_is_totient(self):
        assert dirichlet_convolve(ID, MU, 12) == 4
        for n in range(1, 501):
            assert dirichlet_convolve(ID, MU, n) == totient(n)

    def test_single_divisor(self):
        assert dirichlet_convolve(TAU, SIGMA, 1) == 1

    def test_id2_mu_is_jordan(self):
        assert dirichlet_convolve(id_power(2), MU, 6) == 24
        for k in (1, 2, 3):
            f = id_power(k)
            for n in range(1, 1001):
                assert dirichlet_convolve(f, MU, n) == jordan(k, n)

    def test_matches_brute_divisor_sum(self):
        for n in range(1, 201):
            expected = sum(
                evaluate(PHI, n // d) * evaluate(TAU, d) for d in divisors(n)
            )
            assert dirichlet_convolve(PHI, TAU, n) == expected


class TestSumFunction:
    def test_phi_sums_to_n(self):
        assert sum_function(PHI, 12) == 12
        for n in range(1, 2001):
            assert sum_function(PHI, n) == n

    def test_at_one(self):
        for f in CATALOG:
            assert sum_function(f, 1) == 1

    def test_geometric_prime_power(self):
        assert sum_function(ID, 8) == 1 + 2 + 4 + 8 == 15

    def test_divisor_sum_equals_product_path(self):
        for f in CATALOG:
            for n in range(1, 2001):
                assert sum_function(f, n) == sum_function_product(f, n)

    def test_product_path_rejects_general(self):
        f = ArithmeticFunction.from_table("t", {1: 1})
        with pytest.raises(DomainError):
            sum_function_product(f, 2)


class TestMoebiusInvert:
    def test_recovers_totient_from_id(self):
        # id is the sum function of phi
        assert moebius_invert(ID, 12) == 4
        for n in range(1, 501):
            assert moebius_invert(ID, n) == totient(n)

    def test_empty_product(self):
        for f in CATALOG:
            assert moebius_invert(f, 1) == 1

    def test_id2_gives_jordan(self):
        assert moebius_invert(id_power(2), 6) == 3 * 8 == 24
        assert moebius_invert(id_power(2), 6) == dirichlet_convolve(id_power(2), MU, 6)

    def test_equals_mu_convolution(self):
        for f in CATALOG:
            for n in range(1, 2001):
                assert moebius_invert(f, n) == dirichlet_convolve(f, MU, n)

    def test_round_trip_through_sum_function(self):
        for t in (PHI, ID, MU, jordan_function(2)):
            lifted = sum_function_of(t)
            for n in range(1, 2001):
                assert moebius_invert(lifted, n) == evaluate(t, n)

    def test_rejects_general(self):
        f = ArithmeticFunction.from_table("t", {1: 1})
        with pytest.raises(DomainError):
            moebius_invert(f, 2)
