"""Print five sha256 lines over a fixed grid of gcdft answers, so that two
source trees can be checked to give the same values, value types and output:

    PYTHONPATH=<tree>/src python3 tools/digest.py

The first four lines hash exact answers only, and the fifth the float
oracles, so a change to how an oracle rounds moves the fifth line alone.

The grid of the first line: ``dft_dispatch(..., verify=True)`` (value, value
type, paths and reduced order) and ``dft_exact_convolution`` on an int n and
on a ``Factorization``, for 13 functions, n < 90 and m in [-n, 2n]; the
von Sterneck and Kluyver Ramanujan sums over the same (n, m); the csv table,
full and compressed, of the int n and compressed of a ``Factorization``, for
n <= 130; and the verify report in every format for
n_max in {1, 7, 19} under every m policy; and the value and value type of
``dft_closed_form_completely_mult`` over the same (n, m), for every completely
multiplicative catalog function, ``id_-1`` and two functions whose geometric
ratio degenerates at p = 2: f(2) = 2 ("mixed") and f(2) = 0 ("vanishing");
``divisors`` of each n < 90, of the int and of a ``Factorization``;
and ``dirichlet_convolve(f, phi, n)`` and ``sum_function(f, n)`` (value and
value type) for every catalog function and ``id_-1``, on the int and the
``Factorization``. The second line hashes the text and json renders of the
same table grid, full and compressed. The third hashes, with their types,
``totient`` and ``jordan(k, n)`` for k = 1..3; ``moebius_invert``,
``sum_function_product`` and ``evaluate(sum_function_of(f), n)``, each on the
int n < 90 and its ``Factorization``; and ``f.prime_power(p, e)`` for the
primes p < 30 and e <= 6, for every catalog function, ``id_-1`` and a
rational multiplicative f. The fourth hashes each row of the table grid as
(index, gcd, value, value type, form), since a csv render hides whether a
value is an int or a Fraction; it covers the rational multiplicative f too,
and the compressed tables at n = 360, 720, 1001 and 720720, where a general f
defined on their divisors stands in for ``RATIONAL``. The fifth hashes the
``repr`` of ``float_bound`` at each n < 90 and of ``dft_brute_float`` at each
(n, m) of the first line's grid, for the same 13 functions.
"""

import hashlib
from fractions import Fraction
from itertools import chain

from gcdft import (
    PHI,
    ArithmeticFunction,
    Factorization,
    dirichlet_convolve,
    divisors,
    factorize,
    get_function,
    sum_function,
)
from gcdft.functions import (
    Kind,
    catalog_names,
    evaluate,
    moebius_invert,
    sum_function_of,
    sum_function_product,
)
from gcdft.numtheory import SMALL_PRIMES, jordan, totient
from gcdft.ramanujan import FLOAT_TOLERANCE, ramanujan_kluyver, ramanujan_von_sterneck
from gcdft.tables import build_table, render_table
from gcdft.transform import (
    dft_brute_float,
    dft_closed_form_completely_mult,
    dft_dispatch,
    dft_exact_convolution,
    float_bound,
)
from gcdft.verify import M_POLICIES, SweepConfig, render_report, run_verification

NAMES = tuple(catalog_names()) + ("id_-1",)
# a general rational f with f(1) != 1
RATIONAL = ArithmeticFunction.from_table(
    "rational", {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 131)}, integer_valued=False
)
# a multiplicative rational f, with values of both signs and zeros
RATIONAL_MULTIPLICATIVE = ArithmeticFunction.multiplicative(
    "rational-multiplicative", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
)
LARGE_N = (360, 720, 1001, 720720)
# RATIONAL's rule on the divisors of LARGE_N, for their compressed tables
RATIONAL_DIVISORS = ArithmeticFunction.from_table(
    "rational",
    {d: Fraction(d % 7 - 3, 1 + d % 4) for n in LARGE_N for d in divisors(n)},
    integer_valued=False,
)
DEGENERATE = (
    ArithmeticFunction.completely_multiplicative("mixed", lambda p: p if p == 2 else p * p),
    ArithmeticFunction.completely_multiplicative("vanishing", lambda p: 0 if p == 2 else p),
)


def table_grid(f):
    """For each n <= 130: the full and compressed table of the int n, and the
    compressed table of its ``Factorization``."""
    for n in range(1, 131):
        yield build_table(f, n)
        yield build_table(f, n, compress=True)
        yield build_table(f, Factorization(n, factorize(n).factors), compress=True)


def records():
    for n in range(1, 90):
        for m in range(-n, 2 * n + 1):
            yield n, m, ramanujan_von_sterneck(n, m), ramanujan_kluyver(n, m)
    for f in [get_function(name) for name in NAMES] + [RATIONAL]:
        for n in range(1, 90):
            fac = Factorization(n, factorize(n).factors)
            for m in range(-n, 2 * n + 1):
                r = dft_dispatch(f, n, m, verify=True)
                yield f.name, n, m, r.value, sorted(r.paths_agreeing), r.m_reduced
                for value in (r.value, dft_exact_convolution(f, n, m), dft_exact_convolution(f, fac, m)):
                    yield value, type(value).__name__
        for table in table_grid(f):
            yield render_table(table, "csv")
    for n_max in (1, 7, 19):
        for policy in M_POLICIES:
            config = SweepConfig(n_max=n_max, m_policy=policy, functions=NAMES)
            report = run_verification(config)
            for fmt in ("text", "json", "csv"):
                yield render_report(report, config, fmt)
    for f in [get_function(name) for name in NAMES] + list(DEGENERATE):
        if f.kind is Kind.COMPLETELY_MULTIPLICATIVE:
            for n in range(1, 90):
                for m in range(-n, 2 * n + 1):
                    value = dft_closed_form_completely_mult(f, n, m)
                    yield f.name, n, m, value, type(value).__name__
    for n in range(1, 90):
        fac = Factorization(n, factorize(n).factors)
        yield n, divisors(n), divisors(fac)
        for f in map(get_function, NAMES):
            for arg in (n, fac):
                for value in (dirichlet_convolve(f, PHI, arg), sum_function(f, arg)):
                    yield f.name, n, value, type(value).__name__


def table_records():
    for f in [get_function(name) for name in NAMES] + [RATIONAL]:
        for table in table_grid(f):
            for fmt in ("text", "json"):
                yield render_table(table, fmt)


def multiplicative_records():
    for n in range(1, 90):
        fac = Factorization(n, factorize(n).factors)
        for arg in (n, fac):
            for value in (totient(arg), *(jordan(k, arg) for k in (1, 2, 3))):
                yield n, value, type(value).__name__
    for f in [get_function(name) for name in NAMES] + [RATIONAL_MULTIPLICATIVE]:
        summed = sum_function_of(f)
        for n in range(1, 90):
            fac = Factorization(n, factorize(n).factors)
            for arg in (n, fac):
                values = moebius_invert(f, arg), sum_function_product(f, arg), evaluate(summed, arg)
                for value in values:
                    yield f.name, n, value, type(value).__name__
        for p in SMALL_PRIMES[:10]:  # the primes below 30
            for e in range(7):
                value = f.prime_power(p, e)
                yield f.name, p, e, value, type(value).__name__


def typed_table_records():
    for f in [get_function(name) for name in NAMES] + [RATIONAL, RATIONAL_MULTIPLICATIVE]:
        large = RATIONAL_DIVISORS if f is RATIONAL else f
        compressed = (build_table(large, n, compress=True) for n in LARGE_N)
        for table in chain(table_grid(f), compressed):
            for index, g, value, form in table:
                yield index, g, value, type(value).__name__, form


def float_records():
    for f in [get_function(name) for name in NAMES] + [RATIONAL]:
        for n in range(1, 90):
            yield repr(float_bound(f, n, FLOAT_TOLERANCE))
            for m in range(-n, 2 * n + 1):
                yield repr(dft_brute_float(f, n, m))


def main() -> None:
    streams = (
        records(),
        table_records(),
        multiplicative_records(),
        typed_table_records(),
        float_records(),
    )
    for stream in streams:
        digest = hashlib.sha256()
        for record in stream:
            digest.update(repr(record).encode() + b"\n")
        print(digest.hexdigest())


if __name__ == "__main__":
    main()
