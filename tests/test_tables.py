"""Table building, compression, symbolic forms and round-trip serialization."""

import json
import math
from fractions import Fraction

import pytest

from gcdft.errors import DomainError
from gcdft.functions import (
    ID,
    SIGMA,
    TAU,
    ArithmeticFunction,
    catalog_names,
    get_function,
    id_power,
)
from gcdft.numtheory import divisor_tuple, factorize, totient
from gcdft.tables import (
    TableRow,
    _symbolic_gcd_form,
    build_table,
    format_exact,
    parse_exact,
    parse_table,
    render_table,
)
from gcdft.transform import dft_brute_float, dft_dispatch


# a multiplicative rational f, with values of both signs and zeros
RATIONAL_MULTIPLICATIVE = ArithmeticFunction.multiplicative(
    "rational-multiplicative", lambda p, e: Fraction(e - 2, p + e), integer_valued=False
)


def per_index_rows(f, n):
    """The full table evaluated order by order: one dispatch per row, plus
    one per prime of n for the form of a multiplicative f other than id; a
    general f's form is its value."""
    fac = factorize(n)
    rows = []
    for index in range(1, n + 1):
        value = dft_dispatch(f, fac, index).value
        if f is ID:
            exponents = tuple(
                max(t for t in range(s + 1) if index % p**t == 0) for p, s in fac.factors
            )
            form = _symbolic_gcd_form(fac, exponents)
        elif not f.is_multiplicative:
            form = format_exact(value)
        else:
            form = "*".join(
                format_exact(dft_dispatch(f, factorize(p**s), index).value)
                for p, s in fac.factors
            ) or "1"
        rows.append(TableRow(index, math.gcd(index, n), value, form))
    return rows


class TestExactSerialization:
    def test_integers_as_decimal_strings(self):
        assert format_exact(40) == "40"
        assert format_exact(Fraction(40, 1)) == "40"
        assert format_exact(-3) == "-3"

    def test_rationals_as_num_den(self):
        assert format_exact(Fraction(7, 12)) == "7/12"
        assert format_exact(Fraction(-1, 3)) == "-1/3"

    def test_round_trip(self):
        for value in (0, 7, -40, Fraction(7, 12), Fraction(-5, 9)):
            assert parse_exact(format_exact(value)) == value


class TestCompressedTables:
    def test_two_prime_case(self):
        rows = build_table(ID, 15, compress=True)
        assert [r.index for r in rows] == [1, 3, 5, 15]
        assert [r.gcd_value for r in rows] == [1, 3, 5, 15]
        assert [r.transform_value for r in rows] == [8, 20, 18, 45]
        assert [r.symbolic_form for r in rows] == [
            "(p-1)(q-1)",
            "(2p-1)(q-1)",
            "(p-1)(2q-1)",
            "(2p-1)(2q-1)",
        ]

    def test_prime_power_three_branch(self):
        rows = build_table(ID, 8, compress=True)
        assert [r.transform_value for r in rows] == [4, 8, 12, 20]
        assert rows[0].symbolic_form == "phi(p^3)"
        assert rows[1].symbolic_form == "2phi(p^3)"
        assert rows[2].symbolic_form == "3phi(p^3)"
        assert rows[3].symbolic_form == "[4phi(p^3)+p^2]"
        phi = totient(8)
        assert rows[0].transform_value == phi
        assert rows[1].transform_value == 2 * phi
        assert rows[2].transform_value == 3 * phi
        assert rows[3].transform_value == 4 * phi + 4

    def test_trivial_n(self):
        rows = build_table(ID, 1)
        assert rows == [TableRow(1, 1, 1, "1")]

    def test_cube_square_prime_layout(self):
        # n = p^3 q^2 w at (2, 3, 5); the typical mixed entry and both ends
        rows = {r.index: r for r in build_table(ID, 360, compress=True)}
        assert rows[1].transform_value == totient(360)
        assert rows[36].symbolic_form == "3phi(p^3)[3phi(q^2)+q](w-1)"
        assert rows[36].transform_value == 12 * 21 * 4 == 1008
        assert rows[360].symbolic_form == "[4phi(p^3)+p^2][3phi(q^2)+q](2w-1)"
        assert rows[360].transform_value == sum(
            math.gcd(k, 360) for k in range(1, 361)
        )

    def test_row_count_equals_divisor_count(self):
        for n in range(1, 10_001):
            rows = build_table(ID, n, compress=True)
            assert len(rows) == len(divisor_tuple(n))
            # one value per gcd class; distinct classes can still collide
            # (h_6(24) == h_8(24) == 40), so distinct values <= divisor count
            values = {r.transform_value for r in rows}
            assert len(values) <= len(rows)

    def test_rows_match_brute_force(self):
        for n in (12, 45, 100):
            for row in build_table(ID, n, compress=True):
                brute = dft_brute_float(ID, n, row.index)
                assert brute.real == pytest.approx(float(row.transform_value), abs=1e-6)


class TestFullTables:
    def test_full_covers_all_orders(self):
        rows = build_table(ID, 6)
        assert [r.index for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [r.transform_value for r in rows] == [2, 6, 5, 6, 2, 15]

    def test_full_and_compressed_agree_per_class(self):
        for n in (12, 30, 49):
            compressed = {r.gcd_value: r.transform_value for r in
                          build_table(ID, n, compress=True)}
            for row in build_table(ID, n):
                assert row.transform_value == compressed[row.gcd_value]

    def test_non_identity_function(self):
        rows = {r.index: r for r in build_table(TAU, 12, compress=True)}
        assert rows[12].transform_value == 28
        assert rows[12].symbolic_form == "7*4"

    def test_function_merely_named_id_gets_its_own_forms(self):
        fake = ArithmeticFunction.multiplicative("id", lambda p, e: e + 1)
        assert [(r.transform_value, r.symbolic_form) for r in build_table(fake, 12)] == [
            (r.transform_value, r.symbolic_form) for r in build_table(TAU, 12)
        ]

    def test_rational_values_serialize(self):
        rows = build_table(id_power(-1), 4, compress=True)
        values = [format_exact(r.transform_value) for r in rows]
        assert all("/" in v or v.lstrip("-").isdigit() for v in values)


class TestRendering:
    def test_csv_round_trip(self):
        rows = build_table(ID, 45, compress=True)
        text = render_table(rows, "csv")
        assert text.splitlines()[0] == "index,gcd,value,form"
        assert parse_table(text, "csv") == rows

    def test_json_round_trip(self):
        rows = build_table(TAU, 30, compress=True)
        text = render_table(rows, "json")
        assert parse_table(text, "json") == rows

    def test_json_values_are_strings(self):
        rows = build_table(ID, 6, compress=True)
        payload = json.loads(render_table(rows, "json"))
        assert all(isinstance(entry["value"], str) for entry in payload)

    def test_csv_round_trip_with_rationals(self):
        rows = build_table(id_power(-1), 12, compress=True)
        assert parse_table(render_table(rows, "csv"), "csv") == rows

    def test_text_format_has_header(self):
        text = render_table(build_table(ID, 6, compress=True), "text")
        assert text.splitlines()[0].split() == ["index", "gcd", "value", "form"]

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            render_table([], "yaml")
        with pytest.raises(DomainError):
            parse_table("", "text")


class TestGcdClassEvaluation:
    GENERAL = ArithmeticFunction.from_table(
        "general",
        {k: Fraction(k % 7 - 3, 1 + k % 4) for k in range(1, 1002)},
        integer_valued=False,
    )

    @pytest.mark.parametrize("name", catalog_names() + ["id_-1", "general"])
    def test_matches_per_index_evaluation(self, name):
        f = self.GENERAL if name == "general" else get_function(name)
        for n in [*range(1, 131), 360, 720, 1001]:
            reference = per_index_rows(f, n)
            assert render_table(build_table(f, n), "csv") == render_table(reference, "csv")
            divs = set(divisor_tuple(n))
            compressed = [r for r in reference if r.index in divs]
            assert render_table(build_table(f, n, compress=True), "csv") == render_table(
                compressed, "csv"
            )

    def test_one_dispatch_per_class_and_local_factor(self, monkeypatch):
        """A multiplicative f reads the per-prime kernel once per
        h_{p^t}(p^s), t <= s, and a general f runs one convolution per class
        alone."""
        from gcdft import transform

        kernel, convolutions = [], []
        honest_kernel = transform._local_factor
        honest_convolution = transform.dft_exact_convolution
        monkeypatch.setattr(
            transform, "_local_factor", lambda *a: kernel.append(a) or honest_kernel(*a)
        )
        monkeypatch.setattr(
            transform,
            "dft_exact_convolution",
            lambda *a: convolutions.append(a) or honest_convolution(*a),
        )
        for f, n in [(SIGMA, 720), (ID, 720), (RATIONAL_MULTIPLICATIVE, 720), (SIGMA, 720720)]:
            for compress in (False, True):
                kernel.clear()
                assert len(build_table(f, n, compress=compress)) == (
                    len(divisor_tuple(n)) if compress else n
                )
                assert len(kernel) == sum(s + 1 for _, s in factorize(n).factors)
        assert convolutions == []
        for compress in (False, True):
            convolutions.clear()
            build_table(self.GENERAL, 720, compress=compress)
            assert len(convolutions) == len(divisor_tuple(720)) == 30
            assert sorted(g for _, _, g in convolutions) == list(divisor_tuple(720))

    def test_general_forms_parse_to_their_values(self):
        """A general f's transform does not factor: each class form is the
        value itself, as in the value column."""
        for n in [*range(1, 131), 360, 720, 1001]:
            for row in build_table(self.GENERAL, n, compress=True):
                assert parse_exact(row.symbolic_form) == row.transform_value
                assert row.symbolic_form == format_exact(row.transform_value)

    @pytest.mark.parametrize(
        "name",
        [n for n in catalog_names() if n != "id"] + ["id_-1", "rational-multiplicative"],
    )
    def test_values_are_products_of_their_forms(self, name):
        """Each class value of a multiplicative f is the product of the
        per-prime values its form joins, in int when it is integral."""
        f = RATIONAL_MULTIPLICATIVE if name == "rational-multiplicative" else get_function(name)
        for n in [*range(1, 131), 360, 720, 1001, 720720]:
            for row in build_table(f, n, compress=True):
                factors = [parse_exact(piece) for piece in row.symbolic_form.split("*")]
                assert len(factors) == max(1, len(factorize(n).factors))
                assert row.transform_value == math.prod(factors)
                assert type(row.transform_value) is (
                    int if math.prod(factors).denominator == 1 else Fraction
                )
