"""The cheaper per-call paths of a verify sweep give the values of the plain
ones: the float definition reads its terms from a table of unit roots, its
row over every residue of n gives the same floats, a
``Factorization`` hashes by its value, the geometric closed form builds a
``Fraction`` only where its ratio is not whole, and ``run_verification``
tallies its checks without recording each one."""

import itertools

import numpy as np
import pytest

from gcdft import ramanujan
from gcdft.errors import OracleScaleError
from gcdft.functions import Kind, _divisor_values, catalog_names, get_function
from gcdft.numtheory import DEFINITION_SCALE_LIMIT, Factorization, factorize
from gcdft.ramanujan import ramanujan_definition, ramanujan_definition_row
from gcdft.transform import dft_closed_form_completely_mult, dft_closed_form_multiplicative
from gcdft.verify import (
    SweepConfig,
    SweepReport,
    check_closed_form_pair,
    check_coprime_order_totient,
    check_gcd_dependence,
    check_multiplicativity,
    check_path_equivalence,
    check_ramanujan_agreement,
    run_verification,
)


class TestUnitRoots:
    def test_definition_is_the_exp_of_each_phase(self):
        for n in range(1, 300):
            k, _ = ramanujan._definition_table(n)
            for m in range(-n, 2 * n + 1):
                plain = complex(np.exp(2j * np.pi * ((k * (m % n)) % n) / n).sum())
                assert ramanujan_definition(n, m) == plain, (n, m)

    def test_row_is_the_definition_at_each_residue(self):
        # 997 and 1000 are one block of orders, 1009 two: 1009 * 1008 terms
        for n in [*range(1, 300), 997, 1000, 1009]:
            row = ramanujan_definition_row(n)
            assert len(row) == n and all(type(z) is complex for z in row), n
            for m in range(-n, 2 * n + 1):
                assert row[m % n] == ramanujan_definition(n, m), (n, m)

    @pytest.mark.parametrize("n", [0, DEFINITION_SCALE_LIMIT + 1])
    def test_row_refuses_an_unrated_n(self, n):
        with pytest.raises(OracleScaleError):
            ramanujan_definition_row(n)

    def test_table_is_read_only_and_held_for_one_n(self):
        _, roots = ramanujan._definition_table(12)
        assert roots.shape == (12,) and not roots.flags.writeable
        assert roots[0] == 1 and roots[3] == np.exp(2j * np.pi * 3 / 12)
        with pytest.raises(ValueError):
            roots[0] = 0
        assert ramanujan._definition_table(12)[1] is roots
        ramanujan_definition(10, 3)
        assert ramanujan._definition_table.cache_info().currsize == 1
        assert ramanujan._definition_table(10)[1].shape == (10,)


class TestFactorizationHash:
    def test_hash_is_the_value(self):
        fac = factorize(720)
        assert hash(fac) == hash(720)
        assert fac == Factorization(720, ((2, 4), (3, 2), (5, 1)))
        assert fac != factorize(360)

    def test_a_given_factorization_shares_the_cache_entry(self):
        f = get_function("sigma")
        _divisor_values.cache_clear()
        first = _divisor_values(f, factorize(720))
        hits = _divisor_values.cache_info().hits
        second = _divisor_values(f, Factorization(720, ((2, 4), (3, 2), (5, 1))))
        assert _divisor_values.cache_info().hits == hits + 1
        assert second is first
        assert _divisor_values.cache_info().currsize == 1


COMPLETELY_MULTIPLICATIVE = [
    name for name in catalog_names() if get_function(name).kind is Kind.COMPLETELY_MULTIPLICATIVE
] + ["id_-1"]


@pytest.mark.parametrize("name", COMPLETELY_MULTIPLICATIVE)
def test_geometric_form_has_the_per_prime_value_and_type(name):
    f = get_function(name)
    for n in range(1, 301):
        fac = factorize(n)
        for m in range(-n, 2 * n + 1):
            geometric = dft_closed_form_completely_mult(f, fac, m)
            general = dft_closed_form_multiplicative(f, fac, m)
            assert (geometric, type(geometric)) == (general, type(general)), (n, m)


def test_tally_equals_a_record_of_every_check(fault):
    """With the per-prime kernel offset, so that failures come in several
    identities, the tally gives the counts, their order and the failure list
    that :meth:`SweepReport.record` over the same chained checks gives."""
    fault("local-factor+1")
    config = SweepConfig(n_max=14, m_policy="sample", sample_count=5, seed=3,
                         functions=("sigma", "id", "id_2", "mu"))
    report = run_verification(config)

    replay = SweepReport()
    n_values = range(1, config.n_max + 1)
    checks = [check_ramanujan_agreement(n_values, config)]
    for f in map(get_function, config.functions):
        checks += [
            check_path_equivalence(f, n_values, config),
            check_closed_form_pair(f, n_values, config),
            check_gcd_dependence(f, n_values),
            check_multiplicativity(f, config),
        ]
    checks.append(check_coprime_order_totient(n_values))
    for identity, failure in itertools.chain(*checks):
        replay.record(identity, failure)

    assert report.checks == replay.checks
    assert list(report.by_identity.items()) == list(replay.by_identity.items())
    assert report.failures == replay.failures
    assert 0 < len(report.failures) < report.checks
    failing = [identity for identity, (_, failed) in report.by_identity.items() if failed]
    assert len(failing) >= 3
