"""``tools/fault_matrix.py``: the clean sweep passes, a fault in each rule
and each exact path the evaluation uses fails at least two exact identity
families, and the whole table at n <= 12 is pinned, so a change to which
checks reach which path shows. Every failure of a sampled sweep under each
fault is pinned too, so a change to a failure's text or order shows."""

import hashlib

import pytest

from gcdft import numtheory, ramanujan, transform, verify
from gcdft.verify import SweepConfig


def test_clean_sweep_passes(fault_matrix):
    counts = fault_matrix.sweep(12)
    assert not isinstance(counts, str), counts
    assert counts and all(failed == 0 for failed, _ in counts.values())


def rules():
    return (
        transform._local_factors,
        ramanujan._prime_power_sum,
        transform._prime_power_sum,
        numtheory._class_exponents,
        transform._class_exponents,
        numtheory._lattice_terms,
        transform.exact_closed_form,
        verify.exact_closed_form,
        transform.dft_exact_convolution,
        verify.dft_exact_convolution,
    )


@pytest.mark.parametrize(
    "fault",
    [
        "local-factor+1",
        "prime-power-sum+1",
        "class-exponents+1",
        "lattice-drops-last",
        "negate-closed-form",
        "offset-convolution",
    ],
)
def test_each_rule_fault_fails_two_exact_families(fault_matrix, fault):
    honest = rules()
    counts = fault_matrix.sweep(12, fault)
    assert not isinstance(counts, str), counts
    exact = [k for k, (failed, _) in counts.items() if failed and "float" not in k]
    assert len(exact) >= 2, counts
    assert rules() == honest  # every rule is put back


PINNED_TABLE = """\
functions sigma, id, J_3, tau, mu, n <= 12, every m: failures/checks
fault none
  coprime-order-totient            0/46
  gcd-dependence                   0/1170
  gcd-form-vs-multiplicative-form  0/78
  integrality                      0/390
  multiplicativity                 0/2030
  path-equivalence-exact           0/390
  path-equivalence-float           0/390
  ramanujan-exact-agreement        0/78
  ramanujan-float-agreement        0/78
  total                            0/4650
fault local-factor+1
  coprime-order-totient            45/46
  gcd-dependence                   1134/1170
  gcd-form-vs-multiplicative-form  77/78
  integrality                      0/390
  multiplicativity                 1992/2030
  path-equivalence-exact           378/390
  path-equivalence-float           378/390
  ramanujan-exact-agreement        0/78
  ramanujan-float-agreement        0/78
  total                            4004/4650
fault prime-power-sum+1
  coprime-order-totient            0/46
  gcd-dependence                   324/1170
  gcd-form-vs-multiplicative-form  0/78
  integrality                      0/390
  multiplicativity                 717/2030
  path-equivalence-exact           108/390
  path-equivalence-float           0/390
  ramanujan-exact-agreement        12/78
  ramanujan-float-agreement        12/78
  total                            1173/4650
fault class-exponents+1
  coprime-order-totient            0/46
  gcd-dependence                   420/1170
  gcd-form-vs-multiplicative-form  28/78
  integrality                      0/390
  multiplicativity                 990/2030
  path-equivalence-exact           140/390
  path-equivalence-float           0/390
  ramanujan-exact-agreement        24/78
  ramanujan-float-agreement        24/78
  total                            1626/4650
fault lattice-drops-last
  coprime-order-totient            0/46
  gcd-dependence                   1158/1170
  gcd-form-vs-multiplicative-form  0/78
  integrality                      0/390
  multiplicativity                 1786/1805
  path-equivalence-exact           386/390
  path-equivalence-float           390/390
  ramanujan-exact-agreement        58/78
  ramanujan-float-agreement        78/78
  total                            3856/4425
fault negate-closed-form
  coprime-order-totient            46/46
  gcd-dependence                   1131/1170
  gcd-form-vs-multiplicative-form  0/78
  integrality                      0/390
  multiplicativity                 1947/2030
  path-equivalence-exact           377/390
  path-equivalence-float           377/390
  ramanujan-exact-agreement        0/78
  ramanujan-float-agreement        0/78
  total                            3878/4650
fault offset-convolution
  coprime-order-totient            0/46
  gcd-dependence                   1170/1170
  gcd-form-vs-multiplicative-form  0/78
  integrality                      0/390
  multiplicativity                 1968/2030
  path-equivalence-exact           390/390
  path-equivalence-float           0/390
  ramanujan-exact-agreement        0/78
  ramanujan-float-agreement        0/78
  total                            3528/4650"""


def test_the_table_at_twelve_is_pinned(fault_matrix):
    assert fault_matrix.render(12) == PINNED_TABLE


# sha256 of the 16 969 failures below, independent of the hash seed
PINNED_FAILURES = "1380ad9244dcb4474b0f0a0ca3c2d79c062dd24dfda6b6a376ad75398ef3e499"


def test_every_failure_under_each_fault_is_pinned(fault_matrix):
    config = SweepConfig(n_max=12, m_policy="sample", sample_count=5, seed=3,
                         functions=("sigma", "id", "J_3", "tau", "mu"))
    runs = []
    for fault in fault_matrix.FAULTS:
        report = fault_matrix.run_under(config, fault)
        runs.append((fault, report.checks, [tuple(vars(f).values()) for f in report.failures]))
    assert sum(len(failures) for _, _, failures in runs) == 16969
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == PINNED_FAILURES
