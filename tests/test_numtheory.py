"""Integer primitives against brute-force oracles and known values."""

import math
import random
import time

import pytest

from gcdft import numtheory
from gcdft.errors import DomainError, FactorizationBudgetError
from gcdft.numtheory import (
    _MR_DETERMINISTIC_LIMIT,
    _PRIMORIAL_Q,
    _TRIAL_PROVEN,
    SMALL_PRIMES,
    Factorization,
    _integer_root,
    _mr_bases,
    _perfect_power,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    divisor_tuple,
    divisors,
    factorize,
    gcd,
    is_prime,
    jordan,
    moebius,
    totient,
)


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_moebius(n):
    fac = {}
    d, value = 2, n
    while d * d <= value:
        while value % d == 0:
            fac[d] = fac.get(d, 0) + 1
            value //= d
        d += 1
    if value > 1:
        fac[value] = fac.get(value, 0) + 1
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


# Pollard p-1: primes whose p - 1 stage 1 or stage 2 catches, from seeded searches
PM1_ODD_PRIMES = [r for r in SMALL_PRIMES[1:] if r <= numtheory._PM1_B1]


def pm1_prime(rng, bits, r=1):
    """A prime p of about ``bits`` bits with p - 1 = s r, s a divisor of
    stage 1's exponent, and r dividing the order of 2 mod p."""
    while True:
        s = 2
        while (s * r).bit_length() < bits:
            s *= rng.choice(PM1_ODD_PRIMES)
        p = s * r + 1
        if (
            numtheory._PM1_EXPONENT % s == 0
            and is_prime(p)
            and (r == 1 or pow(2, s, p) != 1)
        ):
            return p


def largest_prime_of_the_order_of_2(p):
    """For p - 1 dividing stage 1's exponent: the largest prime of the order
    of 2 mod p, the prime power at which stage 1's replay catches p."""
    order, largest = p - 1, 1
    for r in (2, *PM1_ODD_PRIMES):
        while order % r == 0 and pow(2, order // r, p) == 1:
            order //= r
        if order % r == 0:
            largest = r
    return largest


def safe_prime(rng, bits):
    """A prime q = 2 r + 1 with r a prime above B2, which p-1 cannot catch."""
    while True:
        q = 2 * rng.randrange(2 ** (bits - 2), 2 ** (bits - 1)) + 1
        if (q - 1) // 2 > numtheory._PM1_B2 and is_prime((q - 1) // 2) and is_prime(q):
            return q


def pm1_both_caught_in_stage_1(seed):
    """p, q with p - 1 and q - 1 dividing stage 1's exponent, so that
    gcd(2^E - 1, pq) = pq, whose orders of 2 have different largest primes,
    so that the replay of stage 1 tells them apart."""
    rng = random.Random(seed)
    p = pm1_prime(rng, rng.randrange(20, 29))
    while True:
        q = pm1_prime(rng, rng.randrange(20, 29))
        if largest_prime_of_the_order_of_2(q) != largest_prime_of_the_order_of_2(p):
            return p, q


def pm1_both_caught_in_one_block(seed):
    """p, q whose p - 1 = s r and q - 1 = s' r', s and s' dividing stage 1's
    exponent, r and r' primes of one stage-2 block k w +- j in different
    pairs. A pair k w +- j has no prime factor below 11, so with 11 r and
    11 r' above every pair, no other pair catches p or q."""
    rng = random.Random(seed)
    w = numtheory._PM1_W
    least = (numtheory._PM1_B2 + w) // 11
    while True:
        k, js = rng.choice(numtheory._PM1_PLAN)
        j, j2 = rng.sample(js, 2)
        r = next((c for c in (k * w - j, k * w + j) if is_prime(c)), 0)
        r2 = next((c for c in (k * w + j2, k * w - j2) if is_prime(c)), 0)
        if min(r, r2) > least:
            return pm1_prime(rng, 26, r), pm1_prime(rng, 26, r2)


class TestGcd:
    def test_elementary(self):
        assert gcd(12, 18) == 6
        assert gcd(7, 1) == 1
        assert gcd(5, 0) == 5
        assert gcd(0, 5) == 5

    def test_product_identity(self):
        # gcd(kv+lu, u) * gcd(kv+lu, v) == gcd(kv+lu, uv) for coprime u, v
        u, v, k, l = 4, 9, 2, 3
        a = k * v + l * u
        assert gcd(a, u * v) == 6
        assert gcd(a, u) * gcd(a, v) == gcd(a, u * v)
        assert gcd(k, u) * gcd(l, v) == 6

    def test_product_identity_random(self):
        rng = random.Random(7)
        for _ in range(200):
            u = rng.randrange(1, 200)
            v = rng.randrange(1, 200)
            if math.gcd(u, v) != 1:
                continue
            k = rng.randrange(1, u + 1)
            l = rng.randrange(1, v + 1)
            a = k * v + l * u
            assert gcd(a, u) * gcd(a, v) == gcd(a, u * v)

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gcd(-4, 6)


class TestFactorize:
    def test_one_has_empty_factorization(self):
        fac = factorize(1)
        assert fac.value == 1
        assert fac.factors == ()

    def test_360(self):
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_cube_square_prime_shape(self):
        # 360 = 2^3 * 3^2 * 5 has the p^3 q^2 w shape
        fac = factorize(8 * 9 * 5)
        assert [s for _, s in fac.factors] == [3, 2, 1]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_round_trip_small(self):
        for n in range(1, 20_001):
            fac = factorize(n)
            product = 1
            for p, s in fac.factors:
                assert s >= 1
                product *= p**s
            assert product == n
            assert list(fac.primes) == sorted(fac.primes)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        fac = factorize(p * q)
        assert fac.factors == ((p, 1), (q, 1))

    def test_64bit_composite(self):
        n = (2**31 - 1) * (2**61 - 1)
        fac = factorize(n)
        assert fac.factors == ((2**31 - 1, 1), (2**61 - 1, 1))

    def test_squared_large_prime_is_a_perfect_power(self):
        # rho alone spent 1.6 s on this square; one integer root splits it
        p = 2**40 + 15
        start = time.perf_counter()
        fac = factorize.__wrapped__(12 * p * p)
        assert time.perf_counter() - start < 1.0
        assert fac.factors == ((2, 2), (3, 1), (p, 2))

    def test_perfect_powers_of_large_primes(self):
        p, q = 1_000_003, 2**61 - 1
        for n, factors in (
            (p**3, ((p, 3),)),
            (p**6, ((p, 6),)),
            (p**2 * q**2, ((p, 2), (q, 2))),
            (q**5, ((q, 5),)),
            (7 * p**4 * q, ((7, 1), (p, 4), (q, 1))),
        ):
            assert factorize.__wrapped__(n).factors == factors

    def test_integer_root_is_exact(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.choice((2, 3, 5, 7, 13))
            c = rng.randrange(1, 2**rng.randrange(1, 400))
            r = _integer_root(c, k)
            assert r**k <= c < (r + 1) ** k
        assert _perfect_power((2**61 - 1) ** 3) == (2**61 - 1, 3)
        assert _perfect_power(1_000_003 * 1_000_033) == (1_000_003 * 1_000_033, 1)

    def test_trial_proven_is_the_least_composite_trial_division_leaves(self):
        q = SMALL_PRIMES[-1] + 1
        while any(q % p == 0 for p in SMALL_PRIMES):
            q += 1
        assert _TRIAL_PROVEN == q * q == 10_007**2

    @pytest.mark.parametrize(
        "n,factors",
        [
            (10_007**2, ((10_007, 2),)),
            (10_007 * 10_009, ((10_007, 1), (10_009, 1))),
            (9_973 * 10_007**2, ((9_973, 1), (10_007, 2))),
            (100_140_043, ((100_140_043, 1),)),  # largest prime below 10007^2
            (2 * 100_140_043, ((2, 1), (100_140_043, 1))),  # cofactor below
            (2 * 100_140_059, ((2, 1), (100_140_059, 1))),  # prime cofactor above
            (6 * 10_007 * 10_009, ((2, 1), (3, 1), (10_007, 1), (10_009, 1))),
            (9_967 * 9_973 * 10_007, ((9_967, 1), (9_973, 1), (10_007, 1))),
            (2**200, ((2, 200),)),
            (3**150 * 9_973**7, ((3, 150), (9_973, 7))),
            (9_973**30, ((9_973, 30),)),
            (2**100 * 10_009, ((2, 100), (10_009, 1))),
        ],
    )
    def test_trial_boundaries(self, n, factors):
        assert factorize.__wrapped__(n).factors == factors

    def test_primorial_tiers(self):
        # n around q^2 for every shorter primorial, and products of the primes
        # next to q, against plain trial division
        def reference(n):
            factors, p = [], 2
            while p * p <= n:
                if n % p == 0:
                    s = 0
                    while n % p == 0:
                        n //= p
                        s += 1
                    factors.append((p, s))
                p += 1
            return tuple(factors) + (((n, 1),) if n > 1 else ())

        for q in _PRIMORIAL_Q:
            below = max(p for p in SMALL_PRIMES if p < q)
            above = min(p for p in SMALL_PRIMES if p > q)
            for n in (
                *range(q * q - 40, q * q + 40),
                below * above, below**2, above**2, below * above**2,
                2 * below * above, below**3, above * q, above * (q - 1),
            ):
                assert factorize.__wrapped__(n).factors == reference(n), n

    def test_each_prime_proven_once(self, monkeypatch):
        calls = []
        real = numtheory.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(numtheory, "is_prime", counting)
        p, q = 2**31 - 1, 2**61 - 1
        for n in (
            30 * 1_000_003 * p * q,
            7 * p**2 * q,
            12 * (2**40 + 15) ** 2,
            10_007 * 10_009 * 10_037,
        ):
            calls.clear()
            fac = factorize.__wrapped__(n)
            primes = set(fac.primes)
            rho_primes = {r for r in primes if r >= _TRIAL_PROVEN}
            assert sorted(c for c in calls if c in primes) == sorted(rho_primes)
            assert len(calls) == len(set(calls))
            assert all(c >= _TRIAL_PROVEN for c in calls)

    def test_trial_cofactor_below_the_bound_skips_miller_rabin(self, monkeypatch):
        calls = []
        monkeypatch.setattr(numtheory, "is_prime", calls.append)
        assert factorize.__wrapped__(2**40 * 10_009).factors == ((2, 40), (10_009, 1))
        assert factorize.__wrapped__(6 * 100_140_043).factors == (
            (2, 1), (3, 1), (100_140_043, 1),
        )
        assert factorize.__wrapped__(99_999_989).factors == ((99_999_989, 1),)
        assert calls == []

    def test_semiprime_below_2_to_40_splits_within_the_budget(self):
        p, q = 1_099_511_627_689, 2_199_023_255_579  # prevprime(2^40), nextprime(2^41)
        assert factorize.__wrapped__(p * q).factors == ((p, 1), (q, 1))

    def test_seeded_semiprimes_near_2_to_40_split_within_the_budget(self):
        rng = random.Random(40)
        for _ in range(8):
            p = rng.randrange(2**39, 2**40) | 1
            while not is_prime(p):
                p += 2
            q = rng.randrange(2**40, 2**41) | 1
            while not is_prime(q):
                q += 2
            assert factorize.__wrapped__(p * q).factors == ((p, 1), (q, 1))

    def test_p_minus_1_splits_without_rho(self, monkeypatch):
        # p - 1 = 2 * 233 * 271 * 293 * 353 * 439; q - 1 = 2 * r, r prime
        p, q = 5_734_057_630_667, 10_787_873_545_859
        rest = p - 1
        for r in SMALL_PRIMES:
            if r > numtheory._PM1_B1:
                break
            rest, _ = numtheory._divide_out(rest, r)
        assert rest == 1 and is_prime((q - 1) // 2)
        calls = []
        monkeypatch.setattr(numtheory, "_pollard_rho", calls.append)
        assert factorize.__wrapped__(p * q).factors == ((p, 1), (q, 1))
        assert calls == []

    def rho_calls(self, monkeypatch):
        calls, real = [], numtheory._pollard_rho
        monkeypatch.setattr(
            numtheory, "_pollard_rho", lambda n, budget: calls.append(n) or real(n, budget)
        )
        return calls

    def test_p_minus_1_replays_stage_1_where_it_catches_both_primes(self, monkeypatch):
        calls = self.rho_calls(monkeypatch)
        for seed in range(3):
            p, q = pm1_both_caught_in_stage_1(seed)
            assert math.gcd(pow(2, numtheory._PM1_EXPONENT, p * q) - 1, p * q) == p * q
            assert factorize.__wrapped__(p * q).factors == tuple((r, 1) for r in sorted((p, q)))
        assert calls == []

    def test_p_minus_1_rescans_a_stage_2_block_that_catches_both_primes(self, monkeypatch):
        calls = self.rho_calls(monkeypatch)
        for seed in range(3):
            p, q = pm1_both_caught_in_one_block(seed)
            assert factorize.__wrapped__(p * q).factors == tuple((r, 1) for r in sorted((p, q)))
        assert calls == []

    def test_p_minus_1_steps_bound_its_multiplications_on_every_path(self, monkeypatch):
        # counted, not timed: a multiplication mod n is a % by n (an int
        # subclass counts them) or a bit of the exponent of a pow
        count = []

        class CountingMod(int):
            def __rmod__(self, other):
                count.append(1)
                return int.__rmod__(self, other)

        def counting_pow(base, exponent, modulus):
            count.append(exponent.bit_length())
            return pow(base, exponent, modulus)

        monkeypatch.setattr(numtheory, "pow", counting_pow, raising=False)
        rng = random.Random(1987)
        replay, rescan = pm1_both_caught_in_stage_1(0), pm1_both_caught_in_one_block(0)
        stage_1 = (pm1_prime(rng, 24), safe_prime(rng, 24))
        failure = (safe_prime(rng, 24), safe_prime(rng, 26))
        steps = {}
        for path, (p, q) in dict(
            stage_1=stage_1, replay=replay, rescan=rescan, failure=failure
        ).items():
            count.clear()
            d = numtheory._pollard_pm1(CountingMod(p * q))
            assert (d in (p, q)) == (path != "failure"), path
            steps[path] = sum(count)
        replay_bits = sum(q.bit_length() for q in numtheory._PM1_POWERS)
        assert steps["stage_1"] == numtheory._PM1_EXPONENT.bit_length()
        assert steps["stage_1"] < steps["replay"] <= steps["stage_1"] + replay_bits
        assert steps["rescan"] < steps["failure"]
        # the failure path runs all of stage 2; one run takes it or the replay
        assert steps["failure"] == numtheory._PM1_STEPS - replay_bits
        assert max(steps.values()) <= numtheory._PM1_STEPS

    @staticmethod
    def balanced_semiprimes():
        # seeded semiprimes of 40, 160 and 320 digits, two primes of half each
        rng = random.Random(320)

        def prime(digits):
            p = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            while not is_prime(p):
                p += 2
            return p

        return [prime(digits // 2) * prime(digits // 2) for digits in (40, 160, 320)]

    def test_p_minus_1_and_rho_share_the_budget(self, monkeypatch):
        # counted, not timed: p-1's steps and rho's budget together fit
        # _RHO_BUDGET in units of the cofactor's size, and rho takes at most
        # two multiplications mod n per step it is charged
        monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1 << 16)
        mods = []

        class CountingMod(int):
            def __rmod__(self, other):
                mods.append(1)
                return int.__rmod__(self, other)

        ran_pm1, budgets = [], []
        real_pm1, real_rho = numtheory._pollard_pm1, numtheory._pollard_rho
        monkeypatch.setattr(
            numtheory, "_pollard_pm1", lambda n: ran_pm1.append(n) or real_pm1(n)
        )
        monkeypatch.setattr(
            numtheory, "_pollard_rho",
            lambda n, budget: budgets.append(budget) or real_rho(CountingMod(n), budget),
        )
        pm1_sizes = []
        for n in self.balanced_semiprimes():
            ran_pm1.clear(), budgets.clear(), mods.clear()
            with pytest.raises(FactorizationBudgetError, match="within 65536 steps"):
                factorize.__wrapped__(n)
            units = numtheory._step_units(n)
            pm1_steps = numtheory._PM1_STEPS if ran_pm1 else 0
            assert (pm1_steps + budgets[0]) * units <= 1 << 16
            assert 0 < len(mods) <= 2 * budgets[0]
            pm1_sizes.append(bool(ran_pm1))
        # p-1's 3274 steps fit at 40 digits (4 units a step), not at 160 or 320
        assert pm1_sizes == [True, False, False]

    def test_rho_budget_bounds_work_not_steps(self, monkeypatch):
        # with the budget charged by size, the error arrives no later at 160
        # or 320 digits than at 40
        monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1 << 16)

        def seconds_to_error(n):
            best = math.inf
            for _ in range(5):
                start = time.perf_counter()
                with pytest.raises(FactorizationBudgetError, match="within 65536 steps"):
                    factorize.__wrapped__(n)
                best = min(best, time.perf_counter() - start)
            return best

        base, *larger = map(seconds_to_error, self.balanced_semiprimes())
        assert all(t < 1.5 * base for t in larger), (base, larger)

    def test_rho_budget_raises_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1 << 10)
        n = 1_073_741_827 * 2_147_483_659  # nextprime(2^30) * nextprime(2^31)
        with pytest.raises(FactorizationBudgetError, match="within 1024 steps"):
            factorize.__wrapped__(n)
        assert issubclass(FactorizationBudgetError, DomainError)

    def test_invalid_factorization_rejected(self):
        with pytest.raises(DomainError):
            Factorization(12, ((3, 1), (2, 2)))  # primes out of order
        with pytest.raises(DomainError):
            Factorization(12, ((2, 2), (3, 2)))  # wrong product
        with pytest.raises(DomainError):
            Factorization(8, ((8, 1),))  # not prime
        with pytest.raises(DomainError):
            Factorization(0, ())
        with pytest.raises(DomainError):
            Factorization(4, ((2, 1), (2, 1)))  # repeated prime
        with pytest.raises(DomainError):
            Factorization(1, ((2, 0),))  # zero multiplicity
        for factors in (None, ((2, 2), 3), ((2, 2, 1), (3, 1))):  # not (prime, multiplicity) pairs
            with pytest.raises(DomainError, match="pairs"):
                Factorization(12, factors)

    def test_factorize_builds_the_same_value_as_the_checked_constructor(self):
        for n in (1, 360, 10_007 * 10_009, 12 * (2**40 + 15) ** 2, PSI_12):
            fac = factorize.__wrapped__(n)
            checked = Factorization(n, fac.factors)
            assert fac == checked
            assert hash(fac) == hash(checked)
            assert type(fac) is Factorization


# (psi_t, t): the least strong pseudoprime to all of the first t prime bases
# (Jaeschke 1993; Sorenson and Webster, Math. Comp. 2017), for every t at
# which it grows.
PSI = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
PSI_12 = 318_665_857_834_031_151_167_461
PSI_12_FACTORS = ((399_165_290_221, 1), (798_330_580_441, 1))
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class TestWitnessTiers:
    @pytest.mark.parametrize("psi,t", PSI)
    def test_psi_is_composite(self, psi, t):
        assert not is_prime(psi)

    @pytest.mark.parametrize("psi,t", PSI)
    def test_psi_fools_its_t_bases(self, psi, t):
        # so no tier bound can be raised
        assert _strong_probable_prime(psi, FIRST_PRIMES[:t])

    @pytest.mark.parametrize("psi,t", PSI)
    def test_bases_sized_to_n(self, psi, t):
        assert _mr_bases(psi - 1) == FIRST_PRIMES[:t]
        if psi < _MR_DETERMINISTIC_LIMIT:
            assert len(_mr_bases(psi)) > t
        else:
            assert _mr_bases(psi) == FIRST_PRIMES

    def test_above_the_limit_the_lucas_test_joins_the_13_bases(self, monkeypatch):
        lucas = []
        monkeypatch.setattr(
            numtheory, "_strong_lucas_probable_prime",
            lambda n: lucas.append(n) or _strong_lucas_probable_prime(n),
        )
        below, above = PSI_12_FACTORS[1][0], 2**89 - 1  # both prime
        assert _mr_bases(above) == FIRST_PRIMES
        assert is_prime(below) and is_prime(above)
        assert lucas == [above]
        # psi_13 fools the 13 bases, so the Lucas test is what rejects it
        assert not is_prime(_MR_DETERMINISTIC_LIMIT)
        assert lucas == [above, _MR_DETERMINISTIC_LIMIT]

    def test_rho_sized_primes_take_four_bases(self):
        # the 20-28-bit primes Pollard rho splits off the point workload
        assert _mr_bases(2**20 + 7) == (2, 3)
        assert _mr_bases(2**28 - 57) == (2, 3, 5, 7)

    def test_psi_12_is_split(self):
        assert factorize.__wrapped__(PSI_12).factors == PSI_12_FACTORS

    def test_public_constructor_rejects_psi_12_as_prime(self):
        with pytest.raises(DomainError, match="not prime"):
            Factorization(PSI_12, ((PSI_12, 1),))


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13}
        for n in range(15):
            assert is_prime(n) == (n in primes)

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(1_000_003)
        assert not is_prime(2**67 - 1)

    def test_above_psi_13_against_sympy(self):
        # primes, semiprimes of two primes above 2^41, squares of primes and
        # plain odd n, from psi_13 to 2^160
        sympy = pytest.importorskip("sympy")
        rng = random.Random(160)
        cases = [_MR_DETERMINISTIC_LIMIT]
        for _ in range(40):
            cases.append(sympy.nextprime(rng.randrange(_MR_DETERMINISTIC_LIMIT, 2**160)))
            p = sympy.nextprime(rng.randrange(2**41, 2**80))
            q = sympy.nextprime(rng.randrange(max(2**41, _MR_DETERMINISTIC_LIMIT // p), 2**80))
            cases += [p * q, p * p if p * p >= _MR_DETERMINISTIC_LIMIT else q * q]
            cases.append(rng.randrange(_MR_DETERMINISTIC_LIMIT, 2**160) | 1)
        for n in cases:
            assert _MR_DETERMINISTIC_LIMIT <= n < 2**160
            assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_base_2_catches_the_strong_lucas_pseudoprimes(self, n):
        # the least strong Lucas pseudoprimes pass the Lucas half of
        # Baillie-PSW and fail its base-2 round
        assert _strong_lucas_probable_prime(n)
        assert not _strong_probable_prime(n, (2,))


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_prime_power(self):
        assert divisors(2**5) == [2**e for e in range(6)]

    def test_against_brute(self):
        for n in range(1, 501):
            assert divisors(n) == brute_divisors(n)

    def test_count_formula(self):
        for n in range(1, 2001):
            fac = factorize(n)
            expected = math.prod(s + 1 for _, s in fac.factors)
            assert len(divisor_tuple(n)) == expected


class TestMoebius:
    def test_examples(self):
        assert moebius(1) == 1
        assert moebius(30) == -1

    def test_prime_power_gap(self):
        # mu(p^(b-t)) is -1 exactly one step above t, 0 beyond
        for p in (2, 3, 5):
            assert moebius(p) == -1
            for e in range(2, 6):
                assert moebius(p**e) == 0

    def test_against_brute(self):
        for n in range(1, 1001):
            assert moebius(n) == brute_moebius(n)


class TestTotient:
    def test_prime_power_form(self):
        for p in (2, 3, 5, 7):
            for a in range(1, 6):
                assert totient(p**a) == p**a - p ** (a - 1)

    def test_examples(self):
        assert totient(12) == 4
        assert totient(15) == brute_totient(15) == 8

    def test_against_brute(self):
        for n in range(1, 501):
            assert totient(n) == brute_totient(n)

    def test_divisor_sum_identity(self):
        # sum of phi over divisors reconstitutes n
        for n in range(1, 10_001):
            assert sum(totient(d) for d in divisor_tuple(n)) == n


class TestJordan:
    def test_reduces_to_totient(self):
        # totient is jordan(1, .), so J_1 is checked against the count itself
        assert jordan(1, 12) == totient(12) == 4
        for n in range(1, 501):
            assert jordan(1, n) == brute_totient(n)

    def test_j2_of_6(self):
        # 36 * (3/4) * (8/9) and the mu-weighted divisor sum agree
        assert jordan(2, 6) == 24
        assert jordan(2, 6) == sum(
            moebius(6 // d) * d**2 for d in divisors(6)
        )

    def test_empty_product(self):
        assert jordan(5, 1) == 1

    def test_divisor_sum_identity(self):
        for k in (1, 2, 3):
            for n in range(1, 2001):
                expected = sum(moebius(n // d) * d**k for d in divisor_tuple(n))
                assert jordan(k, n) == expected

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            jordan(0, 12)


class TestMultiplicativity:
    def test_exhaustive_small(self):
        for a in range(1, 201):
            for b in range(a, 201):
                if math.gcd(a, b) != 1:
                    continue
                assert totient(a * b) == totient(a) * totient(b)
                assert moebius(a * b) == moebius(a) * moebius(b)
                assert jordan(2, a * b) == jordan(2, a) * jordan(2, b)

    def test_random_pairs(self):
        rng = random.Random(11)
        pairs = 0
        while pairs < 300:
            a = rng.randrange(1, 10_001)
            b = rng.randrange(1, 10_001)
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            assert totient(a * b) == totient(a) * totient(b)
            assert moebius(a * b) == moebius(a) * moebius(b)
            assert jordan(3, a * b) == jordan(3, a) * jordan(3, b)


def test_factorize_round_trip_to_one_million():
    # canonical reconstruction for every n up to 10^6
    for n in range(1, 1_000_001):
        fac = factorize.__wrapped__(n)
        product = 1
        for p, s in fac.factors:
            product *= p**s
        assert product == n


def test_factorize_random_64bit_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randrange(2, 2**63)
        fac = factorize.__wrapped__(n)
        assert dict(fac.factors) == dict(sympy.factorint(n))


def test_factorize_seeded_sizes_against_sympy():
    # n of every size up to 10^18, across the gcd path, the proven trial
    # cofactor and Pollard rho
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2017)
    for _ in range(600):
        n = rng.randrange(1, 10 ** rng.randrange(1, 19))
        fac = factorize.__wrapped__(n)
        assert dict(fac.factors) == dict(sympy.factorint(n))


def test_factorize_point_shaped_mix_against_sympy():
    # the classes of n that reach Pollard p-1 and rho in the point workload,
    # and products of two primes that p-1 catches both of
    sympy = pytest.importorskip("sympy")
    rng = random.Random(48)

    def prime(bits):
        return sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))

    def smooth(limit):
        n = 1
        while (r := rng.choice(SMALL_PRIMES[:168])) * n <= limit:  # r < 1000
            n *= r
        return n

    for _ in range(50):
        for n in (
            prime(rng.randrange(20, 29)) * prime(rng.randrange(20, 29)),
            rng.randrange(2, 10**18),
            smooth(10**6) * prime(rng.randrange(60, 101)),
            pm1_prime(rng, rng.randrange(20, 29)) * pm1_prime(rng, rng.randrange(20, 29)),
        ):
            assert dict(factorize.__wrapped__(n).factors) == sympy.factorint(n), n
