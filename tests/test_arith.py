import cmath
import math
import random

import numpy as np
import pytest

from mdseries import arith
from mdseries.arith import (character_table, factor_levels, factorize, iroot, is_prime,
                            primes_up_to, valuation)
from mdseries.coefficients import HeckeGL2Family, TauFamily
from mdseries.limits import TWIST_LIMIT


def trial_division(n):
    """Independent factorization oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def level_factorizations(ns):
    """factor_levels(ns) read back as one factorization tuple per n."""
    out = [[] for _ in ns]
    for rows, p, e in factor_levels(np.array(ns, dtype=np.int64)):
        for r, pe in zip(rows.tolist(), zip(p.tolist(), e.tolist())):
            out[r].append(pe)
    return [tuple(f) for f in out]


def sieve_count(limit):
    """Independent prime-count oracle."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return sum(flags)


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_primorial_matches_trial_division(self):
        assert factorize(9699690) == trial_division(9699690)
        assert factorize(9699690) == (
            (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1))

    def test_rejects_zero_and_huge(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(TWIST_LIMIT + 1)

    def test_large_input_within_cap(self):
        n = 499999999979  # a prime past the sieve, alone and doubled
        assert factorize(n) == ((n, 1),)
        assert factorize(2 * n) == ((2, 1), (n, 1))

    @pytest.mark.parametrize("n,want", [
        (2 * (10**12 + 39), ((2, 1), (10**12 + 39, 1))),
        (999999999989 * 7, ((7, 1), (999999999989, 1))),
        ((2**31 - 1) * 2147483629, ((2147483629, 1), (2**31 - 1, 1))),
        (2**61 - 1, ((2**61 - 1, 1),)),
        (TWIST_LIMIT, ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))),
    ])
    def test_past_the_sieve_up_to_the_twist_limit(self, n, want):
        assert factorize(n) == want

    def test_reconstruction_up_to_1e5(self):
        for n in range(1, 100_001):
            prod = 1
            prev = 0
            for p, e in factorize(n):
                assert p > prev and e >= 1
                prev = p
                prod *= p**e
            assert prod == n

    def test_random_against_trial_division(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 10**9)
            assert factorize(n) == trial_division(n)


class TestLpfSieveGrowth:
    """The least-prime-factor sieve grows from what is asked of it."""

    @pytest.fixture
    def empty_sieve(self, monkeypatch):
        monkeypatch.setattr(arith, "_lpf", None)
        monkeypatch.setattr(arith, "_lpf_limit", 0)

    NS = [n for k in range(18) for n in (2**k - 1, 2**k, 2**k + 1) if n >= 1]

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_factor_levels_across_every_growth(self, empty_sieve, order):
        ns = sorted(set(self.NS), reverse=order == "descending")
        for i, n in enumerate(ns):
            before = arith._lpf_limit
            assert level_factorizations([n]) == [trial_division(n)], n
            largest = max(ns[:i + 1])
            if largest > 1:
                assert largest <= arith._lpf_limit <= 2 * largest
                assert len(arith._lpf) == arith._lpf_limit + 1
            if arith._lpf_limit != before:      # each growth at least doubles
                assert arith._lpf_limit >= 2 * before

    def test_character_table_sieves_only_what_it_factors(self, empty_sieve):
        # character_table factors q - 1 by factorize, which reads no sieve
        tb = character_table(101)
        assert tb.g == primitive_root_oracle(101)
        assert arith._lpf_limit == 0 and arith._lpf is None


class TestFactorizeWithoutTheSieve:
    """factorize, and so the scalar references that factor through it,
    read no sieve: they check factor_levels from outside it."""

    NS = list(range(1, 3000)) + [2**16 * 3, 65521 * 65519, 9699690, 2**31 - 1]

    def test_an_empty_sieve_stays_empty(self, monkeypatch):
        monkeypatch.setattr(arith, "_lpf", None)
        monkeypatch.setattr(arith, "_lpf_limit", 0)
        assert [factorize(n) for n in self.NS] == [trial_division(n) for n in self.NS]
        assert arith._lpf is None and arith._lpf_limit == 0

    def test_a_corrupted_sieve_is_not_read(self, monkeypatch):
        # a sieve that marks every n prime, so any read of it shows
        primes_up_to(1 << 12)
        bad = np.arange(len(arith._lpf), dtype=np.int32)
        monkeypatch.setattr(arith, "_lpf", bad)
        assert [factorize(n) for n in self.NS] == [trial_division(n) for n in self.NS]
        assert arith._lpf is bad and arith._lpf_limit == len(bad) - 1
        ns = range(2, 200)
        assert level_factorizations(ns) != [trial_division(n) for n in ns]
        for fam in (HeckeGL2Family({p: 0.1 * (p % 7) - 0.3 for p in primes_up_to(3000)}),
                    TauFamily(3000)):
            for n in ns:
                want = 1 + 0j
                for p, e in trial_division(n):
                    want *= fam.prime_power(p, e)
                assert fam.value(n) == want, n


class TestPrimeSieveGrowth:
    """primes_up_to reads the least-prime-factor sieve, which grows to the
    power of two above a request."""

    @pytest.fixture
    def empty_sieve(self, monkeypatch):
        monkeypatch.setattr(arith, "_lpf", None)
        monkeypatch.setattr(arith, "_lpf_limit", 0)

    def test_one_growth_for_one_octave(self, empty_sieve):
        # a descriptor's lambda-key check, then an Euler product at P = 10^4
        assert primes_up_to(9973)[-1] == 9973
        assert arith._lpf_limit == 1 << 14
        sieved = arith._lpf
        assert primes_up_to(10000)[-1] == 9973
        assert arith._lpf is sieved

    PS = [P for k in range(1, 16) for P in (2**k - 1, 2**k, 2**k + 1) if P >= 2]

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_against_trial_division(self, empty_sieve, order):
        prime = [n >= 2 and trial_division(n) == ((n, 1),) for n in range(max(self.PS) + 1)]
        Ps = sorted(set(self.PS), reverse=order == "descending")
        for i, P in enumerate(Ps):
            assert primes_up_to(P) == [n for n in range(P + 1) if prime[n]], P
            largest = max(Ps[:i + 1])
            limit = arith._lpf_limit     # a power of two, at most twice a request
            assert largest <= limit <= 2 * largest and limit & (limit - 1) == 0

    def test_stops_at_the_sieve_limit(self, empty_sieve, monkeypatch):
        monkeypatch.setattr(arith, "LPF_SIEVE_LIMIT", 3000)
        assert primes_up_to(3000)[-1] == 2999
        assert arith._lpf_limit == 3000 and len(arith._lpf) == 3001
        with pytest.raises(ValueError, match="^primes_up_to\\(3001\\): P is past the "
                           "prime sieve's limit 3000$"):
            primes_up_to(3001)
        assert arith._lpf_limit == 3000


class TestFactorizeTwist:
    """factorize on twists and on the n past factor_levels' sieve."""

    def test_agrees_with_factorize_below_its_cap(self):
        # factor_levels, within its sieve and past it, agrees with
        # factorize, and both with an independent oracle
        sympy = pytest.importorskip("sympy")
        rng = random.Random(12)
        ns = [1, 2, 97, 2**39, 10**12] + [rng.randint(1, 10**12) for _ in range(300)]
        ns += [rng.randint(1, 10**6) for _ in range(300)]
        want = [tuple(sorted(sympy.factorint(n).items())) for n in ns]
        assert [factorize(n) for n in ns] == level_factorizations(ns) == want

    @pytest.mark.parametrize("n", [
        2**20 * 3**13,                       # tiny primes, above 10^12
        2**61 - 1,                           # a prime
        TWIST_LIMIT,                         # 7^2 * 73 * 127 * 337 * 92737 * 649657
        (2**31 - 1) * 2147483629,            # two primes near 2^31
        3037000493**2,                       # the square of a prime near 2^31.5
        101**9,
        999999999989 * 7,
    ])
    def test_large_twists(self, n):
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(is_prime(p) and e >= 1 for p, e in fact)
        assert [p for p, _ in fact] == sorted({p for p, _ in fact})

    def test_rejects_out_of_range(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match=f"^factorize requires n >= 1, got {n}$"):
                factorize(n)
        with pytest.raises(ValueError, match="exceeds the twist cap"):
            factorize(TWIST_LIMIT + 1)


class TestValuation:
    def test_examples(self):
        assert valuation(2, 8) == 3
        assert valuation(3, 10) == 0
        assert valuation(7, 1715) == 3

    def test_repeated_division_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            x = rng.randint(1, 10**6)
            k, y = 0, x
            while y % p == 0:
                y //= p
                k += 1
            assert valuation(p, x) == k

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            valuation(4, 16)
        with pytest.raises(ValueError):
            valuation(1, 5)

    @pytest.mark.parametrize("x", [0, -8])
    def test_rejects_x_below_one(self, x):
        with pytest.raises(ValueError, match=f"^valuation requires x >= 1, got {x}$"):
            valuation(2, x)

    def test_additivity(self):
        rng = random.Random(55)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            x = rng.randint(1, 10**6)
            y = rng.randint(1, 10**6)
            assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)


class TestIroot:
    def test_small(self):
        assert [iroot(v, 3) for v in (0, 1, 7, 8, 26, 27)] == [0, 1, 1, 2, 2, 3]
        assert iroot(10, 1) == 10 and iroot(99, 2) == 9

    def test_beyond_float_precision(self):
        # a float cube root cannot tell these apart; the integer root can
        x = 2**63 - 25
        assert iroot(x**3, 3) == x
        assert iroot(x**3 - 1, 3) == x - 1
        assert iroot((x + 1) ** 5 - 1, 5) == x

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(8, 0)


class TestPrimes:
    def test_small(self):
        assert primes_up_to(1) == []
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_count_below_1e4(self):
        assert len(primes_up_to(10**4)) == 1229
        assert len(primes_up_to(10**4)) == sieve_count(10**4)

    def test_ascending_and_prime(self):
        ps = primes_up_to(500)
        assert ps == sorted(ps)
        assert all(is_prime(p) for p in ps)


def primitive_root_oracle(q):
    """Exhaustive order check, independent of the table construction."""
    for g in range(2, q):
        seen = set()
        cur = 1
        for _ in range(q - 1):
            cur = cur * g % q
            seen.add(cur)
        if len(seen) == q - 1:
            return g
    raise AssertionError


class TestCharacterTable:
    def test_mod5_logs(self):
        tb = character_table(5)
        assert tb.g == 2
        assert tb.log[2] == 1 and tb.log[4] == 2 and tb.log[3] == 3

    def test_mod3_legendre(self):
        tb = character_table(3)
        assert tb.char_value(1, 2) == pytest.approx(-1)

    def test_mod7_primitive_root(self):
        tb = character_table(7)
        assert tb.g == primitive_root_oracle(7)
        assert tb.char_value(1, 3) == pytest.approx(cmath.exp(2j * math.pi / 6))

    def test_rejects_bad_modulus(self):
        for q in (2, 4, 9, 15, 100):
            with pytest.raises(ValueError):
                character_table(q)

    def test_log_roundtrip(self):
        for q in (5, 13, 101):
            tb = character_table(q)
            for a in range(q - 1):
                assert tb.log[pow(tb.g, a, q)] == a


class TestCharEval:
    def test_principal(self):
        tb = character_table(5)
        assert tb.char_value(0, 7) == pytest.approx(1)

    def test_vanishes_on_multiples(self):
        tb = character_table(5)
        assert tb.char_value(1, 5) == 0
        assert tb.char_value(3, 100) == 0

    def test_chi2_of_2_mod5(self):
        tb = character_table(5)
        assert tb.char_value(2, 2) == pytest.approx(-1)

    def test_negative_k_is_conjugate(self):
        tb = character_table(13)
        for k in range(1, 12):
            for n in (2, 5, 7):
                assert tb.char_value(-k, n) == pytest.approx(
                    tb.char_value(k, n).conjugate())

    def test_orthogonality(self):
        for q in [p for p in primes_up_to(101) if p > 2]:
            tb = character_table(q)
            for u in range(1, q):
                total = sum(tb.char_value(k, u) for k in range(q - 1))
                if u % q == 1:
                    assert total == pytest.approx(q - 1)
                else:
                    assert abs(total) < 1e-9

    def test_complete_multiplicativity(self):
        rng = random.Random(3)
        tb = character_table(31)
        for _ in range(200):
            a = rng.randint(1, 10**4)
            b = rng.randint(1, 10**4)
            assert tb.char_value(5, a * b) == pytest.approx(
                tb.char_value(5, a) * tb.char_value(5, b))
