import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from mdseries import arith
from mdseries.arith import character_table, factorize, is_prime, primes_up_to
from mdseries.coefficients import (CharacterFamily, HeckeGL2Family, TableFamily,
                                   TauFamily, TrivialFamily, _hecke_table, _tau_values,
                                   _times,
                                   eval_product_coefficient, hecke_prime_power,
                                   ramanujan_tau_table, tau_moduli, trivial_tuple)
from mdseries.errors import MissingPrimePowerError
from mdseries.limits import LPF_SIEVE_LIMIT, TAU_TABLE_LIMIT


def naive_delta_expansion(N):
    """Independent oracle: multiply out q * prod_{k<=N} (1-q^k)^24 directly."""
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for k in range(1, N + 1):
        for _ in range(24):
            # multiply by (1 - q^k) in place
            for d in range(N, k - 1, -1):
                coeffs[d] -= coeffs[d - k]
    return [0] + coeffs[: N]  # shift by q


def dense_by_sparse_tau(N):
    """Independent oracle: q * g^8 in exact Python integers, for Jacobi's
    g = sum_k (-1)^k (2k+1) q^{k(k+1)/2} = prod (1-q^k)^3, by 7 dense-by-sparse
    passes truncated below degree N."""
    jac = []
    k = 0
    while k * (k + 1) // 2 < N:
        jac.append((k * (k + 1) // 2, (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)))
        k += 1
    cur = [0] * N
    for d, c in jac:
        cur[d] = c
    for _ in range(7):
        new = [0] * N
        for d, c in jac:
            new[d:] = [x + c * y for x, y in zip(new[d:], cur[: N - d])]
        cur = new
    return [0] + cur


def chebyshev_like(c, e):
    """Closed form for the Hecke recursion:
    lambda(p^e) = sum_k (-1)^k C(e-k, k) c^(e-2k)."""
    return sum((-1) ** k * math.comb(e - k, k) * c ** (e - 2 * k)
               for k in range(e // 2 + 1))


class TestHecke:
    def test_examples(self):
        c = 0.7 - 0.2j
        assert hecke_prime_power(c, 0) == 1
        assert hecke_prime_power(c, 1) == c
        assert hecke_prime_power(c, 2) == pytest.approx(c * c - 1)
        assert hecke_prime_power(c, 3) == pytest.approx(c**3 - 2 * c)

    def test_closed_form_closure(self):
        rng = random.Random(4)
        for _ in range(20):
            c = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            for e in range(11):
                assert hecke_prime_power(c, e) == pytest.approx(
                    chebyshev_like(c, e), abs=1e-9)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            hecke_prime_power(1.0, -1)

    def test_table_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="^exponent must be >= 0$"):
            _hecke_table(np.array([0.5 + 0j]), [1, -1])

    def test_table_keeps_the_scalar_bits(self):
        # a real lambda goes through the complex product, as in the scalar
        # recursion, so signed zeros keep their bytes too
        lam = np.array([0.0, -0.0, -1.5, 1.25, 2.0, -2.0])
        exps = [3, 0, 1, 7, 2]
        want = [[hecke_prime_power(x, e) for e in exps] for x in lam.tolist()]
        assert _hecke_table(lam, exps).tobytes() == np.array(want).tobytes()


def random_doubles(rng, k):
    """k doubles of random sign, 53-bit mantissa and exponent in -300..300,
    so that no product overflows or underflows to zero."""
    return np.array([math.ldexp(rng.choice((-1, 1)) * rng.getrandbits(53),
                                rng.randint(-353, 247)) for _ in range(k)])


class TestTimes:
    def complexes(self, rng, k):
        """k values, half with parts from random_doubles and half with parts
        in [-2, 2), where products of like size make numpy's fused complex
        multiply round differently on some hosts."""
        z = np.empty(k, dtype=complex)
        for part in (z.real, z.imag):
            part[:] = np.concatenate([random_doubles(rng, k // 2),
                                      [rng.uniform(-2, 2) for _ in range(k - k // 2)]])
        return z

    @pytest.mark.parametrize("seed", range(4))
    def test_two_complex_sides_make_the_python_product(self, seed):
        rng = random.Random(seed)
        a, b = self.complexes(rng, 5000), self.complexes(rng, 5000)
        want = np.array([x * y for x, y in zip(a.tolist(), b.tolist())])
        got = _times(a, b)
        assert got.tobytes() == want.tobytes()
        # a value has the same bits at any place in any array
        for i in range(0, 5000, 499):
            for at in (slice(i, i + 1), slice(i, i + 3, 2)):
                assert _times(a[at], b[at]).tobytes() == got[at].tobytes()

    def test_a_real_side_multiplies_each_part(self):
        rng = random.Random(5)
        z, x = self.complexes(rng, 1000), random_doubles(rng, 1000)
        for got in (_times(z, x), _times(x, z)):
            assert got.dtype == complex
            assert got.real.tobytes() == (z.real * x).tobytes()
            assert got.imag.tobytes() == (z.imag * x).tobytes()
        assert _times(x, x).tobytes() == (x * x).tobytes() and _times(x, x).dtype == np.float64


class TestTauTable:
    def test_known_values(self):
        tau = ramanujan_tau_table(10)
        assert tau[1] == 1
        assert tau[2] == -24
        assert tau[3] == 252
        assert tau[5] == 4830
        assert tau[6] == tau[2] * tau[3] == -6048

    def test_against_naive_expansion(self):
        assert ramanujan_tau_table(30)[1:] == naive_delta_expansion(30)[1:]

    def test_multiplicative_to_300(self):
        tau = ramanujan_tau_table(300)
        for a in range(2, 300):
            for b in range(a, 300):
                if a * b <= 300 and math.gcd(a, b) == 1:
                    assert tau[a * b] == tau[a] * tau[b]

    def test_deligne_scale(self):
        tau = ramanujan_tau_table(10**4)
        for p in primes_up_to(10**4):
            assert abs(tau[p]) <= 2 * p**5.5 * (1 + 1e-12)

    def test_cap(self):
        with pytest.raises(ValueError):
            ramanujan_tau_table(10**5 + 1)

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 500, 2000])
    def test_equals_dense_by_sparse_oracle(self, N):
        tau = ramanujan_tau_table(N)
        assert tau == dense_by_sparse_tau(N)
        assert all(type(x) is int for x in tau)

    def test_moduli_exceed_coefficient_bound(self):
        # Deligne: |tau(n)| <= d(n) n^(11/2) <= 2 n^6, so residues modulo
        # primes whose product exceeds 4 N^6 determine tau(n) for n <= N; a
        # pass adds at most ||g||_1 multiples of a residue, so int64 holds it
        for N in (1, 2, 10**4, TAU_TABLE_LIMIT):
            g_l1 = sum(2 * k + 1 for k in range(N) if k * (k + 1) // 2 < N)
            moduli = tau_moduli(N)
            assert math.prod(moduli) > 4 * N**6 >= math.prod(moduli[:-1])
            assert g_l1 * max(moduli) < 2**62
            assert len(set(moduli)) == len(moduli)
            assert all(is_prime(m) for m in moduli)
        assert len(tau_moduli(10**4)) == 2 and len(tau_moduli(TAU_TABLE_LIMIT)) == 3

    def test_deligne_bound_to_1e4(self):
        # |tau(n)| <= d(n) n^(11/2), squared to stay in integers
        tau = ramanujan_tau_table(10**4)
        d = [0] * (10**4 + 1)
        for a in range(1, 10**4 + 1):
            for n in range(a, 10**4 + 1, a):
                d[n] += 1
        assert all(tau[n] ** 2 <= d[n] ** 2 * n**11 for n in range(1, 10**4 + 1))

    @pytest.mark.parametrize("p", [2**31 - 1, 10**9 + 7])
    def test_residues_modulo_other_primes(self, p):
        # q * prod (1-q^k)^24 modulo p by 24 products with Euler's pentagonal
        # series sum_k (-1)^k q^(k(3k-1)/2), k in Z: neither Jacobi's series
        # nor a modulus of the table
        N = 10**4
        assert p not in tau_moduli(N)
        pent = {}
        for k in range(-N, N + 1):
            if 0 <= k * (3 * k - 1) // 2 < N:
                pent[k * (3 * k - 1) // 2] = -1 if k % 2 else 1
        cur = np.zeros(N, dtype=np.int64)
        cur[0] = 1
        for _ in range(24):
            new = np.zeros_like(cur)
            for d, c in pent.items():
                new[d:] += c * cur[:N - d]
            cur = new % p
        assert [x % p for x in ramanujan_tau_table(N)[1:]] == cur.tolist()

    def test_ramanujan_691_congruence(self):
        # tau(n) = sigma_11(n) mod 691
        N = 10**4
        sigma = [0] * (N + 1)
        for a in range(1, N + 1):
            for n in range(a, N + 1, a):
                sigma[n] += pow(a, 11, 691)
        tau = ramanujan_tau_table(N)
        assert all((tau[n] - sigma[n]) % 691 == 0 for n in range(1, N + 1))

    def test_hecke_relation_at_prime_squares(self):
        tau = ramanujan_tau_table(10**4)
        for p in primes_up_to(100):
            assert tau[p * p] == tau[p] ** 2 - p**11


class TauFromFullTable:
    """Oracle: the normalized tau values built from the whole table tau(1..bound),
    in the operations TauFamily used when it kept that table."""

    def __init__(self, bound):
        self.bound = bound
        self.table = ramanujan_tau_table(bound)
        self.norm = np.zeros(bound + 2)
        self.top = np.zeros(bound + 2, dtype=np.int64)
        self.norm[1] = 1.0
        for p in primes_up_to(bound):
            pe, e = p, 1
            while pe <= bound:
                self.norm[pe], self.top[p] = self.table[pe] / p ** (5.5 * e), e
                pe, e = pe * p, e + 1

    def prime_power(self, p, e):
        if p**e <= self.bound:
            return complex(self.table[p**e] / p ** (5.5 * e))
        return hecke_prime_power(self.table[p] / p**5.5, e)


def complex_bits(z):
    return struct.pack("<dd", z.real, z.imag)


class TestTauPrimePowers:
    BOUNDS = [1, 2, 3, 4, 10, 500, 2000, 10**4]
    EXPS = list(range(27))          # past the table at every bound here

    @pytest.fixture
    def fresh(self, monkeypatch):
        """TauFamily with an empty table cache, so each bound is built here."""
        monkeypatch.setattr(TauFamily, "_table_cache", {})
        return TauFamily

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_arrays_equal_the_full_table_oracle(self, fresh, bound):
        fam, oracle = fresh(bound), TauFromFullTable(bound)
        assert fam._norm.dtype == oracle.norm.dtype and fam._top.dtype == oracle.top.dtype
        assert fam._norm.tobytes() == oracle.norm.tobytes()
        assert fam._top.tobytes() == oracle.top.tobytes()
        assert not hasattr(fam, "table")

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_values_equal_the_full_table_oracle(self, fresh, bound):
        fam, oracle = fresh(bound), TauFromFullTable(bound)
        primes = primes_up_to(bound)
        for p in primes:
            assert oracle.top[p] < self.EXPS[-1]
            for e in self.EXPS:
                got = fam.prime_power(p, e)
                assert type(got) is complex
                assert complex_bits(got) == complex_bits(oracle.prime_power(p, e)), (p, e)
        table = fam.prime_power_table(primes, self.EXPS)
        want = [[oracle.prime_power(p, e) for e in self.EXPS] for p in primes]
        assert table.tobytes() == np.array(want, dtype=complex).reshape(table.shape).tobytes()
        assert complex_bits(fam.prime_power(2, 0)) == complex_bits(1 + 0j)

    def test_crt_at_scattered_indices(self):
        N = 5000
        table = ramanujan_tau_table(N)
        rng = random.Random(13)
        # unordered, with repeats and both ends, and longer than one CRT chunk
        ns = [N, 1, 2, 2] + [rng.randint(1, N) for _ in range(1500)]
        got = _tau_values(N, np.array(ns, dtype=np.int64))
        assert got == [table[n] for n in ns]
        assert all(type(x) is int for x in got)
        assert _tau_values(N, np.array([], dtype=np.int64)) == []

    def test_rejects_N_below_one(self):
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            _tau_values(0, [])

    def test_one_modulus_at_a_time(self, fresh):
        # the passes reuse one 3 x N int64 buffer, 24 N bytes, across the
        # three moduli at this bound; holding every modulus at once takes
        # three such buffers
        N = 5 * 10**4
        assert len(tau_moduli(N)) == 3
        primes_up_to(N)             # the shared prime sieve is grown outside
        tracemalloc.start()
        try:
            fresh(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * N


class TestFamilies:
    def test_trivial(self):
        assert TrivialFamily().value(360) == 1

    def test_hecke_at_4(self):
        c = -0.8 + 0.1j
        fam = HeckeGL2Family({2: c})
        assert fam.value(4) == pytest.approx(c * c - 1)

    def test_hecke_missing_prime(self):
        fam = HeckeGL2Family({2: 1.0})
        with pytest.raises(MissingPrimePowerError):
            fam.value(3)

    def test_character_at_6(self):
        fam = CharacterFamily(character_table(5), 2)
        assert fam.value(6) == pytest.approx(1)

    def test_table_family(self):
        fam = TableFamily({(2, 1): 3j, (3, 1): 2.0})
        assert fam.value(6) == pytest.approx(6j)
        with pytest.raises(MissingPrimePowerError):
            fam.value(4)

    def test_tau_normalized_values(self):
        fam = TauFamily(1000)
        assert fam.value(2) == pytest.approx(-24 / 2**5.5)
        tau = ramanujan_tau_table(1000)
        assert fam.value(12) == pytest.approx(tau[12] / 12**5.5)

    def test_tau_hecke_extension_consistent(self):
        # prime powers beyond the table agree with table values of a bigger table
        small = TauFamily(100)
        big = TauFamily(10**4)
        for p, e in [(2, 9), (3, 5), (7, 3)]:
            assert small.prime_power(p, e) == pytest.approx(big.prime_power(p, e))

    def test_tau_prime_beyond_table(self):
        fam = TauFamily(100)
        with pytest.raises(MissingPrimePowerError):
            fam.prime_power(101, 1)

    @pytest.mark.parametrize("make", [
        lambda: TrivialFamily(),
        lambda: CharacterFamily(character_table(7), 3),
        lambda: HeckeGL2Family({p: 0.3 * ((p * 7) % 11 - 5)
                                for p in primes_up_to(10**4)}),
        lambda: TauFamily(10**4),
    ])
    def test_multiplicativity(self, make):
        fam = make()
        rng = random.Random(99)
        pairs = 0
        while pairs < 80:
            a = rng.randint(2, 10**4)
            b = rng.randint(2, 10**4)
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            assert fam.value(a * b) == pytest.approx(
                fam.value(a) * fam.value(b), abs=1e-12)


class TestProductCoefficient:
    def test_all_trivial(self):
        assert eval_product_coefficient(trivial_tuple(3), [(4, 9, 25)]).tolist() == [1]

    def test_mixed(self):
        c = 0.5 + 0.5j
        fams = (TrivialFamily(), HeckeGL2Family({2: c}))
        assert eval_product_coefficient(fams, [(3, 2)])[0] == pytest.approx(c)

    def test_tau_point(self):
        fams = (TauFamily(1000),)
        assert eval_product_coefficient(fams, [(2,)])[0] == pytest.approx(
            -0.530330085889910, abs=1e-12)

    def test_window_bitwise_the_scalar_product(self):
        # trivial columns are multiplied too: a Hecke value whose imaginary
        # part is -0.0, times 1+0j, has +0.0, as in the scalar product
        fams = (CharacterFamily(character_table(7), 3),
                HeckeGL2Family({p: 0.3 * ((p * 7) % 11 - 5) for p in primes_up_to(50)}),
                TrivialFamily())
        X = np.array([(a, b, c) for a in (1, 5, 14) for b in range(1, 51) for c in (1, 7)])
        assert np.signbit(fams[1].values(X[:, 1]).imag).any()
        want = [math.prod((f.value(n) for f, n in zip(fams, row)), start=1 + 0j)
                for row in X.tolist()]
        assert eval_product_coefficient(fams, X).tobytes() == np.array(want).tobytes()

    def test_missing_value_names_its_column(self):
        fams = (HeckeGL2Family({2: 0.5}), TrivialFamily(), TableFamily({(2, 1): 1.0}))
        with pytest.raises(MissingPrimePowerError,
                           match=r"^coefficients\[2\]: explicit table has no entry for 3\^1$"):
            eval_product_coefficient(fams, [(2, 5, 2), (4, 1, 3)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_product_coefficient(trivial_tuple(2), [(1, 2, 3)])

    def test_rejects_nonpositive(self):
        for point in ((0, 2), (3, -1)):
            with pytest.raises(ValueError, match="positive"):
                eval_product_coefficient(trivial_tuple(2), [point])


def _gapped_table():
    """Entries for p < 50, e <= 24, with (p + e) % 5 == 0 left out."""
    return TableFamily({(p, e): complex(math.cos(p * e), math.sin(p - e))
                        for p in primes_up_to(50) for e in range(1, 25) if (p + e) % 5})


class TestValues:
    """values(n) against the scalar value(n), bit for bit."""

    KINDS = {
        "trivial": TrivialFamily,
        "character": lambda: CharacterFamily(character_table(7), 3),
        "hecke real": lambda: HeckeGL2Family({p: 0.3 * ((p * 7) % 11 - 5)
                                              for p in primes_up_to(1000)}),
        "hecke complex": lambda: HeckeGL2Family({p: complex(math.cos(p), math.sin(p) / 2)
                                                 for p in primes_up_to(1000)}),
        "tau": lambda: TauFamily(1000),
        "gapped table": _gapped_table,
    }
    # past LPF_SIEVE_LIMIT // 4 (and past LPF_SIEVE_LIMIT from 3^15 on),
    # all with prime factors below 1000, some repeated; 7 | n for several
    FAR = [LPF_SIEVE_LIMIT // 4 + 8, LPF_SIEVE_LIMIT // 4 + 20, 2**22, 3**15,
           2**24 * 3, 997 * 991 * 13, 2**3 * 7 * 997 * 97, 3**15]

    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_the_scalar_value(self, kind, monkeypatch):
        fam = self.KINDS[kind]()
        ns = [n for n in list(range(1, 1001)) + self.FAR
              if kind != "gapped table" or all(pe in fam.entries for pe in factorize(n))]
        assert len(ns) > 100
        want = np.array([fam.value(n) for n in ns], dtype=complex)
        calls = []
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        got = fam.values(np.array(ns, dtype=np.int64))
        assert got.dtype == complex and got.tobytes() == want.tobytes()
        # a family that factors makes one factorize call per distinct
        # n past the sieve, and none inside it
        far = {n for n in ns if n > max(arith._lpf_limit, LPF_SIEVE_LIMIT // 4)}
        assert far and len(calls) == len(set(calls))
        assert set(calls) == (set() if kind in ("trivial", "character") else far)
        assert fam.values(np.array([1], dtype=np.int64)).tobytes() == \
            np.array([1 + 0j]).tobytes()
        assert fam.values(np.zeros(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("fam,ns,message", [
        # 5 comes first and lacks lambda(5); 3 lacks it too, and is smaller
        (HeckeGL2Family({2: 0.5}), [2, 5, 9, 4], r"no lambda\(3\) supplied for hecke_gl2 family"),
        (TableFamily({(2, 1): 1.0, (3, 1): 1.0}), [6, 12], r"explicit table has no entry for 2\^2"),
        (TauFamily(100), [4, 2 * 103, 101], r"tau table \(bound 100\) cannot reach prime 101"),
    ], ids=["hecke", "table", "tau"])
    def test_missing_value_names_the_smallest_prime(self, fam, ns, message):
        with pytest.raises(MissingPrimePowerError, match=f"^{message}$"):
            fam.values(np.array(ns, dtype=np.int64))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="n >= 1"):
            HeckeGL2Family({2: 0.5}).values(np.array([2, 0]))
