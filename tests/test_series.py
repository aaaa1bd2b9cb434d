import cmath
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdseries import limits, series, variety
from mdseries.arith import character_table, primes_up_to
from mdseries.coefficients import (CharacterFamily, HeckeGL2Family,
                                   TableFamily, TauFamily, TrivialFamily,
                                   all_trivial, eval_product_coefficient,
                                   trivial_tuple)
from mdseries.errors import ConvergenceError, MissingPrimePowerError
from mdseries.series import (EvalParams, EvalReport, compare, default_exponent_bound,
                             direct_sum, direct_sum_and_half, euler_product,
                             local_factor, prime_exponent_bound)
from mdseries.lattice import (AddMultiple, Negate, Swap, apply_row_op,
                              block_compose, negate_system)
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.variety import box_array, local_solutions, monomial_rhs_at

DIAG = make_system([[1, -1]])
TRIV2 = trivial_tuple(2)
# n3 = 6 n1 n2 and 3 n4 = 5 n2 n3: twist primes 2, 3, 5, one family per kind
TWISTED = make_system([[1, 1, -1, 0], [0, 1, 1, -1]], omega=(6, 5), omega_prime=(1, 3))


def twisted_families():
    lam = {p: math.cos(p * 1.0) * 1.8 for p in primes_up_to(1000)}
    return (TrivialFamily(), CharacterFamily(character_table(7), 2),
            HeckeGL2Family(lam), TauFamily(1000))


def real_twisted_families():
    """Families with real values on TWISTED: trivial, tau and real-lambda Hecke."""
    lam = {p: math.cos(p * 1.0) * 1.8 for p in primes_up_to(1000)}
    return (TrivialFamily(), TauFamily(1000), HeckeGL2Family(lam), TrivialFamily())


def scalar_local_factor(S, c, p, s, B):
    """Oracle: the Euler factor at p by a Python loop over the local
    solutions, with the powers p^(-s_j e) by repeated multiplication of
    numpy's complex exp of -s_j log p."""
    sols = local_solutions(S, p, B).solutions
    tables = []
    for z, fam, column in zip(s, c, zip(*sols)):
        x = complex(np.exp(-complex(z) * math.log(p)))
        row, power = [1 + 0j], 1 + 0j
        for e in range(1, max(column) + 1):
            power *= x
            row.append(power * fam.prime_power(p, e) if e in column else None)
        tables.append(row)
    terms = []
    for alpha in sols:
        term = 1 + 0j
        for row, e in zip(tables, alpha):
            term *= row[e]
        terms.append(term)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def oracle_bound(S, p, B):
    """Oracle: the local exponent bound at p by an integer loop, B where some
    row's twists differ in their p-valuation, else the least b with
    p^b >= 2^B."""
    def val(n):
        v = 0
        while n % p == 0:
            n, v = n // p, v + 1
        return v
    if any(val(w) != val(wp) for w, wp in zip(S.omega, S.omega_prime)):
        return B
    b = 0
    while p**b < 2**B:
        b += 1
    return b


def random_system(rng, tmax=3, mmax=2, amax=3, wmax=4):
    t = rng.randint(1, tmax)
    m = rng.randint(1, mmax)
    rows = []
    for _ in range(m):
        while True:
            row = tuple(rng.randint(-amax, amax) for _ in range(t))
            if any(row):
                break
        rows.append(row)
    return LaurentMonomialSystem(
        t=t, m=m, A=tuple(rows),
        omega=tuple(rng.randint(1, wmax) for _ in range(m)),
        omega_prime=tuple(rng.randint(1, wmax) for _ in range(m)))


class TestDirectSum:
    def test_three_term_diagonal(self):
        v = direct_sum(DIAG, TRIV2, (2, 2), 3)
        assert v == pytest.approx(1393 / 1296, abs=1e-15)  # 1 + 2^-4 + 3^-4

    def test_zeta2_tail(self):
        S = LaurentMonomialSystem(t=1, m=0, A=(), omega=(), omega_prime=())
        v = direct_sum(S, trivial_tuple(1), (2,), 10**6)
        assert abs(v - math.pi**2 / 6) < 2e-6

    def test_empty_variety(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        assert direct_sum(S, TRIV2, (2, 2), 10) == 0

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            direct_sum(DIAG, TRIV2, (1, 2), 10)
        # explicit override evaluates the formal truncation
        v = direct_sum(DIAG, TRIV2, (1, 1), 3, override_convergence=True)
        assert v == pytest.approx(1 + 1 / 4 + 1 / 9)

    def test_complex_s(self):
        v = direct_sum(DIAG, TRIV2, (2 + 1j, 2 - 1j), 4)
        # diagonal collapses to sum n^-(s1+s2) = sum n^-4
        assert v == pytest.approx(sum(n**-4.0 for n in range(1, 5)))

    def test_length_checks(self):
        with pytest.raises(ValueError):
            direct_sum(DIAG, TRIV2, (2,), 5)
        with pytest.raises(ValueError):
            direct_sum(DIAG, trivial_tuple(3), (2, 2), 5)


class TestOnePowerRule:
    """Every power n^(-s) comes from series._exp: numpy's complex exp, whose
    bits are libm's at any SIMD dispatch, and float64 at real s."""

    @pytest.mark.parametrize("z", [2, 1.3, 2 + 0.5j])
    def test_kernel_powers_are_libm(self, z):
        # the one local solution alpha = (1,) makes the factor p^(-z) itself
        z, primes = complex(z), primes_up_to(4999)
        got = series._local_factors((TrivialFamily(),), (z,), primes, [(1,)])
        for p, x in zip(primes, got):
            want = cmath.exp(-z * math.log(p))
            assert x.real.hex() == want.real.hex(), p
            if z.imag:
                assert x.imag.hex() == want.imag.hex(), p

    def test_real_direct_sum_makes_no_complex_product(self):
        lam = {p: math.cos(p * 1.0) * 1.8 for p in primes_up_to(200)}
        fams = (TrivialFamily(), HeckeGL2Family(lam))
        with mock.patch.object(series, "_times", wraps=series._times) as spy:
            direct_sum_and_half(DIAG, fams, (2.0, 2.5), 200)
        assert spy.call_count > 0
        assert not [args for args, _ in spy.call_args_list if all(map(np.iscomplexobj, args))]


class TestDirectSumMemory:
    """The direct sum streams the box into two exact sums of fixed size: it
    holds no term of the box or the N/2 box beyond the current window, nor
    the K x t box or its K-long temporaries."""

    @staticmethod
    def traced_peak(S, N, z=2.0):
        fams, s = trivial_tuple(S.t), (z,) * S.t
        direct_sum_and_half(S, fams, s, 20)       # warm the import-time caches
        tracemalloc.start()
        try:
            direct_sum_and_half(S, fams, s, N)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_diagonal_at_1e5(self):
        # about 1.0 MiB, one window and two exact sums; the whole box took 10.7
        assert self.traced_peak(DIAG, 10**5) <= 1.5 * 2**20

    def test_free_last_coordinate_at_600(self):
        # about 0.9 MiB; the whole box took 46.7, and one block of N rows per
        # prefix would still take 36.4
        assert self.traced_peak(make_system([[1, -1, 0]]), 600) <= 2 * 2**20

    def test_complex_terms_do_not_grow_with_the_box(self):
        # about 1.5 MiB at both N; keeping the N/2-box terms and the
        # imaginary parts took 5.1 MiB at N = 2.5 * 10^4 and 18.6 at 10^5
        S = make_system([[1, 1, -1]])
        small, large = (self.traced_peak(S, N, 2 + 1j) for N in (25_000, 10**5))
        assert large <= 1.5 * small and large <= 3 * 2**20


class TestLocalFactor:
    def test_diagonal_geometric(self):
        v = local_factor(DIAG, TRIV2, 2, (2, 2), 3)
        assert v == pytest.approx(1 + 2**-4 + 2**-8 + 2**-12, abs=1e-15)

    def test_bound_zero_is_one(self):
        S = make_system([[3, -1]])
        assert local_factor(S, TRIV2, 97, (2, 2), 0) == 1

    def test_single_twisted_solution(self):
        S = make_system([[2]], omega=(1,), omega_prime=(4,))
        v = local_factor(S, trivial_tuple(1), 2, (3,), 3)
        assert v == pytest.approx(2**-3, abs=1e-15)

    def test_overflowing_power_names_its_prime(self):
        # 137273^60 > 2^1024 > 137251^60: the power p^(-s) overflows
        S = LaurentMonomialSystem(t=1, m=0, A=(), omega=(), omega_prime=())
        assert math.isfinite(abs(local_factor(S, trivial_tuple(1), 137251, (-60,), 1)))
        with pytest.raises(OverflowError,
                           match="^the Euler factor at p = 137273 overflows float64$"):
            local_factor(S, trivial_tuple(1), 137273, (-60,), 1)

    @pytest.mark.parametrize("p", [-3, 0, 1])
    def test_rejects_p_below_two(self, p):
        with pytest.raises(ValueError, match=f"^local_factor requires a prime p, got {p}$"):
            local_factor(DIAG, TRIV2, p, (2, 2), 26)

    @pytest.mark.parametrize("p", [4, 9, 91])
    def test_rejects_a_composite_p(self, p):
        with pytest.raises(ValueError, match=f"^local_factor requires a prime p, got {p}$"):
            local_factor(DIAG, TRIV2, p, (2, 2), 26)


class TestEulerProduct:
    def test_zeta4(self):
        v = euler_product(DIAG, TRIV2, (2, 2), 10**4, 40)
        assert abs(v - math.pi**4 / 90) < 1e-8

    def test_empty_variety_vanishes(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        assert euler_product(S, TRIV2, (2, 2), 100, 10) == 0

    def test_block_multiplicativity(self):
        S1 = make_system([[1, -1]])
        S2 = make_system([[2]], omega=(1,), omega_prime=(4,))
        B = block_compose(S1, S2)
        v1 = euler_product(S1, TRIV2, (2, 2), 200, 20)
        v2 = euler_product(S2, trivial_tuple(1), (3,), 200, 20)
        vb = euler_product(B, trivial_tuple(3), (2, 2, 3), 200, 20)
        assert vb == pytest.approx(v1 * v2, abs=1e-12)

    def test_twist_prime_beyond_P(self):
        S = make_system([[1]], omega=(1,), omega_prime=(101,))
        with pytest.raises(ValueError, match="101"):
            euler_product(S, trivial_tuple(1), (2,), 50, 10)

    def test_prime_bound_past_the_sieve(self):
        with pytest.raises(ValueError, match=r"^primes_up_to\(10000001\): P is past the "
                                             r"prime sieve's limit 10000000$"):
            euler_product(DIAG, TRIV2, (2, 2), 10**7 + 1, 10)

    def test_repeat_runs_bitwise(self):
        fams = twisted_families()
        for S, c in ((DIAG, TRIV2), (TWISTED, fams)):
            runs = [euler_product(S, c, (2,) * S.t, 1000, 26) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]

    def test_table_family_with_gaps(self):
        # n2 = n1^2, so column 2 uses only even exponents; the table has no
        # odd ones and neither evaluator may ask for them
        S = make_system([[2, -1]])
        P, B = 50, 20
        table = {(p, e): (-0.5) ** (e // 2)
                 for p in primes_up_to(P) for e in range(2, B + 1, 2)}
        fams = (TrivialFamily(), TableFamily(table))
        e = euler_product(S, fams, (2, 2), P, B)
        d = direct_sum(S, fams, (2, 2), P * P)
        assert e.real < 1 and abs(d - e) < 1e-8

    def test_default_bound_used(self):
        v = euler_product(DIAG, TRIV2, (2, 2), 1000)
        assert abs(v - math.pi**4 / 90) < 1e-7

    def test_twist_above_factorize_cap_with_small_primes(self):
        # n1 = w * n2 with w = 2^20 3^13 > 10^12: the series is w^-2 zeta(4)
        w = 2**20 * 3**13
        S = make_system([[1, -1]], omega_prime=(w,))
        assert S.twist_primes() == (2, 3)
        v = euler_product(S, TRIV2, (2, 2), 10**4, 64)
        expected = w**-2 * math.pi**4 / 90
        assert abs(v - expected) <= 1e-12 * expected

    def test_large_prime_twist_names_the_prime_bound(self):
        S = make_system([[1, -1]], omega=(2**61 - 1,))
        with pytest.raises(ValueError,
                           match="twist prime 2305843009213693951 exceeds the prime bound P=100"):
            euler_product(S, TRIV2, (2, 2), 100, 10)


class TestEulerBlocks:
    """The Euler product runs its kernel on blocks of primes; a factor must
    have the bits of its one-prime local_factor wherever its block falls."""

    P, B = 2500, 16
    s = (1.1, 1.2 - 0.5j, 1.1, 1.3)

    @pytest.fixture(scope="class")
    def fams(self):
        lam = {p: complex(math.cos(p * 1.0) * 1.8, math.sin(p * 0.3) * 0.2)
               for p in primes_up_to(self.P)}
        return (TrivialFamily(), CharacterFamily(character_table(7), 2),
                HeckeGL2Family(lam), TauFamily(self.P))

    def test_product_of_one_prime_factors_bitwise(self, fams):
        expected = 1 + 0j
        for p in primes_up_to(self.P):
            expected *= local_factor(TWISTED, fams, p, self.s, self.B)
        assert euler_product(TWISTED, fams, self.s, self.P, self.B) == expected

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_bitwise(self, fams, block):
        # with B_p a generic prime has a few local terms, so at this P the
        # default block holds a whole group; a patched block must split some
        # (rhs, B_p) group, at the kernel's block step for its local set
        groups = series._local_groups(TWISTED, primes_up_to(self.P), self.B)

        def blocks(key, ps):
            K = len(local_solutions(TWISTED, ps[0], key[1]).solutions)
            return -(-len(ps) // max(1, block // max(K, 1)))

        assert any(blocks(key, ps) > 1 for key, ps in groups.items())
        expected = euler_product(TWISTED, fams, self.s, self.P, self.B)
        with mock.patch.object(series, "_BLOCK_TERMS", block):
            assert euler_product(TWISTED, fams, self.s, self.P, self.B) == expected

    def test_factors_equal_scalar_loop_bitwise(self, fams):
        # the kernel does the scalar loop's floating-point operations,
        # complex products included, so every factor has its bits
        for p in primes_up_to(self.P)[::3]:
            assert local_factor(TWISTED, fams, p, self.s, self.B) == \
                scalar_local_factor(TWISTED, fams, p, self.s,
                                    oracle_bound(TWISTED, p, self.B))

    def test_tail_and_repeat_runs_bitwise(self, fams):
        rep = compare(TWISTED, fams, self.s, EvalParams(N=40, P=self.P, B=self.B))
        runs = [euler_product(TWISTED, fams, self.s, self.P, self.B) for _ in range(2)]
        half = euler_product(TWISTED, fams, self.s, self.P // 2, self.B)
        assert rep.euler == runs[0] == runs[1]
        assert rep.euler_tail == abs(rep.euler - half) > 0

    def test_missing_value_names_the_smallest_prime(self, fams):
        # tau (coefficients[3]) first fails at 1009, lambda (coefficients[2])
        # at 1013; the kernel meets coefficients[2] first in their block, but
        # the error must name 1009, where a prime-by-prime ascending product
        # stops, and the column that fails there
        lam = dict(zip(fams[2].primes.tolist(), fams[2].lam.tolist()))
        del lam[1013]
        broken = fams[:2] + (HeckeGL2Family(lam), TauFamily(1000))
        with pytest.raises(MissingPrimePowerError,
                           match=r"^coefficients\[3\]: tau table \(bound 1000\) "
                                 r"cannot reach prime 1009$"):
            euler_product(TWISTED, broken, self.s, self.P, self.B)

    def test_a_failure_bisects_the_primes(self, fams):
        # after the failed pass, each halving of the ascending primes runs
        # at most one kernel call per group, and the last call is the
        # failing prime's own
        primes = primes_up_to(self.P)
        groups = series._local_groups(TWISTED, primes, self.B)
        broken = fams[:3] + (TauFamily(1000),)
        with mock.patch.object(series, "_local_factors",
                               wraps=series._local_factors) as kernel, \
                pytest.raises(MissingPrimePowerError, match="cannot reach prime 1009$"):
            euler_product(TWISTED, broken, self.s, self.P, self.B)
        halvings = math.ceil(math.log2(len(primes)))
        assert kernel.call_count <= len(groups) * (1 + halvings) + 1 < primes.index(1009)
        assert kernel.call_args.args[2] == [1009]


def old_fsum(z):
    """Oracle: math.fsum of the real parts and of the imaginary parts.  z is
    an array, or an iterable of arrays, as for _fsum."""
    if not isinstance(z, np.ndarray):
        z = np.concatenate([np.zeros(0, dtype=complex), *z])
    z = np.asarray(z, dtype=complex)
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))


class TestFsumRule:
    """_fsum sums exactly into buckets and rounds once; the bits must be
    those of math.fsum on each part (old_fsum), whatever the chunking."""

    @staticmethod
    def bits(z):
        return (math.copysign(1.0, z.real), z.real.hex(), math.copysign(1.0, z.imag),
                z.imag.hex())

    @pytest.mark.parametrize("terms", [
        [],
        [-0.0],
        [0.0, -0.0, -0.0],
        [5e-324],
        [-5e-324, -5e-324, 5e-324],
        [5e-324, -5e-324],                             # cancels to exactly 0
        [2.0**-1022, -5e-324, 2.0**-1030, -(2.0**-1074) * 3],
        [1.0, 1e100, -1e100, -1.0],                    # cancels to exactly 0
        [0.1, 0.2, -0.3],
        [2.0**53, 1.0, -(2.0**53), 2.0**-60],
        [1.7976931348623157e308, -1.7976931348623157e308, 2.0**-1074],
    ])
    def test_oracle_bits(self, terms):
        x = np.array(terms, dtype=float)
        z = x + 1j * x[::-1]
        assert self.bits(series._fsum(x)) == self.bits(old_fsum(x))
        assert self.bits(series._fsum(z)) == self.bits(old_fsum(z))

    def test_magnitudes_across_the_range(self):
        # one array from 1e-320 to 1e300, with cancelling pairs, in chunkings
        rng = random.Random(7)
        x = [rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** k for k in range(-320, 301)]
        x += [-v for v in rng.sample(x, 200)]
        rng.shuffle(x)
        x = np.array(x)
        assert x.min() < 0 < x.max() and np.abs(x).min() < 1e-319
        want = self.bits(old_fsum(x))
        for step in (1, 3, 64, len(x)):
            got = series._fsum(x[a:a + step] for a in range(0, len(x), step))
            assert self.bits(got) == want

    def test_signed_zero_imaginary_parts(self):
        # a complex stream whose imaginary parts are all +-0.0 sums to +0.0
        rng = random.Random(8)
        z = np.array([complex(rng.uniform(-1, 1), rng.choice([0.0, -0.0])) for _ in range(300)])
        z[:100] = z[:100].real - 0j
        assert np.signbit(z.imag).any() and not z.imag.any()
        got = series._fsum(z[a:a + 50] for a in range(0, 300, 50))
        assert self.bits(got) == self.bits(old_fsum(z))
        assert self.bits(got)[2:] == (1.0, "0x0.0p+0")

    def test_non_finite_terms_follow_fsum(self):
        # a term that is not finite raises, as a total beyond float64 does;
        # the sum never returns inf or nan
        inf, nan = math.inf, math.nan
        for terms in ([1.0, inf, 2.0], [-inf, 1e308, 1.0], [nan, 1.0], [inf, 1.0, -inf]):
            x = np.array(terms)
            with pytest.raises(OverflowError, match="^the sum overflows float64$"):
                series._fsum(x)
            z = np.ones(len(x), dtype=complex)
            z.imag = x
            with pytest.raises(OverflowError, match="^the sum overflows float64$"):
                series._fsum(z)
        # in a later chunk than the first, and in one complex term
        with pytest.raises(OverflowError, match="^the sum overflows float64$"):
            series._fsum(iter([np.array([1.0]), np.array([2.0]), np.array([-inf])]))
        with pytest.raises(OverflowError, match="^the sum overflows float64$"):
            series._fsum(np.array([complex(1.0, inf), complex(2.0, 1.0)]))

    def test_overflow_only_in_the_total(self):
        # math.fsum raises on the partial sum 2e308; the exact total is 1e308
        terms = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError, match="intermediate overflow"):
            old_fsum(terms)
        assert self.bits(series._fsum(terms)) == self.bits(1e308 + 0j)
        with pytest.raises(OverflowError, match="^the sum overflows float64$"):
            series._fsum(np.array([1e308, 1e308]))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats(-1e300, 1e300), max_size=40),
           st.lists(st.integers(0, 80), max_size=4), st.integers(0, 40))
    def test_random_arrays_and_cuts_keep_the_fsum_bits(self, values, cuts, negated):
        x = np.array(values + [-v for v in values[:negated]], dtype=float)
        bounds = [0, *sorted(min(c, len(x)) for c in cuts), len(x)]
        got = series._fsum(x[a:b] for a, b in zip(bounds, bounds[1:]))
        want = math.fsum(x.tolist())
        assert (math.copysign(1.0, got.real), got.real.hex()) == (math.copysign(1.0, want),
                                                                   want.hex())

    def test_negative_zero_imaginary_parts(self):
        z = np.array([complex(1.5, -0.0), complex(2.0**-60, -0.0), complex(-0.25, -0.0)])
        assert np.all(np.signbit(z.imag))
        assert self.bits(series._fsum(z)) == self.bits(old_fsum(z)) == self.bits(1.25 + 2.0**-60 + 0j)

    def test_chunks_equal_array(self):
        rng = random.Random(5)
        z = np.array([complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20),
                              rng.choice([0.0, -0.0, rng.uniform(-1, 1)])) for _ in range(500)])
        for cuts in ([], [1], [7, 200, 201], list(range(0, 500, 3))):
            bounds = [0, *cuts, len(z)]
            got = series._fsum(z[a:b] for a, b in zip(bounds, bounds[1:]))
            assert self.bits(got) == self.bits(old_fsum(z))
        real = z.real.copy()
        assert self.bits(series._fsum(real)) == self.bits(old_fsum(real))
        # a nonzero imaginary part in the first chunk only still counts
        w = real.astype(complex)
        w[0] += 0.5j
        got = series._fsum(w[a:a + 100] for a in range(0, len(w), 100))
        assert self.bits(got) == self.bits(old_fsum(w)) and got.imag == 0.5

    def test_reads_a_generator_once(self):
        # the imaginary parts of the third chunk are nonzero, so both parts
        # are summed, from the one pass over the generator
        rng = random.Random(6)
        chunks = [np.array([complex(rng.uniform(-1, 1), 0.0) for _ in range(50)])
                  for _ in range(5)]
        chunks[2] += 0.25j
        pulled = []

        def one_shot():
            for chunk in chunks:
                pulled.append(chunk)
                yield chunk

        gen = one_shot()
        got = series._fsum(gen)
        assert len(pulled) == len(chunks) and next(gen, None) is None
        assert self.bits(got) == self.bits(old_fsum(chunks)) and got.imag == 50 * 0.25

    @pytest.mark.parametrize("S,fams", [
        (DIAG, TRIV2),
        (make_system([[1, 1, -1]]), (TrivialFamily(), TauFamily(1000), TrivialFamily())),
        (TWISTED, real_twisted_families()),
    ])
    def test_direct_sums_of_real_systems_bitwise(self, S, fams):
        # the whole box's terms at once, made as the direct sum makes them
        # and summed by the oracle, against the sums streamed over windows
        s, N = (2.0,) * S.t, 60
        X = box_array(S, N).astype(np.int64)
        logX = np.log(X)
        expo = np.zeros(len(X), dtype=complex)
        for j, z in enumerate(s):
            expo += logX[:, j] * z
        terms = np.exp(-expo)
        if not all_trivial(fams):
            terms = terms * eval_product_coefficient(fams, X)
        assert not terms.imag.any()
        got = direct_sum_and_half(S, fams, s, N)
        want = old_fsum(terms), old_fsum(terms[X.max(axis=1) <= N // 2])
        assert [self.bits(v) for v in got] == [self.bits(v) for v in want]

    @pytest.mark.parametrize("fams,s,imag", [
        ((TrivialFamily(), TauFamily(1000)), (2.0, 2.5), "real"),
        # lambda(p) complex only above 100: the first windows are real
        ((TrivialFamily(), HeckeGL2Family({p: 0.5 - 0.7j * (p > 100)
                                           for p in primes_up_to(400)})),
         (2.0, 2.0), "later"),
        # no coefficient product: every imaginary part is -0.0
        (TRIV2, (2.0, 3.0), "negative zeros"),
    ])
    def test_direct_sum_streams_bitwise(self, fams, s, imag):
        # the whole box's terms at once, summed by the oracle rule, against
        # the sums streamed over windows of 16 points
        N = 300
        X = box_array(DIAG, N)
        terms = np.exp(-(np.log(X) @ np.array(s, dtype=complex)))
        if imag != "negative zeros":
            # the scalar values' product, column by column from 1+0j
            terms = terms * np.array([math.prod((f.value(n) for f, n in zip(fams, row)),
                                                start=1 + 0j)
                                      for row in X.tolist()], dtype=complex)
        if imag == "later":
            assert not terms[:16].imag.any() and terms.imag.any()
        else:
            assert not terms.imag.any()
            assert np.signbit(terms.imag).all() == (imag == "negative zeros")
        with mock.patch.object(limits, "CHUNK", 16):
            got = direct_sum_and_half(DIAG, fams, s, N)
        want = old_fsum(terms), old_fsum(terms[X.max(axis=1) <= N // 2])
        assert [self.bits(v) for v in got] == [self.bits(v) for v in want]

    def test_euler_factors_of_a_real_system_bitwise(self):
        fams, s, B = real_twisted_families(), (2.0, 2.5, 2.0, 3.0), 20
        primes = primes_up_to(1000)
        with mock.patch.object(series.math, "fsum", wraps=math.fsum) as spy:
            product = euler_product(TWISTED, fams, s, 1000, B)
        assert spy.call_count == len(primes)    # one sum per factor
        for p in primes[::5]:
            assert self.bits(local_factor(TWISTED, fams, p, s, B)) == self.bits(
                scalar_local_factor(TWISTED, fams, p, s, oracle_bound(TWISTED, p, B)))
        for rows in (1, 3):
            with mock.patch.object(series, "_FSUM_ROWS", rows):
                assert self.bits(euler_product(TWISTED, fams, s, 1000, B)) == self.bits(product)


def signed_zero_table():
    """A table family on p <= 7, e <= 4 whose values include 0.0, -0.0 and
    real numbers with a -0.0 imaginary part."""
    cycle = [0.0, -0.0, 0.5, complex(-0.0, -0.0), complex(-0.25, -0.0), complex(1.0, 0.0)]
    keys = [(p, e) for p in (2, 3, 5, 7) for e in range(1, 5)]
    return TableFamily({key: cycle[k % len(cycle)] for k, key in enumerate(keys)})


class TestRealKernel:
    """The kernel keeps real data real and one search serves each
    right-hand side; a factor keeps the bits of the complex scalar loop."""

    bits = staticmethod(TestFsumRule.bits)

    @pytest.mark.parametrize("S, fams, s, B, primes", [
        # real trivial column before the complex character, real Hecke
        # (lambda(p) = 1.8 cos p, negative at about half the primes) and tau after
        (TWISTED, twisted_families(), (2.0, 2.5, 2.0, 3.0), 16, primes_up_to(1000)[::7]),
        # complex s on real families, a real column between complex ones
        (TWISTED, real_twisted_families(), (2 + 0.5j, 2.5, 2 - 1j, 3.0), 16,
         primes_up_to(1000)[::7]),
        (DIAG, (signed_zero_table(), TrivialFamily()), (2.0, 2.0), 3, [2, 3, 5, 7]),
        (DIAG, (signed_zero_table(), TrivialFamily()), (2.0, 2.5 + 1j), 4, [2, 3, 5, 7]),
        # 2^1022.52 is e^708.75, in the band (708.39, 709.78) where cmath.exp
        # takes exp(x - 1) * e and can differ from numpy's complex exp
        (DIAG, TRIV2, (-1022.52, 1000.0), 1, [2]),
    ])
    def test_local_factor_equals_scalar_loop_bitwise(self, S, fams, s, B, primes):
        for p in primes:
            assert self.bits(local_factor(S, fams, p, s, B)) == self.bits(
                scalar_local_factor(S, fams, p, s, oracle_bound(S, p, B)))

    def test_real_data_makes_no_complex_product(self):
        fams, s = real_twisted_families(), (2.0, 2.5, 2.0, 3.0)
        with mock.patch.object(series, "_times", wraps=series._times) as spy:
            euler_product(TWISTED, fams, s, 1000, 16)
        assert spy.call_count > 0
        assert not [args for args, _ in spy.call_args_list if all(map(np.iscomplexobj, args))]

    def test_one_local_search_per_right_hand_side(self):
        # the zero right-hand side at the largest bound B_7 = 6, and the twist
        # primes 2, 3, 5 at B
        with mock.patch.object(series, "local_solutions", wraps=local_solutions) as spy:
            euler_product(TWISTED, twisted_families(), (2.0, 2.5, 2.0, 3.0), 1000, 16)
        calls = sorted((monomial_rhs_at(TWISTED, p), b) for (_, p, b), _ in spy.call_args_list)
        assert calls == sorted([((0, 0), 6)] + [(monomial_rhs_at(TWISTED, p), 16)
                                                for p in (2, 3, 5)])

    @pytest.mark.parametrize("B", [5, 16])
    @pytest.mark.parametrize("S", [
        TWISTED, DIAG, make_system([[2, 1, 0], [0, 1, -3]], omega=(8, 1), omega_prime=(27, 10)),
    ])
    def test_each_group_gets_its_own_search(self, S, B):
        # a zero right-hand side's smaller bounds filter the largest one's
        # solutions: the same tuples in the same order as their own search
        groups = series._local_groups(S, primes_up_to(1000), B)
        with mock.patch.object(series, "_local_factors", wraps=series._local_factors) as spy:
            euler_product(S, trivial_tuple(S.t), (2.0,) * S.t, 1000, B)
        assert spy.call_count == len(groups)
        for (_, _, ps, sols), key in zip((call.args for call in spy.call_args_list), groups):
            assert ps == groups[key]
            assert sols == local_solutions(S, ps[0], key[1]).solutions


class TestDefaultExponentBound:
    def test_tail_below_target(self):
        for s in [(2, 2), (1.5,), (3, 4, 5)]:
            B = default_exponent_bound(s)
            sigma = min(z.real for z in map(complex, s))
            assert 2 ** (-B * sigma) < 1e-15
            assert 1 <= B <= 64

    def test_capped(self):
        assert default_exponent_bound((0.1,)) == 64

    def test_formula(self):
        # one more than the smallest B meeting the target: 26 at sigma = 2,
        # where 25 already gives 2^-50 < 1e-15
        assert default_exponent_bound((2, 2)) == 26
        assert 2.0 ** (-25 * 2) < 1e-15 <= 2.0 ** (-24 * 2)
        for sigma in (1.05, 1.5, 2, 2.5, 3, 7):
            B = default_exponent_bound((sigma, sigma + 1j))
            assert B == math.ceil(15 / (sigma * math.log10(2))) + 1
            assert 2.0 ** (-B * sigma) < 1e-15


class TestPrimeExponentBound:
    """B_p, the least b >= 0 with p^b >= 2^B."""

    def test_two_and_zero(self):
        for B in range(65):
            assert prime_exponent_bound(2, B) == B
        for p in primes_up_to(200):
            assert prime_exponent_bound(p, 0) == 0

    def test_at_most_B(self):
        for p in primes_up_to(1000):
            for B in range(65):
                b = prime_exponent_bound(p, B)
                assert b <= B
                assert b == 0 or p ** (b - 1) < 2**B <= p**b

    @pytest.mark.parametrize("p,b", [
        # the primes on either side of 2^(64/k), and of 2^64
        (4294967291, 3), (4294967311, 2), (2642239, 4), (2642257, 3),
        (65521, 5), (65537, 4), (7129, 6), (7151, 5), (251, 9), (257, 8),
        (13, 18), (17, 16), (3, 41), (5, 28),
        (2**64 - 59, 2), (2**64 + 13, 1),
    ])
    def test_near_powers_of_two(self, p, b):
        assert prime_exponent_bound(p, 64) == b
        assert p ** (b - 1) < 2**64 <= p**b

    def test_range(self):
        for B in (-1, 65):
            with pytest.raises(ValueError):
                prime_exponent_bound(3, B)

    @pytest.mark.parametrize("p", [-2, 0, 1])
    def test_rejects_p_below_two(self, p):
        # the power of p = 0 or 1 never reaches 2^B
        with pytest.raises(ValueError, match=f"^prime_exponent_bound requires p >= 2, got {p}$"):
            prime_exponent_bound(p, 5)

    @pytest.mark.parametrize("S", [
        TWISTED,
        make_system([[1, -1]], omega=(6,), omega_prime=(6,)),     # twists, rhs zero
        make_system([[2, 1, 0], [0, 1, -3]], omega=(8, 1), omega_prime=(27, 10007)),
    ])
    def test_groups_equal_per_prime_keys(self, S):
        # the per-run bisection against monomial_rhs_at and
        # prime_exponent_bound prime by prime; 10007 is a twist prime above P
        for primes in (primes_up_to(2000), [2], [3], [7919]):
            for B in range(65):
                expect = {}
                for p in primes:
                    rhs = monomial_rhs_at(S, p)
                    key = rhs, B if any(rhs) else prime_exponent_bound(p, B)
                    expect.setdefault(key, []).append(p)
                assert series._local_groups(S, primes, B) == expect
        for B in (-1, 65):
            with pytest.raises(ValueError):
                series._local_groups(S, [2], B)

    def test_twist_primes_keep_B(self):
        # n1 = 3^12: B_3 = 11 at B = 16 would leave 3 no local solution and
        # the product zero; a prime with a nonzero right-hand side keeps B
        S = make_system([[1]], omega_prime=(3**12,))
        assert prime_exponent_bound(3, 16) == 11
        v = euler_product(S, trivial_tuple(1), (2,), 10, 16)
        assert v == pytest.approx(3.0**-24, rel=1e-12)
        fams = twisted_families()
        for p, b in ((2, 16), (3, 16), (5, 16), (7, 6), (11, 5)):
            assert oracle_bound(TWISTED, p, 16) == b
            assert local_factor(TWISTED, fams, p, (2, 2.5, 2, 3), 16) == \
                scalar_local_factor(TWISTED, fams, p, (2, 2.5, 2, 3), b)


class TestCompare:
    def test_params_and_report_defaults(self):
        params = EvalParams(N=10, P=20)
        assert params.B is None and params == EvalParams(10, 20, None)
        assert EvalParams(N=1, P=10**7).P == 10**7     # the prime sieve's limit
        rep = EvalReport(direct=1j, euler=1j, abs_diff=0.0, direct_tail=None,
                         euler_tail=None, wall_time=0.0, params=params)
        assert rep.warnings == () and rep.to_dict()["warnings"] == []

    @pytest.mark.parametrize("fields, message", [
        ((0, 2, None), "N must be >= 1"),
        ((1, 1, None), "P must be >= 2"),
        ((1, 2, 0), "B must be in 1..64"),
        ((1, 2, 65), "B must be in 1..64"),
        ((1, 10**7 + 1, None), "P must be <= 10000000, the limit of the prime sieve"),
    ])
    def test_params_validate_through_every_constructor(self, fields, message):
        # EvalParams offers no _make or _replace that could skip __init__
        for build in (lambda: EvalParams(*fields),
                      lambda: EvalParams(**dict(zip(EvalParams._fields, fields)))):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
        assert not hasattr(EvalParams, "_make") and not hasattr(EvalParams, "_replace")

    def test_diagonal_closed_form(self):
        rep = compare(DIAG, TRIV2, (2, 2), EvalParams(N=10**4, P=10**4, B=40))
        assert abs(rep.direct - math.pi**4 / 90) < 1e-8
        assert abs(rep.euler - math.pi**4 / 90) < 1e-8
        assert rep.abs_diff == abs(rep.direct - rep.euler)
        assert rep.direct_tail is not None and rep.euler_tail is not None

    def test_cross_validation_product_system(self):
        S = make_system([[1, 1, -1]])
        rep = compare(S, trivial_tuple(3), (2, 2, 2), EvalParams(N=2000, P=2000, B=40))
        assert rep.abs_diff < 1e-6

    def test_tau_rankin_type(self):
        S = LaurentMonomialSystem(t=1, m=0, A=(), omega=(), omega_prime=())
        fams = (TauFamily(10**4),)
        rep = compare(S, fams, (2,), EvalParams(N=10**4, P=10**4))
        assert rep.abs_diff < 1e-4

    def test_report_dict(self):
        rep = compare(DIAG, TRIV2, (2, 2), EvalParams(N=100, P=100, B=20))
        doc = rep.to_dict()
        assert doc["params"] == {"N": 100, "P": 100, "B": 20}
        assert doc["abs_diff"] == rep.abs_diff

    def test_empty_variety_warning(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        rep = compare(S, TRIV2, (2, 2), EvalParams(N=10, P=10, B=5))
        assert rep.direct == rep.euler == 0
        assert any("empty variety" in w for w in rep.warnings)

    def test_tails_match_separate_runs_bitwise(self):
        fams = twisted_families()
        s = (2, 2.5, 2, 3)
        N, P, B = 400, 100, 20
        rep = compare(TWISTED, fams, s, EvalParams(N=N, P=P, B=B))
        direct = direct_sum(TWISTED, fams, s, N)
        euler = euler_product(TWISTED, fams, s, P, B)
        assert rep.direct == direct and rep.euler == euler
        assert rep.direct_tail == abs(direct - direct_sum(TWISTED, fams, s, N // 2))
        assert rep.euler_tail == abs(euler - euler_product(TWISTED, fams, s, P // 2, B))
        assert rep.direct_tail > 0 and rep.euler_tail > 0

    def test_euler_tail_skipped_below_twist_prime(self):
        S = make_system([[1, -1]], omega=(1,), omega_prime=(7,))
        twist = "euler tail estimate skipped: P/2 below a twist prime"
        no_prime = "euler tail estimate skipped: P/2 < 2, so no prime is <= P/2"
        # P/2 below the twist prime 7, and P/2 below the first prime; the
        # warning names the cause
        for system, P, cause in ((S, 10, twist), (S, 13, twist), (DIAG, 3, no_prime)):
            rep = compare(system, TRIV2, (2, 2), EvalParams(N=50, P=P, B=10))
            assert rep.euler_tail is None and rep.direct_tail is not None
            assert rep.euler == euler_product(system, TRIV2, (2, 2), P, 10)
            assert [w for w in rep.warnings if "euler tail" in w] == [cause]

    def test_direct_tail_undefined_below_two(self):
        # N = 1 has no N/2 box: the tail is None, not 0.0, and says why
        rep = compare(DIAG, TRIV2, (2, 2), EvalParams(N=1, P=40, B=10))
        assert rep.direct == 1 and rep.direct_tail is None
        assert rep.euler_tail is not None
        assert rep.warnings == (
            "direct tail estimate skipped: N < 2 leaves the N/2 box empty",)
        assert direct_sum_and_half(DIAG, TRIV2, (2, 2), 1) == (1, None)
        assert direct_sum_and_half(DIAG, TRIV2, (2, 2), 2)[1] == 1

    def test_gap_below_sum_of_tails(self):
        for S, t in ((DIAG, 2), (make_system([[1, 1, -1]]), 3)):
            rep = compare(S, trivial_tuple(t), (2,) * t,
                          EvalParams(N=4000, P=4000, B=40))
            assert rep.abs_diff < rep.direct_tail + rep.euler_tail


class TestIdentities:
    def test_row_op_value_invariance_bitwise(self):
        rng = random.Random(500)
        for _ in range(15):
            S = random_system(rng)
            s = tuple(2.0 + 0.5 * k for k in range(S.t))
            before = direct_sum(S, trivial_tuple(S.t), s, 20)
            ops = []
            cur = S
            for _ in range(4):
                if cur.m >= 2 and rng.random() < 0.6:
                    i, j = rng.sample(range(cur.m), 2)
                    op = rng.choice([Swap(i, j), AddMultiple(i, j, rng.choice([-1, 1]))])
                else:
                    op = Negate(rng.randrange(cur.m))
                try:
                    cur = apply_row_op(cur, op)
                    ops.append(op)
                except Exception:
                    continue
            after = direct_sum(cur, trivial_tuple(S.t), s, 20)
            assert after == before, (S, ops)

    def test_negation_identity_bitwise(self):
        rng = random.Random(501)
        for _ in range(15):
            S = random_system(rng)
            s = tuple(2.5 for _ in range(S.t))
            fams = trivial_tuple(S.t)
            for N in (5, 17):
                assert direct_sum(S, fams, s, N) == \
                    direct_sum(negate_system(S), fams, s, N)

    def test_block_identity(self):
        rng = random.Random(502)
        for _ in range(10):
            S1 = random_system(rng, tmax=2, mmax=1)
            S2 = random_system(rng, tmax=2, mmax=1)
            B = block_compose(S1, S2)
            s1 = tuple(2.0 for _ in range(S1.t))
            s2 = tuple(3.0 for _ in range(S2.t))
            N = 12
            lhs = direct_sum(B, trivial_tuple(B.t), s1 + s2, N)
            rhs = (direct_sum(S1, trivial_tuple(S1.t), s1, N)
                   * direct_sum(S2, trivial_tuple(S2.t), s2, N))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_in_N_for_nonnegative_coefficients(self):
        S = make_system([[1, 1, -1]])
        fams = trivial_tuple(3)
        values = [direct_sum(S, fams, (2, 2, 2), N).real for N in (5, 10, 20, 40, 80)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_euler_direct_gap_shrinks(self):
        S = make_system([[1, 1, -1]])
        fams = trivial_tuple(3)
        gaps = []
        for N in (250, 500, 1000):
            d = direct_sum(S, fams, (2, 2, 2), N)
            e = euler_product(S, fams, (2, 2, 2), N, 40)
            gaps.append(abs(d - e))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_hecke_coefficients_cross_validate(self):
        # lambda(p) drawn deterministically in [-2, 2]; both evaluators
        # must approximate the same Rankin-type value
        from mdseries.arith import primes_up_to
        lam = {p: math.cos(p * 1.0) * 1.8 for p in primes_up_to(2000)}
        fams = (HeckeGL2Family(lam),)
        S = LaurentMonomialSystem(t=1, m=0, A=(), omega=(), omega_prime=())
        d = direct_sum(S, fams, (2.5,), 2000)
        e = euler_product(S, fams, (2.5,), 2000, 40)
        assert abs(d - e) < 1e-3
