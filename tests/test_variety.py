import itertools
import os
import random
from fractions import Fraction
from unittest import mock

import pytest

from mdseries import recombination, variety
from mdseries.arith import factorize, valuation
from mdseries.errors import ConstraintSyntaxError, WorkCapExceeded
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.recombination import (CartesianCheck, Witness, cartesian_check,
                                    check_property_S, parse_constraints, recombine)
from mdseries.variety import (enumerate_box, local_solutions, on_monomial_variety,
                              on_monomial_variety_rational)


def random_system(rng, tmax=3, mmax=2, amax=3, wmax=6):
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


def brute_force_box(S, N):
    """Oracle: exact rational check of every point in the box."""
    out = []
    for point in itertools.product(range(1, N + 1), repeat=S.t):
        ok = True
        for i in range(S.m):
            val = Fraction(S.omega[i])
            for a, n in zip(S.A[i], point):
                val *= Fraction(n) ** a
            if val != S.omega_prime[i]:
                ok = False
                break
        if ok:
            out.append(point)
    return out


class TestParser:
    def test_additive_example(self):
        V = parse_constraints("x1 + x2 - 5", 2)
        assert V.is_solution((2, 3))
        assert not V.is_solution((2, 4))

    def test_monomial_form(self):
        V = parse_constraints("x1*x2 - x3", 3)
        assert V.is_solution((2, 3, 6))
        assert not V.is_solution((2, 3, 7))

    def test_power(self):
        V = parse_constraints("x1^2 - 4", 1)
        assert enumerate_box(V, 10) == [(2,)]

    def test_multiple_constraints(self):
        V = parse_constraints("x1 - x2; x1 - 3", 2)
        assert enumerate_box(V, 5) == [(3, 3)]

    def test_parentheses_and_precedence(self):
        V = parse_constraints("(x1 + 1)*(x1 - 1) - x1^2 + 1", 1)
        # identically zero
        assert len(enumerate_box(V, 7)) == 7

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConstraintSyntaxError) as exc:
            parse_constraints("x1 + \n* 2", 1)
        assert exc.value.line == 2 and exc.value.col == 1

    def test_variable_out_of_range(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints("x3 - 1", 2)

    def test_bare_x(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints("x + 1", 1)

    def test_exponent_overflow(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints("x1^99999999", 1)

    def test_unexpected_character(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints("x1 % 2", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints("x1 - 1)", 1)


class TestEnumerateBox:
    def test_additive(self):
        V = parse_constraints("x1 + x2 - 5", 2)
        assert enumerate_box(V, 5) == [
            (1, 4), (2, 3), (3, 2), (4, 1)]

    def test_diagonal(self):
        S = make_system([[1, -1]])
        assert enumerate_box(S, 4) == [
            (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_product_count(self):
        S = make_system([[1, 1, -1]])
        pts = enumerate_box(S, 4)
        assert len(pts) == 8
        assert all(a * b == c for a, b, c in pts)

    def test_lexicographic_order(self):
        S = make_system([[1, 1, -1]])
        pts = enumerate_box(S, 6)
        assert pts == sorted(pts)

    def test_empty_variety(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        assert enumerate_box(S, 10) == []

    def test_no_constraints_full_box(self):
        S = LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        assert len(enumerate_box(S, 5)) == 25

    def test_monomial_against_brute_force(self):
        rng = random.Random(42)
        for _ in range(40):
            S = random_system(rng)
            N = rng.randint(2, 12)
            assert enumerate_box(S, N) == brute_force_box(S, N)

    def test_twisted_cases(self):
        S = make_system([[2]], omega=(1,), omega_prime=(4,))
        assert enumerate_box(S, 10) == [(2,)]
        S = make_system([[1, -1]], omega=(2,), omega_prime=(1,))
        assert enumerate_box(S, 10) == [
            (1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]

    def test_work_cap(self):
        V = parse_constraints("x1 - x2", 2)
        with mock.patch.dict(os.environ, {"MDS_WORK_CAP": "100"}), \
                pytest.raises(WorkCapExceeded):
            enumerate_box(V, 100)

    @pytest.mark.parametrize("V", [[[1, -1]], "x1 - x2", None])
    def test_unsupported_object_raises_type_error_naming_it(self, V):
        with pytest.raises(TypeError, match=f"cannot enumerate {type(V).__name__}$"):
            list(variety.box_windows(V, 5))
        with pytest.raises(TypeError, match=f"cannot enumerate {type(V).__name__}$"):
            variety.box_array(V, 5)


class TestMembership:
    def test_valuation_equals_rational_full_box(self):
        rng = random.Random(8)
        for _ in range(10):
            S = random_system(rng, tmax=3)
            for point in itertools.product(range(1, 31), repeat=S.t):
                assert on_monomial_variety(S, point) == \
                    on_monomial_variety_rational(S, point)

    def test_twist_prime_outside_support(self):
        # (1,1) has no prime support, but the twists force a condition at 2
        S = make_system([[1, -1]], omega=(2,), omega_prime=(1,))
        assert not on_monomial_variety(S, (1, 1))
        assert on_monomial_variety(S, (1, 2))


class TestRecombine:
    def test_idempotent(self):
        assert recombine((4, 9), (4, 9), {2: "x", 3: "y"}) == (4, 9)

    def test_mixed_choice(self):
        assert recombine((4, 1), (2, 3), {2: "x", 3: "y"}) == (4, 3)

    def test_all_x(self):
        assert recombine((4, 1), (2, 3), {2: "x", 3: "x"}) == (4, 1)

    def test_valuations_match_chosen_side(self):
        rng = random.Random(13)
        for _ in range(50):
            x = tuple(rng.randint(1, 400) for _ in range(3))
            y = tuple(rng.randint(1, 400) for _ in range(3))
            primes = sorted({p for n in x + y for p, _ in factorize(n)})
            choice = {p: rng.choice(["x", "y"]) for p in primes}
            z = recombine(x, y, choice)
            for p in primes:
                src = x if choice[p] == "x" else y
                assert [valuation(p, n) for n in z] == [valuation(p, n) for n in src]

    def test_missing_choice(self):
        with pytest.raises(ValueError):
            recombine((2,), (3,), {2: "x"})


def scan_property_S(V, N):
    """Oracle: the per-mask scan that check_property_S once ran, pair by
    pair and mask by mask, on recombine and the scalar membership tests;
    it charges no work cap."""
    if isinstance(V, LaurentMonomialSystem):
        def on_variety(point):
            return on_monomial_variety_rational(V, point)
    else:
        on_variety = V.is_solution
    sols = enumerate_box(V, N)
    for ix, x in enumerate(sols):
        for y in sols[ix + 1:]:
            primes = sorted({p for n in x + y for p, _ in factorize(n)})
            for mask in range(1, (1 << len(primes)) - 1):
                choice = {p: "y" if mask >> idx & 1 else "x" for idx, p in enumerate(primes)}
                point = recombine(x, y, choice)
                if not on_variety(point):
                    return Witness(x, y, tuple(sorted(choice.items())), point)
    return None


def random_constraints(rng):
    """A random text "f - (g); ..." over t = 2 or 3 variables, and t; f and
    g are sums of monomials with positive coefficients."""
    t = rng.randint(2, 3)

    def side():
        terms = []
        for _ in range(rng.randint(1, 2)):
            xs = [f"x{rng.randint(1, t)}" + ("^2" if rng.random() < 0.2 else "")
                  for _ in range(rng.randint(1, 2))]
            terms.append("*".join([str(rng.randint(1, 2))] + xs))
        if rng.random() < 0.3:
            terms.append(str(rng.randint(1, 9)))
        return " + ".join(terms)

    return "; ".join(f"{side()} - ({side()})" for _ in range(rng.choice([1, 1, 2]))), t


class TestPropertyS:
    def test_matches_per_mask_scan_on_random_constraints(self):
        rng = random.Random(2718)
        found = 0
        for _ in range(30):
            text, t = random_constraints(rng)
            V = parse_constraints(text, t)
            w = check_property_S(V, 10)
            assert w == scan_property_S(V, 10), text
            found += w is not None
        # both outcomes are exercised
        assert 3 <= found <= 27

    def test_matches_per_mask_scan_on_random_systems(self):
        rng = random.Random(1618)
        for _ in range(25):
            S = random_system(rng, amax=2, wmax=2)
            assert check_property_S(S, 10) is scan_property_S(S, 10) is None

    def test_additive_witness(self):
        V = parse_constraints("x1 + x2 - 5", 2)
        w = check_property_S(V, 5)
        assert w is not None
        assert V.is_solution(w.x) and V.is_solution(w.y)
        assert not V.is_solution(w.point)
        assert recombine(w.x, w.y, dict(w.choice)) == w.point

    def test_monomial_systems_pass(self):
        S = make_system([[1, 1, -1]])
        assert check_property_S(S, 30) is None

    def test_diagonal_poly_passes(self):
        V = parse_constraints("x1 - x2", 2)
        assert check_property_S(V, 20) is None

    def test_random_monomial_systems_pass(self):
        rng = random.Random(314)
        for _ in range(25):
            S = random_system(rng)
            assert check_property_S(S, 30) is None

    def test_monomial_systems_are_answered_without_enumerating(self):
        def enumerated(*args, **kwargs):
            raise AssertionError("a monomial system was enumerated")
        S = make_system([[1, 1, -1]], omega=(6,), omega_prime=(35,))
        with mock.patch.object(recombination, "box_array", enumerated), \
                mock.patch.object(recombination, "factor_levels", enumerated), \
                mock.patch.dict(os.environ, {"MDS_WORK_CAP": "1"}):
            assert check_property_S(S, 10**9) is None
            with pytest.raises(ValueError, match="box bound N must be >= 1"):
                check_property_S(S, 0)

    def test_scan_on_monomial_systems_in_polynomial_form(self):
        # omega_i prod x_j^{a+} - omega'_i prod x_j^{a-} is the monomial
        # variety as polynomial constraints, so the scan, not the per-prime
        # identity, answers it
        def side(w, row):
            return "*".join([str(w)] + [f"x{j + 1}^{a}" for j, a in enumerate(row) if a > 0])

        rng = random.Random(2357)
        pairs = 0
        for _ in range(40):
            S = random_system(rng, amax=2)
            text = "; ".join(f"{side(w, row)} - {side(wp, [-a for a in row])}"
                             for row, w, wp in zip(S.A, S.omega, S.omega_prime))
            V = parse_constraints(text, S.t)
            points = enumerate_box(V, 15)
            assert points == enumerate_box(S, 15), text
            assert check_property_S(V, 15) is None, text
            pairs += len(points) * (len(points) - 1) // 2
        assert pairs > 500

    def test_work_cap(self):
        V = parse_constraints("x1 + x2 - 30", 2)
        with mock.patch.dict(os.environ, {"MDS_WORK_CAP": "40"}), \
                pytest.raises(WorkCapExceeded):
            check_property_S(V, 29)


def dfs_local_solutions(A, t, m, rhs, B):
    """Oracle: the recursive depth-first search that local_solutions once
    ran, with the same interval bounds, in lexicographic order."""
    smin = [[0] * (t + 1) for _ in range(m)]
    smax = [[0] * (t + 1) for _ in range(m)]
    for i in range(m):
        for j in range(t - 1, -1, -1):
            a = A[i][j]
            smin[i][j] = smin[i][j + 1] + (a * B if a < 0 else 0)
            smax[i][j] = smax[i][j + 1] + (a * B if a > 0 else 0)
    out = []
    alpha = [0] * t

    def rec(j, partial):
        if j == t:
            if all(partial[i] == rhs[i] for i in range(m)):
                out.append(tuple(alpha))
            return
        lo, hi = 0, B
        for i in range(m):
            a = A[i][j]
            need_lo = rhs[i] - partial[i] - smax[i][j + 1]
            need_hi = rhs[i] - partial[i] - smin[i][j + 1]
            if a == 0:
                if need_lo > 0 or need_hi < 0:
                    return
                continue
            if a > 0:
                lo = max(lo, -((-need_lo) // a))
                hi = min(hi, need_hi // a)
            else:
                lo = max(lo, -((-need_hi) // a))
                hi = min(hi, need_lo // a)
            if lo > hi:
                return
        for x in range(lo, hi + 1):
            alpha[j] = x
            rec(j + 1, [partial[i] + A[i][j] * x for i in range(m)])
        alpha[j] = 0

    rec(0, [0] * m)
    return tuple(out)


class TestLocalSolutions:
    def test_diagonal(self):
        S = make_system([[1, -1]])
        assert local_solutions(S, 7, 3).solutions == (
            (0, 0), (1, 1), (2, 2), (3, 3))

    def test_product(self):
        S = make_system([[1, 1, -1]])
        got = set(local_solutions(S, 3, 2).solutions)
        assert got == {(0, 0, 0), (1, 0, 1), (0, 1, 1), (2, 0, 2), (0, 2, 2), (1, 1, 2)}

    def test_twisted(self):
        S = make_system([[2]], omega=(1,), omega_prime=(4,))
        assert local_solutions(S, 2, 3).solutions == ((1,),)
        assert local_solutions(S, 3, 3).solutions == ((0,),)

    def test_brute_force_oracle(self):
        rng = random.Random(66)
        for _ in range(40):
            S = random_system(rng, tmax=4)
            B = rng.randint(0, 4)
            p = rng.choice([2, 3, 5])
            rhs = [0] * S.m
            for i in range(S.m):
                w, wp = S.omega[i], S.omega_prime[i]
                vw = vwp = 0
                while w % p == 0:
                    w //= p
                    vw += 1
                while wp % p == 0:
                    wp //= p
                    vwp += 1
                rhs[i] = vwp - vw
            expect = tuple(
                alpha for alpha in itertools.product(range(B + 1), repeat=S.t)
                if all(sum(a * e for a, e in zip(S.A[i], alpha)) == rhs[i]
                       for i in range(S.m)))
            assert local_solutions(S, p, B).solutions == expect

    def test_array_search_against_dfs(self):
        # 300 random systems, t <= 5 and B <= 26 (B <= 10 where four
        # columns are free), some with coefficients past int64 reach
        rng = random.Random(67)
        for _ in range(300):
            S = random_system(rng, tmax=5, mmax=3, wmax=48)
            if rng.random() < 0.1:
                S = make_system([[a * 10**17 for a in row] for row in S.A],
                                S.omega, S.omega_prime)
            B = rng.randint(0, 26 if S.t - S.m <= 3 else 10)
            p = rng.choice([2, 3, 5, 7])
            rhs = variety.monomial_rhs_at(S, p)
            assert local_solutions(S, p, B).solutions == \
                dfs_local_solutions(S.A, S.t, S.m, rhs, B)

    def test_twist_primes_of_the_twisted_system_against_dfs(self):
        S = make_system([[1, 1, -1, 0], [0, 1, 1, -1]], omega=(6, 5), omega_prime=(1, 3))
        for p in (2, 3, 5, 7):
            rhs = variety.monomial_rhs_at(S, p)
            sols = local_solutions(S, p, 26).solutions
            assert sols == dfs_local_solutions(S.A, 4, 2, rhs, 26)
            assert sols and all(type(x) is int for x in sols[0])

    def test_no_rows_and_no_columns(self):
        assert local_solutions(make_system([], t=2), 2, 2).solutions == \
            tuple(itertools.product(range(3), repeat=2))
        assert local_solutions(make_system([], t=0), 2, 5).solutions == ((),)

    def test_bound_validation(self):
        S = make_system([[1]])
        with pytest.raises(ValueError):
            local_solutions(S, 2, 65)


class TestCartesianCheck:
    def test_point_and_side_default_to_none(self):
        check = CartesianCheck(equal=True)
        assert check.point is None and check.side is None
        assert check == CartesianCheck(True, None, None)

    def test_diagonal(self):
        S = make_system([[1, -1]])
        assert cartesian_check(S, 30, 30, 5).equal

    def test_product(self):
        S = make_system([[1, 1, -1]])
        assert cartesian_check(S, 36, 7, 3).equal

    def test_empty_variety(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        assert cartesian_check(S, 20, 5, 3).equal

    def test_twisted(self):
        S = make_system([[2]], omega=(1,), omega_prime=(4,))
        assert cartesian_check(S, 20, 5, 4).equal

    def test_random_systems(self):
        rng = random.Random(1000)
        for _ in range(15):
            S = random_system(rng, tmax=3, mmax=2, wmax=4)
            if any(p > 7 for p in S.twist_primes()):
                continue
            assert cartesian_check(S, 16, 7, 4).equal

    def test_twist_prime_beyond_P(self):
        S = make_system([[1]], omega=(1,), omega_prime=(11,))
        with pytest.raises(ValueError):
            cartesian_check(S, 20, 7, 4)

    @pytest.mark.parametrize("S,N,P,B,least", [
        # no mandatory prime: one node per recombined point, i.e. per box
        # point that is 60-smooth with exponents <= 6
        (make_system([[1, 1, -1]]), 60, 60, 6, 261),
        # a free third coordinate: some alpha leaves the largest one alone
        (make_system([[1, -1, 0]]), 12, 12, 4, 144),
        # n3 = 6 n1 n2: 2 and 3 are mandatory, and their products count too
        (make_system([[1, 1, -1]], omega=(6,)), 80, 100, 7, 83),
    ])
    def test_recombination_cap_counts_nodes_only(self, S, N, P, B, least):
        # the recombination stops trying primes once the smallest one is too
        # large; it counts pushed and popped nodes, never a failed extension,
        # so the least passing cap is the count the full scan reached
        if not S.twist_primes():
            assert least == sum(
                all(p <= P and e <= B for n in pt for p, e in factorize(n))
                for pt in enumerate_box(S, N))
        # the box enumeration runs under a large cap of its own, so only the
        # recombination counts
        def box(V, N):
            with mock.patch.dict(os.environ, {"MDS_WORK_CAP": str(10**8)}):
                return variety.box_array(V, N)

        with mock.patch.object(recombination, "box_array", box):
            with mock.patch.dict(os.environ, {"MDS_WORK_CAP": str(least)}):
                assert cartesian_check(S, N, P, B).equal
            with mock.patch.dict(os.environ, {"MDS_WORK_CAP": str(least - 1)}), \
                    pytest.raises(WorkCapExceeded, match="Cartesian recombination"):
                cartesian_check(S, N, P, B)
