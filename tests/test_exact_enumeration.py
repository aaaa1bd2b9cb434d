"""Differential tests of exact box enumeration, the integer k-th root and
the Euler product's per-prime exponent bound.

The pruned enumeration (float-narrowed prefix search, exact solve of the
last coordinate) must list exactly the points that a brute-force scan of
the box accepts, with the cross-multiplication kernel and, where the twists
can be factorised, with the independent valuation test.  The array form
must also have the dtype that the row bound predicts, and must not depend
on the search window.  The direct sum, which streams the box window by
window, must have the bits of the same terms summed as one array, and
must trip the work cap where box_array does.  On the same systems, the
Euler product with the per-prime bound B_p must differ from the uniform-B
product by no more than the terms it drops, and those by no more than
their closed-form bound.
"""

import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mdseries import limits, series, variety
from mdseries.arith import character_table, iroot, primes_up_to
from mdseries.coefficients import (CharacterFamily, HeckeGL2Family, TauFamily,
                                   TrivialFamily, all_trivial)
from mdseries.errors import WorkCapExceeded
from mdseries.limits import TWIST_LIMIT
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.variety import (box_array, enumerate_box, local_solutions,
                              monomial_rhs_at, on_monomial_variety,
                              on_monomial_variety_rational)

# largest box bound per variable count, so that a brute-force scan stays small
BOX = {1: 40, 2: 12, 3: 6}
SMALL_PRIMES = (2, 3, 5, 7)

differential = settings(derandomize=True, deadline=None, max_examples=150)

# systems(near_limit=False) draws a smooth twist where a planted one would
# pass this bound, so the valuation test's systems keep small twists
FACTOR_INPUT_LIMIT = 10**12


def capped(cap):
    """MDS_WORK_CAP set to cap, by mock.patch.dict: hypothesis rejects
    function-scoped fixtures such as monkeypatch."""
    return mock.patch.dict(os.environ, {"MDS_WORK_CAP": str(cap)})


@st.composite
def smooth(draw):
    """A product of small prime powers, at most 210^3."""
    out = 1
    for p in SMALL_PRIMES:
        out *= p ** draw(st.integers(0, 3))
    return out


@st.composite
def systems(draw, near_limit: bool):
    """(system, N): t in 1..3, m in 1..2, |a_ij| <= 6, sometimes an all-zero
    last column. Each row's twists either plant a solution in the box, are
    independent smooth numbers, or (near_limit) sit just below TWIST_LIMIT."""
    t = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    rows = [[draw(st.integers(-6, 6)) for _ in range(t)] for _ in range(m)]
    if draw(st.booleans()):
        for row in rows:
            row[-1] = 0
    N = draw(st.integers(1, BOX[t]))
    planted = [draw(st.integers(1, N)) for _ in range(t)]
    kinds = ["planted", "smooth"] + (["planted_near_limit", "near_limit"] if near_limit else [])
    omega, omega_prime = [], []
    for row in rows:
        # planted: omega * prod n^{a+} == omega' * prod n^{a-} at the planted point
        pos = neg = 1
        for a, n in zip(row, planted):
            if a > 0:
                pos *= n**a
            elif a < 0:
                neg *= n ** (-a)
        kind = draw(st.sampled_from(kinds))
        if kind == "planted" and not near_limit and max(pos, neg) * 210**3 > FACTOR_INPUT_LIMIT:
            kind = "smooth"
        if kind == "planted":
            c = draw(smooth())
            w, wp = c * neg, c * pos
        elif kind == "smooth":
            w, wp = draw(smooth()), draw(smooth())
        elif kind == "planted_near_limit":
            c = TWIST_LIMIT // max(pos, neg) - draw(st.integers(0, 3))
            w, wp = c * neg, c * pos
        else:
            w = TWIST_LIMIT - draw(st.integers(0, 1000))
            wp = TWIST_LIMIT - draw(st.integers(0, 1000))
        omega.append(w)
        omega_prime.append(wp)
    S = LaurentMonomialSystem(t=t, m=m, A=tuple(map(tuple, rows)),
                              omega=tuple(omega), omega_prime=tuple(omega_prime))
    return S, N


def scan(S, N, member):
    return [p for p in itertools.product(range(1, N + 1), repeat=S.t) if member(S, p)]


@differential
@given(systems(near_limit=True))
def test_pruned_equals_brute_force(case):
    S, N = case
    got = enumerate_box(S, N)
    assert got == scan(S, N, on_monomial_variety_rational)


def row_bound(S, N):
    """The largest row side omega_i * N^{sum a+}, omega'_i * N^{sum a-}."""
    return max((max(w * N ** sum(a for a in row if a > 0),
                    wp * N ** sum(-a for a in row if a < 0))
                for row, w, wp in zip(S.A, S.omega, S.omega_prime)), default=0)


def expected_dtype(S, N):
    return np.int64 if row_bound(S, N) < 2**63 and N < 2**40 else object


def rows(X):
    return [tuple(r) for r in X.tolist()]


@differential
@given(systems(near_limit=True))
def test_box_array_equals_brute_force(case):
    S, N = case
    X = box_array(S, N)
    assert X.dtype == expected_dtype(S, N)
    assert X.shape == (len(X), S.t)
    assert rows(X) == scan(S, N, on_monomial_variety_rational)
    with mock.patch.object(limits, "CHUNK", 3):
        assert rows(box_array(S, N)) == rows(X)


@differential
@given(systems(near_limit=False))
def test_pruned_equals_valuation_oracle(case):
    S, N = case
    assert max(S.omega + S.omega_prime) <= FACTOR_INPUT_LIMIT
    got = enumerate_box(S, N)
    assert got == scan(S, N, on_monomial_variety)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2**200), st.integers(1, 12))
def test_iroot_is_the_floor_root(v, k):
    x = iroot(v, k)
    assert x**k <= v < (x + 1) ** k


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 2**200), st.integers(1, 12))
def test_iroot_exact_at_perfect_powers(x, k):
    if x**k > 2**200:
        x = iroot(2**200, k)
    assert iroot(x**k, k) == x
    assert iroot(x**k - 1, k) == x - 1


def system(A, omega=None, omega_prime=None):
    m = len(A)
    return LaurentMonomialSystem(t=len(A[0]), m=m, A=tuple(map(tuple, A)),
                                 omega=tuple(omega or (1,) * m),
                                 omega_prime=tuple(omega_prime or (1,) * m))


class TestBoxArray:
    def test_dtype_at_the_int64_bound(self):
        # omega' * N = 2cN just below and just above 2^63 on A = [[1, -1]]:
        # both dtypes list x1 = 2 x2, exactly
        N = 50
        c = (2**63 - 1) // (2 * N)
        for c, dt in ((c, np.int64), (c + 1, object)):
            S = system([[1, -1]], (c,), (2 * c,))
            assert (2 * c * N < 2**63) == (dt is np.int64)
            X = box_array(S, N)
            assert X.dtype == dt
            assert rows(X) == [(2 * x, x) for x in range(1, N // 2 + 1)]

    def test_dtype_at_the_root_bound(self):
        # x^2 = omega' with N^2 just below and just above 2^63
        N = iroot(2**63 - 1, 2)
        for box, dt in ((N, np.int64), (N + 1, object)):
            S = system([[2]], (1,), (N * N,))
            X = box_array(S, box)
            assert X.dtype == dt
            assert rows(X) == [(N,)]

    def test_dtype_for_a_large_box(self):
        S = system([[1, 0], [0, 1]], (1, 1), (3, 5))
        for N, dt in ((2**40 - 1, np.int64), (2**40, object), (2**70, object)):
            X = box_array(S, N)
            assert X.dtype == dt
            assert rows(X) == [(3, 5)]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_perfect_powers_near_the_top(self, k):
        # the float root must propose x for every exact x^k below 2^63, and
        # the exact check must refuse x^k +- 1
        N = iroot(2**63 - 1, k)
        for x in (N, N - 1, N - 2, 2**(62 // k) + 1):
            for v, want in ((x**k, [(x,)]), (x**k - 1, []), (x**k + 1, [])):
                S = system([[k]], (1,), (v,))
                X = box_array(S, N)
                assert X.dtype == np.int64
                assert rows(X) == want
                S = system([[-k]], (v,), (1,))
                assert rows(box_array(S, N)) == want
        # the same roots in object dtype (the box one past the bound)
        S = system([[k]], (1,), (N**k,))
        X = box_array(S, N + 1)
        assert X.dtype == object
        assert rows(X) == [(N,)]

    def test_parent_range_spans_several_windows(self):
        S = make_system([[1, 1, -1]])
        want = scan(S, 20, on_monomial_variety_rational)
        for window in (1, 2, 5, 7):
            with mock.patch.object(limits, "CHUNK", window):
                assert rows(box_array(S, 20)) == want

    def test_zero_count_parents(self):
        # x1 = 5 x2: four parents in five have an empty x2 range, including
        # the first, the last and whole windows of them
        S = system([[1, -1, 0], [0, 1, -1]], (1, 1), (5, 1))
        want = [(5 * x, x, x) for x in range(1, 7)]
        assert scan(S, 33, on_monomial_variety_rational) == want
        for window in (1, 3, 4, 1 << 16):
            with mock.patch.object(limits, "CHUNK", window):
                assert rows(box_array(S, 33)) == want

    def test_all_zero_last_column(self):
        S = make_system([[1, -1, 0]])
        X = box_array(S, 7)
        assert rows(X) == [(x, x, z) for x in range(1, 8) for z in range(1, 8)]
        assert rows(box_array(system([[0]], (3,), (3,)), 5)) == [(x,) for x in range(1, 6)]
        assert box_array(system([[0]], (3,), (2,)), 5).shape == (0, 1)
        with mock.patch.object(limits, "CHUNK", 2):
            assert rows(box_array(S, 7)) == rows(X)

    def test_enumerate_box_wraps_the_rows(self):
        S = make_system([[1, 1, -1]])
        assert enumerate_box(S, 12) == rows(box_array(S, 12))


class TestWorkCapTotal:
    """The cap is the exact node total: prefix coordinates tried plus
    points emitted."""

    @pytest.mark.parametrize("S,N,total", [
        # one prefix level of N nodes and N points
        (make_system([[1, -1]]), 100, 200),
        # N first coordinates, then floor(N/x1) second ones and as many points
        (make_system([[1, 1, -1]]), 30, 30 + 2 * sum(30 // x for x in range(1, 31))),
        # no prefix level: only the one point
        (system([[2]], (1,), (49,)), 10, 1),
        # 5 + 5 prefix nodes, then each prefix repeats over x3 = 1..5
        (make_system([[1, -1, 0]]), 5, 5 + 5 + 25),
    ])
    def test_cap_equal_to_total_passes(self, S, N, total):
        want = scan(S, N, on_monomial_variety_rational)
        with capped(total):
            assert rows(box_array(S, N)) == want
        with capped(total - 1), pytest.raises(WorkCapExceeded, match="monomial box enumeration"):
            box_array(S, N)


# ---------------------------------------------------------------------------
# per-prime exponent bound against the uniform bound

FAMILY_KINDS = ("trivial", "character", "hecke", "tau")


def family(kind, P, theta):
    """A family of `kind` and its bound C(e) on |c(p^e)|."""
    if kind == "trivial":
        return TrivialFamily(), lambda e: 1
    if kind == "character":
        return CharacterFamily(character_table(7), 2), lambda e: 1
    if kind == "hecke":
        # real lambda(p) in [-2, 2], with both ends, where |c(p^e)| = e + 1
        lam = {p: 2 * math.cos(p * theta) for p in primes_up_to(P)}
        lam.update({2: 2.0, 3: -2.0})
        return HeckeGL2Family(lam), lambda e: e + 1
    return TauFamily(P), lambda e: e + 1


def term_size(fams, p, s, alpha):
    return math.prod(abs(f.prime_power(p, e)) * p ** (-z.real * e)
                     for f, z, e in zip(fams, s, alpha) if e)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(systems(near_limit=False), st.integers(40, 80), st.integers(1, 20),
       st.lists(st.sampled_from(FAMILY_KINDS), min_size=3, max_size=3),
       st.lists(st.sampled_from((1.1, 1.5, 2.0, 3.0)), min_size=3, max_size=3),
       st.lists(st.sampled_from((0.0, 0.5, -1.0)), min_size=3, max_size=3),
       st.floats(0.1, 3.0))
def test_per_prime_bound_against_uniform(case, P, B, kinds, re, im, theta):
    S, _ = case
    fams, bounds = zip(*(family(k, P, theta) for k in kinds[:S.t]))
    s = tuple(complex(x, y) for x, y in zip(re, im))[:S.t]
    sigma = min(z.real for z in s)
    primes = primes_up_to(P)
    per, uniform = [], []
    for p in primes:
        a = series.local_factor(S, fams, p, s, B)
        sols = local_solutions(S, p, B).solutions
        b = series._local_factors(fams, s, [p], sols)[0]
        # without a twist at p, alpha is dropped iff some alpha_j > B_p,
        # i.e. p^(alpha_j - 1) >= 2^B
        dropped = [] if any(monomial_rhs_at(S, p)) else [
            alpha for alpha in sols if any(e and p ** (e - 1) >= 2**B for e in alpha)]
        if not dropped:
            assert a == b
        lost = math.fsum(term_size(fams, p, s, alpha) for alpha in dropped)
        closed = math.fsum(
            min(C(e) for C, e in zip(bounds, alpha) if e and p ** (e - 1) >= 2**B)
            * 2 ** (-sigma * B) * p ** -sigma
            for alpha in dropped)
        # the kept terms have the same bits in both, so only the dropped
        # ones and the two roundings of fsum separate a and b
        assert abs(a - b) <= lost * (1 + 1e-9) + 2**-52 * (abs(a) + abs(b))
        assert lost <= closed * (1 + 1e-12)
        per.append(a)
        uniform.append(b)
    # telescoping: |prod a - prod b| <= sum_p |a_p - b_p| prod_{q != p} max(|a_q|, |b_q|)
    big = [max(abs(a), abs(b)) for a, b in zip(per, uniform)]
    telescoping = math.fsum(
        abs(a - b) * math.prod(big[:i] + big[i + 1:])
        for i, (a, b) in enumerate(zip(per, uniform)))
    product = 1 + 0j
    for b in uniform:
        product *= b
    got = series.euler_product(S, fams, s, P, B)
    # plus the rounding of two running products of len(primes) factors
    assert abs(got - product) <= telescoping + 8 * len(primes) * 2**-53 * math.prod(big)


# ---------------------------------------------------------------------------
# the streamed direct sum against the whole-array formula

def whole_array_sums(S, fams, s, N):
    """Oracle: the direct sum and the half-box sum from the box as one
    K x t array, the terms as one complex array each, and both parts
    summed by math.fsum (the imaginary part 0.0 when all of it is zero)."""
    s = tuple(complex(z) for z in s)
    X = box_array(S, N).astype(np.int64, copy=False)
    logX = np.log(X)
    expo = np.zeros(len(X), dtype=complex)
    for j, z in enumerate(s):
        expo += logX[:, j] * z
    terms = np.exp(-expo)
    if not all_trivial(fams):
        # the scalar values' product, column by column from 1+0j
        coef = [math.prod((f.value(n) for f, n in zip(fams, row)), start=1 + 0j)
                for row in X.tolist()]
        # times each term by Python's complex product, which numpy's may not
        # round alike
        terms = np.array([z * a for z, a in zip(terms.tolist(), coef)], dtype=complex)

    def total(z):
        imag = math.fsum(z.imag.tolist()) if z.imag.any() else 0.0
        return complex(math.fsum(z.real.tolist()), imag)

    half = total(terms[X.max(axis=1, initial=1) <= N // 2]) if N >= 2 else None
    return total(terms), half


def bits(z):
    if z is None:
        return None
    return tuple((math.copysign(1.0, x), x.hex()) for x in (z.real, z.imag))


STREAM_KINDS = ("trivial", "character", "complex_hecke", "tau")


def stream_family(kind):
    if kind == "trivial":
        return TrivialFamily()
    if kind == "character":
        return CharacterFamily(character_table(7), 2)
    if kind == "complex_hecke":
        return HeckeGL2Family({p: 1.5 * complex(math.cos(p), math.sin(p))
                               for p in primes_up_to(BOX[1])})
    return TauFamily(BOX[1])


@differential
@given(systems(near_limit=True),
       st.lists(st.sampled_from(STREAM_KINDS), min_size=3, max_size=3),
       st.lists(st.sampled_from((1.1, 1.5, 2.0, 3.0)), min_size=3, max_size=3),
       st.lists(st.sampled_from((0.0, 0.5, -1.0)), min_size=3, max_size=3))
def test_streamed_direct_sum_is_bitwise_the_whole_array_sum(case, kinds, re, im):
    S, N = case
    fams = tuple(stream_family(k) for k in kinds[:S.t])
    s = tuple(complex(x, y) for x, y in zip(re, im))[:S.t]
    want = [bits(v) for v in whole_array_sums(S, fams, s, N)]
    assert [bits(v) for v in series.direct_sum_and_half(S, fams, s, N)] == want
    for window in (1, 3, 7):
        with mock.patch.object(limits, "CHUNK", window):
            assert [bits(v) for v in series.direct_sum_and_half(S, fams, s, N)] == want


class TestStreamedDirectSum:
    @pytest.mark.parametrize("S,N", [
        (system([[1, -1]]), 40),
        (system([[1, 1, -1]]), 30),
        # a free last coordinate, whose repeated rows go out in windows
        (system([[1, -1, 0]]), 12),
        (system([[1, -1, 0], [0, 1, -1]], (1, 1), (5, 1)), 33),
        # object dtype: omega' * N reaches 2^63
        (system([[1, -1]], ((2**63 - 1) // 40,), (2 * ((2**63 - 1) // 40),)), 40),
    ])
    def test_windows_with_and_without_imaginary_parts(self, S, N):
        # a character mod 7 is real at some n and not at others, so with
        # small windows some have all-zero imaginary parts and some do not
        fams = (CharacterFamily(character_table(7), 2),) + (TrivialFamily(),) * (S.t - 1)
        for s in ((2.0,) * S.t, (2.0 + 0.5j,) * S.t):
            for fam_tuple in (fams, (TrivialFamily(),) * S.t):
                want = [bits(v) for v in whole_array_sums(S, fam_tuple, s, N)]
                for window in (1, 3, 7, 1 << 12):
                    with mock.patch.object(limits, "CHUNK", window):
                        got = series.direct_sum_and_half(S, fam_tuple, s, N)
                    assert [bits(v) for v in got] == want

    def test_free_last_coordinate_windows(self):
        # no row uses x3, so each kept prefix repeats over 1..N; the rows go
        # out limits.CHUNK at a time, also when one prefix's N rows are more
        S, N = system([[1, -1, 0]]), 10
        want = scan(S, N, on_monomial_variety_rational)
        for window in (1, 7, 25, 100, 1 << 12):
            with mock.patch.object(limits, "CHUNK", window):
                sizes = [len(X) for X in variety.box_windows(S, N)]
                assert max(sizes) == min(window, len(want))
                assert sum(sizes) == len(want)
                assert rows(box_array(S, N)) == want
        # object dtype (omega * N reaches 2^63), with points and without
        for w, wp, count in ((2**62, 2**62, 25), (1, 2**62, 0)):
            S = system([[1, -1, 0]], (w,), (wp,))
            want = scan(S, 5, on_monomial_variety_rational)
            with mock.patch.object(limits, "CHUNK", 7):
                X = box_array(S, 5)
            assert X.dtype == object and rows(X) == want and len(want) == count

    def test_box_array_is_the_windows_concatenated(self):
        S = system([[1, 1, -1]])
        with mock.patch.object(limits, "CHUNK", 5):
            windows = list(variety.box_windows(S, 20))
            assert len(windows) > 2
            assert rows(np.concatenate(windows)) == rows(box_array(S, 20))
        # an empty box still gives its dtype and shape
        for S, dt in ((system([[0]], (3,), (2,)), np.int64),
                      (system([[1, -1]], (1,), (2**62,)), object)):
            X = box_array(S, 5)
            assert X.shape == (0, S.t) and X.dtype == dt


def least_passing_cap(S, N):
    """The smallest work cap at which box_array runs, by bisection."""
    lo, hi = 0, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with capped(mid):
                box_array(S, N)
            hi = mid
        except WorkCapExceeded:
            lo = mid + 1
    return lo


def cap_outcome(f, cap):
    """None when f() runs under the work cap, else the WorkCapExceeded text."""
    try:
        with capped(cap):
            f()
        return None
    except WorkCapExceeded as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(systems(near_limit=True))
def test_direct_sum_trips_the_cap_of_box_array(case):
    # the sum charges the cap through the same windows, so it fails at the
    # same count with the same message, however far it has summed
    S, N = case
    least = least_passing_cap(S, N)
    fams, s = (TrivialFamily(),) * S.t, (2.0,) * S.t
    for cap in sorted({0, least // 3, least // 2, least - 1, least, least + 1}):
        if cap < 0:
            continue
        want = cap_outcome(lambda: box_array(S, N), cap)
        assert (want is None) == (cap >= least)
        assert cap_outcome(lambda: series.direct_sum(S, fams, s, N), cap) == want


@pytest.mark.parametrize("S,N,total", [
    (system([[1, -1]]), 100, 200),
    (system([[1, -1, 0]]), 30, 30 + 30 + 900),
    (system([[1, 1, -1]]), 30, 30 + 2 * sum(30 // x for x in range(1, 31))),
])
def test_direct_sum_cap_at_the_node_total(S, N, total):
    fams, s = (TrivialFamily(),) * S.t, (2.0,) * S.t
    for window in (1, 7, 1 << 12):
        with mock.patch.object(limits, "CHUNK", window):
            with capped(total):
                capped_sum = series.direct_sum(S, fams, s, N)
            assert capped_sum == series.direct_sum(S, fams, s, N)
            want = cap_outcome(lambda: box_array(S, N), total - 1)
            assert want is not None and "monomial box enumeration" in want
            assert cap_outcome(lambda: series.direct_sum(S, fams, s, N), total - 1) == want


def test_free_last_coordinate_charged_before_its_windows():
    # the N repeats of a window of prefixes are charged at once, before the
    # first of their row windows: with the 30 prefixes in one window, any
    # cap past the 30 + 30 prefix nodes and below the total trips at the
    # whole count
    S, N, fams, s = system([[1, -1, 0]]), 30, (TrivialFamily(),) * 3, (2.0,) * 3
    for window in (30, 1 << 12):
        with mock.patch.object(limits, "CHUNK", window):
            for f in (lambda: box_array(S, N),
                      lambda: series.direct_sum(S, fams, s, N)):
                assert "needs ~960 units" in cap_outcome(f, 61)
