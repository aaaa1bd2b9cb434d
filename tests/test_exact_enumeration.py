"""Differential tests of exact box enumeration and the integer k-th root.

The pruned enumeration (float-narrowed prefix search, exact solve of the
last coordinate) must list exactly the points that a brute-force scan of
the box accepts, with the cross-multiplication kernel and, where the twists
can be factorised, with the independent valuation test.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mdseries.arith import iroot
from mdseries.limits import FACTOR_INPUT_LIMIT, TWIST_LIMIT
from mdseries.system import LaurentMonomialSystem
from mdseries.variety import (enumerate_box, on_monomial_variety,
                              on_monomial_variety_rational)

# largest box bound per variable count, so that a brute-force scan stays small
BOX = {1: 40, 2: 12, 3: 6}
SMALL_PRIMES = (2, 3, 5, 7)

differential = settings(derandomize=True, deadline=None, max_examples=150)


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
            kind = "smooth"   # keep the twists factorisable for the valuation test
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
    got = [p.coords for p in enumerate_box(S, N)]
    assert got == scan(S, N, on_monomial_variety_rational)


@differential
@given(systems(near_limit=False))
def test_pruned_equals_valuation_oracle(case):
    S, N = case
    assert max(S.omega + S.omega_prime) <= FACTOR_INPUT_LIMIT
    got = [p.coords for p in enumerate_box(S, N)]
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
