"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time

import pytest

from mdseries.coefficients import (hecke_prime_power, ramanujan_tau_table,
                                   trivial_tuple)
from mdseries.errors import TwistOverflowError
from mdseries.momentlab import decay_experiment, moment_rhs
from mdseries.series import direct_sum, euler_product
from mdseries.lattice import (AddMultiple, Negate, Swap, apply_row_op,
                              block_compose, express_in_rows, hnf_rows,
                              lattice_contains, negate_system, support_reducible)
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.recombination import (cartesian_check, check_property_S,
                                    parse_constraints, recombine)
from mdseries.variety import enumerate_box

ZETA4 = math.pi**4 / 90
DIAG = make_system([[1, -1]])
PROD = make_system([[1, 1, -1]])


def random_system(rng, tmax=4, mmax=3, amax=3, wmax=6):
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


def random_op(rng, m):
    kind = rng.randrange(3) if m > 1 else 0
    if kind == 0:
        return Negate(rng.randrange(m))
    i, j = rng.sample(range(m), 2)
    if kind == 1:
        return Swap(i, j)
    return AddMultiple(i, j, rng.choice([-2, -1, 1, 2]))


def test_criterion_1_zeta_collapse():
    t0 = time.perf_counter()
    fams = trivial_tuple(2)
    d = direct_sum(DIAG, fams, (2, 2), 10**4)
    e = euler_product(DIAG, fams, (2, 2), 10**4, 40)
    wall = time.perf_counter() - t0
    assert abs(d - ZETA4) < 1e-8
    assert abs(e - ZETA4) < 1e-8
    assert wall < 5.0
    print(f"\nACCEPTANCE 1: PASS zeta collapse |direct-zeta4|={abs(d - ZETA4):.2e} "
          f"|euler-zeta4|={abs(e - ZETA4):.2e} wall={wall:.2f}s")


def test_criterion_2_euler_direct_cross_validation():
    t0 = time.perf_counter()
    fams = trivial_tuple(3)
    s = (2, 2, 2)
    gaps = []
    for N in (2500, 5000, 10**4):
        d = direct_sum(PROD, fams, s, N)
        e = euler_product(PROD, fams, s, N, 40)
        gaps.append(abs(d - e))
    wall = time.perf_counter() - t0
    assert gaps[-1] < 1e-6
    assert gaps[0] > gaps[1] > gaps[2]
    assert wall < 60.0
    print(f"\nACCEPTANCE 2: PASS cross-validation gap={gaps[-1]:.2e} "
          f"doubling gaps={['%.2e' % g for g in gaps]} wall={wall:.1f}s")


def test_criterion_3_row_op_invariance():
    t0 = time.perf_counter()
    rng = random.Random(20250810)
    checked = 0
    while checked < 100:
        S = random_system(rng)
        s = tuple(2.0 + 0.25 * k for k in range(S.t))
        fams = trivial_tuple(S.t)
        before_set = enumerate_box(S, 40)
        before_sum = direct_sum(S, fams, s, 40)
        cur = S
        for _ in range(rng.randint(1, 10)):
            for _attempt in range(20):
                try:
                    cur = apply_row_op(cur, random_op(rng, cur.m))
                    break
                except TwistOverflowError:
                    continue
        assert enumerate_box(cur, 40) == before_set
        after_sum = direct_sum(cur, fams, s, 40)
        assert after_sum == before_sum  # bitwise under deterministic reduction
        checked += 1
    wall = time.perf_counter() - t0
    assert wall < 120.0
    print(f"\nACCEPTANCE 3: PASS row-op invariance on {checked} systems "
          f"(sets exact, sums bitwise) wall={wall:.1f}s")


def test_criterion_4_negation_and_block_identities():
    rng = random.Random(44)
    for _ in range(50):
        S = random_system(rng, tmax=3, mmax=2, wmax=4)
        N = rng.randint(5, 20)
        assert enumerate_box(S, N) == enumerate_box(negate_system(S), N)
        s = tuple(2.0 for _ in range(S.t))
        fams = trivial_tuple(S.t)
        assert direct_sum(S, fams, s, N) == direct_sum(negate_system(S), fams, s, N)

        S2 = random_system(rng, tmax=2, mmax=1, wmax=4)
        B = block_compose(S, S2)
        s2 = tuple(2.5 for _ in range(S2.t))
        fams2 = trivial_tuple(S2.t)
        got = direct_sum(B, trivial_tuple(B.t), s + s2, N)
        want = direct_sum(S, fams, s, N) * direct_sum(S2, fams2, s2, N)
        assert abs(got - want) < 1e-12
        prod_set = {x + y for x in enumerate_box(S, N) for y in enumerate_box(S2, N)}
        assert set(enumerate_box(B, N)) == prod_set
    print("\nACCEPTANCE 4: PASS negation and block identities on 50 random instances")


def test_criterion_5_property_s():
    t0 = time.perf_counter()
    V = parse_constraints("x1 + x2 - 5", 2)
    w = check_property_S(V, 5)
    assert w is not None
    assert V.is_solution(w.x) and V.is_solution(w.y)
    assert not V.is_solution(w.point)
    assert recombine(w.x, w.y, dict(w.choice)) == w.point
    rng = random.Random(555)
    for _ in range(50):
        S = random_system(rng, tmax=3, mmax=2)
        assert check_property_S(S, 30) is None
    wall = time.perf_counter() - t0
    assert wall < 60.0
    print(f"\nACCEPTANCE 5: PASS Property (S): witness point={w.point} "
          f"violates x1+x2=5; 50 monomial systems clean; wall={wall:.1f}s")


def test_criterion_6_cartesian_decomposition():
    r1 = cartesian_check(DIAG, 30, 30, 5)
    r2 = cartesian_check(PROD, 36, 7, 3)
    assert r1.equal and r2.equal
    print("\nACCEPTANCE 6: PASS Cartesian decomposition exact on both systems")


def test_criterion_7_moment_identity():
    t0 = time.perf_counter()
    fams = trivial_tuple(2)
    s = (2, 2)
    q_list = [11, 31, 101, 307]
    # exact finite orthogonality reconstruction at N < q
    for q in q_list:
        N = min(q - 1, 50)
        got = moment_rhs(DIAG, fams, s, q, N)
        want = 0j
        for n1, n2 in itertools.product(range(1, N + 1), repeat=2):
            if n1 % q and n2 % q and (n1 - n2) % q == 0:
                want += (n1 * n2) ** -2.0
        assert abs(got - want) < 1e-12
    exp = decay_experiment(DIAG, fams, s, q_list, 10**5)
    errs = [e for _, e in exp.errors]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert exp.eta_hat > 0.5
    wall = time.perf_counter() - t0
    assert wall < 600.0
    print(f"\nACCEPTANCE 7: PASS moment identity: reconstruction exact (<1e-12); "
          f"e(q)={['%.2e' % e for e in errs]} strictly decreasing; "
          f"eta_hat={exp.eta_hat:.2f} > 0.5; wall={wall:.1f}s")


def test_criterion_8_coefficient_oracles():
    tau = ramanujan_tau_table(300)
    assert tau[2] == -24 and tau[3] == 252 and tau[5] == 4830
    for a in range(2, 300):
        for b in range(a, 300):
            if a * b <= 300 and math.gcd(a, b) == 1:
                assert tau[a * b] == tau[a] * tau[b]
    rng = random.Random(88)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert hecke_prime_power(c, 3) == pytest.approx(c**3 - 2 * c)
    print("\nACCEPTANCE 8: PASS coefficient oracles: tau(2,3,5) exact, "
          "multiplicative to 300, Hecke cube identity holds")


def test_criterion_9_support_reducibility():
    res1 = support_reducible([[1, -1, 0], [0, 1, -1]], 10)
    assert res1.reducible
    res2 = support_reducible([[1, 1, -1]], 10)
    assert not res2.reducible
    # the returned basis generates the original row lattice, verifiably
    A = [[1, -1, 0], [0, 1, -1]]
    basis = [list(r) for r in res1.basis]
    for row in A:
        coeffs = express_in_rows(row, basis)
        assert coeffs is not None
        rebuilt = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(3)]
        assert rebuilt == row
    H = hnf_rows(A)
    assert all(lattice_contains(H, b) for b in basis)
    print("\nACCEPTANCE 9: PASS support reducibility: reducible/irreducible "
          "verdicts correct, basis generates the row lattice")


def test_criterion_10_out_of_scope_not_claimed():
    # Meromorphic continuation and functional equations are deliberately
    # absent; the evaluators refuse the non-convergent region without an
    # explicit formal-truncation override.
    import mdseries
    assert not any("continuation" in name or "functional" in name
                   for name in dir(mdseries))
    from mdseries.errors import ConvergenceError
    with pytest.raises(ConvergenceError):
        direct_sum(DIAG, trivial_tuple(2), (0.5, 0.5), 10)
    print("\nACCEPTANCE 10: PASS analytic continuation deliberately out of "
          "scope; non-convergent region guarded")
