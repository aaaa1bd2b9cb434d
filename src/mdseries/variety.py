"""Integer points of Laurent monomial varieties: exact membership, box
enumeration and the per-prime local solution sets.

Membership of a point in a Laurent monomial variety is always decided by
exact integer arithmetic (cross-multiplication on every row).  Floating
logs only narrow the box search, and are widened so that they never
exclude a solution; a float k-th root only proposes the last coordinate.

Box enumeration on a monomial system is one array search (box_windows): it
takes the whole frontier of prefixes a level at a time, a window of
_WINDOW nodes at a time, which bounds its memory, solves the last
coordinate for a whole window at once, and yields each window's points
as an array, in lexicographic order.  Its exact products are int64 when
no row side can reach 2^63 on the box, and Python ints (object arrays,
the same code) otherwise.  box_array concatenates the windows, and
enumerate_box lists its rows as tuples; a caller that folds the points
window by window (the direct sum) never holds the box.
on_monomial_variety_rational is the scalar form of the same exact check,
and on_monomial_variety, which factors a tuple with arith.factorize, is
its independent reference.

local_solutions gives the exponent tuples admissible at one prime, the
sets behind the Euler product's local factors.

A point is a row of a box array or a tuple of positive ints.  Polynomial
constraint varieties, Property (S) and the Cartesian decomposition test
live in mdseries.recombination; box_windows enumerates a
PolynomialVariety too, and imports that module only when given one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import factorize, iroot
# primes_up_to is not called here; perfbench's layer trace
# (perfbench/layertrace.py) wraps it by this module's name
from .arith import primes_up_to  # noqa: F401
from .errors import WorkCapExceeded
from .limits import work_cap
from .system import LaurentMonomialSystem


# ---------------------------------------------------------------------------
# membership tests for monomial systems

def monomial_rhs_at(S: LaurentMonomialSystem, p: int) -> tuple:
    """(v_p(omega'_i) - v_p(omega_i))_i, zero when p divides no twist."""
    return S.twist_rhs.get(p, (0,) * S.m)


def _valuations(coords) -> list:
    """[{p: v_p(n_j)}] for the positive integers n_j of coords, by factorize."""
    return [dict(factorize(int(n))) for n in coords]


def on_monomial_variety(S: LaurentMonomialSystem, coords) -> bool:
    """Membership via the valuation identity at every relevant prime:
    sum_j a_ij * v_p(n_j) = v_p(omega'_i) - v_p(omega_i).

    Independent of the cross-multiplication kernel, and kept as its oracle;
    it factorises every coordinate, and reads the twists' side from
    S.twist_rhs."""
    vals = _valuations(coords)
    for p in sorted(set(S.twist_rhs).union(*vals)):
        for row, r in zip(S.A, monomial_rhs_at(S, p)):
            if sum(a * v.get(p, 0) for a, v in zip(row, vals)) != r:
                return False
    return True


def _row_sides(row, w, wp, coords) -> tuple:
    """(omega_i * prod n_j^a_ij over a_ij > 0, omega'_i * prod n_j^-a_ij over
    a_ij < 0) in exact integers; row i holds iff the two are equal.  Over
    the first len(coords) coordinates; with arrays (w, wp and the coords of
    many points), elementwise."""
    lhs, rhs = w, wp
    for a, n in zip(row, coords):
        if a > 0:
            lhs *= n**a
        elif a < 0:
            rhs *= n ** (-a)
    return lhs, rhs


def on_monomial_variety_rational(S: LaurentMonomialSystem, coords) -> bool:
    """Membership by exact cross-multiplication,
    omega_i * prod n_j^{a+} == omega'_i * prod n_j^{a-} for every row i.

    The scalar form of the check that box enumeration makes on arrays;
    the tests decide membership with it."""
    for row, w, wp in zip(S.A, S.omega, S.omega_prime):
        lhs, rhs = _row_sides(row, w, wp, coords)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# box enumeration

_LOG_SLACK = 1e-6  # relative widening of pruning intervals

# Nodes the box search holds at once in one level: the children of a level
# are made this many at a time, and each window is searched to the end
# before the next, and its points are yielded before the next is made.
# Any window gives the same points in the same order; this bounds the
# memory of the search and of a caller that folds the points window by
# window.  On A = [[1, -1]] at N = 10^5,
# 2^12 is as fast as 2^16 with 2.5 MB less peak memory in `mds moment`.
_WINDOW = 1 << 12

# int64 boxes keep N below this, so that float interval ends are exact
# integers and a window's child count (at most _WINDOW * N) fits int64
_INT64_N = 1 << 40


def _box_dtype(S: LaurentMonomialSystem, N: int):
    """int64 when no row side omega_i * prod n_j^{a+}, omega'_i * prod
    n_j^{a-} can reach 2^63 on the box and N < _INT64_N; object (Python
    ints) otherwise.  The bound is computed in Python ints."""
    bits = N.bit_length() - 1   # 2^bits <= N

    def fits(c, e):
        return e * bits < 64 and c * N**e < 2**63

    for row, w, wp in zip(S.A, S.omega, S.omega_prime):
        if not (fits(w, sum(a for a in row if a > 0))
                and fits(wp, sum(-a for a in row if a < 0))):
            return object
    return np.int64 if N < _INT64_N else object


def _ceil_from_log(L, lnN: float):
    """The least integer x >= 1 with log x >= L, widened down; inf when
    L > log N.  L is a float array."""
    e = np.exp(np.minimum(L, lnN + 1.0))
    return np.where(L <= 0, 1.0, np.where(L > lnN + _LOG_SLACK, np.inf,
                                          np.ceil(e * (1 - _LOG_SLACK) - _LOG_SLACK)))


def _floor_from_log(L, lnN: float):
    """The greatest integer x >= 0 with log x <= L, widened up; inf (read
    as N) when L >= log N.  L is a float array."""
    e = np.exp(np.minimum(L, lnN + 1.0))
    return np.where(L >= lnN, np.inf, np.where(L < -_LOG_SLACK, 0.0,
                                               np.floor(e * (1 + _LOG_SLACK) + _LOG_SLACK)))


def _exact_ints(f, top: int, dt):
    """Integer-valued floats f >= 0 (inf included) as exact integers of
    dtype dt, capped at top."""
    if dt is object:
        return np.array([top if v > top else int(v) for v in f.tolist()], dtype=object)
    return np.minimum(f, top).astype(np.int64)


def _side_arrays(row, w: int, wp: int, cols: list, n: int, dt) -> tuple:
    """_row_sides at n points at once: cols holds their first coordinates
    as arrays, and the coordinates after those are 1."""
    return _row_sides(row, np.full(n, w, dtype=dt), np.full(n, wp, dtype=dt), cols)


def _holds(S: LaurentMonomialSystem, cols: list, n: int, dt):
    """Whether every row of S holds, at each of the n points of cols."""
    keep = np.ones(n, dtype=bool)
    for row, w, wp in zip(S.A, S.omega, S.omega_prime):
        lhs, rhs = _side_arrays(row, w, wp, cols, n, dt)
        keep &= lhs == rhs
    return keep


def _monomial_windows(S: LaurentMonomialSystem, N: int, cap: int):
    """The box points of S, yielded as K_w x t arrays, one per window, in
    lexicographic order, by a level-synchronous search over the first t-1
    coordinates and an exact solve for the last one.

    Each prefix level computes, for every node of the frontier at once, the
    interval that every constraint still allows for the next coordinate.
    The intervals are computed in floating logs and rounded outward, so
    they can only over-admit, never exclude a solution.  The children are
    listed by a flat index (cumsum of the interval lengths, searchsorted
    back to the parent), which keeps lexicographic order, a window of
    _WINDOW at a time, depth first.

    The last coordinate is never searched when some row uses it: with
    x_t = 1 in both sides, that row reads lhs * x^k == rhs (or the mirror),
    so x^k must be the exact quotient v, with zero remainder and v <= N^k.
    The candidate is the k-th root of v, and the full cross-multiplication
    on every row accepts or rejects the tuple.  In int64 the candidate is
    rint(v^(1/k)): k >= 2 and N^k < 2^63 give x <= N < 2^32, and the float
    root of an exact k-th power x^k is then within x * 2^-47 < 1/2 of x, so
    every solution is proposed; floats only propose, the exact check
    decides.  In object dtype the root is arith.iroot.  No row product can
    overflow: every side is bounded by the dtype rule of _box_dtype.  When
    no row uses x_t, membership does not depend on it, so it is decided
    once per prefix at x_t = 1 and each kept prefix repeats over 1..N; the
    repeated rows are yielded _WINDOW at a time, so no array yielded has
    more than _WINDOW rows, whatever N.

    Nodes (prefix coordinates tried plus points emitted) count against the
    work cap, each level before it is made; a window's points count before
    they are yielded.  The windows may be empty.
    """
    t, m, A = S.t, S.m, S.A
    if t == 0:
        yield np.zeros((int(all(w == wp for w, wp in zip(S.omega, S.omega_prime))), 0),
                       dtype=np.int64)
        return
    dt = _box_dtype(S, N)
    last = t - 1
    target_log = [math.log(wp) - math.log(w) for w, wp in zip(S.omega, S.omega_prime)]
    lnN = math.log(N) if N > 1 else 0.0
    # rest of constraint i over variables > j spans
    # [-neg_after[i][j], pos_after[i][j]] in units of log N
    pos_after = [[sum(a for a in row[j + 1:] if a > 0) for j in range(t)] for row in A]
    neg_after = [[sum(-a for a in row[j + 1:] if a < 0) for j in range(t)] for row in A]
    # the row that solves for x_t: the smallest nonzero |a_i,t| gives the
    # cheapest root
    solvers = [i for i in range(m) if A[i][last]]
    if solvers:
        si = min(solvers, key=lambda i: abs(A[i][last]))
        s_a = A[si][last]
        k = abs(s_a)
        Nk = N**k

    nodes = 0

    def spend(count):
        nonlocal nodes
        nodes += count
        if nodes > cap:
            raise WorkCapExceeded(nodes, cap, "monomial box enumeration")

    def solve_last(X):
        cols = [X[:, j] for j in range(last)]
        if not solvers:
            X = X[_holds(S, cols, len(X), dt)]
            spend(len(X) * N)
            # row r of the repeated prefixes is X[r // N] with x_t = r % N + 1
            total = len(X) * N
            for w0 in range(0, total, _WINDOW):
                r = np.arange(w0, min(total, w0 + _WINDOW))
                yield np.column_stack([X[r // N], (r % N + 1).astype(dt)])
            return
        lhs, rhs = _side_arrays(A[si], S.omega[si], S.omega_prime[si], cols, len(X), dt)
        num, den = (rhs, lhs) if s_a > 0 else (lhs, rhs)
        v = num // den
        ok = (num - v * den == 0) & (v <= Nk)
        X, v = X[ok], v[ok]
        if k == 1:
            x = v
        elif dt is object:
            x = np.array([iroot(u, k) for u in v.tolist()], dtype=object)
        else:
            x = np.clip(np.rint(v.astype(np.float64) ** (1.0 / k)), 1, N).astype(np.int64)
        X = np.column_stack([X, x])
        X = X[_holds(S, [X[:, j] for j in range(t)], len(X), dt)]
        spend(len(X))
        yield X

    def expand(j, X, plog):
        # X: the frontier's prefixes (n x j); plog[:, i]: row i's
        # sum of a_ij' * log x_j' over the prefix
        if j == last:
            yield from solve_last(X)
            return
        n = len(X)
        lo, hi = np.ones(n), np.full(n, np.inf)
        alive = np.ones(n, dtype=bool)
        for i in range(m):
            a = A[i][j]
            ratio = target_log[i] - plog[:, i]
            lo_log = ratio - pos_after[i][j] * lnN
            hi_log = ratio + neg_after[i][j] * lnN
            if a == 0:
                alive &= (lo_log <= _LOG_SLACK) & (hi_log >= -_LOG_SLACK)
                continue
            xl, xh = (lo_log / a, hi_log / a) if a > 0 else (hi_log / a, lo_log / a)
            lo = np.maximum(lo, _ceil_from_log(xl, lnN))
            hi = np.minimum(hi, _floor_from_log(xh, lnN))
        lo, hi = _exact_ints(lo, N + 1, dt), _exact_ints(hi, N, dt)
        counts = np.where(alive, np.maximum(hi - lo + 1, 0), 0)
        total = int(counts.sum())
        spend(total)
        ends = np.cumsum(counts.astype(np.int64))
        col = np.array([row[j] for row in A], dtype=float)
        for w0 in range(0, total, _WINDOW):
            idx = np.arange(w0, min(total, w0 + _WINDOW))
            par = np.searchsorted(ends, idx, side="right")
            x = lo[par] + (idx - ends[par] + counts[par])
            yield from expand(j + 1, np.column_stack([X[par], x]),
                              plog[par] + np.log(x.astype(np.float64))[:, None] * col)

    yield from expand(0, np.zeros((1, 0), dtype=dt), np.zeros((1, m)))
    # an empty last array gives box_array the dtype when no window was made
    yield np.zeros((0, t), dtype=dt)



def box_windows(V, N: int):
    """The points of [1,N]^t on the variety as a sequence of K_w x t integer
    arrays whose rows, taken in turn, are in lexicographic order.

    On a monomial system each array is one window of the search, so a
    caller that folds the points window by window holds at most _WINDOW
    of them at once (one array for a recombination.PolynomialVariety).
    The dtype is int64 where every exact product of the search fits it,
    else object (Python ints), the same for every array; the last array
    may be empty.  A generator: N is checked and the work cap
    (limits.work_cap) read at the first next(), and the cap is charged as
    the search goes, so WorkCapExceeded can come after some windows were
    yielded, at the count and with the message of box_array."""
    if N < 1:
        raise ValueError("box bound N must be >= 1")
    cap = work_cap()
    if isinstance(V, LaurentMonomialSystem):
        yield from _monomial_windows(V, N, cap)
        return
    from .recombination import PolynomialVariety
    if not isinstance(V, PolynomialVariety):
        raise TypeError(f"cannot enumerate {type(V).__name__}")
    yield V.solutions_in_box(N, cap)


def box_array(V, N: int):
    """All points of [1,N]^t on the variety as a K x t integer array, rows
    in lexicographic order: the concatenation of box_windows."""
    return np.concatenate(list(box_windows(V, N)))


def enumerate_box(V, N: int) -> list:
    """All points of [1,N]^t on the variety as coordinate tuples, in
    lexicographic order."""
    return list(map(tuple, box_array(V, N).tolist()))


# ---------------------------------------------------------------------------
# local solution sets

class LocalSolutionSet(NamedTuple):
    """Nonnegative exponent tuples alpha with max entry <= bound solving
    sum_j a_ij alpha_j = v_p(omega'_i) - v_p(omega_i) for every i."""
    p: int
    bound: int
    solutions: tuple   # sorted tuples


def local_solutions(S: LaurentMonomialSystem, p: int, B: int) -> LocalSolutionSet:
    """Admissible exponent tuples at the prime p, in lexicographic order.

    Level j of the search keeps the (prefix, x) pairs, in row-major order,
    that leave each row's target within reach of the later columns on
    [0, B]; partial sums are int64 where no row can reach 2^62."""
    if not 0 <= B <= 64:
        raise ValueError("exponent bound B must be in 0..64")
    A, t, m, rhs = S.A, S.t, S.m, monomial_rhs_at(S, p)
    dt = np.int64 if all(sum(map(abs, row)) * B + abs(r) < 1 << 62
                         for row, r in zip(A, rhs)) else object
    a = np.array(A, dtype=dt).reshape(m, t)
    # sum_{k > j} a_ik x_k ranges over [least[i, j], most[i, j]]
    least, most = np.zeros((2, m, t), dtype=dt)
    least[:, :-1] = np.cumsum(np.minimum(a * B, 0)[:, :0:-1], axis=1)[:, ::-1]
    most[:, :-1] = np.cumsum(np.maximum(a * B, 0)[:, :0:-1], axis=1)[:, ::-1]
    target = np.array(rhs, dtype=dt).reshape(m)
    X, part = np.zeros((1, 0), dtype=np.intp), np.zeros((1, m), dtype=dt)
    for j in range(t):
        lo, hi = np.zeros(len(X), dtype=dt), np.full(len(X), B, dtype=dt)
        for i in range(m):
            need_lo = target[i] - part[:, i] - most[i, j]
            need_hi = target[i] - part[:, i] - least[i, j]
            if A[i][j] == 0:
                hi = np.where((need_lo > 0) | (need_hi < 0), -1, hi)
                continue
            if A[i][j] < 0:
                need_lo, need_hi = need_hi, need_lo
            lo = np.maximum(lo, -(-need_lo // A[i][j]))
            hi = np.minimum(hi, need_hi // A[i][j])
        x = np.arange(B + 1)
        parent, x = np.nonzero((lo[:, None] <= x) & (x <= hi[:, None]))
        X = np.column_stack((X[parent], x))
        part = part[parent] + x[:, None] * a[:, j]
    sols = tuple(map(tuple, X[(part == target).all(axis=1)].tolist()))
    return LocalSolutionSet(p=p, bound=B, solutions=sols)

