"""General polynomial varieties and integer-point machinery.

Covers the constraint-expression parser, box enumeration of positive
integer points, per-prime recombination and the Property (S) checker, the
local solution sets underlying the Euler product, and the prime-by-prime
Cartesian decomposition test.

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
on_monomial_variety_rational is the scalar form of the same exact check.

A point is a row of a box array or a tuple of positive ints.  The Property
(S) scan and the Cartesian check factor the box array's coordinates once,
with arith.factor_levels; recombine and on_monomial_variety factor a tuple
with arith.factorize, and stay as the independent references.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import factor_levels, factorize, iroot, primes_up_to, valuation
from .errors import ConstraintSyntaxError, WorkCapExceeded
from .limits import work_cap as _work_cap
from .system import LaurentMonomialSystem

_EXPONENT_CAP = 10**6


# ---------------------------------------------------------------------------
# constraint expression language
#
#   expr        := term (('+'|'-') term)*
#   term        := factor ('*' factor)*
#   factor      := atom ('^' uint)?
#   atom        := int | 'x' uint | '(' expr ')'
#   constraints := expr (';' expr)*

@dataclass(frozen=True)
class Const:
    value: int

    def evaluate(self, point):
        return self.value


@dataclass(frozen=True)
class Var:
    index: int  # 0-based

    def evaluate(self, point):
        return point[self.index]


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: object
    right: object

    def evaluate(self, point):
        a = self.left.evaluate(point)
        b = self.right.evaluate(point)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        return a * b


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def evaluate(self, point):
        return self.base.evaluate(point) ** self.exponent


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._scan()

    def _scan(self):
        text = self.text
        i = 0
        line, col = 1, 1
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\n":
                i += 1
                line += 1
                col = 1
                continue
            if ch.isspace():
                i += 1
                col += 1
                continue
            start_col = col
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), line, start_col))
                col += j - i
                i = j
                continue
            if ch == "x":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ConstraintSyntaxError("expected digits after 'x'", line, col)
                self.tokens.append(("var", int(text[i + 1 : j]), line, start_col))
                col += j - i
                i = j
                continue
            if ch in "+-*^();":
                self.tokens.append((ch, None, line, start_col))
                i += 1
                col += 1
                continue
            raise ConstraintSyntaxError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", None, line, col))


class _Parser:
    def __init__(self, text, t):
        self.toks = _Tokenizer(text).tokens
        self.pos = 0
        self.t = t

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ConstraintSyntaxError(f"expected {kind!r}, found {tok[0]!r}", tok[2], tok[3])
        return tok

    def parse_constraints(self):
        out = [self.parse_expr()]
        while self.peek()[0] == ";":
            self.next()
            out.append(self.parse_expr())
        tok = self.peek()
        if tok[0] != "end":
            raise ConstraintSyntaxError(f"unexpected {tok[0]!r}", tok[2], tok[3])
        return out

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("int")
            if tok[1] > _EXPONENT_CAP:
                raise ConstraintSyntaxError(f"exponent {tok[1]} too large", tok[2], tok[3])
            node = Pow(node, tok[1])
        return node

    def parse_atom(self):
        tok = self.next()
        if tok[0] == "int":
            return Const(tok[1])
        if tok[0] == "var":
            if not 1 <= tok[1] <= self.t:
                raise ConstraintSyntaxError(
                    f"variable x{tok[1]} out of range 1..{self.t}", tok[2], tok[3])
            return Var(tok[1] - 1)
        if tok[0] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ConstraintSyntaxError(f"unexpected {tok[0]!r}", tok[2], tok[3])


@dataclass(frozen=True)
class PolynomialVariety:
    """Integer-coefficient constraints f_1 = ... = f_m = 0 in t variables."""

    t: int
    constraints: tuple

    def evaluate(self, point) -> tuple:
        return tuple(f.evaluate(point) for f in self.constraints)

    def is_solution(self, point) -> bool:
        return all(f.evaluate(point) == 0 for f in self.constraints)


def parse_constraints(text: str, t: int) -> PolynomialVariety:
    """Parse ';'-separated constraint expressions over x1..xt."""
    if t < 1:
        raise ValueError("t must be >= 1")
    exprs = _Parser(text, t).parse_constraints()
    return PolynomialVariety(t=t, constraints=tuple(exprs))


# ---------------------------------------------------------------------------
# membership tests for monomial systems

@lru_cache(maxsize=256)
def _twist_data(S: LaurentMonomialSystem):
    """Per-prime right-hand sides v_p(omega'_i) - v_p(omega_i)."""
    primes = S.twist_primes()
    rhs = {}
    for p in primes:
        rhs[p] = tuple(valuation(p, wp) - valuation(p, w)
                       for w, wp in zip(S.omega, S.omega_prime))
    return primes, rhs


def monomial_rhs_at(S: LaurentMonomialSystem, p: int) -> tuple:
    """(v_p(omega'_i) - v_p(omega_i))_i, zero when p divides no twist."""
    primes, rhs = _twist_data(S)
    return rhs.get(p, (0,) * S.m)


def _valuations(coords) -> list:
    """[{p: v_p(n_j)}] for the positive integers n_j of coords, by factorize."""
    return [dict(factorize(int(n))) for n in coords]


def on_monomial_variety(S: LaurentMonomialSystem, coords) -> bool:
    """Membership via the valuation identity at every relevant prime:
    sum_j a_ij * v_p(n_j) = v_p(omega'_i) - v_p(omega_i).

    Independent of the cross-multiplication kernel, and kept as its oracle;
    it factorises every coordinate and every twist."""
    vals = _valuations(coords)
    for p in sorted(set(_twist_data(S)[0]).union(*vals)):
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
    the Property (S) scan and the tests decide membership with it."""
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


def _polynomial_box(V: PolynomialVariety, N: int, cap: int):
    total = N**V.t
    if total > cap:
        raise WorkCapExceeded(total, cap, "polynomial box enumeration")
    rows = [p for p in itertools.product(range(1, N + 1), repeat=V.t) if V.is_solution(p)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), V.t)


def box_windows(V, N: int, *, work_cap=None):
    """The points of [1,N]^t on the variety as a sequence of K_w x t integer
    arrays whose rows, taken in turn, are in lexicographic order.

    On a monomial system each array is one window of the search, so a
    caller that folds the points window by window holds at most _WINDOW
    of them at once (one array for a PolynomialVariety).  The dtype is
    int64 where every exact product of the search fits it, else object
    (Python ints), the same for every array; the last array may be empty.
    A generator: N is checked and the work cap read at the first next(),
    and the cap is charged as the search goes, so WorkCapExceeded can come
    after some windows were yielded, at the count and with the message of
    box_array."""
    if N < 1:
        raise ValueError("box bound N must be >= 1")
    cap = _work_cap(work_cap)
    if isinstance(V, LaurentMonomialSystem):
        yield from _monomial_windows(V, N, cap)
    elif isinstance(V, PolynomialVariety):
        yield _polynomial_box(V, N, cap)
    else:
        raise TypeError(f"cannot enumerate {type(V).__name__}")


def box_array(V, N: int, *, work_cap=None):
    """All points of [1,N]^t on the variety as a K x t integer array, rows
    in lexicographic order: the concatenation of box_windows."""
    return np.concatenate(list(box_windows(V, N, work_cap=work_cap)))


def enumerate_box(V, N: int, *, work_cap=None) -> list:
    """All points of [1,N]^t on the variety as coordinate tuples, in
    lexicographic order."""
    return list(map(tuple, box_array(V, N, work_cap=work_cap).tolist()))


# ---------------------------------------------------------------------------
# Property (S)

def recombine(x: tuple, y: tuple, choice: dict) -> tuple:
    """Per-prime recombination of the positive-integer points x and y: at
    each prime take the whole exponent column from x or from y as directed
    by choice[p] in {'x','y'}.  It factorises every coordinate, and is the
    reference that the witnesses of check_property_S are tested against."""
    vx, vy = _valuations(x), _valuations(y)
    primes = sorted(set().union(*vx, *vy))
    missing = [p for p in primes if p not in choice]
    if missing:
        raise ValueError(f"choice does not cover primes {missing}")
    coords = [1] * len(x)
    for p in primes:
        side = choice[p]
        if side not in ("x", "y"):
            raise ValueError(f"choice[{p}] must be 'x' or 'y', got {side!r}")
        for j, v in enumerate(vx if side == "x" else vy):
            coords[j] *= p ** v.get(p, 0)
    return tuple(coords)


@dataclass(frozen=True)
class Witness:
    """A Property (S) violation: recombining the points x and y by `choice`
    leaves the variety at `point` (coordinate tuples)."""
    x: tuple
    y: tuple
    choice: tuple      # ((prime, 'x'|'y'), ...) sorted by prime
    point: tuple


def _prime_parts(X) -> list:
    """For each row x of the K x t array X of positive integers, the dict
    {p: [p^v_p(x_1), ..., p^v_p(x_t)]} over the primes dividing x, from one
    factor_levels pass."""
    K, t = X.shape
    parts = [{} for _ in range(K)]
    for rows, p, e in factor_levels(X.ravel()):
        for r, q, pe in zip(rows.tolist(), p.tolist(), (p**e).tolist()):
            i, j = divmod(r, t)
            parts[i].setdefault(q, [1] * t)[j] = pe
    return parts


def check_property_S(V, N: int, *, work_cap=None) -> Optional[Witness]:
    """Exhaustive pairwise recombination scan over the box solutions.

    Returns the first violating witness in deterministic order, or None:
    pairs (x, y) in lexicographic order of the box rows, and for each, the
    masks 1 .. 2^k - 2 over its k primes in ascending order, bit idx taking
    the idx-th prime's column from y.  Each pair charges 2^k to the work
    cap.  Each coordinate is factored once; a mask's point is the product
    of the chosen prime parts.  Recombined points may leave the box; they
    are tested by direct constraint evaluation, never by box membership.
    """
    cap = _work_cap(work_cap)
    X = box_array(V, N, work_cap=cap)
    if len(X) < 2:
        return None
    sols, parts = list(map(tuple, X.tolist())), _prime_parts(X)
    if isinstance(V, LaurentMonomialSystem):
        def on_variety(point):
            return on_monomial_variety_rational(V, point)
    else:
        on_variety = V.is_solution
    ones = [1] * X.shape[1]
    spent = 0
    for ix, iy in itertools.combinations(range(len(sols)), 2):
        px, py = parts[ix], parts[iy]
        primes = sorted(px.keys() | py.keys())
        spent += 1 << len(primes)
        if spent > cap:
            raise WorkCapExceeded(spent, cap, "Property (S) recombination scan")
        # points[mask] for every mask, one prime (one bit) at a time
        points = [ones]
        for p in primes:
            points = [[*map(operator.mul, c, part)]
                      for part in (px.get(p, ones), py.get(p, ones)) for c in points]
        for mask in range(1, len(points) - 1):   # skip all-x and all-y
            if not on_variety(points[mask]):
                choice = tuple((p, "y" if mask >> idx & 1 else "x")
                               for idx, p in enumerate(primes))
                return Witness(x=sols[ix], y=sols[iy], choice=choice,
                               point=tuple(points[mask]))
    return None


# ---------------------------------------------------------------------------
# local solution sets and the Cartesian decomposition

@dataclass(frozen=True)
class LocalSolutionSet:
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


@dataclass(frozen=True)
class CartesianCheck:
    equal: bool
    point: Optional[tuple] = None   # first differing coordinate tuple
    side: Optional[str] = None      # 'box-only' or 'recombined-only'


def cartesian_check(S: LaurentMonomialSystem, N: int, P: int, B: int,
                    *, work_cap=None) -> CartesianCheck:
    """Verify that P-smooth box solutions with exponents <= B coincide with
    the in-box recombinations of the per-prime local solution sets."""
    cap = _work_cap(work_cap)
    for p in S.twist_primes():
        if p > P:
            raise ValueError(f"twist prime {p} exceeds the prime bound P={P}")
    X = box_array(S, N, work_cap=cap)
    fits = np.ones(X.size, dtype=bool)
    for rows, p, e in factor_levels(X.ravel()):
        fits[rows[(p > P) | (e > B)]] = False
    lhs = set(map(tuple, X[fits.reshape(X.shape).all(axis=1)].tolist()))

    # Primes in (N, P] cannot contribute a factor inside the box; they only
    # matter through whether their local set admits the zero vector.
    rhs_points = set()
    feasible = all(not any(monomial_rhs_at(S, p)) for p in primes_up_to(P) if p > N)
    if feasible:
        mandatory = []
        optional = []
        for p in primes_up_to(min(P, N)):
            local = local_solutions(S, p, B).solutions
            has_zero = any(not any(a) for a in local)
            if not has_zero:
                mandatory.append((p, list(local)))
            else:
                nz = [a for a in local if any(a)]
                if nz:
                    optional.append((p, nz))

        def grow(coords, p, alpha):
            new = list(coords)
            for j, e in enumerate(alpha):
                if e:
                    new[j] *= p**e
                    if new[j] > N:
                        return None
            return tuple(new)

        spent = 0
        seeds = [(1,) * S.t]
        for p, opts in mandatory:
            nxt = []
            for coords in seeds:
                for alpha in opts:
                    got = grow(coords, p, alpha)
                    if got is not None:
                        nxt.append(got)
                        spent += 1
                        if spent > cap:
                            raise WorkCapExceeded(spent, cap, "Cartesian recombination")
            seeds = nxt
        stack = [(coords, 0) for coords in seeds]
        while stack:
            coords, idx = stack.pop()
            rhs_points.add(coords)
            spent += 1
            if spent > cap:
                raise WorkCapExceeded(spent, cap, "Cartesian recombination")
            for k in range(idx, len(optional)):
                p, opts = optional[k]
                # a nonzero alpha multiplies some coordinate by at least p,
                # and the primes ascend, so no later prime fits either
                if p * min(coords) > N:
                    break
                for alpha in opts:
                    got = grow(coords, p, alpha)
                    if got is not None:
                        stack.append((got, k + 1))

    if lhs == rhs_points:
        return CartesianCheck(equal=True)
    only_box = sorted(lhs - rhs_points)
    only_rec = sorted(rhs_points - lhs)
    if only_box and (not only_rec or only_box[0] <= only_rec[0]):
        return CartesianCheck(equal=False, point=only_box[0], side="box-only")
    return CartesianCheck(equal=False, point=only_rec[0], side="recombined-only")
