"""Polynomial constraint varieties, per-prime recombination, Property (S)
and the prime-by-prime Cartesian decomposition test.

A variety here is either a LaurentMonomialSystem or a PolynomialVariety,
the integer-coefficient constraints f_1 = ... = f_m = 0 parsed from the
constraint language below; variety.box_windows enumerates both.

Property (S) asks whether the solution set is closed under per-prime
recombination: taking, at each prime, the whole exponent column from one
of two solutions.  On a monomial system membership is the per-prime
identity sum_j a_ij v_p(n_j) = v_p(omega'_i) - v_p(omega_i), which every
recombination keeps; check_property_S scans the pairs of box points of a
polynomial variety for the first recombination that leaves it.
cartesian_check compares the P-smooth, B-bounded box points of a monomial
system with the in-box products of the per-prime local solution sets,
which is the splitting behind the Euler product.

The scan and the Cartesian check factor the box array's coordinates once,
with arith.factor_levels; recombine factors a tuple with arith.factorize,
and stays as the independent reference.  Only `mds check-s`, `mds
enumerate --constraints` and the tests run this module.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple, Optional

import numpy as np

from .arith import factor_levels, primes_up_to
from .errors import ConstraintSyntaxError, WorkCapExceeded
from .limits import work_cap
from .system import LaurentMonomialSystem
from .variety import _valuations, box_array, local_solutions

_EXPONENT_CAP = 10**6


# ---------------------------------------------------------------------------
# constraint expression language
#
#   expr        := term (('+'|'-') term)*
#   term        := factor ('*' factor)*
#   factor      := atom ('^' uint)?
#   atom        := int | 'x' uint | '(' expr ')'
#   constraints := expr (';' expr)*

class Const(NamedTuple):
    value: int

    def evaluate(self, point):
        return self.value


class Var(NamedTuple):
    index: int  # 0-based

    def evaluate(self, point):
        return point[self.index]


class BinOp(NamedTuple):
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


class Pow(NamedTuple):
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
            if "0" <= ch <= "9":     # ASCII only: int() reads any Unicode digit
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                self.tokens.append(("int", int(text[i:j]), line, start_col))
                col += j - i
                i = j
                continue
            if ch == "x":
                j = i + 1
                while j < n and "0" <= text[j] <= "9":
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


class PolynomialVariety(NamedTuple):
    """Integer-coefficient constraints f_1 = ... = f_m = 0 in t variables."""

    t: int
    constraints: tuple

    def is_solution(self, point) -> bool:
        return all(f.evaluate(point) == 0 for f in self.constraints)

    def solutions_in_box(self, N: int, cap: int):
        """The solutions in [1,N]^t as a K x t int64 array in lexicographic
        order, by testing every point of the box; the box's N^t points
        count against the work cap before any is tested."""
        total = N**self.t
        if total > cap:
            raise WorkCapExceeded(total, cap, "polynomial box enumeration")
        rows = [p for p in itertools.product(range(1, N + 1), repeat=self.t)
                if self.is_solution(p)]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.t)


def parse_constraints(text: str, t: int) -> PolynomialVariety:
    """Parse ';'-separated constraint expressions over x1..xt."""
    if t < 1:
        raise ValueError("t must be >= 1")
    exprs = _Parser(text, t).parse_constraints()
    return PolynomialVariety(t=t, constraints=tuple(exprs))


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


class Witness(NamedTuple):
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


def check_property_S(V, N: int) -> Optional[Witness]:
    """The first Property (S) witness in the box, or None.  A monomial
    system has none (see the module docstring) and is not enumerated.

    A PolynomialVariety gets an exhaustive scan in deterministic order:
    pairs (x, y) in lexicographic order of the box rows, and for each, the
    masks 1 .. 2^k - 2 over its k primes in ascending order, bit idx taking
    the idx-th prime's column from y.  Each pair charges 2^k to the work
    cap.  Each coordinate is factored once; a mask's point is the product
    of the chosen prime parts.  Recombined points may leave the box; they
    are tested by direct constraint evaluation, never by box membership.
    """
    cap = work_cap()
    if isinstance(V, LaurentMonomialSystem):
        if N < 1:
            raise ValueError("box bound N must be >= 1")
        return None
    X = box_array(V, N)
    if len(X) < 2:
        return None
    sols, parts = list(map(tuple, X.tolist())), _prime_parts(X)
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
            if not V.is_solution(points[mask]):
                choice = tuple((p, "y" if mask >> idx & 1 else "x")
                               for idx, p in enumerate(primes))
                return Witness(x=sols[ix], y=sols[iy], choice=choice,
                               point=tuple(points[mask]))
    return None


# ---------------------------------------------------------------------------
# the Cartesian decomposition

class CartesianCheck(NamedTuple):
    equal: bool
    point: Optional[tuple] = None   # first differing coordinate tuple
    side: Optional[str] = None      # 'box-only' or 'recombined-only'


def cartesian_check(S: LaurentMonomialSystem, N: int, P: int, B: int) -> CartesianCheck:
    """Verify that P-smooth box solutions with exponents <= B coincide with
    the in-box recombinations of the per-prime local solution sets."""
    cap = work_cap()
    S.check_prime_bound(P)
    X = box_array(S, N)
    fits = np.ones(X.size, dtype=bool)
    for rows, p, e in factor_levels(X.ravel()):
        fits[rows[(p > P) | (e > B)]] = False
    lhs = set(map(tuple, X[fits.reshape(X.shape).all(axis=1)].tolist()))

    # Primes in (N, P] cannot contribute a factor inside the box; they only
    # matter through whether their local set admits the zero vector.
    rhs_points = set()
    feasible = not any(any(rhs) for p, rhs in S.twist_rhs.items() if p > N)
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
