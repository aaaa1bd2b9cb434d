"""Evaluate the restricted series as a truncated direct sum and as a
truncated Euler product, and compare the two.

The direct sum truncates by the box [1,N]^t; the Euler product truncates
by a prime bound P and a local exponent bound B at p = 2 (see below).  The
two truncations never select the same finite term set, so comparisons are
tolerance-based and both sides carry Richardson-style tail estimates
|v(N) - v(N/2)| and |v(P) - v(P/2)|.  Each tail comes from the same single
serial pass as its value: the N/2 sum takes the box points with every
coordinate <= N/2, and the P/2 product is the running product at the last
prime <= P/2.  A tail that is not defined (N < 2, or no prime or not every
twist prime <= P/2) is None, with a warning that names the cause.

The Euler product runs per right-hand side of the local equations (the
twist valuations at p) and local exponent bound: the primes sharing both
share their local solution set, and one array kernel evaluates their
factors in blocks, with the coefficients from each family's
prime_power_table.  Each right-hand side is searched once, at its largest
bound.  local_factor is the same kernel on one prime.  Its products are
coefficients._times, real data (real s_j, a real table) makes no complex
one, and every operation acts on one prime's row, so a factor has the
same bits in any block.  Every power n^(-s_j), here, in the direct sum
and in momentlab's class sums, is made by _exp, as float64 at real s_j.

The local exponent bound depends on the prime.  Where the local equations
have a zero right-hand side, the local solutions keep alpha_j <= B_p, the
smallest b >= 0 with p^b >= 2^B (prime_exponent_bound): B_2 = B, and
B_p = 1 once p >= 2^B.  PARI/GP's direuler truncates the same way,
expanding a local factor only up to p^e <= X.  A prime with a nonzero
right-hand side keeps B, since a smaller bound could empty its local set
and make the product zero.  A term dropped at p has some alpha_j >= B_p + 1,
so p^alpha_j >= 2^B * p, and with sigma = min Re s > 1

    |term| <= C * 2^(-sigma B) * p^(-sigma),

where C bounds |c(p^e)| for that column's family: C = 1 for the trivial
and character families, and C = e + 1 for normalised tau (Deligne) and for
a Hecke family with real lambda(p) in [-2, 2], which is assumed, not
checked (a complex lambda(p) of modulus <= 2 does not give it).  The same
bound |c(p^e)| <= e + 1 keeps every other column's factor at most 1.
A TableFamily has no such C, so its dropped terms are not bounded.

Every sum of terms is exact (_ExactSum): a finite float64 is m 2^e
(np.frexp) with m 2^53 an integer, whose 27-bit halves are added into
int64 buckets by e; the total, one Python int over 2^1126, is rounded once by
Python's correctly rounded int division.  So a sum has the bits of
math.fsum, depends only on its term set, and holds about 67 KB whatever
the number of terms.  A non-finite term (one that overflowed float64, or
a nan) raises OverflowError, as does a total beyond float64; a partial
sum never overflows.  A local factor is the math.fsum of its row.  Box
points come from exact membership (see variety), so row operations,
which keep the solution set, keep every direct sum bit for bit.
"""

from __future__ import annotations

import bisect
import cmath
import math
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .arith import is_prime, primes_up_to
from .coefficients import _times, all_trivial, eval_product_coefficient, in_column
from .errors import ConvergenceError, MissingPrimePowerError
from .limits import LPF_SIEVE_LIMIT
from .system import LaurentMonomialSystem, ValidatedRecord
# enumerate_box is not called here; perfbench's layer trace wraps it by
# this module's name
from .variety import box_windows, enumerate_box, local_solutions  # noqa: F401


class EvalParams(ValidatedRecord):
    """Truncation controls: box bound N, prime bound P (at most
    LPF_SIEVE_LIMIT, where the prime sieve stops), local exponent bound B
    (None picks the default from min Re s)."""

    _fields = ("N", "P", "B")

    def __init__(self, N: int, P: int, B: Optional[int] = None):
        super().__init__(N, P, B)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.P < 2:
            raise ValueError("P must be >= 2")
        if self.P > LPF_SIEVE_LIMIT:
            raise ValueError(f"P must be <= {LPF_SIEVE_LIMIT}, the limit of the prime sieve")
        if self.B is not None and not 1 <= self.B <= 64:
            raise ValueError("B must be in 1..64")


class EvalReport(NamedTuple):
    direct: complex
    euler: complex
    abs_diff: float
    direct_tail: Optional[float]
    euler_tail: Optional[float]
    wall_time: float
    params: EvalParams
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "direct": [self.direct.real, self.direct.imag],
            "euler": [self.euler.real, self.euler.imag],
            "abs_diff": self.abs_diff,
            "direct_tail": self.direct_tail,
            "euler_tail": self.euler_tail,
            "wall_time": self.wall_time,
            "params": {"N": self.params.N, "P": self.params.P, "B": self.params.B},
            "warnings": list(self.warnings),
        }


def check_series_point(s: Sequence[complex], t: int, override: bool) -> tuple:
    """Validate s against the variable count; Re s_j <= 1 needs the override.

    Returns a warning tuple (nonempty only for overridden requests, which
    are formal truncations rather than approximations of a limit).  The
    label is returned as data only; callers that report warnings carry it.
    """
    if len(s) != t:
        raise ValueError(f"series point has {len(s)} entries, system has t={t}")
    sigma = min((z.real for z in s), default=2.0)
    if sigma <= 1.0:
        if not override:
            raise ConvergenceError(sigma)
        return (f"formal truncation only: min Re s = {sigma} <= 1",)
    return ()


def default_exponent_bound(s: Sequence[complex]) -> int:
    """ceil(15 / (sigma * log10 2)) + 1 with sigma = min Re s, capped at 64,
    and 64 when sigma <= 0.

    The ceiling is the smallest B with 2^(-B sigma) <= 1e-15, so the value
    is one more than that: 26 at sigma = 2, where 25 already gives
    2^-50 < 1e-15.  The margin stays, since this is the reported B."""
    sigma = min((z.real for z in s), default=2.0)
    if sigma <= 0:
        return 64
    return min(64, math.ceil(15 / (sigma * math.log10(2.0))) + 1)


def _checked_point(S: LaurentMonomialSystem, c, s, override_convergence: bool) -> tuple:
    s = tuple(complex(z) for z in s)
    check_series_point(s, S.t, override_convergence)
    if len(c) != S.t:
        raise ValueError(f"coefficient tuple has {len(c)} families, t={S.t}")
    return s


EMPTY_VARIETY_WARNING = "empty variety: a zero row has omega != omega'"


def direct_tail_skip_reason(N: int) -> Optional[str]:
    """Why |v(N) - v(N/2)| is not defined, or None when it is."""
    if N < 2:
        return "direct tail estimate skipped: N < 2 leaves the N/2 box empty"
    return None


def euler_tail_skip_reason(S: LaurentMonomialSystem, P: int) -> Optional[str]:
    """Why |v(P) - v(P/2)| is not defined, or None when it is."""
    half_P = P // 2
    if half_P < 2:
        return "euler tail estimate skipped: P/2 < 2, so no prime is <= P/2"
    if any(tp > half_P for tp in S.twist_primes()):
        return "euler tail estimate skipped: P/2 below a twist prime"
    return None


# Exponents e run from -1073 to 1024.  Each term adds less than 2^27 to an
# int64 bucket, so a bucket has room for 2^36 terms, above the work cap of 10^8.
_BUCKETS = 2100


class _ExactSum:
    """The exact sum of finite float64 or complex arrays, rounded by value()."""

    def __init__(self):
        self.buckets = np.zeros((2, 2, _BUCKETS), dtype=np.int64)

    def add(self, terms) -> None:
        for x, buckets in zip((terms.real, terms.imag), self.buckets):
            if not x.any():
                continue
            if not np.isfinite(x).all():
                raise OverflowError("the sum overflows float64")
            m, e = np.frexp(x)
            v, b = (m * 2.0**53).astype(np.int64), e + 1073
            # >> floors negatives, so v = (v >> 27) * 2^27 + (v & 2^27 - 1)
            np.add.at(buckets[0], b, v >> 27)
            np.add.at(buckets[1], b, v & (1 << 27) - 1)

    def value(self) -> complex:
        parts = []
        for hi, lo in self.buckets:
            total = sum(((int(hi[b]) << 27) + int(lo[b])) << b
                        for b in np.flatnonzero(hi | lo).tolist())
            try:
                parts.append(total / (1 << 1126))
            except OverflowError:
                raise OverflowError("the sum overflows float64") from None
        return complex(*parts)


def _fsum(chunks) -> complex:
    """The exact sum of one array of terms, or of an iterable of arrays
    read once."""
    acc = _ExactSum()
    for chunk in (chunks,) if isinstance(chunks, np.ndarray) else chunks:
        acc.add(chunk)
    return acc.value()


def _exp(w: np.ndarray) -> np.ndarray:
    """e^w of a complex array by numpy's complex exp, as its float64 real
    part when no imaginary part of w is nonzero: the one rule for every
    power n^(-s) that a term has.  numpy's real exp follows its SIMD
    dispatch and misrounds some inputs on AVX-512; the complex one gave
    cmath.exp's bits at every point checked, at both dispatch levels.  Past
    float64 it gives inf, and the caller's errstate keeps that quiet."""
    x = np.exp(w)
    return x if w.imag.any() else x.real


@np.errstate(over="ignore", invalid="ignore")
def direct_sum_and_half(S: LaurentMonomialSystem, c, s, N: int,
                        *, override_convergence: bool = False) -> tuple:
    """The direct sums over [1,N]^t and [1,N//2]^t from one box enumeration.

    The box is streamed: for each window of box_windows, the terms
    a(n) / prod n_j^{s_j} are _exp(-(log n) . s), float64 at real s, times
    the coefficient product by _times unless every family is trivial,
    elementwise, so a term has the same bits in any window.  Each window
    goes into the full sum, and its terms with max(n) <= N//2 into the half
    sum; both are exact, so the half sum has the bits of a run at N//2, and
    reordering the points changes nothing.  The second value is None when
    N < 2, where the half box is empty.  The coefficient product is one
    eval_product_coefficient call per window.
    """
    s = _checked_point(S, c, s, override_convergence)
    trivial = all_trivial(c)
    half_N = N // 2 if direct_tail_skip_reason(N) is None else None
    full, half = _ExactSum(), _ExactSum()
    for X in box_windows(S, N):
        X = X.astype(np.int64, copy=False)
        logX = np.log(X)
        expo = np.zeros(len(X), dtype=complex)
        for j, z in enumerate(s):
            expo += logX[:, j] * z
        terms = _exp(-expo)
        if not trivial:
            terms = _times(terms, eval_product_coefficient(c, X))
        full.add(terms)
        if half_N is not None:
            half.add(terms[X.max(axis=1, initial=1) <= half_N])
    return full.value(), None if half_N is None else half.value()


def direct_sum(S: LaurentMonomialSystem, c, s, N: int,
               *, override_convergence: bool = False) -> complex:
    """Sum a(n) / prod n_j^{s_j} over the box solutions, correctly rounded."""
    return direct_sum_and_half(S, c, s, N, override_convergence=override_convergence)[0]


# Terms the Euler kernel holds at once: a block of primes times their
# local solutions.  Any block gives the same bits; this bounds the memory.
_BLOCK_TERMS = 1 << 13
# Primes of a block whose terms are made Python floats at once, for fsum.
# Converting whole blocks instead raised the peak memory (ru_maxrss) of
# perfbench's twisted-hecke-compare job from 31.34 to 31.59 MB (medians of
# 12 runs on a 2-core x86-64 host).
_FSUM_ROWS = 64


@np.errstate(over="ignore", invalid="ignore")
def _local_factors(c, s, primes, sols) -> list:
    """The Euler factors at `primes`, which all have the local solution set
    `sols` (tuples alpha), in the order of `primes`.

    With E the K x t matrix of `sols`, column j gets the table
    table_j[p, e] = c_j(p^e) * p^(-s_j e) at the exponents e > 0 that E
    uses (so a family need not define the others), from prime_power_table
    and the powers of p^(-s_j) = _exp(-s_j math.log(p)) by repeated
    multiplication up to the largest such e; table_j[p, 0] is 1.  The terms
    at p are prod_j table_j[p, E[:, j]], and the factor is their math.fsum.
    A table or a block of terms is one float64 array while its data is real
    (a real s_j, a real table, the terms before the first complex column)
    and one complex array after; _times multiplies by real data part by
    part, which drops only signed zeros, and fsum ignores them.  Primes go
    in blocks of about _BLOCK_TERMS terms, and every operation acts on one
    prime's row alone, so a factor has the same bits in any block, a block
    of one included.
    A term that overflows float64 raises OverflowError, naming its prime.
    """
    K, t = len(sols), len(s)
    E = np.array(sols, dtype=np.intp).reshape(K, t)
    columns = [(j, E[:, j], np.array(sorted(set(E[:, j].tolist()) - {0})))
               for j in range(t)]
    columns = [col for col in columns if len(col[2])]
    step = max(1, _BLOCK_TERMS // max(K, 1))
    out = []
    for lo in range(0, len(primes), step):
        block = primes[lo:lo + step]
        logs = np.array([math.log(p) for p in block])
        xs = {z: _exp(-z * logs) for z in {s[j] for j, _, _ in columns}}
        term = np.ones((len(block), K))
        for j, gather, used in columns:
            x = xs[s[j]]
            # table[:, e] = x^e up to the last used e, then times c_j(p^e) there
            table = np.ones((len(block), used[-1] + 1), dtype=x.dtype)
            if x.dtype.kind == "c":
                for e in range(1, used[-1] + 1):
                    table[:, e] = _times(table[:, e - 1], x)
            else:               # accumulate multiplies in order along e
                table[:, 1:] = np.multiply.accumulate(
                    np.broadcast_to(x[:, None], (len(block), used[-1])), axis=1)
            with in_column(j):
                coef = c[j].prime_power_table(block, used.tolist())
            values = _times(table[:, used], coef if coef.imag.any() else coef.real)
            table = table.astype(values.dtype, copy=False)
            table[:, used] = values
            term = _times(term, table[:, gather])
        bad = ~np.isfinite(term).all(axis=1)
        if bad.any():
            raise OverflowError(f"the Euler factor at p = {block[bad.argmax()]} "
                                "overflows float64")
        # rows go to Python floats a few at a time, and a missing or
        # all-zero imaginary part is not summed
        for r0 in range(0, len(block), _FSUM_ROWS):
            rows = term[r0:r0 + _FSUM_ROWS]
            if rows.imag.any():
                out += [complex(math.fsum(r), math.fsum(i))
                        for r, i in zip(rows.real.tolist(), rows.imag.tolist())]
            else:
                out += [complex(math.fsum(r), 0.0) for r in rows.real.tolist()]
    return out


def prime_exponent_bound(p: int, B: int) -> int:
    """The smallest b >= 0 with p^b >= 2^B, in exact integers, for p >= 2:
    B at p = 2, at most B everywhere, and 0 when B = 0."""
    if not 0 <= B <= 64:
        raise ValueError("exponent bound B must be in 0..64")
    if p < 2:
        raise ValueError(f"prime_exponent_bound requires p >= 2, got {p}")
    target, b, power = 1 << B, 0, 1
    while power < target:
        b, power = b + 1, power * p
    return b


def _local_groups(S: LaurentMonomialSystem, primes: list, B: int) -> dict:
    """The ascending `primes` grouped by (right-hand side, bound), which fix
    the local solution set: B where the right-hand side is nonzero, else
    prime_exponent_bound(p, B); that does not grow with p, so bisection
    finds the run of primes of each bound."""
    zero = (0,) * S.m
    twisted = {p: rhs for p, rhs in S.twist_rhs.items() if any(rhs)}
    groups, hi = {}, len(primes)
    for b in range(prime_exponent_bound(2, B) + 1):     # B, checked to be in 0..64
        lo = bisect.bisect_left(primes, -b, 0, hi, key=lambda p: -prime_exponent_bound(p, B))
        groups[zero, b], hi = [p for p in primes[lo:hi] if p not in twisted], lo
    for p, rhs in twisted.items():
        if p in primes:
            groups.setdefault((rhs, B), []).append(p)
    return {key: ps for key, ps in groups.items() if ps}


def local_factor(S: LaurentMonomialSystem, c, p: int, s, B: int) -> complex:
    """The Euler factor at p: sum over admissible exponent tuples alpha of
    a(p^alpha) * p^(-sum_j s_j alpha_j), correctly rounded, with alpha_j at
    most the local exponent bound at p (see the module docstring).

    This is the one-prime call of the kernel that euler_product runs on
    blocks of primes, so it has the bits of the factor there.  p must be
    prime."""
    if not is_prime(p):
        raise ValueError(f"local_factor requires a prime p, got {p}")
    s = tuple(complex(z) for z in s)
    [(_, bound)] = _local_groups(S, [p], B)
    return _local_factors(c, s, [p], local_solutions(S, p, bound).solutions)[0]


def euler_product_and_half(S: LaurentMonomialSystem, c, s, P: int,
                           B: Optional[int] = None,
                           *, override_convergence: bool = False) -> tuple:
    """The product of local factors over primes p <= P, in ascending prime
    order, and the running product after the last prime <= P//2.

    The second value is None when no prime is <= P//2 or a twist prime
    exceeds P//2, since the product over p <= P//2 is then not defined
    (euler_tail_skip_reason names the cause).  Every prime dividing a twist
    must be <= P.  Each group of _local_groups is one enumeration and one
    kernel call.
    """
    s = _checked_point(S, c, s, override_convergence)
    if B is None:
        B = default_exponent_bound(s)
    S.check_prime_bound(P)
    primes = primes_up_to(P)
    groups = _local_groups(S, primes, B)
    # one search per right-hand side: the zero one at its largest bound, a
    # smaller bound b keeping its solutions with max(alpha) <= b, in order
    zero = (0,) * S.m
    top = max((b for rhs, b in groups if rhs == zero), default=None)
    sols = {key: local_solutions(S, ps[0], key[1]).solutions
            for key, ps in groups.items() if key[0] != zero or key[1] == top}
    sols.update({(zero, b): tuple(a for a in sols[zero, top] if max(a, default=0) <= b)
                 for rhs, b in groups if rhs == zero and b != top})
    factor = {}
    try:
        for key, ps in groups.items():
            factor.update(zip(ps, _local_factors(c, s, ps, sols[key])))
    except (MissingPrimePowerError, OverflowError):
        # report the smallest prime whose factor fails, as an ascending pass
        # would: halve the ascending list while its lower half still fails
        todo = sorted((p, key) for key, ps in groups.items() for p in ps)
        while len(todo) > 1:
            lower, mid = {}, len(todo) // 2
            for p, key in todo[:mid]:
                lower.setdefault(key, []).append(p)
            try:
                for key, ps in lower.items():
                    _local_factors(c, s, ps, sols[key])
                todo = todo[mid:]
            except (MissingPrimePowerError, OverflowError):
                todo = todo[:mid]
        _local_factors(c, s, [todo[0][0]], sols[todo[0][1]])
        raise
    out, half = 1 + 0j, None
    for p in primes:
        out *= factor[p]
        if p <= P // 2:
            half = out
    if not cmath.isfinite(out):
        raise OverflowError("the Euler product overflows float64")
    return out, half if euler_tail_skip_reason(S, P) is None else None


def euler_product(S: LaurentMonomialSystem, c, s, P: int, B: Optional[int] = None,
                  *, override_convergence: bool = False) -> complex:
    """Product of local factors over primes p <= P, in ascending prime order;
    every prime dividing a twist must be <= P."""
    return euler_product_and_half(S, c, s, P, B,
                                  override_convergence=override_convergence)[0]


def compare(S: LaurentMonomialSystem, c, s, params: EvalParams,
            *, override_convergence: bool = False) -> EvalReport:
    """Run both evaluators and report values, gap, and tail estimates
    |v(N) - v(N/2)| and |v(P) - v(P/2)|, each from its evaluator's one pass."""
    s = tuple(complex(z) for z in s)
    warnings = list(check_series_point(s, S.t, override_convergence))
    if S.empty_variety_flag:
        warnings.append(EMPTY_VARIETY_WARNING)
    B = params.B if params.B is not None else default_exponent_bound(s)
    t0 = time.perf_counter()
    direct, direct_half = direct_sum_and_half(
        S, c, s, params.N, override_convergence=override_convergence)
    euler, euler_half = euler_product_and_half(
        S, c, s, params.P, B, override_convergence=override_convergence)
    direct_tail = None if direct_half is None else abs(direct - direct_half)
    euler_tail = None if euler_half is None else abs(euler - euler_half)
    if direct_half is None:
        warnings.append(direct_tail_skip_reason(params.N))
    if euler_half is None:
        warnings.append(euler_tail_skip_reason(S, params.P))
    wall = time.perf_counter() - t0
    return EvalReport(
        direct=direct,
        euler=euler,
        abs_diff=abs(direct - euler),
        direct_tail=direct_tail,
        euler_tail=euler_tail,
        wall_time=wall,
        params=EvalParams(N=params.N, P=params.P, B=B),
        warnings=tuple(warnings),
    )
