"""Multiplicative coefficient families on prime powers.

A family is defined only by its values at prime powers and extended
multiplicatively, so multiplicativity holds by construction.  Tuples of
families give the product coefficient a(n) = prod_j family_j(n_j).

`prime_power_table(primes, exps)` returns a family's values on a grid of
prime powers as one array, for the Euler product.  The base class loops
over `prime_power`, so every family has it; the trivial, character, Hecke
and tau families compute it across primes with the same floating-point
operations as `prime_power`, so each entry equals the scalar value and a
missing value raises the same MissingPrimePowerError.  `values(n)` is
the multiplicative extension at an array of integers, factored in arrays
and read from `prime_power_table`; a family keeps no per-integer state.
The loops over a tuple's columns read each family inside in_column, so a
missing value names its column.

Ramanujan tau values are exact: residue passes of the eta product run in
int64 modulo one prime at a time, of primes whose product exceeds twice
Deligne's bound on every coefficient, and the Chinese remainder theorem
rebuilds tau(n) at the indices asked for.  `ramanujan_tau_table(N)` asks
for every n <= N; the tau family asks only for the prime powers up to its
bound, the values the multiplicative extension reads.
"""

from __future__ import annotations

import contextlib
import math
from typing import Sequence

import numpy as np

from .arith import _unit_roots, factor_levels, factorize, is_prime, primes_up_to
from .errors import MissingPrimePowerError
from .limits import TAU_DEFAULT_BOUND, TAU_TABLE_LIMIT


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The elementwise product a * b of two float64 or complex128 arrays of
    one shape.  Two complex sides make the four real products of Python's
    complex product; numpy's complex multiply may fuse them, which would
    make a value's bits depend on its place in an array.  A real side
    multiplies each part of the other, which matches Python's product up to
    signed zeros and non-finite parts."""
    if a.dtype.kind != "c":
        a, b = b, a
    if a.dtype.kind != "c":
        return a * b
    out = np.empty_like(a)
    if b.dtype.kind != "c":
        np.multiply(a.real, b, out.real)
        np.multiply(a.imag, b, out.imag)
    else:
        np.subtract(a.real * b.real, a.imag * b.imag, out.real)
        np.add(a.real * b.imag, a.imag * b.real, out.imag)
    return out


def hecke_prime_power(lambda_p: complex, e: int) -> complex:
    """lambda(p^e) from lambda(p) via the normalized GL(2) Hecke recursion
    lambda(p^{e+1}) = lambda(p) * lambda(p^e) - lambda(p^{e-1})."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    prev, cur = 1 + 0j, complex(lambda_p)
    if e == 0:
        return prev
    for _ in range(e - 1):
        prev, cur = cur, lambda_p * cur - prev
    return cur


def _hecke_table(lam: np.ndarray, exps: Sequence[int]) -> np.ndarray:
    """hecke_prime_power(lam[i], e) for every i and every e in exps, with the
    recursion run on all of lam at once, its complex products by _times."""
    if any(e < 0 for e in exps):
        raise ValueError("exponent must be >= 0")
    out = np.ones((len(lam), len(exps)), dtype=complex)
    lam = np.asarray(lam, dtype=complex)    # as hecke_prime_power's complex(lambda_p)
    prev, cur = np.ones_like(lam), lam      # lambda(p^(e-1)), lambda(p^e) from e = 1
    e = 1
    for k in sorted(range(len(exps)), key=exps.__getitem__):
        if exps[k] == 0:
            continue
        while e < exps[k]:
            prev, cur = cur, _times(lam, cur) - prev
            e += 1
        out[:, k] = cur
    return out


def _jacobi_cube(L: int) -> list:
    """(degree, coefficient) pairs of Jacobi's series for prod (1-q^k)^3,
    sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}, truncated below degree L."""
    out = []
    k = 0
    while k * (k + 1) // 2 < L:
        out.append((k * (k + 1) // 2, (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)))
        k += 1
    return out


def tau_moduli(N: int) -> tuple:
    """The primes just below 2^w, largest first, that ramanujan_tau_table(N)
    computes modulo, w = 62 - bitlen(||g||_1) for g Jacobi's series below
    degree N, so a pass's int64 sums stay below 2^62: as few as make their
    product exceed 4 N^6 >= 2 |tau(n)| for n <= N, by Deligne's |tau(n)| <=
    d(n) n^(11/2) (La conjecture de Weil I, 1974) and d(n) <= 2 sqrt(n)."""
    w = 62 - sum(abs(c) for _, c in _jacobi_cube(N)).bit_length()
    moduli, product, m = [], 1, 1 << w
    while product <= 4 * N**6:
        m -= 1
        if is_prime(m):
            moduli.append(m)
            product *= m
    return tuple(moduli)


def _tau_values(N: int, ns: Sequence[int]) -> list[int]:
    """Exact tau(n) for each n of ns (1 <= n <= N), in order, from the
    degree-N truncation of q * prod (1-q^k)^24.

    The cube of the Euler factor is Jacobi's sparse series g, and the 24th
    power is g^8, built by 7 dense-by-sparse passes in int64 modulo one
    prime of tau_moduli(N) at a time, in one 3 x N buffer.  Only the
    residues at ns are kept, and one array step of the Chinese remainder
    theorem, in Python ints, lifts them into the symmetric range.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > TAU_TABLE_LIMIT:
        raise ValueError(f"tau table capped at N <= {TAU_TABLE_LIMIT}")
    L = N  # coefficients of degrees 0..N-1 before the q-shift
    jac = _jacobi_cube(L)
    moduli = tau_moduli(N)
    at = np.asarray(ns, dtype=np.int64) - 1
    buf, kept = np.empty((3, L), dtype=np.int64), []
    for m in moduli:
        cur, new, tmp = buf
        cur.fill(0)
        for d, c in jac:
            cur[d] = c % m
        for _ in range(7):
            np.copyto(new, cur)             # the degree-0 term of g is 1
            for d, c in jac[1:]:
                np.multiply(cur[:L - d], c, out=tmp[:L - d])
                new[d:] += tmp[:L - d]
            new %= m
            cur, new = new, cur
        kept.append(cur[at])
    M = math.prod(moduli)
    half = M // 2                           # M is odd
    basis = [M // m * pow(M // m, -1, m) for m in moduli]
    out = []
    for lo in range(0, len(at), 1024):      # bounds the Python ints alive
        x = sum(r[lo:lo + 1024].astype(object) * b for r, b in zip(kept, basis))
        out += ((x + half) % M - half).tolist()
    return out


def ramanujan_tau_table(N: int) -> list[int]:
    """Exact tau(1..N), _tau_values at every n <= N.  Returns a list with
    tau[n] at index n (index 0 unused)."""
    return [0] + _tau_values(N, range(1, N + 1))


def _prime_powers(bound: int):
    """(p, e, p^e) for every prime power p^e <= bound, by p, then e."""
    for p in primes_up_to(bound):
        pe, e = p, 1
        while pe <= bound:
            yield p, e, pe
            pe, e = pe * p, e + 1


class CoefficientFamily:
    """Base class: a multiplicative function given by prime-power values."""

    def prime_power(self, p: int, e: int) -> complex:
        raise NotImplementedError

    def prime_power_table(self, primes: Sequence[int], exps: Sequence[int]) -> np.ndarray:
        """The len(primes) x len(exps) complex array of prime_power(p, e),
        filled prime by prime, exponents in the given order."""
        out = np.empty((len(primes), len(exps)), dtype=complex)
        # Python ints, so that prime_power's p**e cannot wrap as int64 would
        for i, p in enumerate(np.asarray(primes).tolist()):
            for k, e in enumerate(exps):
                out[i, k] = self.prime_power(p, e)
        return out

    def values(self, n: np.ndarray) -> np.ndarray:
        """The multiplicative extension at each n >= 1 of a 1-D int64 array:
        prod over p^e || n of prime_power(p, e), in ascending p from 1+0j,
        with the operations of Python's complex product, so each entry has
        the bits of value(n).  The factors come from arith.factor_levels and
        prime_power_table, one call per distinct exponent; a missing value
        raises the error of the smallest prime that lacks one."""
        levels = factor_levels(n)
        p = np.concatenate([lv[1] for lv in levels] or [np.zeros(0, np.int64)])
        e = np.concatenate([lv[2] for lv in levels] or [np.zeros(0, np.int64)])
        coef = np.empty(len(p), dtype=complex)
        try:
            for k in np.flatnonzero(np.bincount(e)).tolist():
                at = np.flatnonzero(e == k)
                coef[at] = self.prime_power_table(p[at], [k])[:, 0]
        except MissingPrimePowerError:
            for q, k in sorted(set(zip(p.tolist(), e.tolist()))):
                self.prime_power_table([q], [k])
            raise
        out = np.ones(len(n), dtype=complex)
        lo = 0
        for rows, _, _ in levels:
            out[rows] = _times(out[rows], coef[lo:lo + len(rows)])
            lo += len(rows)
        return out

    def value(self, n: int) -> complex:
        """The scalar multiplicative extension at one n, the reference that
        values reproduces: prod over p^e || n of prime_power(p, e)."""
        got = 1 + 0j
        for p, e in factorize(n):
            got *= self.prime_power(p, e)
        return got


class TrivialFamily(CoefficientFamily):
    """Coefficients identically 1 (the zeta family)."""

    def prime_power(self, p, e):
        return 1 + 0j

    def prime_power_table(self, primes, exps):
        return np.ones((len(primes), len(exps)), dtype=complex)

    def values(self, n):
        return np.ones(len(n), dtype=complex)

    def __repr__(self):
        return "TrivialFamily()"


class CharacterFamily(CoefficientFamily):
    """A Dirichlet character mod a prime q (completely multiplicative)."""

    def __init__(self, table, k: int):
        self.table = table
        self.k = k % (table.q - 1)
        # chi by residue: the root of unity at index k * log(r) mod q-1
        logs = np.asarray(table.log)
        self._by_residue = np.array(_unit_roots(table.q - 1))[self.k * logs % (table.q - 1)]
        self._by_residue[logs < 0] = 0     # r = 0

    def prime_power(self, p, e):
        return self.table.char_value(self.k, pow(p, e, self.table.q))

    def prime_power_table(self, primes, exps):
        """chi(p^e) by the discrete log: its root-of-unity index is
        k * e * log(p) mod q-1, the index prime_power reaches through p^e."""
        order = self.table.q - 1
        logs = np.array([self.table.log_of(p) for p in primes], dtype=np.int64)
        e = np.asarray(exps, dtype=np.int64).reshape(len(exps))
        idx = (self.k * logs % order)[:, None] * e % order
        out = np.array(_unit_roots(order))[idx]
        out[(logs < 0)[:, None] & (e > 0)] = 0     # q | p
        return out

    def values(self, n):
        return self._by_residue[np.asarray(n, dtype=np.int64) % self.table.q]

    def value(self, n):
        return self.table.char_value(self.k, n)

    def __repr__(self):
        return f"CharacterFamily(q={self.table.q}, k={self.k})"


class HeckeGL2Family(CoefficientFamily):
    """Normalized GL(2) coefficients generated from lambda(p) by the Hecke
    recursion; lambda(p) values are supplied per prime.

    They are kept as two arrays: the sorted primes (int64) and lambda at
    each (complex), looked up by binary search."""

    def __init__(self, lambda_p: dict):
        lam = {int(p): complex(v) for p, v in lambda_p.items()}
        self.primes = np.array(sorted(lam), dtype=np.int64)
        self.lam = np.array([lam[p] for p in self.primes.tolist()], dtype=complex)

    def _find(self, primes) -> tuple:
        """(index, known): the position of each prime in self.primes, and
        whether it is there."""
        p = np.asarray(primes, dtype=np.int64).reshape(len(primes))
        at = np.searchsorted(self.primes, p)
        known = at < len(self.primes)
        known[known] = self.primes[at[known]] == p[known]
        return at, known

    def prime_power(self, p, e):
        at, known = self._find([p])
        if not known[0]:
            raise MissingPrimePowerError(f"no lambda({p}) supplied for hecke_gl2 family")
        return hecke_prime_power(complex(self.lam[at[0]]), e)

    def prime_power_table(self, primes, exps):
        at, known = self._find(primes)
        if len(exps) and not known.all():
            p = primes[int(np.argmin(known))]
            raise MissingPrimePowerError(f"no lambda({p}) supplied for hecke_gl2 family")
        lam = np.zeros(len(at), dtype=complex)
        lam[known] = self.lam[at[known]]
        return _hecke_table(lam, exps)

    def __repr__(self):
        return f"HeckeGL2Family({len(self.primes)} primes)"


class TableFamily(CoefficientFamily):
    """Explicit prime-power table; any gap is an error."""

    def __init__(self, values: dict):
        # keys are (p, e) pairs
        self.entries = {(int(p), int(e)): complex(v) for (p, e), v in values.items()}

    def prime_power(self, p, e):
        try:
            return self.entries[(p, e)]
        except KeyError:
            raise MissingPrimePowerError(
                f"explicit table has no entry for {p}^{e}") from None

    def __repr__(self):
        return f"TableFamily({len(self.entries)} entries)"


class TauFamily(CoefficientFamily):
    """Analytically normalized Ramanujan tau: lambda(p^e) = tau(p^e) / p^{11e/2}.

    Only the prime powers p^e <= `bound` are read, so only they are rebuilt
    exactly: the residue passes of the eta product run to `bound`, and the
    Chinese remainder step runs at the prime powers alone (1,280 of the
    10^4 indices at the default bound).  Prime powers past the table (but
    with p itself inside it) extend by the Hecke recursion, which the
    normalized tau satisfies.
    """

    _table_cache: dict = {}

    def __init__(self, bound: int = TAU_DEFAULT_BOUND):
        self.bound = bound
        cached = self._table_cache.get(bound)
        if cached is None:
            taus = _tau_values(bound, [pe for _, _, pe in _prime_powers(bound)])
            # prime_power's values at 1 and the prime powers <= bound, and
            # top[p] = the largest e with p^e <= bound
            norm, top = np.zeros(bound + 2), np.zeros(bound + 2, dtype=np.int64)
            norm[1] = 1.0
            for (p, e, pe), tau in zip(_prime_powers(bound), taus):
                norm[pe], top[p] = tau / p ** (5.5 * e), e
            cached = self._table_cache[bound] = norm, top
        self._norm, self._top = cached

    def prime_power(self, p, e):
        pe = p**e
        if pe <= self.bound:
            return complex(float(self._norm[pe]))
        if p <= self.bound:
            return hecke_prime_power(float(self._norm[p]), e)
        raise MissingPrimePowerError(
            f"tau table (bound {self.bound}) cannot reach prime {p}")

    def prime_power_table(self, primes, exps):
        """The Hecke recursion across primes, then the table entries, where
        p^e <= bound (in exact integers), written over it: both gather
        prime_power's values."""
        cap = self.bound + 1         # primes past the table read 0s there
        base = np.minimum(np.array(primes, dtype=np.int64), cap).reshape(len(primes))
        e = np.asarray(exps, dtype=np.int64).reshape(len(exps))
        if (e > 0).any() and (base == cap).any():
            raise MissingPrimePowerError(f"tau table (bound {self.bound}) cannot "
                                         f"reach prime {primes[int(np.argmax(base == cap))]}")
        out = _hecke_table(self._norm[base], exps)
        inside = e <= self._top[base][:, None]
        out[inside] = self._norm[base[:, None] ** np.where(inside, e, 0)][inside]
        return out

    def __repr__(self):
        return f"TauFamily(bound={self.bound})"


# A coefficient tuple is simply a sequence of families, one per variable.
CoefficientTuple = Sequence[CoefficientFamily]


@contextlib.contextmanager
def in_column(j: int):
    """Prefix 'coefficients[j]: ' to a MissingPrimePowerError raised inside:
    the family of column j lacks the value."""
    try:
        yield
    except MissingPrimePowerError as exc:
        raise MissingPrimePowerError(f"coefficients[{j}]: {exc}") from None


def eval_product_coefficient(c: CoefficientTuple, X) -> np.ndarray:
    """a(n) = prod_j c_j(n_j) for each row n of the K x t integer array X,
    column by column from 1+0j by _times; requires t == len(c) and every
    n_j >= 1."""
    X = np.asarray(X, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != len(c):
        raise ValueError(f"coefficient tuple has {len(c)} families, points have shape {X.shape}")
    if (X < 1).any():
        raise ValueError("family arguments are positive integers")
    out = np.ones(len(X), dtype=complex)
    for j, fam in enumerate(c):
        with in_column(j):
            v = fam.values(X[:, j])
        out = _times(out, v)
    return out


def all_trivial(c: CoefficientTuple) -> bool:
    return all(isinstance(f, TrivialFamily) for f in c)


def trivial_tuple(t: int) -> tuple:
    return tuple(TrivialFamily() for _ in range(t))
