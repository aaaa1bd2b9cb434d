"""Multiplicative coefficient families on prime powers.

A family is defined only by its values at prime powers and extended
multiplicatively, so multiplicativity holds by construction.  Tuples of
families give the product coefficient a(n) = prod_j family_j(n_j).
"""

from __future__ import annotations

from typing import Sequence

from .arith import factorize
from .errors import MissingPrimePowerError
from .limits import TAU_TABLE_LIMIT


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


def ramanujan_tau_table(N: int) -> list[int]:
    """Exact tau(1..N) from the degree-N truncation of q * prod (1-q^k)^24.

    Expands the eta product by exact integer power-series multiplication:
    the cube of the Euler factor is Jacobi's sparse series
    sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}, and the 24th power is its 8th
    power, built by repeated dense-by-sparse passes.  Returns a list with
    tau[n] at index n (index 0 unused).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > TAU_TABLE_LIMIT:
        raise ValueError(f"tau table capped at N <= {TAU_TABLE_LIMIT}")
    L = N  # coefficients of degrees 0..N-1 before the q-shift
    jac = []
    k = 0
    while k * (k + 1) // 2 < L:
        jac.append((k * (k + 1) // 2, (2 * k + 1) if k % 2 == 0 else -(2 * k + 1)))
        k += 1
    cur = [0] * L
    for d, c in jac:
        cur[d] = c
    for _ in range(7):
        new = [0] * L
        for d, c in jac:
            seg = cur[: L - d]
            new[d:] = [x + c * y for x, y in zip(new[d:], seg)]
        cur = new
    return [0] + cur


class CoefficientFamily:
    """Base class: a multiplicative function given by prime-power values."""

    def prime_power(self, p: int, e: int) -> complex:
        raise NotImplementedError

    def value(self, n: int) -> complex:
        """Multiplicative extension: prod over p^e || n of prime_power(p, e)."""
        if n == 1:
            return 1 + 0j
        cache = self.__dict__.setdefault("_memo", {})
        got = cache.get(n)
        if got is None:
            got = 1 + 0j
            for p, e in factorize(n):
                got *= self.prime_power(p, e)
            cache[n] = got
        return got


class TrivialFamily(CoefficientFamily):
    """Coefficients identically 1 (the zeta family)."""

    def prime_power(self, p, e):
        return 1 + 0j

    def value(self, n):
        return 1 + 0j

    def __repr__(self):
        return "TrivialFamily()"


class CharacterFamily(CoefficientFamily):
    """A Dirichlet character mod a prime q (completely multiplicative)."""

    def __init__(self, table, k: int):
        self.table = table
        self.k = k % (table.q - 1)

    def prime_power(self, p, e):
        return self.table.char_value(self.k, pow(p, e, self.table.q))

    def value(self, n):
        if n == 1:
            return 1 + 0j
        return self.table.char_value(self.k, n)

    def __repr__(self):
        return f"CharacterFamily(q={self.table.q}, k={self.k})"


class HeckeGL2Family(CoefficientFamily):
    """Normalized GL(2) coefficients generated from lambda(p) by the Hecke
    recursion; lambda(p) values are supplied per prime."""

    def __init__(self, lambda_p: dict):
        self.lambda_p = {int(p): complex(v) for p, v in lambda_p.items()}

    def prime_power(self, p, e):
        lam = self.lambda_p.get(p)
        if lam is None:
            raise MissingPrimePowerError(f"no lambda({p}) supplied for hecke_gl2 family")
        return hecke_prime_power(lam, e)

    def __repr__(self):
        return f"HeckeGL2Family({len(self.lambda_p)} primes)"


class TableFamily(CoefficientFamily):
    """Explicit prime-power table; any gap is an error."""

    def __init__(self, values: dict):
        # keys are (p, e) pairs
        self.values = {(int(p), int(e)): complex(v) for (p, e), v in values.items()}

    def prime_power(self, p, e):
        try:
            return self.values[(p, e)]
        except KeyError:
            raise MissingPrimePowerError(
                f"explicit table has no entry for {p}^{e}") from None

    def __repr__(self):
        return f"TableFamily({len(self.values)} entries)"


class TauFamily(CoefficientFamily):
    """Analytically normalized Ramanujan tau: lambda(p^e) = tau(p^e) / p^{11e/2}.

    Values come from the exact eta-product table up to `bound`; prime powers
    past the table (but with p itself inside it) extend by the Hecke
    recursion, which the normalized tau satisfies.
    """

    DEFAULT_BOUND = 10_000
    _table_cache: dict = {}

    def __init__(self, bound: int = DEFAULT_BOUND):
        self.bound = bound
        table = self._table_cache.get(bound)
        if table is None:
            table = ramanujan_tau_table(bound)
            self._table_cache[bound] = table
        self.table = table

    def prime_power(self, p, e):
        pe = p**e
        if pe <= self.bound:
            return complex(self.table[pe] / p ** (5.5 * e))
        if p <= self.bound:
            lam = self.table[p] / p**5.5
            return hecke_prime_power(lam, e)
        raise MissingPrimePowerError(
            f"tau table (bound {self.bound}) cannot reach prime {p}")

    def __repr__(self):
        return f"TauFamily(bound={self.bound})"


# A coefficient tuple is simply a sequence of families, one per variable.
CoefficientTuple = Sequence[CoefficientFamily]


def eval_product_coefficient(c: CoefficientTuple, n: Sequence[int]) -> complex:
    """a(n) = prod_j c_j(n_j); requires len(n) == len(c) and every n_j >= 1."""
    if len(c) != len(n):
        raise ValueError(f"coefficient tuple has {len(c)} families, point has {len(n)}")
    out = 1 + 0j
    for fam, nj in zip(c, n):
        if nj < 1:
            raise ValueError("family arguments are positive integers")
        out *= fam.value(nj)
    return out


def all_trivial(c: CoefficientTuple) -> bool:
    return all(isinstance(f, TrivialFamily) for f in c)


def trivial_tuple(t: int) -> tuple:
    return tuple(TrivialFamily() for _ in range(t))
