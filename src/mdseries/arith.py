"""Exact integer arithmetic foundations.

Primes, factorizations, p-adic valuations, and Dirichlet character tables
modulo a prime q.  factorize takes any 1 <= n <= TWIST_LIMIT: an n within
the least-prime-factor sieve is read off it, and every larger one goes to
factorize_twist, which also factors the twists: trial division by the
primes <= 100, then Pollard-Brent rho (R. P. Brent, BIT 20, 1980), each
factor kept proved prime by deterministic Miller-Rabin.

Characters are kept as exact root-of-unity indices (integers mod q-1) and
only converted to floating complex at evaluation boundaries, so
orthogonality relations stay exact in index space.
"""

from __future__ import annotations

import bisect
import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .limits import LPF_SIEVE_LIMIT, TWIST_LIMIT

# A factorization is ((p1, e1), (p2, e2), ...) with p1 < p2 < ... and e >= 1.
# The factorization of 1 is the empty tuple.
Factorization = tuple


# ---------------------------------------------------------------------------
# prime sieves (grown lazily, shared module-wide)

_sieve_limit = 0
_primes_list = []      # ascending primes <= _sieve_limit

_lpf_limit = 0
_lpf = None            # np.int32 array, _lpf[n] = least prime factor of n;
                       # sized to what factorize asks of it (see there)


def _grow_sieve(limit: int) -> None:
    """Sieve to the power of two above limit (at least 2^10), so requests
    in one octave share one sieve and each growth at least doubles it."""
    global _sieve_limit, _primes_list
    if limit <= _sieve_limit:
        return
    limit = max(1 << 10, 1 << int(limit).bit_length())
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    _sieve_limit = limit
    _primes_list = np.flatnonzero(flags).tolist()


def _grow_lpf(limit: int) -> None:
    global _lpf_limit, _lpf
    if limit <= _lpf_limit:
        return
    limit = min(max(limit, 2 * _lpf_limit), LPF_SIEVE_LIMIT)
    lpf = np.zeros(limit + 1, dtype=np.int32)
    for i in range(2, math.isqrt(limit) + 1):
        if lpf[i] == 0:
            seg = lpf[i * i :: i]
            seg[seg == 0] = i
    rest = np.flatnonzero(lpf[2:] == 0) + 2
    lpf[rest] = rest.astype(np.int32)
    _lpf = lpf
    _lpf_limit = limit


def primes_up_to(P: int) -> list[int]:
    """All primes <= P, ascending."""
    if P < 2:
        return []
    _grow_sieve(P)
    return _primes_list[: bisect.bisect_right(_primes_list, P)]


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the witnesses, the primes <= 37, decide
    every n < 3.3 * 10^24, far past TWIST_LIMIT."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Exact prime factorization of 1 <= n <= TWIST_LIMIT as ((p, e), ...),
    p ascending.

    An n within the least-prime-factor sieve is read off it; a larger one
    goes to factorize_twist.  The sieve is shared module-wide: an n past
    it, up to LPF_SIEVE_LIMIT // 4, grows it to max(n, twice its size),
    capped at LPF_SIEVE_LIMIT.  So it never holds more than twice the
    largest n asked of it (q - 1 for a character table mod q), and
    ascending requests re-sieve O(that) entries in all.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return ()
    if n <= _lpf_limit or n <= LPF_SIEVE_LIMIT // 4:
        _grow_lpf(n)
    if n > _lpf_limit:
        return factorize_twist(n)
    out = []
    lpf = _lpf
    while n > 1:
        p = int(lpf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def factor_levels(n: np.ndarray) -> list:
    """The factorizations of a 1-D int64 array of n >= 1, as arrays: a list
    of (rows, p, e), where p[i]^e[i] exactly divides n[rows[i]], and each
    row's primes come in ascending order down the list.

    An n that factorize would sieve is factored with the sieve, one level
    (prime) at a time for all such n at once; each distinct n past the
    sieve goes through factorize.
    """
    n = np.asarray(n, dtype=np.int64)
    if (n < 1).any():
        raise ValueError(f"factorize requires n >= 1, got {n.min()}")
    _grow_lpf(int(n[n <= LPF_SIEVE_LIMIT // 4].max(initial=0)))
    out = []
    rows = np.flatnonzero((n > 1) & (n <= _lpf_limit))
    rest = n[rows]
    while len(rows):
        p = _lpf[rest].astype(np.int64)
        e = np.zeros_like(rest)
        hit = np.ones(len(rest), dtype=bool)
        while hit.any():
            rest[hit] //= p[hit]
            e[hit] += 1
            hit[hit] = rest[hit] % p[hit] == 0
        out.append((rows, p, e))
        left = rest > 1
        rows, rest = rows[left], rest[left]
    far = np.flatnonzero(n > _lpf_limit)
    for m in sorted(set(n[far].tolist())):
        at = far[n[far] == m]
        out += [(at, np.full(len(at), p), np.full(len(at), e)) for p, e in factorize(m)]
    return out


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of
    Pollard's rho with polynomials x^2 + c, c = 1, 2, ... in turn, so the
    divisor found is the same on every run."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize_twist(n: int) -> Factorization:
    """Exact prime factorization of 1 <= n <= TWIST_LIMIT, in the format
    of `factorize`, without the sieve: the factorization of twists, and of
    any n that factorize's sieve does not reach.

    Trial division splits off the primes <= 100, and Pollard-Brent rho the
    rest; every factor it keeps is prime by the deterministic Miller-Rabin
    test `is_prime`.
    """
    if n < 1:
        raise ValueError(f"factorize_twist requires n >= 1, got {n}")
    if n > TWIST_LIMIT:
        raise ValueError(f"factorize_twist input {n} exceeds the twist cap {TWIST_LIMIT}")
    counts = {}
    for p in primes_up_to(100):
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return tuple(sorted(counts.items()))


def iroot(v: int, k: int) -> int:
    """floor(v ** (1/k)) for integers v >= 0 and k >= 1, in exact arithmetic.

    Floats are never used: inputs reach far beyond 2^53.  k = 2 is
    math.isqrt; larger k run integer Newton iteration from a power of two
    above the root, which decreases strictly until it reaches the floor.
    """
    if k < 1:
        raise ValueError(f"iroot requires k >= 1, got {k}")
    if v < 0:
        raise ValueError(f"iroot requires v >= 0, got {v}")
    if k == 1 or v < 2:
        return v
    if k == 2:
        return math.isqrt(v)
    x = 1 << -(-v.bit_length() // k)
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def valuation(p: int, x: int) -> int:
    """p-adic valuation v_p(x): the largest k with p^k | x.  p must be prime."""
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime p, got {p}")
    if x < 1:
        raise ValueError(f"valuation requires x >= 1, got {x}")
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# Dirichlet characters mod an odd prime q

@lru_cache(maxsize=64)
def _unit_roots(order: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * r / order) for r in range(order))


class CharacterTable(NamedTuple):
    """Discrete-log table defining the q-1 Dirichlet characters mod a prime q.

    g generates (Z/qZ)* and log[g^a mod q] = a; character k sends g^a to the
    unit root exp(2*pi*i * k*a / (q-1)).  Negative k means the conjugate
    character (indices live mod q-1).
    """

    q: int
    g: int
    log: tuple     # length q; log[0] = -1 sentinel, log[n] = discrete log of n

    def log_of(self, n: int) -> int:
        """Discrete log of n mod q, or -1 when q | n."""
        return self.log[n % self.q]

    def char_value(self, k: int, n: int) -> complex:
        """chi_k(n): the unit root of index k * log(n) mod q-1, or 0 when q | n."""
        a = self.log[n % self.q]
        if a < 0:
            return 0j
        return _unit_roots(self.q - 1)[(k * a) % (self.q - 1)]


def character_table(q: int) -> CharacterTable:
    """Build the character table mod an odd prime q.

    The generator is the smallest primitive root, found by checking orders
    against the prime factorization of q-1.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"character table needs an odd prime modulus, got {q}")
    phi = q - 1
    prime_divs = [p for p, _ in factorize(phi)]
    g = None
    for cand in range(2, q):
        if all(pow(cand, phi // r, q) != 1 for r in prime_divs):
            g = cand
            break
    if g is None:  # unreachable for prime q
        raise ValueError(f"no primitive root mod {q}")
    log = [-1] * q
    cur = 1
    for a in range(phi):
        log[cur] = a
        cur = cur * g % q
    return CharacterTable(q=q, g=g, log=tuple(log))

