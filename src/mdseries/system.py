"""Laurent monomial systems.

A system is m constraints omega_i * prod_j n_j^{a_ij} = omega'_i over t
positive-integer variables.  LaurentMonomialSystem checks the shapes and
the twist cap, holds its twists' per-prime right-hand sides, and checks
its twist primes against a prime bound P for the Euler product and the
Cartesian check; make_system builds one from lists with twists
defaulting to 1.  The row
operations, the HNF kernel and the support search live in mdseries.lattice,
which only `normalize`, `reduce-support` and the tests load.
"""

from __future__ import annotations

from functools import cached_property

from .arith import factorize_twist
from .errors import TwistOverflowError
from .limits import TWIST_LIMIT


class ValidatedRecord:
    """A record whose __init__ checks its fields: read-only fields named by
    _fields, value equality and hashing within the class, and the repr of a
    NamedTuple.  Unlike a NamedTuple it has no _make or _replace, so every
    instance goes through the subclass's __init__."""

    _fields = ()

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"


class LaurentMonomialSystem(ValidatedRecord):
    """A: m rows of t integers each; omega and omega_prime: m positive
    integers each."""

    _fields = ("t", "m", "A", "omega", "omega_prime")

    def __init__(self, t: int, m: int, A: tuple, omega: tuple, omega_prime: tuple):
        super().__init__(t, m, A, omega, omega_prime)
        if self.t < 0 or self.m < 0:
            raise ValueError("t and m must be nonnegative")
        if len(self.A) != self.m:
            raise ValueError(f"A has {len(self.A)} rows, expected m={self.m}")
        for i, row in enumerate(self.A):
            if len(row) != self.t:
                raise ValueError(f"A[{i}] has {len(row)} entries, expected t={self.t}")
        for name, tw in (("omega", self.omega), ("omega_prime", self.omega_prime)):
            if len(tw) != self.m:
                raise ValueError(f"{name} has {len(tw)} entries, expected m={self.m}")
            for i, w in enumerate(tw):
                if w < 1:
                    raise ValueError(f"{name}[{i}] must be a positive integer, got {w}")
                if w > TWIST_LIMIT:
                    raise TwistOverflowError(f"{name}[{i}] exceeds the twist cap")

    @property
    def empty_variety_flag(self) -> bool:
        """A zero row with omega != omega' admits no solutions at all."""
        return any(
            all(a == 0 for a in row) and w != wp
            for row, w, wp in zip(self.A, self.omega, self.omega_prime)
        )

    @cached_property
    def twist_rhs(self) -> dict:
        """{p: (v_p(omega'_i) - v_p(omega_i))_i} over the primes p dividing
        any twist, ascending: the right-hand sides of membership's per-prime
        identity sum_j a_ij v_p(n_j) = rhs_i, from one factorization a twist."""
        rhs = {}
        for sign, twists in ((-1, self.omega), (1, self.omega_prime)):
            for i, w in enumerate(twists):
                for p, e in factorize_twist(w):
                    rhs.setdefault(p, [0] * self.m)[i] += sign * e
        return {p: tuple(rhs[p]) for p in sorted(rhs)}

    def twist_primes(self) -> tuple:
        """Sorted primes dividing any omega_i or omega'_i."""
        return tuple(self.twist_rhs)

    def check_prime_bound(self, P: int) -> None:
        """Raise ValueError unless every twist prime is <= P, as the
        per-prime splitting over the primes <= P needs."""
        for p in self.twist_primes():
            if p > P:
                raise ValueError(f"twist prime {p} exceeds the prime bound P={P}")


def make_system(A, omega=None, omega_prime=None, t=None) -> LaurentMonomialSystem:
    """Convenience constructor; twists default to all ones."""
    rows = tuple(tuple(int(a) for a in row) for row in A)
    m = len(rows)
    if t is None:
        if m == 0:
            raise ValueError("t must be given for a system with no constraints")
        t = len(rows[0])
    omega = tuple(int(w) for w in (omega if omega is not None else [1] * m))
    omega_prime = tuple(int(w) for w in (omega_prime if omega_prime is not None else [1] * m))
    return LaurentMonomialSystem(t=t, m=m, A=rows, omega=omega, omega_prime=omega_prime)
