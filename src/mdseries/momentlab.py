"""Character-moment reconstruction of the restricted series.

Averaging products of Dirichlet-twisted truncated L-sums over all
character tuples mod a prime q reproduces the restricted series up to an
error that decays in q; this module computes the average exactly (finite
sums), measures the error against the direct box sum, and fits the
empirical decay exponent.

The average is computed as arrays, in memory that does not grow with N.
One pass over n <= N, in chunks of limits.CHUNK, makes the terms
lambda_j(n) n^(-s_j) of each chunk, real where s_j and the family's values
are, and adds them (np.add.at) into class sums by n mod q, one per family
and modulus, for every modulus of the job.  At each q the class sums are
relabelled by the discrete log of the residue into T_j, and one
length-(q-1) DFT of T_j gives the twisted L-sums L_j(K) for every
character index K.  The average over character tuples k is a gather,
chi_k(w) conj(chi_k(w')) prod_j L_j(K_j) with K_j = sum_i k_i A_ij mod q-1,
made limits.CHUNK tuples at a time and summed in one pass by
series._fsum.  With m = 0 there is no average: the value is the product of
the plain sums, each the _fsum of the same chunk terms, computed once per
job.

The reference is the direct box sum and its N/2 tail
(series.direct_sum_and_half); no Euler product is evaluated.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import limits
from .arith import character_table, is_prime, _unit_roots
from .coefficients import TrivialFamily, _times, in_column
from .errors import WorkCapExceeded
from .limits import MOMENT_TUPLE_CAP
# compare is not called here; perfbench's layer trace wraps it by this
# module's name
from .series import (EMPTY_VARIETY_WARNING, _checked_point, _fsum,  # noqa: F401
                     compare, direct_sum_and_half, direct_tail_skip_reason)
from .system import LaurentMonomialSystem


def _check_modulus(S: LaurentMonomialSystem, q: int) -> None:
    """Raise unless q is an odd prime prime to every twist whose (q-1)^m
    character tuples fit under MOMENT_TUPLE_CAP."""
    if not is_prime(q) or q == 2:
        raise ValueError(f"modulus q must be an odd prime, got {q}")
    for w in list(S.omega) + list(S.omega_prime):
        if w % q == 0:
            raise ValueError(f"q = {q} must be coprime to every twist, divides {w}")
    tuples = (q - 1) ** S.m
    if tuples > MOMENT_TUPLE_CAP:
        raise WorkCapExceeded(tuples, MOMENT_TUPLE_CAP, "character tuple average",
                              "use a smaller q, or a system with fewer rows")


def _n_chunks(N: int):
    """The integers 1..N in chunks of limits.CHUNK, each with its
    logarithms.  Each term is made on its own, and np.add.at adds in index
    order, as one bincount over every n would, so any chunk size gives the
    same bits."""
    chunk = limits.CHUNK
    for lo in range(1, N + 1, chunk):
        n = np.arange(lo, min(lo + chunk, N + 1))
        yield n, np.log(n)


def _terms(fam, z: complex, n, logn):
    """lambda(n) n^(-z) on a chunk: float64 when z and the family's values
    there are real, else complex.  A non-trivial family's values come from
    its values(n)."""
    terms = np.exp(-z.real * logn) if z.imag == 0 else np.exp(-z * logn)
    if not isinstance(fam, TrivialFamily):
        values = fam.values(n)
        terms = _times(terms, values if values.imag.any() else values.real)
    return terms


def _class_sums(families, s, N: int, qs) -> dict:
    """{q: [T_j]} for every q in qs: T_j[a] is the sum of lambda_j(n) n^(-s_j)
    over n <= N with n = a mod q, from one pass over the chunks of
    _n_chunks.  T_j turns complex at the first complex chunk of terms."""
    sums = {q: [np.zeros(q) for _ in families] for q in qs}
    for n, logn in _n_chunks(N):
        residues = [(n % q, sums[q]) for q in qs]
        for j, (fam, z) in enumerate(zip(families, s)):
            with in_column(j):
                terms = _terms(fam, z, n, logn)
            for r, T in residues:
                if np.iscomplexobj(terms) and not np.iscomplexobj(T[j]):
                    T[j] = T[j].astype(complex)
                np.add.at(T[j], r, terms)
    return sums


def _plain_product(families, s, N: int) -> complex:
    """The m = 0 value: the product of the untwisted truncated L-sums, each
    the _fsum of its chunk terms, so any chunk size gives the same bits."""
    out = 1 + 0j
    for j, (fam, z) in enumerate(zip(families, s)):
        with in_column(j):
            out *= _fsum(_terms(fam, z, n, logn) for n, logn in _n_chunks(N))
    return out


def _average(S: LaurentMonomialSystem, sums: list, q: int) -> complex:
    """The character-tuple average at q from the class sums by residue
    (see the module docstring), for m >= 1 and a q that _check_modulus
    accepts."""
    table = character_table(q)
    order = q - 1
    # residues 1..q-1 relabelled by their discrete logs, a permutation of
    # 0..q-2; residue 0 (q | n) drops out
    logs = np.asarray(table.log[1:])
    L = []
    for x in sums:
        T = np.zeros(order, dtype=complex)
        T[logs] = x[1:]
        # L(K) = sum_a T[a] e^(2 pi i K a / (q-1)): the unscaled inverse DFT
        L.append(np.fft.ifft(T, norm="forward"))
    roots = np.array(_unit_roots(order))
    A = [[a % order for a in row] for row in S.A]
    delta = [(table.log_of(w) - table.log_of(wp)) % order
             for w, wp in zip(S.omega, S.omega_prime)]
    tuples = order ** S.m
    size = limits.CHUNK

    def chunks():
        # each tuple's term is made on its own, so any chunk size gives the
        # same bits
        for lo in range(0, tuples, size):
            v = np.arange(lo, min(lo + size, tuples))
            ks = []
            for _ in range(S.m):
                v, k = np.divmod(v, order)
                ks.append(k)
            phase = sum(k * d for k, d in zip(ks, delta)) % order
            chunk = roots[phase]
            for j, Lj in enumerate(L):
                K = sum(k * row[j] for k, row in zip(ks, A)) % order
                chunk = _times(chunk, Lj[K])
            yield chunk

    return _fsum(chunks()) / tuples


def moment_rhs(S: LaurentMonomialSystem, families, s, q: int, N: int) -> complex:
    """The full average over all (q-1)^m character tuples of
    prod_j L_N(s_j, Pi_j x prod_i chi_i^{a_ij}) * prod_i chi_i(w_i) conj(chi_i)(w'_i).

    Each factor is a gather from the DFT of the class sums.  For m = 0 this
    is the plain product of untwisted truncated L-sums.
    """
    s = _checked_point(S, families, s, True)
    if S.m == 0:
        return _plain_product(families, s, N)
    _check_modulus(S, q)
    return _average(S, _class_sums(families, s, N, [q])[q], q)


class MomentExperiment(NamedTuple):
    """Measured moment errors across moduli and the fitted decay exponent."""

    system: LaurentMonomialSystem
    families: tuple
    s: tuple
    q_list: tuple
    N: int
    lhs: complex
    lhs_tail: Optional[float]
    errors: tuple              # (q, e(q)) pairs, q ascending
    eta_hat: Optional[float]   # fitted exponent in e(q) ~ C * q^-eta
    intercept: Optional[float]
    stderr: Optional[float]    # standard error of the fitted slope
    residuals: tuple
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "s": [[z.real, z.imag] for z in self.s],
            "q": list(self.q_list),
            "N": self.N,
            "lhs": [self.lhs.real, self.lhs.imag],
            "lhs_tail": self.lhs_tail,
            "errors": {str(q): e for q, e in self.errors},
            "eta_hat": self.eta_hat,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "residuals": list(self.residuals),
            "warnings": list(self.warnings),
        }

    def csv_rows(self) -> list:
        return [("q", "error")] + [(q, e) for q, e in self.errors]


def _fit_decay(errors):
    """Least-squares fit of log e = C - eta log q to the (q, e) pairs:
    (eta, C, stderr, residuals), or Nones when fewer than two errors are
    positive; two points leave no residual, so no stderr."""
    pts = [(math.log(q), math.log(e)) for q, e in errors if e > 0]
    if len(pts) < 2:
        return None, None, None, ()
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)   # > 0: the moduli are distinct
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple(y - (intercept + slope * x) for x, y in pts)
    stderr = math.sqrt(sum(r * r for r in residuals) / (n - 2) / sxx) if n > 2 else None
    return -slope, intercept, stderr, residuals


def decay_experiment(S: LaurentMonomialSystem, families, s, q_list,
                     N: int) -> MomentExperiment:
    """Measure e(q) = |moment_rhs(q) - LHS| over ascending prime moduli and
    fit the decay exponent, except at m = 0, where e(q) does not depend on q.

    The LHS reference is the direct box sum at N, with the tail
    |v(N) - v(N/2)|.
    At m >= 1 a warning is raised when that tail is above a tenth of the
    smallest measured error, since the measurement floor is then suspect,
    and when fewer than two moduli have a positive error, so that no fit
    is made.
    One pass over n makes the class sums of every modulus.
    """
    s = _checked_point(S, families, s, False)
    qs = [int(q) for q in q_list]
    if not qs:
        raise ValueError("q_list is empty: give at least one prime modulus")
    if qs != sorted(qs) or len(set(qs)) != len(qs):
        raise ValueError("q_list must be strictly ascending")
    for q in qs:
        if not is_prime(q):
            raise ValueError(f"moduli must be prime, got {q}")
        if S.m:
            _check_modulus(S, q)
    warnings = [EMPTY_VARIETY_WARNING] if S.empty_variety_flag else []
    lhs, half = direct_sum_and_half(S, families, s, N)
    lhs_tail = None if half is None else abs(lhs - half)
    if half is None:
        warnings.append(direct_tail_skip_reason(N))
    if S.m == 0:
        warnings.append("no decay fit at m = 0: the moment is the direct sum over the "
                        "same box, so its error against that sum is rounding only")
        rhs = _plain_product(families, s, N)
        errors = [(q, abs(rhs - lhs)) for q in qs]
        fit = None, None, None, ()
    else:
        sums = _class_sums(families, s, N, qs)
        errors = [(q, abs(_average(S, sums[q], q) - lhs)) for q in qs]
        fit = _fit_decay(errors)
        positive = [e for _, e in errors if e > 0]
        if len(positive) < 2:
            warnings.append(f"no decay fit: a fit needs two moduli with a positive "
                            f"error, and {len(positive)} of {len(qs)} have one")
        if lhs_tail is not None and positive and lhs_tail > min(positive) / 10:
            warnings.append(
                f"reference tail {lhs_tail:.3e} exceeds a tenth of the smallest "
                f"error {min(positive):.3e}; errors near the floor are unreliable")
    eta, intercept, stderr, residuals = fit
    return MomentExperiment(
        system=S,
        families=tuple(families),
        s=s,
        q_list=tuple(qs),
        N=N,
        lhs=lhs,
        lhs_tail=lhs_tail,
        errors=tuple(errors),
        eta_hat=eta,
        intercept=intercept,
        stderr=stderr,
        residuals=residuals,
        warnings=tuple(warnings),
    )
