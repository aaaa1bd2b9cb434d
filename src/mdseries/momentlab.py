"""Character-moment reconstruction of the restricted series.

Averaging products of Dirichlet-twisted truncated L-sums over all
character tuples mod a prime q reproduces the restricted series up to an
error that decays in q; this module computes the average exactly (finite
sums), measures the error against a tight direct-evaluation reference,
and fits the empirical decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arith import CharacterTable, character_table, is_prime, _unit_roots
from .coefficients import CoefficientFamily, TrivialFamily
from .errors import WorkCapExceeded
from .limits import MOMENT_TUPLE_CAP
from .series import EvalParams, check_series_point, compare, default_exponent_bound
from .system import LaurentMonomialSystem


def _log_class_sums(f: CoefficientFamily, table: CharacterTable, s: complex,
                    N: int) -> list:
    """T[a] = sum of lambda(n) n^{-s} over n <= N with log(n mod q) = a.

    Bucketing by discrete log turns every twisted L-sum into a length-(q-1)
    root-of-unity contraction, so the character-tuple average costs O(q)
    per L-value instead of O(N)."""
    q = table.q
    n = np.arange(1, N + 1)
    terms = np.exp(-s * np.log(n))
    if not isinstance(f, TrivialFamily):
        terms *= np.array([f.value(k) for k in range(1, N + 1)], dtype=complex)
    classes = np.asarray(table.log)[n % q]
    keep = classes >= 0   # q | n has no discrete log and drops out
    classes = classes[keep]
    re = np.bincount(classes, weights=terms.real[keep], minlength=q - 1)
    im = np.bincount(classes, weights=terms.imag[keep], minlength=q - 1)
    return (re + 1j * im).tolist()


def moment_rhs(S: LaurentMonomialSystem, families, s, q: int, N: int,
               *, tuple_cap: int = MOMENT_TUPLE_CAP) -> complex:
    """The full average over all (q-1)^m character tuples of
    prod_j L_N(s_j, Pi_j x prod_i chi_i^{a_ij}) * prod_i chi_i(w_i) conj(chi_i)(w'_i).

    Composite characters are realized by exponent-index arithmetic mod q-1,
    so each factor is a table lookup.  For m = 0 this is the plain product
    of untwisted truncated L-sums (no average, all n <= N included).
    """
    s = tuple(complex(z) for z in s)
    if len(s) != S.t or len(families) != S.t:
        raise ValueError("s and families must both have length t")
    if S.m == 0:
        out = 1 + 0j
        for fam, z in zip(families, s):
            trivial = isinstance(fam, TrivialFamily)
            tot = 0j
            for n in range(1, N + 1):
                term = n ** (-z)
                if not trivial:
                    term *= fam.value(n)
                tot += term
            out *= tot
        return out
    if not is_prime(q) or q == 2:
        raise ValueError(f"modulus q must be an odd prime, got {q}")
    for w in list(S.omega) + list(S.omega_prime):
        if w % q == 0:
            raise ValueError(f"q = {q} must be coprime to every twist, divides {w}")
    tuples = (q - 1) ** S.m
    if tuples > tuple_cap:
        raise WorkCapExceeded(tuples, tuple_cap, "character tuple average")
    table = character_table(q)
    order = q - 1
    roots = _unit_roots(order)
    T = [_log_class_sums(fam, table, z, N) for fam, z in zip(families, s)]

    L_cache: dict = {}

    def L(j: int, K: int) -> complex:
        got = L_cache.get((j, K))
        if got is None:
            Tj = T[j]
            got = sum(roots[(K * a) % order] * Tj[a] for a in range(order))
            L_cache[(j, K)] = got
        return got

    delta = [(table.log_of(w) - table.log_of(wp)) % order
             for w, wp in zip(S.omega, S.omega_prime)]

    total = 0j
    m, t = S.m, S.t
    ks = [0] * m
    for idx in range(tuples):
        v = idx
        for i in range(m):
            ks[i] = v % order
            v //= order
        term = roots[sum(k * d for k, d in zip(ks, delta)) % order]
        for j in range(t):
            K = sum(ks[i] * S.A[i][j] for i in range(m)) % order
            term *= L(j, K)
        total += term
    return total / tuples


@dataclass(frozen=True)
class MomentExperiment:
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
    warnings: tuple = field(default_factory=tuple)

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


def _fit_decay(qs, errs):
    """Least-squares fit of log e = C - eta log q; returns (eta, C, stderr,
    residuals) or Nones when the fit is degenerate (zero errors etc.)."""
    pts = [(math.log(q), math.log(e)) for q, e in zip(qs, errs) if e > 0]
    if len(pts) < 2:
        return None, None, None, ()
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None, None, None, ()
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple(y - (intercept + slope * x) for x, y in pts)
    if n > 2:
        stderr = math.sqrt(sum(r * r for r in residuals) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return -slope, intercept, stderr, residuals


def decay_experiment(S: LaurentMonomialSystem, families, s, q_list, N: int,
                     *, reference: Optional[complex] = None,
                     reference_params: Optional[EvalParams] = None) -> MomentExperiment:
    """Measure e(q) = |moment_rhs(q) - LHS| over ascending prime moduli and
    fit the decay exponent.

    The LHS reference comes from a tight dual-evaluator run unless supplied;
    a warning is raised when its tail estimate is within a factor 10 of the
    smallest measured error, since the measurement floor is then suspect.
    """
    s = tuple(complex(z) for z in s)
    check_series_point(s, S.t, False)
    qs = [int(q) for q in q_list]
    if qs != sorted(qs) or len(set(qs)) != len(qs):
        raise ValueError("q_list must be strictly ascending")
    for q in qs:
        if not is_prime(q):
            raise ValueError(f"moduli must be prime, got {q}")
    warnings = []
    lhs_tail = None
    if reference is not None:
        lhs = complex(reference)
    else:
        if reference_params is None:
            reference_params = EvalParams(
                N=N, P=min(N, 10_000), B=default_exponent_bound(s))
        report = compare(S, families, s, reference_params)
        lhs = report.direct
        lhs_tail = report.direct_tail
        warnings.extend(report.warnings)
    errors = []
    for q in qs:
        rhs = moment_rhs(S, families, s, q, N)
        errors.append((q, abs(rhs - lhs)))
    positive = [e for _, e in errors if e > 0]
    if lhs_tail is not None and positive and lhs_tail > min(positive) / 10:
        warnings.append(
            f"reference tail {lhs_tail:.3e} exceeds a tenth of the smallest "
            f"error {min(positive):.3e}; errors near the floor are unreliable")
    eta, intercept, stderr, residuals = _fit_decay(
        [q for q, _ in errors], [e for _, e in errors])
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
