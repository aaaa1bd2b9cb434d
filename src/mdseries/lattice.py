"""Row operations on Laurent monomial systems and integer row lattices.

Three row operations preserve the solution set of a system (and hence
every restricted series built on it): swapping rows, negating a row while
exchanging its twists, and adding an integer multiple of one row to
another with multiplicative twist updates.

One row-reduction kernel, _hnf, brings an integer matrix to row Hermite
normal form by these three operations alone (Cohen, A Course in
Computational Algebraic Number Theory, section 2.4) and returns the
operations it applied.  normalize replays that op log on the system, so
the twists follow the rows; express_in_rows replays it on the identity to
get the unimodular transform; hnf_rows keeps only the matrix.  The
bounded small-support basis search of `mds reduce-support` is built on
hnf_rows.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Union

from .errors import TwistOverflowError, WorkCapExceeded
from .limits import SUPPORT_COMBO_CAP, TWIST_LIMIT
from .system import LaurentMonomialSystem


class Swap(NamedTuple):
    i: int
    j: int


class Negate(NamedTuple):
    i: int


class AddMultiple(NamedTuple):
    """row_i += b * row_j with the matching multiplicative twist update."""
    i: int
    j: int
    b: int


RowOperation = Union[Swap, Negate, AddMultiple]


def _checked_twist(v: int) -> int:
    if v > TWIST_LIMIT:
        raise TwistOverflowError(f"twist value {v} exceeds 2^63-1")
    return v


def _apply(mat: list, op: RowOperation) -> None:
    """The matrix effect of one row operation, in place on a list of lists."""
    if isinstance(op, Swap):
        mat[op.i], mat[op.j] = mat[op.j], mat[op.i]
    elif isinstance(op, Negate):
        mat[op.i] = [-x for x in mat[op.i]]
    else:
        mat[op.i] = [x + op.b * y for x, y in zip(mat[op.i], mat[op.j])]


def apply_row_op(S: LaurentMonomialSystem, op: RowOperation) -> LaurentMonomialSystem:
    """Apply one row operation; indices are 0-based.

    AddMultiple with b >= 0 maps (omega_i, omega'_i) to
    (omega_i * omega_j^b, omega'_i * omega'_j^b); with b < 0 the roles of
    omega_j and omega'_j swap, which is the composite of |b| additions of
    the negated row j and keeps all twists integral.
    """
    w = list(S.omega)
    wp = list(S.omega_prime)
    if isinstance(op, Swap):
        i, j = op.i, op.j
        if i == j:
            raise ValueError("Swap needs distinct rows")
        w[i], w[j] = w[j], w[i]
        wp[i], wp[j] = wp[j], wp[i]
    elif isinstance(op, Negate):
        i = op.i
        w[i], wp[i] = wp[i], w[i]
    elif isinstance(op, AddMultiple):
        i, j, b = op.i, op.j, op.b
        if i == j:
            raise ValueError("AddMultiple needs distinct rows")
        if b >= 0:
            w[i] = _checked_twist(w[i] * w[j] ** b)
            wp[i] = _checked_twist(wp[i] * wp[j] ** b)
        else:
            w[i] = _checked_twist(w[i] * wp[j] ** (-b))
            wp[i] = _checked_twist(wp[i] * w[j] ** (-b))
    else:
        raise TypeError(f"unknown row operation {op!r}")
    A = [list(row) for row in S.A]
    _apply(A, op)
    return LaurentMonomialSystem(
        t=S.t, m=S.m, A=tuple(tuple(r) for r in A), omega=tuple(w), omega_prime=tuple(wp)
    )


def negate_system(S: LaurentMonomialSystem) -> LaurentMonomialSystem:
    """The identity D_A(s; w, w') = D_{-A}(s; w', w): negate A, swap twists."""
    return LaurentMonomialSystem(
        t=S.t,
        m=S.m,
        A=tuple(tuple(-a for a in row) for row in S.A),
        omega=S.omega_prime,
        omega_prime=S.omega,
    )


def block_compose(S1: LaurentMonomialSystem, S2: LaurentMonomialSystem) -> LaurentMonomialSystem:
    """Block-diagonal composition: the product of the two series."""
    rows = [tuple(row) + (0,) * S2.t for row in S1.A]
    rows += [(0,) * S1.t + tuple(row) for row in S2.A]
    return LaurentMonomialSystem(
        t=S1.t + S2.t,
        m=S1.m + S2.m,
        A=tuple(rows),
        omega=S1.omega + S2.omega,
        omega_prime=S1.omega_prime + S2.omega_prime,
    )


def permute_columns(S: LaurentMonomialSystem, perm) -> LaurentMonomialSystem:
    """Relabel variables: column j of the result is column perm[j] of S.

    Not one of the three row operations; callers must permute s the same way.
    """
    if sorted(perm) != list(range(S.t)):
        raise ValueError("perm must be a permutation of 0..t-1")
    return LaurentMonomialSystem(
        t=S.t,
        m=S.m,
        A=tuple(tuple(row[perm[j]] for j in range(S.t)) for row in S.A),
        omega=S.omega,
        omega_prime=S.omega_prime,
    )


def _hnf(rows) -> tuple:
    """Row Hermite normal form by the three row operations, with its op log.

    Column by column, the live row (row >= the next pivot slot, nonzero in
    the column) of least absolute entry, the lowest index on ties, reduces
    the others until one remains; it is swapped into the pivot slot when it
    is not already there, made positive by Negate, and the entries above it
    are reduced into [0, pivot).  Returns (matrix, rank, ops): rows past
    the rank are zero, and replaying ops on `rows` with _apply gives matrix.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    ops = []

    def do(op):
        _apply(mat, op)
        ops.append(op)

    r = 0
    for c in range(len(mat[0]) if mat else 0):
        while True:
            live = [i for i in range(r, n) if mat[i][c] != 0]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda i: (abs(mat[i][c]), i))
            for i in live:
                q = mat[i][c] // mat[piv][c]
                if i != piv and q != 0:
                    do(AddMultiple(i, piv, -q))
        if not live:
            continue
        if live[0] != r:
            do(Swap(r, live[0]))
        if mat[r][c] < 0:
            do(Negate(r))
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q != 0:
                do(AddMultiple(i, r, -q))
        r += 1
    return mat, r, ops


def _solve(hnf, vec) -> Optional[list]:
    """Integer q with q . hnf == vec for an HNF basis `hnf`, or None.

    Back-substitution against the pivots, first to last."""
    v = list(vec)
    q = []
    for row in hnf:
        c = next(k for k, x in enumerate(row) if x)
        if v[c] % row[c] != 0:
            return None
        qi = v[c] // row[c]
        if qi:
            v = [x - qi * y for x, y in zip(v, row)]
        q.append(qi)
    return None if any(v) else q


def normalize(S: LaurentMonomialSystem):
    """Hermite-style canonical form reached purely by the three row operations.

    The op log of _hnf on A is replayed on S through apply_row_op, so the
    twists follow their rows and a twist past the cap raises
    TwistOverflowError at the op that makes it.  Rows that become zero
    with omega == omega' are dropped (they read 1 = 1); a zero row with
    omega != omega' stays and flags the empty variety.
    Returns (canonical system, op log); op indices refer to the m-row system.
    """
    _, r, ops = _hnf(S.A)
    cur = S
    for op in ops:
        cur = apply_row_op(cur, op)
    # r..m-1 are zero rows now; keep only the conflicting ones.
    keep = [i for i in range(cur.m) if i < r or cur.omega[i] != cur.omega_prime[i]]
    out = LaurentMonomialSystem(
        t=cur.t,
        m=len(keep),
        A=tuple(cur.A[i] for i in keep),
        omega=tuple(cur.omega[i] for i in keep),
        omega_prime=tuple(cur.omega_prime[i] for i in keep),
    )
    return out, ops


# ---------------------------------------------------------------------------
# integer row lattices (no twists): HNF, membership, support search

def hnf_rows(rows) -> list:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Zero rows are dropped; pivots are positive; entries above a pivot are
    reduced into [0, pivot).  The result is a canonical basis.
    """
    mat, r, _ = _hnf(rows)
    return mat[:r]


def lattice_contains(hnf, vec) -> bool:
    """Membership of vec in the lattice with HNF basis `hnf` (exact)."""
    return _solve(hnf, vec) is not None


def express_in_rows(target, rows) -> Optional[list]:
    """Integer coefficients x with x . rows == target, or None.

    Replays the HNF op log of `rows` on the identity to get the unimodular
    transform U, then solves by back-substitution against the pivots.
    """
    mat, r, ops = _hnf(rows)
    q = _solve(mat[:r], target)
    if q is None:
        return None
    U = [[1 if i == j else 0 for j in range(len(mat))] for i in range(len(mat))]
    for op in ops:
        _apply(U, op)
    return [sum(qi * u[k] for qi, u in zip(q, U)) for k in range(len(mat))]


class SupportSearch(NamedTuple):
    """Outcome of the bounded small-support basis search."""
    reducible: bool
    basis: Optional[tuple]   # rows, each with at most 2 nonzero entries
    coeff_bound: int


def support_reducible(A, coeff_bound: int) -> SupportSearch:
    """Search the row lattice of A for a generating set of vectors with at
    most two nonzero entries each.

    Candidates are all integer row combinations with coefficients bounded by
    coeff_bound in absolute value; a positive certificate is a subset of
    them generating the full row lattice.  A negative answer only means no
    such set exists within the bound.
    """
    if not 1 <= coeff_bound <= 20:
        raise ValueError("coeff_bound must be in 1..20")
    rows = [tuple(int(x) for x in row) for row in A]
    rows = [r for r in rows if any(r)]
    if not rows:
        return SupportSearch(reducible=True, basis=(), coeff_bound=coeff_bound)
    m = len(rows)
    total = (2 * coeff_bound + 1) ** m
    if total > SUPPORT_COMBO_CAP:
        raise WorkCapExceeded(total, SUPPORT_COMBO_CAP, "support-reduction search",
                              "lower the coefficient bound (--bound)")
    target_hnf = hnf_rows(rows)
    ncols = len(rows[0])
    candidates = set()
    for combo in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=m):
        if not any(combo):
            continue
        vec = tuple(sum(c * row[j] for c, row in zip(combo, rows)) for j in range(ncols))
        if any(vec) and sum(1 for x in vec if x) <= 2:
            lead = next(x for x in vec if x)
            if lead < 0:
                vec = tuple(-x for x in vec)
            candidates.add(vec)
    chosen = []
    span = []
    for vec in sorted(candidates, key=lambda v: (max(abs(x) for x in v), v)):
        if chosen and lattice_contains(span, vec):
            continue
        chosen.append(vec)
        span = hnf_rows(chosen)
        if span == target_hnf:
            return SupportSearch(reducible=True, basis=tuple(chosen), coeff_bound=coeff_bound)
    return SupportSearch(reducible=False, basis=None, coeff_bound=coeff_bound)
