"""hnf_rows against sympy's hermite_normal_form as an independent oracle.

Lattices are compared, not entries: sympy's column-style form, transposed,
spans the same row lattice but may differ in signs and reduction (it gives
[[-1, 1]] where hnf_rows gives [[1, -1]]).  Membership is decided by
sympy's rational solve and an integrality check, not by lattice_contains,
so the oracle shares no code with the kernel under test.  sympy is a test
dependency only.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

from mdseries.lattice import hnf_rows  # noqa: E402

entries = st.integers(-3, 3) | st.integers(-20, 20)
matrices = st.integers(1, 5).flatmap(
    lambda t: st.lists(st.lists(entries, min_size=t, max_size=t), min_size=1, max_size=5))
oracle = settings(derandomize=True, deadline=None, max_examples=200)


def in_lattice(basis, vec) -> bool:
    """vec is an integer combination of the linearly independent rows of basis."""
    if not basis:
        return not any(vec)
    try:
        x, free = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(vec))
    except ValueError:  # no rational solution
        return False
    assert free.shape[0] == 0
    return all(xi.is_integer for xi in x)


@oracle
@given(matrices)
def test_same_lattice_as_sympy(rows):
    H = hnf_rows(rows)
    ref = hermite_normal_form(sympy.Matrix(rows).T).T.tolist()
    assert all(in_lattice(ref, h) for h in H)
    assert all(in_lattice(H, v) for v in ref)


@oracle
@given(matrices)
def test_hermite_form(rows):
    H = hnf_rows(rows)
    pivots = [next((c for c, x in enumerate(h) if x), None) for h in H]
    assert None not in pivots  # no zero rows
    assert pivots == sorted(set(pivots))  # echelon: zeros below every pivot
    for k, (h, c) in enumerate(zip(H, pivots)):
        assert h[c] > 0
        assert all(0 <= above[c] < h[c] for above in H[:k])
