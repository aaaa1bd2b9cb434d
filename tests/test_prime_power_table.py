"""Differential tests: prime_power_table against scalar prime_power.

Every built-in table runs the operations of its scalar path entry by entry
(the Hecke recursion with complex products written out on real and
imaginary parts), so the tables must equal the scalar values exactly, and
a missing value must raise the scalar path's error with the same message.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdseries.arith import character_table, primes_up_to  # noqa: E402
from mdseries.coefficients import (CharacterFamily, HeckeGL2Family,  # noqa: E402
                                   TableFamily, TauFamily, TrivialFamily)
from mdseries.errors import MissingPrimePowerError  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
PRIMES = primes_up_to(400)

prime_lists = st.lists(st.sampled_from(PRIMES), min_size=1, max_size=12)
exponent_lists = st.lists(st.integers(0, 40), min_size=1, max_size=8)
finite = st.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)


def assert_table_matches_scalar(fam, primes, exps):
    table = fam.prime_power_table(primes, exps)
    assert table.shape == (len(primes), len(exps))
    for i, p in enumerate(primes):
        for k, e in enumerate(exps):
            assert complex(table[i, k]) == fam.prime_power(p, e), (p, e)


def scalar_error(fam, primes, exps):
    """The message of the first failure of the scalar path, prime by prime."""
    for p in primes:
        for e in exps:
            try:
                fam.prime_power(p, e)
            except MissingPrimePowerError as exc:
                return str(exc)
    return None


@SETTINGS
@given(prime_lists, exponent_lists)
def test_trivial(primes, exps):
    assert_table_matches_scalar(TrivialFamily(), primes, exps)


@SETTINGS
@given(st.sampled_from([3, 5, 7, 11, 13, 101]), st.integers(-200, 200),
       st.lists(st.sampled_from(PRIMES[:30]), min_size=1, max_size=12), exponent_lists)
def test_character_includes_p_equal_q(q, k, primes, exps):
    fam = CharacterFamily(character_table(q), k)
    assert_table_matches_scalar(fam, primes + [q], exps)


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(PRIMES), finite, finite), min_size=1, max_size=12),
       exponent_lists)
def test_hecke_complex_lambda(values, exps):
    fam = HeckeGL2Family({p: complex(a, b) for p, a, b in values})
    assert_table_matches_scalar(fam, [p for p, _, _ in values], exps)


@SETTINGS
@given(st.sampled_from([50, 400, 1000]), prime_lists, exponent_lists)
def test_tau_inside_and_past_the_table(bound, primes, exps):
    # p^e <= bound reads the table; larger p^e run the Hecke extension
    fam = TauFamily(bound)
    primes = [p for p in primes if p <= bound] or [2]
    assert_table_matches_scalar(fam, primes, exps)


@pytest.mark.parametrize("bound", [50, 400, 1000])
def test_tau_at_every_power_up_to_the_bound(bound):
    # every (p, e) with p^e <= bound reads the table, the last such e too
    assert_table_matches_scalar(TauFamily(bound), primes_up_to(bound), list(range(11)))


@SETTINGS
@given(st.sets(st.tuples(st.sampled_from(PRIMES[:10]), st.integers(1, 6)), min_size=1),
       finite)
def test_table_family_with_gaps(entries, scale):
    fam = TableFamily({(p, e): complex(scale * e, p) for p, e in entries})
    primes = sorted({p for p, _ in entries})
    exps = sorted({e for _, e in entries})
    table_error = None
    try:
        assert_table_matches_scalar(fam, primes, exps)
    except MissingPrimePowerError as exc:
        table_error = str(exc)
    assert table_error == scalar_error(fam, primes, exps)


class TestMissingValues:
    def assert_same_error(self, fam, primes, exps):
        expected = scalar_error(fam, primes, exps)
        assert expected is not None
        with pytest.raises(MissingPrimePowerError) as exc:
            fam.prime_power_table(primes, exps)
        assert str(exc.value) == expected

    def test_hecke_missing_lambda(self):
        fam = HeckeGL2Family({2: 0.5, 3: -1.0, 7: 0.25j})
        self.assert_same_error(fam, [2, 3, 5, 7, 11], [1, 2])

    def test_tau_prime_past_the_bound(self):
        fam = TauFamily(100)
        self.assert_same_error(fam, [2, 97, 101, 103], [1, 3])

    def test_table_gap_at_a_used_exponent(self):
        fam = TableFamily({(2, 1): 1.0, (2, 2): 0.5, (3, 1): 2.0})
        self.assert_same_error(fam, [2, 3], [1, 2])

    def test_no_exponents_asks_for_nothing(self):
        for fam in (HeckeGL2Family({}), TauFamily(100), TableFamily({})):
            assert fam.prime_power_table([2, 101], []).shape == (2, 0)

    def test_exponent_zero_is_one(self):
        fam = TauFamily(100)
        table = fam.prime_power_table([101], [0])
        assert table[0, 0] == fam.prime_power(101, 0) == 1
