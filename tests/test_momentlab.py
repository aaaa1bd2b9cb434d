import cmath
import collections
import itertools
import math
import pickle
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mdseries import coefficients, limits, momentlab
from mdseries.arith import _unit_roots, character_table
from mdseries.coefficients import (CharacterFamily, HeckeGL2Family, TauFamily,
                                   TrivialFamily, trivial_tuple)
from mdseries.errors import MissingPrimePowerError, WorkCapExceeded
from mdseries.lattice import negate_system
from mdseries.momentlab import MomentExperiment, decay_experiment, moment_rhs
from mdseries.series import EMPTY_VARIETY_WARNING, direct_sum_and_half
from mdseries.system import LaurentMonomialSystem, make_system

DIAG = make_system([[1, -1]])
TRIV2 = trivial_tuple(2)


def truncated_twisted_L(f, table, k, s, N):
    """Oracle: sum_{n <= N} lambda(n) chi_k(n) n^{-s}, term by term; terms
    with q | n vanish."""
    total = 0j
    for n in range(1, N + 1):
        chi = table.char_value(k, n)
        if chi != 0:
            total += chi * f.value(n) * n ** (-complex(s))
    return total


def naive_moment_rhs(S, families, s, q, N):
    """Oracle: the character-tuple average with every twisted L-sum summed
    term by term, prod_j L_N(s_j, prod_i chi_i^{a_ij}) times
    prod_i chi_i(w_i) conj(chi_i(w'_i))."""
    table = character_table(q)
    order = q - 1
    total = 0j
    for ks in itertools.product(range(order), repeat=S.m):
        term = 1 + 0j
        for k, w, wp in zip(ks, S.omega, S.omega_prime):
            term *= table.char_value(k, w) * table.char_value(k, wp).conjugate()
        for j in range(S.t):
            K = sum(k * S.A[i][j] for i, k in enumerate(ks))
            term *= truncated_twisted_L(families[j], table, K, s[j], N)
        total += term
    return total / order**S.m


def oracle_terms(f, s, N):
    """Oracle: lambda(n) n^{-s} for every n <= N at once, n^{-s} by numpy's
    complex exp, its real part when s is real, as momentlab makes it
    (numpy's real exp follows its SIMD dispatch), times lambda(n) by
    Python's complex product."""
    n = np.arange(1, N + 1)
    s = complex(s)
    terms = np.exp(-s * np.log(n))
    if s.imag == 0:
        terms = terms.real
    if not isinstance(f, TrivialFamily):
        terms = np.array([z * f.value(k) for k, z in enumerate(terms.tolist(), 1)],
                         dtype=complex)
    return terms


def loop_class_sums(f, table, s, N):
    """Oracle: T[a] = sum of lambda(n) n^{-s} over n <= N with
    log(n mod q) = a, by bincount over the discrete-log classes of
    oracle_terms."""
    q = table.q
    n = np.arange(1, N + 1)
    terms = oracle_terms(f, s, N)
    classes = np.asarray(table.log)[n % q]
    keep = classes >= 0
    classes = classes[keep]
    re = np.bincount(classes, weights=terms.real[keep], minlength=q - 1)
    im = np.bincount(classes, weights=terms.imag[keep], minlength=q - 1)
    return (re + 1j * im).tolist()


def loop_moment_rhs(S, families, s, q, N):
    """Oracle: the character-tuple average by Python loops, each L(j, K) a
    sum of q - 1 class-sum terms and every tuple visited in turn; m = 0 is
    the product of the plain sums."""
    s = tuple(complex(z) for z in s)
    if S.m == 0:
        out = 1 + 0j
        for fam, z in zip(families, s):
            out *= sum(n ** (-z) * fam.value(n) for n in range(1, N + 1))
        return out
    table = character_table(q)
    order = q - 1
    roots = _unit_roots(order)
    T = [loop_class_sums(fam, table, z, N) for fam, z in zip(families, s)]
    L = [[sum(roots[(K * a) % order] * Tj[a] for a in range(order)) for K in range(order)]
         for Tj in T]
    delta = [(table.log_of(w) - table.log_of(wp)) % order
             for w, wp in zip(S.omega, S.omega_prime)]
    total = 0j
    for ks in itertools.product(range(order), repeat=S.m):
        term = roots[sum(k * d for k, d in zip(ks, delta)) % order]
        for j in range(S.t):
            term *= L[j][sum(k * row[j] for k, row in zip(ks, S.A)) % order]
        total += term
    return total / order**S.m


def congruence_sum(S, families, s, q, N):
    """Oracle: the orthogonality-filtered sum over box tuples coprime to q
    satisfying omega_i * prod n_j^a_ij = omega'_i (mod q) for every i."""
    total = 0j
    for point in itertools.product(range(1, N + 1), repeat=S.t):
        if any(n % q == 0 for n in point):
            continue
        ok = True
        for i in range(S.m):
            lhs = S.omega[i] % q
            for a, n in zip(S.A[i], point):
                lhs = lhs * pow(n, a % (q - 1) if a < 0 else a, q) % q
            if lhs != S.omega_prime[i] % q:
                ok = False
                break
        if not ok:
            continue
        term = 1 + 0j
        for fam, z, n in zip(families, s, point):
            term *= fam.value(n) * n ** (-complex(z))
        total += term
    return total


class TestTruncatedTwistedL:
    def test_principal_mod5(self):
        tb = character_table(5)
        v = truncated_twisted_L(TrivialFamily(), tb, 0, 2, 4)
        assert v == pytest.approx(1 + 1 / 4 + 1 / 9 + 1 / 16)

    def test_principal_drops_multiples(self):
        tb = character_table(5)
        v = truncated_twisted_L(TrivialFamily(), tb, 0, 2, 5)
        assert v == pytest.approx(1 + 1 / 4 + 1 / 9 + 1 / 16)

    def test_legendre_mod3(self):
        tb = character_table(3)
        v = truncated_twisted_L(TrivialFamily(), tb, 1, 2, 2)
        assert v == pytest.approx(0.75)

    def test_tau_family_term_oracle(self):
        tb = character_table(5)
        fam = TauFamily(1000)
        got = truncated_twisted_L(fam, tb, 0, 2, 1000)
        want = sum(fam.value(n) * n**-2.0 for n in range(1, 1001) if n % 5)
        assert got == pytest.approx(want, abs=1e-12)


HECKE_LAMBDA = {p: 0.3 * ((p * 7) % 11 - 5) for p in range(2, 400)}
HECKE = HeckeGL2Family(HECKE_LAMBDA)
# (system, families, s, q, N): the systems of test_matches_naive_twisted_L_average,
# with tau, Hecke and character families at m = 1 and 2
MOMENT_CASES = [
    (DIAG, TRIV2, (2, 2), 11, 300),
    (make_system([[1, -2]], omega=(2,), omega_prime=(3,)),
     (TauFamily(1000), HECKE), (2.5 + 1j, 2), 7, 250),
    (make_system([[1, 1, -1], [0, 2, 1]], omega=(4, 1), omega_prime=(1, 5)),
     (TrivialFamily(), CharacterFamily(character_table(13), 5), HECKE),
     (2, 3, 2.5), 7, 120),
]


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


class TestMomentRhs:
    def test_matches_naive_twisted_L_average(self):
        hecke = HeckeGL2Family({p: 0.3 * ((p * 7) % 11 - 5) for p in range(2, 400)})
        cases = [
            (DIAG, TRIV2, (2, 2), 11, 300),
            (make_system([[1, -2]], omega=(2,), omega_prime=(3,)),
             (TauFamily(1000), hecke), (2.5 + 1j, 2), 7, 250),
            (make_system([[1, 1, -1], [0, 2, 1]], omega=(4, 1), omega_prime=(1, 5)),
             (TrivialFamily(), CharacterFamily(character_table(13), 5), hecke),
             (2, 3, 2.5), 7, 120),
        ]
        for S, fams, s, q, N in cases:
            got = moment_rhs(S, fams, s, q, N)
            want = naive_moment_rhs(S, fams, s, q, N)
            assert abs(got - want) < 1e-12, (S, q, N)

    @pytest.mark.parametrize("m", [1, 0])
    def test_overflow_is_one_error(self, recwarn, m):
        # n^400 passes float64 from n = 6 on, so the class sums and the plain
        # sums hold inf, which _fsum reports; no numpy warning escapes
        S = DIAG if m else LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        with pytest.raises(OverflowError, match="^the sum overflows float64$"):
            moment_rhs(S, TRIV2, (-400, -400), 7, 100)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_hand_expanded_q3(self):
        v = moment_rhs(DIAG, TRIV2, (2, 2), 3, 2)
        assert v == pytest.approx(1.0625, abs=1e-12)

    def test_matches_congruence_sum_small(self):
        rng = random.Random(77)
        for _ in range(12):
            t = rng.randint(1, 2)
            m = rng.randint(1, 2)
            rows = []
            for _ in range(m):
                while True:
                    row = tuple(rng.randint(-2, 2) for _ in range(t))
                    if any(row):
                        break
                rows.append(row)
            S = LaurentMonomialSystem(
                t=t, m=m, A=tuple(rows),
                omega=tuple(rng.choice([1, 2, 4]) for _ in range(m)),
                omega_prime=tuple(rng.choice([1, 2, 5]) for _ in range(m)))
            q = rng.choice([3, 7, 11])
            if any(w % q == 0 for w in S.omega + S.omega_prime):
                continue
            N = rng.randint(2, q - 1)
            fams = trivial_tuple(t)
            s = tuple(2.0 for _ in range(t))
            assert moment_rhs(S, fams, s, q, N) == pytest.approx(
                congruence_sum(S, fams, s, q, N), abs=1e-12)

    def test_exact_reconstruction_across_moduli(self):
        for q in (11, 31, 101):
            N = q - 1
            got = moment_rhs(DIAG, TRIV2, (2, 2), q, N)
            want = congruence_sum(DIAG, TRIV2, (2, 2), q, N)
            assert got == pytest.approx(want, abs=1e-12)

    def test_twisted_congruence(self):
        S = make_system([[1, -1]], omega=(2,), omega_prime=(1,))
        got = moment_rhs(S, TRIV2, (2, 2), 3, 8)
        want = congruence_sum(S, TRIV2, (2, 2), 3, 8)
        assert got == pytest.approx(want, abs=1e-12)

    def test_m0_product_of_plain_sums(self):
        S = LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        got = moment_rhs(S, TRIV2, (2, 3), 7, 40)
        want = (sum(n**-2.0 for n in range(1, 41))
                * sum(n**-3.0 for n in range(1, 41)))
        assert got == pytest.approx(want, abs=1e-13)

    def test_conjugation_relabeling_symmetry(self):
        # replacing every chi by its conjugate with twists swapped is the
        # negated system; the average is invariant
        S = make_system([[1, -1]], omega=(2,), omega_prime=(5,))
        a = moment_rhs(S, TRIV2, (2, 2), 7, 30)
        b = moment_rhs(negate_system(S), TRIV2, (2, 2), 7, 30)
        assert a == pytest.approx(b, abs=1e-12)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            moment_rhs(DIAG, TRIV2, (2, 2), 9, 5)
        S = make_system([[1, -1]], omega=(3,), omega_prime=(1,))
        with pytest.raises(ValueError):
            moment_rhs(S, TRIV2, (2, 2), 3, 5)

    def test_tuple_cap(self):
        S = make_system([[1, -1], [1, 1]])
        with pytest.raises(WorkCapExceeded):
            moment_rhs(S, TRIV2, (2, 2), 1009, 5)

    @pytest.mark.parametrize("case", range(len(MOMENT_CASES)))
    def test_matches_loop_oracle(self, case):
        S, fams, s, q, N = MOMENT_CASES[case]
        conj = tuple(complex(z).conjugate() for z in s)
        for system, point in ((S, s), (S, conj), (negate_system(S), s)):
            assert_close(moment_rhs(system, fams, point, q, N),
                         loop_moment_rhs(system, fams, point, q, N))

    def test_matches_loop_oracle_m0(self):
        # the oracle sums in sequence, moment_rhs correctly rounded
        S = LaurentMonomialSystem(t=3, m=0, A=(), omega=(), omega_prime=())
        fams = (TauFamily(1000), HECKE, CharacterFamily(character_table(13), 5))
        for s in ((2.5 + 1j, 2, 3), (2.5 - 1j, 2, 3)):
            assert_close(moment_rhs(S, fams, s, 7, 300), loop_moment_rhs(S, fams, s, 7, 300))

    def test_conjugation_of_real_families(self):
        # with real coefficients, conjugating s conjugates every L-sum and
        # relabels chi -> conj(chi), so the average is conjugated
        S = make_system([[1, -2], [1, 1]], omega=(2, 1), omega_prime=(3, 5))
        fams = (TauFamily(1000), HECKE)
        s = (2.5 + 1j, 2 - 0.5j)
        a = moment_rhs(S, fams, s, 13, 200)
        b = moment_rhs(S, fams, tuple(z.conjugate() for z in map(complex, s)), 13, 200)
        assert_close(b, a.conjugate())
        assert_close(a, loop_moment_rhs(S, fams, s, 13, 200))

    def test_twisted_m2_against_loop_oracle(self):
        S = make_system([[1, 1, -1, 0], [0, 1, 1, -1]], omega=(6, 5), omega_prime=(1, 3))
        fams = (TrivialFamily(), CharacterFamily(character_table(7), 2), HECKE,
                TauFamily(1000))
        assert_close(moment_rhs(S, fams, (2, 2, 2, 2), 31, 300),
                     loop_moment_rhs(S, fams, (2, 2, 2, 2), 31, 300))

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunk_size_keeps_bits(self, chunk):
        S, fams, s, q, N = MOMENT_CASES[2]
        want = moment_rhs(S, fams, s, q, N)
        with mock.patch.object(limits, "CHUNK", chunk):
            assert moment_rhs(S, fams, s, q, N) == want

    def test_exact_reconstruction_q997_m2(self):
        # 996^2 tuples, just under the cap; N < q, so the average is exactly
        # the congruence-filtered box sum
        S = make_system([[1, -1, 0], [0, 1, -1]], omega=(2, 3), omega_prime=(1, 1))
        fams = (TrivialFamily(), HECKE, CharacterFamily(character_table(13), 5))
        s, q, N = (2, 2.5, 3), 997, 40
        assert (q - 1) ** S.m <= momentlab.MOMENT_TUPLE_CAP < (1009 - 1) ** S.m
        want = congruence_sum(S, fams, s, q, N)
        assert want != 0
        assert abs(moment_rhs(S, fams, s, q, N) - want) < 1e-12


class TestDecayExperiment:
    def test_warnings_default_to_empty(self):
        fields = dict(system=DIAG, families=TRIV2, s=(2, 2), q_list=(11,), N=10,
                      lhs=1 + 0j, lhs_tail=None, errors=((11, 0.5),), eta_hat=None,
                      intercept=None, stderr=None, residuals=())
        exp = MomentExperiment(**fields)
        assert exp.warnings == () and exp.to_dict()["warnings"] == []
        assert exp._replace(warnings=("w",)) == MomentExperiment(**fields, warnings=("w",))

    def test_diagonal_errors_decay(self):
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31, 101], 10**4)
        errs = [e for _, e in exp.errors]
        assert errs[0] > errs[1] > errs[2]
        assert exp.eta_hat is not None and exp.eta_hat > 0.5
        assert len(exp.residuals) == 3

    def test_m0_zero_errors(self):
        # the plain sum and the direct-sum reference follow one summation
        # rule over the same terms, so they agree to the bit
        S = LaurentMonomialSystem(t=1, m=0, A=(), omega=(), omega_prime=())
        exp = decay_experiment(S, trivial_tuple(1), (2,), [11, 31], 200)
        assert all(e == 0 for _, e in exp.errors)
        assert exp.eta_hat is None

    def test_m0_has_no_fit(self):
        # at m = 0 the errors are rounding of the same box sum, equal at
        # every q: no fit is made, one warning says why, and no floor applies
        S = LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        fams = (TauFamily(), CharacterFamily(character_table(7), 2))
        doc = decay_experiment(S, fams, (2, 2.5 + 1j), [11, 31], 5000).to_dict()
        assert 0 < doc["errors"]["11"] == doc["errors"]["31"] < 1e-15
        assert (doc["eta_hat"], doc["intercept"], doc["stderr"], doc["residuals"]) == (
            None, None, None, [])
        assert doc["warnings"] == [
            "no decay fit at m = 0: the moment is the direct sum over the same box, "
            "so its error against that sum is rounding only"]

    def test_two_moduli_have_no_stderr(self):
        # a line through two points leaves no residual to estimate it by
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31], 5000)
        assert exp.eta_hat > 0.5 and exp.intercept is not None
        assert exp.stderr is None and len(exp.residuals) == 2
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31, 101], 5000)
        assert exp.stderr > 0 and not any("m = 0" in w for w in exp.warnings)

    def test_one_positive_error_has_no_fit(self):
        # one modulus gives no line to fit; a warning says why the fit is null
        no_fit = ("no decay fit: a fit needs two moduli with a positive error, "
                  "and 1 of 1 have one")
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11], 100)
        assert exp.errors[0][1] > 0
        assert (exp.eta_hat, exp.intercept, exp.stderr, exp.residuals) == (
            None, None, None, ())
        assert exp.warnings == (no_fit,)
        # the benchmark's diag-moment job fits, and warns of nothing
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31, 101], 100000)
        assert exp.eta_hat is not None and exp.warnings == ()

    def test_diagonal_shift_system(self):
        S = make_system([[1, -1]], omega=(1,), omega_prime=(2,))
        exp = decay_experiment(S, TRIV2, (2, 2), [11, 31, 101], 5000)
        errs = [e for _, e in exp.errors]
        assert errs[0] > errs[-1]
        assert exp.eta_hat > 0

    def test_reference_tail_warning(self):
        # moduli above N leave only rounding error, far below the tail
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [211, 223], 200)
        assert any(w.startswith("reference tail ") and "exceeds a tenth of the smallest error"
                   in w for w in exp.warnings)

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_experiment(DIAG, TRIV2, (2, 2), [31, 11], 100)
        with pytest.raises(ValueError):
            decay_experiment(DIAG, TRIV2, (2, 2), [12], 100)
        with pytest.raises(ValueError, match="q_list is empty"):
            decay_experiment(DIAG, TRIV2, (2, 2), [], 100)

    def test_serialization(self):
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31], 500)
        doc = exp.to_dict()
        assert set(doc["errors"]) == {"11", "31"}
        rows = exp.csv_rows()
        assert rows[0] == ("q", "error") and len(rows) == 3

    def test_reference_is_the_direct_sum(self):
        S, fams, s = MOMENT_CASES[1][:3]
        exp = decay_experiment(S, fams, s, [11, 31], 300)
        direct, half = direct_sum_and_half(S, fams, s, 300)
        assert exp.lhs == direct
        assert exp.lhs_tail == abs(direct - half)

    def test_reference_warnings(self):
        S = make_system([[1, -1], [0, 0]], omega=(1, 2), omega_prime=(1, 3))
        exp = decay_experiment(S, TRIV2, (2, 2), [11, 31], 200)
        assert exp.lhs == 0 and EMPTY_VARIETY_WARNING in exp.warnings
        # the twist prime 1009 is above N/2: no Euler product, so no
        # Euler-tail warning and no prime-bound error
        S = make_system([[1, -1]], omega_prime=(1009,))
        exp = decay_experiment(S, TRIV2, (2, 2), [11, 31], 1500)
        assert exp.lhs == pytest.approx(1009.0 ** -2, rel=1e-15)
        assert not any("euler" in w for w in exp.warnings)
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11], 1)
        assert exp.lhs_tail is None
        assert exp.warnings == (
            "direct tail estimate skipped: N < 2 leaves the N/2 box empty",
            "no decay fit: a fit needs two moduli with a positive error, and 0 of 1 have one")

    def test_family_values_once_per_job(self):
        # a family keeps no values, so each pass of the job factors each n it
        # reads once: the class-sum pass every n <= N, once for all three
        # moduli, and the reference direct sum each coordinate its box reaches
        N = 400
        S = make_system([[1, -1]], omega=(2,), omega_prime=(3,))
        fams = (TrivialFamily(), HECKE)
        seen = []
        factor_levels = coefficients.factor_levels

        def factored():
            got = collections.Counter(np.concatenate(seen).tolist())
            seen.clear()
            return got

        with mock.patch.object(coefficients, "factor_levels",
                               lambda n: seen.append(np.array(n)) or factor_levels(n)):
            direct_sum_and_half(S, fams, (2, 2), N)
            direct = factored()
            decay_experiment(S, fams, (2, 2), [11, 31, 101], N)
            assert factored() == collections.Counter(range(1, N + 1)) + direct
        assert set(direct.values()) == {1} and 0 < len(direct) < N

    def test_empirical_error_envelope(self):
        # measured envelope, not a guarantee: diagonal errors sit below 10/q
        exp = decay_experiment(DIAG, TRIV2, (2, 2), [11, 31, 101], 10**4)
        for q, e in exp.errors:
            assert e < 10 / q


# real lambda(p) below 100 and complex above, so a chunk of at most 100
# integers from n = 1 has real terms (at real s) and a later chunk does not
MIXED = HeckeGL2Family({p: 0.3 * ((p * 7) % 11 - 5) + 0.2j * (p > 100) for p in range(2, 400)})
# (system, families, s, moduli, N): the class-sum pass serves every modulus
# of the tuple, moment_rhs runs at the first; no N is a multiple of 7 or 100
CHUNK_CASES = [
    (DIAG, (TrivialFamily(), MIXED), (2, 2.5), (11, 31, 101), 250),
    (make_system([[1, -2]], omega=(2,), omega_prime=(3,)),
     (TauFamily(1000), HECKE), (2.5 + 1j, 2), (7, 13), 333),
    (make_system([[1, 1, -1], [0, 2, 1]], omega=(4, 1), omega_prime=(1, 5)),
     (TrivialFamily(), CharacterFamily(character_table(13), 5), MIXED),
     (2, 3 - 0.5j, 2.5), (7, 11), 222),
]


def residue_sums(T, table):
    """The oracle's class sums by discrete log, indexed by residue as
    momentlab's are; residue 0 holds 0."""
    x = np.zeros(table.q, dtype=complex)
    x[1:] = np.asarray(T)[np.asarray(table.log[1:])]
    return x


class TestClassSumPass:
    @pytest.mark.parametrize("chunk", [1, 7, 100, 4096])
    @pytest.mark.parametrize("case", range(len(CHUNK_CASES)))
    def test_chunks_keep_the_oracle_bits(self, case, chunk):
        S, fams, s, qs, N = CHUNK_CASES[case]
        s = tuple(map(complex, s))
        with mock.patch.object(limits, "CHUNK", chunk):
            sums = momentlab._class_sums(fams, s, N, qs)
            rhs = moment_rhs(S, fams, s, qs[0], N)
        for q in qs:
            table = character_table(q)
            oracle = [residue_sums(loop_class_sums(f, table, z, N), table)
                      for f, z in zip(fams, s)]
            for got, want in zip(sums[q], oracle):
                assert got.astype(complex)[1:].tobytes() == want[1:].tobytes()
            if q == qs[0]:
                want = momentlab._average(S, oracle, q)
                assert (rhs.real.hex(), rhs.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert moment_rhs(S, fams, s, qs[0], N) == rhs

    @pytest.mark.parametrize("chunk", [1, 7, 100, 4096])
    @pytest.mark.parametrize("case", range(len(CHUNK_CASES)))
    def test_m0_product_keeps_the_oracle_bits(self, case, chunk):
        # each plain sum is math.fsum of the oracle terms, part by part, and
        # the product runs in family order from 1 + 0j
        _, fams, s, _, N = CHUNK_CASES[case]
        m0 = LaurentMonomialSystem(t=len(fams), m=0, A=(), omega=(), omega_prime=())
        want = 1 + 0j
        for f, z in zip(fams, s):
            terms = oracle_terms(f, z, N)
            want *= complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
        with mock.patch.object(limits, "CHUNK", chunk):
            got = moment_rhs(m0, fams, s, 7, N)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("z", [2, 1.3, 2 + 0.5j])
    def test_terms_are_libm_powers(self, z):
        # numpy's real exp misrounds some of these on AVX-512; series._exp
        # takes its complex one, which gives libm's bits
        z, n = complex(z), np.arange(1, 5001)
        got = momentlab._terms(TrivialFamily(), z, n, np.log(n))
        want = np.array([cmath.exp(-z * math.log(k)) for k in n.tolist()])
        if not z.imag:
            want = want.real
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_real_chunks_then_complex(self):
        # at chunk 100 the first chunk of MIXED's terms is real, a later one
        # complex, so its class sums turn complex part way through the pass
        first = np.array([MIXED.value(n) for n in range(1, 101)])
        assert not first.imag.any()
        with mock.patch.object(limits, "CHUNK", 100):
            sums = momentlab._class_sums((TrivialFamily(), MIXED), (2 + 0j, 2 + 0j), 250, (11,))
        assert sums[11][0].dtype == np.float64 and sums[11][1].imag.any()

    @pytest.mark.parametrize("m", [1, 0], ids=["class sums", "m = 0"])
    def test_missing_value_names_its_column(self, m):
        S = DIAG if m else LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        with pytest.raises(MissingPrimePowerError, match=r"^coefficients\[1\]: no lambda\(3\) "
                                                         r"supplied for hecke_gl2 family$"):
            moment_rhs(S, (TrivialFamily(), HeckeGL2Family({2: 0.5})), (2, 2), 11, 10)

    def test_moment_pass_leaves_the_memo_empty(self):
        # a family keeps no memo: moment_rhs (twisted and m = 0) and the
        # class-sum pass of a decay experiment leave its attributes as they were
        hecke, tau = HeckeGL2Family(HECKE_LAMBDA), TauFamily(1000)
        hecke.value(6)
        before = [pickle.dumps(vars(f)) for f in (hecke, tau)]
        m0 = LaurentMonomialSystem(t=2, m=0, A=(), omega=(), omega_prime=())
        for S in (make_system([[1, -2]], omega=(2,), omega_prime=(3,)), m0):
            moment_rhs(S, (tau, hecke), (2.5 + 1j, 2), 7, 300)
        decay_experiment(DIAG, (tau, hecke), (2, 2), [11, 31], 300)
        assert [pickle.dumps(vars(f)) for f in (hecke, tau)] == before
        assert not any(hasattr(f, "_memo") for f in (hecke, tau))

    def test_memory_does_not_grow_with_N(self):
        # N-long arrays would add 2 MiB a family at N = 2^18
        def peak(N):
            tracemalloc.start()
            try:
                momentlab._class_sums((TrivialFamily(), CharacterFamily(character_table(7), 2)),
                                      (2 + 0j, 2 + 1j), N, (11, 31, 101))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1 << 15), peak(1 << 18)
        assert abs(large - small) < 16 * 1024, (small, large)
