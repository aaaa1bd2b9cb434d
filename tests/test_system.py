import json
import random

import pytest

from mdseries.arith import CharacterTable, valuation
from mdseries.cli import main
from mdseries.errors import TwistOverflowError, WorkCapExceeded
from mdseries.lattice import (AddMultiple, Negate, SupportSearch, Swap,
                              apply_row_op, block_compose, express_in_rows,
                              hnf_rows, lattice_contains, negate_system,
                              normalize, permute_columns, support_reducible)
from mdseries.momentlab import MomentExperiment
from mdseries.recombination import (BinOp, CartesianCheck, Const, PolynomialVariety,
                                    Pow, Var, Witness)
from mdseries.series import EvalParams, EvalReport
from mdseries.system import LaurentMonomialSystem, make_system
from mdseries.limits import TWIST_LIMIT
from mdseries.variety import LocalSolutionSet, enumerate_box, monomial_rhs_at


def random_system(rng, tmax=4, mmax=3, amax=3, wmax=6):
    t = rng.randint(1, tmax)
    m = rng.randint(1, mmax)
    rows = []
    for _ in range(m):
        while True:
            row = tuple(rng.randint(-amax, amax) for _ in range(t))
            if any(row):
                break
        rows.append(row)
    return LaurentMonomialSystem(
        t=t, m=m, A=tuple(rows),
        omega=tuple(rng.randint(1, wmax) for _ in range(m)),
        omega_prime=tuple(rng.randint(1, wmax) for _ in range(m)))


def random_op(rng, S):
    kind = rng.randrange(3 if S.m > 1 else 1)
    if kind == 0 or S.m == 1:
        return Negate(rng.randrange(S.m))
    i, j = rng.sample(range(S.m), 2)
    if kind == 1:
        return Swap(i, j)
    return AddMultiple(i, j, rng.choice([-2, -1, 1, 2]))


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            LaurentMonomialSystem(t=2, m=1, A=((1,),), omega=(1,), omega_prime=(1,))
        with pytest.raises(ValueError):
            LaurentMonomialSystem(t=1, m=2, A=((1,), (2,)), omega=(1,), omega_prime=(1, 1))
        with pytest.raises(ValueError, match="^t must be given for a system with no constraints$"):
            make_system([])

    def test_twists_positive(self):
        with pytest.raises(ValueError):
            make_system([[1]], omega=(0,), omega_prime=(1,))

    def test_empty_variety_flag(self):
        assert make_system([[0, 0]], omega=(2,), omega_prime=(3,)).empty_variety_flag
        assert not make_system([[0, 0]], omega=(3,), omega_prime=(3,)).empty_variety_flag
        assert not make_system([[1, 0]], omega=(2,), omega_prime=(3,)).empty_variety_flag

    def test_twist_primes(self):
        S = make_system([[1], [1]], omega=(12, 1), omega_prime=(1, 35))
        assert S.twist_primes() == (2, 3, 5, 7)

    @pytest.mark.parametrize("fields, error, message", [
        ((2, 1, ((1,),), (1,), (1,)), ValueError, "A[0] has 1 entries, expected t=2"),
        ((1, 1, ((1,),), (0,), (1,)), ValueError, "omega[0] must be a positive integer, got 0"),
        ((1, 1, ((1,),), (1,), (TWIST_LIMIT + 1,)), TwistOverflowError,
         "omega_prime[0] exceeds the twist cap"),
        ((-1, 0, (), (), ()), ValueError, "t and m must be nonnegative"),
        ((1, -1, (), (), ()), ValueError, "t and m must be nonnegative"),
        ((1, 1, (), (1,), (1,)), ValueError, "A has 0 rows, expected m=1"),
    ])
    def test_every_constructor_validates(self, fields, error, message):
        # the class offers no _make or _replace that could skip __init__
        names = LaurentMonomialSystem._fields
        for build in (lambda: LaurentMonomialSystem(*fields),
                      lambda: LaurentMonomialSystem(**dict(zip(names, fields)))):
            with pytest.raises(error) as exc:
                build()
            assert str(exc.value) == message
        assert not hasattr(LaurentMonomialSystem, "_make")
        assert not hasattr(LaurentMonomialSystem, "_replace")

    def test_fields_stay_read_only_beside_the_cached_twists(self):
        S = make_system([[1, -1]], omega=(12,), omega_prime=(1,))
        assert S.twist_rhs == {2: (-2,), 3: (-1,)}
        for name in ("A", "twist_rhs", "other"):
            with pytest.raises(AttributeError):
                setattr(S, name, None)
            with pytest.raises(AttributeError):
                delattr(S, name)
        assert S == make_system([[1, -1]], omega=(12,), omega_prime=(1,))
        # a plain class: no tuple of the same values compares equal to it
        assert S != (1, 1, ((1, -1),), (12,), (1,))


# one record of each record class, built from keywords in field order
RECORDS = [
    (CharacterTable, dict(q=3, g=2, log=(-1, 0, 1))),
    (LaurentMonomialSystem, dict(t=1, m=1, A=((2,),), omega=(1,), omega_prime=(4,))),
    (EvalParams, dict(N=10, P=20, B=None)),
    (EvalReport, dict(direct=1 + 0j, euler=1 + 0j, abs_diff=0.0, direct_tail=None,
                      euler_tail=0.5, wall_time=0.25, params=EvalParams(10, 20),
                      warnings=("w",))),
    (LocalSolutionSet, dict(p=2, bound=3, solutions=((1,),))),
    (MomentExperiment, dict(system=make_system([[1, -1]]), families=(), s=(2, 2),
                            q_list=(11, 31), N=10, lhs=1 + 0j, lhs_tail=None,
                            errors=((11, 0.5), (31, 0.25)), eta_hat=0.5,
                            intercept=0.0, stderr=None, residuals=(), warnings=())),
    (Swap, dict(i=0, j=1)),
    (Negate, dict(i=0)),
    (AddMultiple, dict(i=0, j=1, b=-2)),
    (SupportSearch, dict(reducible=True, basis=((1, 0),), coeff_bound=1)),
    (Const, dict(value=5)),
    (Var, dict(index=0)),
    (BinOp, dict(op="-", left=Var(0), right=Const(1))),
    (Pow, dict(base=Var(1), exponent=2)),
    (PolynomialVariety, dict(t=2, constraints=(BinOp("-", Var(0), Var(1)),))),
    (Witness, dict(x=(1, 2), y=(2, 1), choice=((2, "y"),), point=(2, 2))),
    (CartesianCheck, dict(equal=False, point=(1, 2), side="box-only")),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
    def test_record_contract(self, cls, fields):
        rec = cls(**fields)
        assert cls._fields == tuple(fields)
        assert [getattr(rec, name) for name in fields] == list(fields.values())
        # equal fields give equal records, hashed as the tuple of the fields
        twin = cls(*fields.values())
        assert rec == twin and hash(rec) == hash(twin) == hash(tuple(fields.values()))
        args = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(rec) == f"{cls.__name__}({args})"
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        assert rec == twin


class TestTwistRhs:
    # a shared pool, so that twists share primes; two primes past 10^6,
    # so that a twist past 10^12 leaves factorize a composite for rho
    POOL = (2, 3, 5, 7, 101, 1_000_003, 999_999_937)

    def random_twist(self, rng):
        w = 1
        for _ in range(rng.randint(0, 5)):
            p = rng.choice(self.POOL)
            if w * p <= TWIST_LIMIT:
                w *= p
        return w

    def test_against_valuation(self):
        rng = random.Random(1729)
        equal = big = 0
        for _ in range(200):
            m = rng.randint(1, 3)
            omega = [self.random_twist(rng) for _ in range(m)]
            omega_prime = [w if rng.random() < 0.3 else self.random_twist(rng)
                           for w in omega]
            S = make_system([[1]] * m, omega, omega_prime)
            equal += any(w == wp > 1 for w, wp in zip(omega, omega_prime))
            big += any(w > 10**12 for w in omega + omega_prime)
            twists = omega + omega_prime
            primes = [p for p in sorted(self.POOL) if any(w % p == 0 for w in twists)]
            assert list(S.twist_rhs) == primes and S.twist_primes() == tuple(primes)
            for p in primes + [11, 13]:
                want = tuple(valuation(p, wp) - valuation(p, w)
                             for w, wp in zip(omega, omega_prime))
                assert monomial_rhs_at(S, p) == want
                assert S.twist_rhs.get(p, want) == want
        assert equal > 20 and big > 20

    def test_no_rows(self):
        S = make_system([], t=2)
        assert S.twist_rhs == {} and monomial_rhs_at(S, 2) == ()


class TestRowOps:
    def test_unknown_operation(self):
        with pytest.raises(TypeError, match="^unknown row operation 'swap'$"):
            apply_row_op(make_system([[1, -1]]), "swap")

    def test_add_unit_twists(self):
        S = make_system([[1, -1, 0], [0, 1, -1]])
        S2 = apply_row_op(S, AddMultiple(0, 1, 1))
        assert S2.A == ((1, 0, -1), (0, 1, -1))
        assert S2.omega == (1, 1) and S2.omega_prime == (1, 1)

    def test_add_positive_b_twist_update(self):
        S = make_system([[1, -1, 0], [0, 1, -1]], omega=(1, 2), omega_prime=(1, 3))
        S2 = apply_row_op(S, AddMultiple(0, 1, 1))
        assert S2.omega == (2, 2) and S2.omega_prime == (3, 3)

    def test_add_negative_b_twist_update(self):
        S = make_system([[1, -1, 0], [0, 1, -1]], omega=(1, 2), omega_prime=(1, 3))
        S2 = apply_row_op(S, AddMultiple(0, 1, -1))
        assert S2.omega[0] == 3 and S2.omega_prime[0] == 2
        # dividing constraint 0 by constraint 1 preserves the solution set
        assert enumerate_box(S, 30) == enumerate_box(S2, 30)

    def test_swap(self):
        S = make_system([[1, 0], [0, 2]], omega=(1, 2), omega_prime=(3, 4))
        S2 = apply_row_op(S, Swap(0, 1))
        assert S2.A == ((0, 2), (1, 0))
        assert S2.omega == (2, 1) and S2.omega_prime == (4, 3)

    def test_negate_op(self):
        S = make_system([[1, -2]], omega=(2,), omega_prime=(3,))
        S2 = apply_row_op(S, Negate(0))
        assert S2.A == ((-1, 2),) and S2.omega == (3,) and S2.omega_prime == (2,)

    def test_bad_ops(self):
        S = make_system([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            apply_row_op(S, Swap(0, 0))
        with pytest.raises(ValueError):
            apply_row_op(S, AddMultiple(1, 1, 2))

    def test_overflow(self):
        S = make_system([[1, 0], [0, 1]], omega=(1, 2**40), omega_prime=(1, 1))
        with pytest.raises(TwistOverflowError):
            apply_row_op(S, AddMultiple(0, 1, 2))

    def test_solution_set_invariance(self):
        rng = random.Random(2024)
        for _ in range(25):
            S = random_system(rng)
            before = enumerate_box(S, 25)
            cur = S
            for _ in range(rng.randint(1, 6)):
                for _attempt in range(10):
                    try:
                        cur = apply_row_op(cur, random_op(rng, cur))
                        break
                    except TwistOverflowError:
                        continue
            assert enumerate_box(cur, 25) == before


class TestNegateSystem:
    def test_example(self):
        S = make_system([[1, -1]])
        assert negate_system(S).A == ((-1, 1),)

    def test_twist_swap(self):
        S = make_system([[1, 1, -1]], omega=(2,), omega_prime=(3,))
        N = negate_system(S)
        assert N.A == ((-1, -1, 1),)
        assert N.omega == (3,) and N.omega_prime == (2,)

    def test_involution(self):
        S = make_system([[2, -1], [0, 3]], omega=(1, 4), omega_prime=(2, 1))
        assert negate_system(negate_system(S)) == S

    def test_preserves_solutions(self):
        rng = random.Random(5)
        for _ in range(10):
            S = random_system(rng, tmax=3, mmax=2)
            assert enumerate_box(S, 20) == enumerate_box(negate_system(S), 20)


class TestBlockCompose:
    def test_example(self):
        S1 = make_system([[1, -1]])
        S2 = make_system([[2]], omega=(1,), omega_prime=(4,))
        B = block_compose(S1, S2)
        assert B.A == ((1, -1, 0), (0, 0, 2))
        assert B.omega == (1, 1) and B.omega_prime == (1, 4)

    def test_empty_identity(self):
        S = make_system([[1, -1]], omega=(2,), omega_prime=(2,))
        E = LaurentMonomialSystem(t=0, m=0, A=(), omega=(), omega_prime=())
        assert block_compose(S, E) == S
        left = block_compose(E, S)
        assert left.A == S.A and left.omega == S.omega

    def test_solution_set_is_product(self):
        S1 = make_system([[1, -1]])
        S2 = make_system([[2]], omega=(1,), omega_prime=(4,))
        B = block_compose(S1, S2)
        prod = {x + y for x in enumerate_box(S1, 20) for y in enumerate_box(S2, 20)}
        assert set(enumerate_box(B, 20)) == prod


class TestNormalize:
    def test_dependent_row_dropped(self):
        S = make_system([[2, -2], [1, -1]])
        C, ops = normalize(S)
        assert C.A == ((1, -1),)
        assert C.m == 1
        assert ops  # at least the elimination step

    def test_zero_row_conflict_flagged(self):
        S = make_system([[0, 0]], omega=(2,), omega_prime=(3,))
        C, ops = normalize(S)
        assert C.empty_variety_flag
        assert ops == []

    def test_canonical_fixed_point(self):
        S = make_system([[1, -1]])
        C, ops = normalize(S)
        assert C == S and ops == []

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            S = random_system(rng, wmax=2)
            try:
                C, _ = normalize(S)
            except TwistOverflowError:
                continue
            C2, ops2 = normalize(C)
            assert C2 == C and ops2 == []

    def test_preserves_solutions(self):
        rng = random.Random(21)
        for _ in range(20):
            S = random_system(rng, tmax=3, mmax=3, wmax=3)
            try:
                C, _ = normalize(S)
            except TwistOverflowError:
                continue
            if C.empty_variety_flag:
                assert enumerate_box(S, 15) == []
            else:
                assert enumerate_box(C, 15) == enumerate_box(S, 15)

    def test_matrix_matches_plain_hnf_for_unit_twists(self):
        rng = random.Random(31)
        for _ in range(20):
            t = rng.randint(1, 4)
            m = rng.randint(1, 3)
            rows = [tuple(rng.randint(-4, 4) for _ in range(t)) for _ in range(m)]
            S = make_system(rows, t=t)
            C, _ = normalize(S)
            assert [list(r) for r in C.A] == hnf_rows(rows)


def _add(i, j, b):
    return {"op": "add", "i": i, "j": j, "b": b}


class TestNormalizeOpLog:
    """`mds normalize` op logs and results, pinned from the tree before the
    three reductions were merged into one kernel."""

    CASES = {
        "dependent_row_dropped": (
            {"A": [[2, -2], [1, -1]], "omega": ["4", "2"], "omega_prime": ["9", "3"]},
            [_add(0, 1, -2), {"op": "swap", "i": 0, "j": 1}],
            {"A": [[1, -1]], "omega": ["2"], "omega_prime": ["3"]}, 1, False),
        "swap_and_negate": (
            {"A": [[0, 3, 1], [-2, 4, 0]], "omega": ["5", "2"], "omega_prime": ["1", "7"]},
            [{"op": "swap", "i": 0, "j": 1}, {"op": "negate", "i": 0}, _add(0, 1, 2)],
            {"A": [[2, 2, 2], [0, 3, 1]], "omega": ["175", "5"], "omega_prime": ["2", "1"]},
            0, False),
        "conflicting_zero_row": (
            {"A": [[1, -1], [2, -2]], "omega": ["1", "2"], "omega_prime": ["1", "3"]},
            [_add(1, 0, -2)],
            {"A": [[1, -1], [0, 0]], "omega": ["1", "2"], "omega_prime": ["1", "3"]}, 0, True),
    }

    @staticmethod
    def _run(tmp_path, capsys, doc):
        doc = dict(doc, t=len(doc["A"][0]), m=len(doc["A"]))
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        rc = main(["normalize", "--system", str(path)])
        return rc, capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pinned(self, tmp_path, capsys, name):
        doc, ops, system, dropped, empty = self.CASES[name]
        rc, captured = self._run(tmp_path, capsys, doc)
        assert rc == 0
        out = json.loads(captured.out)
        assert out["operations"] == ops
        assert out["system"] == dict(system, t=len(doc["A"][0]), m=len(system["A"]))
        assert out["dropped_rows"] == dropped
        assert out["empty_variety"] is empty

    def test_overflow_message(self, tmp_path, capsys):
        # Negate(0) moves omega_0 = 2 to omega'_0; the next op,
        # AddMultiple(0, 1, 40), makes omega_0 = 1 * 3^40 > 2^63 - 1
        doc = {"A": [[-1, 40], [0, 1]], "omega": ["2", "3"], "omega_prime": ["1", "1"]}
        rc, captured = self._run(tmp_path, capsys, doc)
        assert rc == 1
        assert captured.err.strip() == "mds: twist value 12157665459056928801 exceeds 2^63-1"


class TestPermuteColumns:
    def test_permutes(self):
        S = make_system([[1, 2, 3]])
        P = permute_columns(S, [2, 0, 1])
        assert P.A == ((3, 1, 2),)

    def test_bad_perm(self):
        with pytest.raises(ValueError):
            permute_columns(make_system([[1, 2]]), [0, 0])


class TestSupportReducible:
    def test_already_small_support(self):
        res = support_reducible([[1, -1, 0], [0, 1, -1]], 10)
        assert res.reducible
        for row in res.basis:
            assert sum(1 for x in row if x) <= 2

    def test_zero_rows_need_no_basis(self):
        assert support_reducible([[0, 0], [0, 0]], 5) == \
            SupportSearch(reducible=True, basis=(), coeff_bound=5)

    def test_candidate_in_the_span_is_skipped(self):
        # (0, 2, 2) sorts before (2, 0, 0) and is twice the chosen (0, 1, 1)
        assert support_reducible([[2, 0, 0], [0, 1, 1]], 2).basis == ((0, 1, 1), (2, 0, 0))

    def test_single_row_irreducible(self):
        res = support_reducible([[1, 1, -1]], 10)
        assert not res.reducible and res.basis is None

    def test_two_row_reducible(self):
        res = support_reducible([[1, 1, -1], [0, 0, 1]], 10)
        assert res.reducible
        assert all(sum(1 for x in row if x) <= 2 for row in res.basis)

    def test_basis_generates_row_lattice(self):
        for A in ([[1, -1, 0], [0, 1, -1]], [[1, 1, -1], [0, 0, 1]],
                  [[2, 0, -2], [0, 3, -3]]):
            res = support_reducible(A, 10)
            if not res.reducible:
                continue
            basis = [list(r) for r in res.basis]
            # every original row is an integer combination of the basis
            for row in A:
                coeffs = express_in_rows(row, basis)
                assert coeffs is not None
                rebuilt = [sum(c * b[j] for c, b in zip(coeffs, basis))
                           for j in range(len(row))]
                assert rebuilt == list(row)
            # and every basis vector lies in the original row lattice
            H = hnf_rows(A)
            for b in basis:
                assert lattice_contains(H, b)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            support_reducible([[1, 0]], 0)
        with pytest.raises(ValueError):
            support_reducible([[1, 0]], 21)

    def test_work_cap(self):
        A = [[1] * 3] * 10  # (2*20+1)^10 combinations
        with pytest.raises(WorkCapExceeded):
            support_reducible(A, 20)


class TestLatticeHelpers:
    def test_hnf_canonical(self):
        assert hnf_rows([[2, -2], [1, -1]]) == [[1, -1]]
        assert hnf_rows([[0, 0]]) == []

    def test_hnf_path_independent(self):
        rng = random.Random(17)
        for _ in range(30):
            t = rng.randint(1, 4)
            m = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(t)] for _ in range(m)]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert hnf_rows(rows) == hnf_rows(shuffled)

    def test_express_in_rows(self):
        rows = [[2, 1, 0], [0, 3, -1]]
        coeffs = express_in_rows([4, 5, -1], rows)
        assert coeffs == [2, 1]
        assert express_in_rows([1, 0, 0], rows) is None
