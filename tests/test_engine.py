"""Coefficient pipeline: split terms, combined rational function, delta = 0."""

import json
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from qdyson import engine, latticepoints
from qdyson.cli import formula_from_json
from qdyson.engine import (
    CoefficientQuery,
    coefficient_combined,
    coefficient_split,
    combine_sum,
    constant_term_identity,
    equivalent,
)
from qdyson.errors import UsageError
from qdyson.exactalg import Atom, RationalQZ, Summand, ZqPoly, _Rows
from qdyson.latticepoints import evaluation_set_size
from qdyson.symforms import AffineForm


def rq(n, sign, numer_terms, denom):
    numer = ZqPoly(n, {e: sign * c for e, c in numer_terms.items()})
    return RationalQZ.make(numer, Counter(denom))


def closed_form_one_minus_one():
    # R for delta = (1, -1): -(1 - z1)/(1 - q z2)
    return rq(
        2,
        -1,
        {(0, (0, 0)): 1, (0, (1, 0)): -1},
        {Atom(1, (0, 1)): 1},
    )


def transposition_form(n, r, s):
    """R for delta = e_r - e_s (1-based): -q^[r>s] (1 - z_r) prod_{k in (r, s)} z_k
    / (1 - q prod_{k != r} z_k), where (r, s) is the open cyclic interval
    from r forward to s."""
    between = [0] * n
    for i in range(1, (s - r) % n):
        between[(r - 1 + i) % n] = 1
    e_r = tuple(int(k == r - 1) for k in range(n))
    return RationalQZ.make(
        ZqPoly(n, {(0, (0,) * n): 1, (0, e_r): -1}).mul_monomial((int(r > s), *between), -1),
        Counter({Atom(1, tuple(1 - x for x in e_r)): 1}),
    )


def transposition_r(n, r, s):
    """The engine's R for delta = e_r - e_s under the default shift."""
    delta = tuple((k == r) - (k == s) for k in range(1, n + 1))
    return coefficient_combined(CoefficientQuery(delta=delta)).rational


class TestTranspositionFamily:
    """delta = e_r - e_s past the oracle's reach, against its closed form."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_ordered_pair(self, n):
        for r, s in permutations(range(1, n + 1), 2):
            assert equivalent(transposition_r(n, r, s), transposition_form(n, r, s)), (r, s)

    @pytest.mark.parametrize(
        "n,r,s", [(12, 5, 2), (12, 1, 12), (16, 1, 16), (16, 9, 4), (24, 7, 3), (24, 24, 1)]
    )
    def test_sampled_pairs(self, n, r, s):
        assert equivalent(transposition_r(n, r, s), transposition_form(n, r, s))


PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "formulas.tsv"


def lifted_pinned_r(head, n):
    """The pinned n = 4 R of head with z4 -> z4 z5 .. zn on every exponent
    vector."""
    lines = dict(line.split("\t") for line in PINNED.read_text().splitlines())
    r4 = formula_from_json(json.loads(lines[head]))

    def lift(qe, ze):
        return qe, ze + (ze[-1],) * (n - 4)

    numer = ZqPoly(n, [(lift(qe, ze), c) for (qe, ze), c in r4.numer.items()])
    denom = sorted((Atom(*lift(atom.constant, atom.coeffs)), m) for atom, m in r4.denom)
    return RationalQZ(numer, tuple(denom))


class TestTailFamilies:
    """(1,1,-1,-1,0,..,0) and (1,-2,1,0,..,0) past the oracle's reach: R is
    the n = 4 R with z4 standing for the product z4 .. zn."""

    @pytest.mark.parametrize("head", ["1,1,-1,-1", "1,-2,1,0"])
    @pytest.mark.parametrize("n", [5, 8, 12, 16, 24])
    def test_is_the_lifted_n4_form(self, head, n):
        delta = tuple(map(int, head.split(","))) + (0,) * (n - 4)
        r = coefficient_combined(CoefficientQuery(delta=delta)).rational
        assert r == lifted_pinned_r(head, n)


class TestQuery:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CoefficientQuery(delta=(1, -1), shift="fastest")
        with pytest.raises(ValueError):
            CoefficientQuery(delta=(1, -1), shift=(0,))

    @pytest.mark.parametrize("shift", ["fastest", "auto", (0,), (0, 0, 0)])
    def test_malformed_query_is_a_usage_error(self, shift):
        with pytest.raises(UsageError):
            CoefficientQuery(delta=(1, -1), shift=shift)

    def test_resolve(self):
        assert coefficient_split(CoefficientQuery(delta=(1, -1), shift="zero")).shift_used == (0, 0)
        assert coefficient_split(CoefficientQuery(delta=(1, -1), shift=(0, 3))).shift_used == (0, 3)


class TestConstantTerm:
    def test_is_one(self):
        for n in (1, 2, 3):
            result = constant_term_identity(n)
            assert result.rational == RationalQZ.one(n)
            assert result.point_count == 1


class TestSplit:
    def test_one_minus_one(self):
        split = coefficient_split(CoefficientQuery(delta=(1, -1), shift="zero"))
        assert len(split.terms) == 1
        _, r = split.terms[0]
        assert RationalQZ(r.cleared_numer(), r.denom) == closed_form_one_minus_one()

    def test_unbalanced_delta_is_empty(self):
        split = coefficient_split(CoefficientQuery(delta=(1, 0), shift="zero"))
        assert split.terms == ()

    def test_evaluation_set_budget(self, monkeypatch):
        with pytest.raises(UsageError, match="40,513,501 evaluation points"):
            coefficient_split(CoefficientQuery(delta=(1, -1), shift=(9000, 0)))
        query = CoefficientQuery(delta=(2, -1, -1), shift="zero")
        size = evaluation_set_size(query.delta, (0, 0, 0))
        monkeypatch.setattr(engine, "MAX_POINTS", size)
        assert len(coefficient_split(query).terms) == size
        monkeypatch.setattr(engine, "MAX_POINTS", size - 1)
        with pytest.raises(UsageError):
            coefficient_split(query)

    def test_split_sums_to_combined(self):
        for delta in ((1, -1, 0), (2, -2), (1, 1, -2)):
            n = len(delta)
            query = CoefficientQuery(delta=delta, shift="zero")
            split = coefficient_split(query)
            combined = coefficient_combined(query)
            assert combine_sum([r for _, r in split.terms], n) == combined.rational
            assert combined.point_count == len(split.terms)


class TestSplitWork:
    def test_phi_prime_once_per_grid_value(self, monkeypatch):
        calls = []
        real = engine.phi_prime_flat

        def counted(i, x, grid):
            calls.append((i, x))
            return real(i, x, grid)

        monkeypatch.setattr(engine, "phi_prime_flat", counted)
        split = coefficient_split(CoefficientQuery(delta=(-2, 0, 0, 2), shift="zero"))
        values = {(i, x) for pt, _ in split.terms for i, x in enumerate(pt.alpha)}
        assert len(split.terms) == 36
        assert len(calls) == len(set(calls)) == len(values) < 4 * 36
        assert set(calls) == values

    @pytest.mark.parametrize("shift,sizings", [("best", 0), ("zero", 1), ((0, 1, 1, 1), 1)])
    def test_each_set_is_sized_once(self, monkeypatch, shift, sizings):
        # best_shift returns its search's total, so only a given shift is sized
        calls = []
        real = latticepoints.evaluation_set_size

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (engine, latticepoints):
            monkeypatch.setattr(module, "evaluation_set_size", counted)
        split = coefficient_split(CoefficientQuery(delta=(-2, 0, 0, 2), shift=shift))
        assert len(calls) == sizings
        assert len(split.terms) == evaluation_set_size((-2, 0, 0, 2), split.shift_used)

    def test_cleared_terms_count(self):
        # perfbench's engine.cleared_terms sums these lengths; 253,038 is the
        # count with every summand's numerator expanded first
        split = coefficient_split(CoefficientQuery(delta=(-2, 0, 0, 2), shift="zero"))
        terms = [summand for _, summand in split.terms]
        lcm = Counter()
        for t in terms:
            for atom, mult in t.denom:
                lcm[atom] = max(lcm[atom], mult)
        cleared = [t.cleared_numer(lcm - t.denom_counter()) for t in terms]
        assert sum(len(poly.items()) for poly in cleared) == 253_038


class TestCombined:
    def test_one_minus_one(self):
        result = coefficient_combined(CoefficientQuery(delta=(1, -1), shift="zero"))
        assert equivalent(result.rational, closed_form_one_minus_one())

    def test_unbalanced_is_zero(self):
        result = coefficient_combined(CoefficientQuery(delta=(2, -1), shift="zero"))
        assert result.rational.is_zero()
        assert result.point_count == 0

    def test_shift_invariance(self):
        for delta in ((1, -1), (1, -1, 0), (2, -2), (0, 1, -1)):
            n = len(delta)
            base = coefficient_combined(
                CoefficientQuery(delta=delta, shift="zero")
            ).rational
            for shift in ("best", (1,) * n, tuple(range(n))):
                other = coefficient_combined(
                    CoefficientQuery(delta=delta, shift=shift)
                ).rational
                assert equivalent(base, other), (delta, shift)


def split_summands(delta, shift):
    split = coefficient_split(CoefficientQuery(delta=delta, shift=shift))
    return [(pt.pi, pt.m, s) for pt, s in split.terms]


class TestConstantOffset:
    """Shifts that differ by a constant give the same summands, which lets
    the shift cross-check compare shifts with c_1 = 0 only."""

    BASES = {1: (1,), 2: (0, 1), 3: (0, -1, 1), 4: (0, 0, 1, 0)}

    def test_summands_unchanged(self):
        deltas = [
            d
            for n in (1, 2, 3)
            for d in product(range(-4, 5), repeat=n)
            if sum(d) == 0 and sum(map(abs, d)) <= 4
        ] + [(-2, 0, 0, 2), (1, 0, -1, 0), (2, -2, 0, 0)]
        for delta in deltas:
            base = self.BASES[len(delta)]
            expected = split_summands(delta, base)
            for k in (-2, 1, 3):
                moved = tuple(c + k for c in base)
                assert split_summands(delta, moved) == expected, (delta, k)


def summand(n, sign, numer, denom):
    return Summand(sign, AffineForm.const(n, 0), tuple(numer.items()), tuple(denom.items()))


class TestCombineSum:
    def test_empty(self):
        assert combine_sum([], 2) == RationalQZ.zero(2)

    def test_single_term_unchanged(self):
        # -(1 - z1)/(1 - q z2)
        s = summand(2, -1, {Atom(0, (1, 0)): 1}, {Atom(1, (0, 1)): 1})
        assert combine_sum([s], 2) == closed_form_one_minus_one()

    def test_cancelling_pair(self):
        s = summand(2, -1, {Atom(0, (1, 0)): 1}, {Atom(1, (0, 1)): 1})
        neg = summand(2, 1, {Atom(0, (1, 0)): 1}, {Atom(1, (0, 1)): 1})
        assert combine_sum([s, neg], 2).is_zero()

    def test_common_denominator(self):
        # 1/(1-qz1) + 1/(1-qz2) = (2 - qz1 - qz2)/((1-qz1)(1-qz2))
        t1 = summand(2, 1, {}, {Atom(1, (1, 0)): 1})
        t2 = summand(2, 1, {}, {Atom(1, (0, 1)): 1})
        total = combine_sum([t1, t2], 2)
        expected = rq(
            2,
            1,
            {(0, (0, 0)): 2, (1, (1, 0)): -1, (1, (0, 1)): -1},
            {Atom(1, (1, 0)): 1, Atom(1, (0, 1)): 1},
        )
        assert total == expected

    def test_shared_numerator_atom(self):
        # (1 - z1)/(1 - q z2) + (1 - z1) z2/(1 - q z2) = (1 - z1)(1 + z2)/(1 - q z2)
        t1 = summand(2, 1, {Atom(0, (1, 0)): 1}, {Atom(1, (0, 1)): 1})
        t2 = Summand(1, AffineForm(0, (0, 1)), ((Atom(0, (1, 0)), 1),), ((Atom(1, (0, 1)), 1),))
        expected = rq(
            2,
            1,
            {(0, (0, 0)): 1, (0, (1, 0)): -1, (0, (0, 1)): 1, (0, (1, 1)): -1},
            {Atom(1, (0, 1)): 1},
        )
        assert combine_sum([t1, t2], 2) == expected

    def test_sum_packs_z_n_with_q(self):
        # the combine's sum keeps one row per monomial in z_1..z_(n-1), q and
        # z_n packed into its int: 326 rows here, against the 897 that one
        # int per z-monomial needs
        terms = [s for _, s in coefficient_split(CoefficientQuery((-2, 0, 0, 2), "zero")).terms]
        lcm = Counter()
        for t in terms:
            for atom, mult in t.denom:
                lcm[atom] = max(lcm[atom], mult)
        rows = _Rows(4, [t.cleared(lcm - t.denom_counter()) for t in terms])
        zexps = [z for (_, z), _ in rows.poly().items()]
        assert len(rows.rows) == len({z[:-1] for z in zexps}) == 326
        assert len(set(zexps)) == 897


class TestEquivalent:
    def test_reflexive(self):
        r = closed_form_one_minus_one()
        assert equivalent(r, r)

    def test_detects_difference(self):
        r = closed_form_one_minus_one()
        other = rq(2, 1, {(0, (0, 0)): 1}, {})
        assert not equivalent(r, other)

    def test_cross_cancelled_forms(self):
        # (1 - q^2 z1^2)/(1 + q z1) == 1 - q z1
        lhs = RationalQZ(ZqPoly(1, {(0, (0,)): 1, (2, (2,)): -1}), ())
        # fold the (1 + q z1) factor into the comparison by equivalence with
        # its product against (1 - q z1)
        one_plus = ZqPoly(1, {(0, (0,)): 1, (1, (1,)): 1})
        prod = RationalQZ.make(one_plus.mul_atom(Atom(1, (1,))), {})
        assert equivalent(lhs, prod)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            equivalent(RationalQZ.one(1), RationalQZ.one(2))
