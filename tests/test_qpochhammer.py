"""Symbolic q-Pochhammer rewriting, grid derivatives, and normalization."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdyson.engine import CoefficientQuery, coefficient_split
from qdyson.errors import InternalInconsistency, MixedSign
from qdyson.exactalg import Atom, QPoly, RationalQZ, ZqPoly, equal_as_rational, substitute_z
from qdyson.qpochhammer import (
    GridSpec,
    QExpr,
    _normalize,
    evaluate_product_at_point,
    normalize_to_rational,
    phi_prime_at_point,
    phi_prime_flat,
    point_summand,
    q_multinomial_numeric,
    q_multinomial_symbols,
    q_pochhammer_numeric,
    rewrite_pochhammer,
)
from qdyson.latticepoints import enumerate_evaluation_set, evaluation_set_size, make_grid
from qdyson.oracle import zero_sum_deltas
from qdyson.symforms import AffineForm, QuadForm, _pairs


def a1(n=1):
    return AffineForm.param(n, 0)


def a2():
    return AffineForm.param(2, 1)


def const(n, v):
    return AffineForm.const(n, v)


def direct_product(av, a):
    """The cleared q-Dyson product at x_i = q^{av_i}, straight from its
    definition: every pair factor times x_j^{a_i} x_i^{a_j}."""
    n = len(a)
    out = QPoly.one()
    for i in range(n):
        for j in range(i + 1, n):
            out = out * q_pochhammer_numeric(av[i] - av[j], a[i])
            out = out * q_pochhammer_numeric(av[j] - av[i] + 1, a[j])
            out = out.shift(av[j] * a[i] + av[i] * a[j])
    return out


def assert_matches_direct_product(alpha, a_values):
    expr = evaluate_product_at_point(alpha)
    for a in a_values:
        av = [f.evaluate(a) for f in alpha]
        assert equal_as_rational(
            expr.evaluate_numeric(a), (direct_product(av, a), QPoly.one())
        ), a


def evaluation_points(deltas):
    """Every point of each delta's evaluation set, zero and best shift."""
    for delta in deltas:
        for policy in ("zero", "best"):
            shift = coefficient_split(CoefficientQuery(delta=delta, shift=policy)).shift_used
            points = enumerate_evaluation_set(delta, shift).points
            name = ",".join(map(str, delta))
            for k, pt in enumerate(points):
                yield pytest.param(pt.alpha, id=f"{name}-{policy}-{k}")


EVALUATION_POINTS = list(
    evaluation_points([(2, -1, -1), (0, -2, 2), (1, 1, -1, -1), (-2, 0, 0, 2)])
)


class TestNumericPochhammer:
    def test_basic(self):
        assert q_pochhammer_numeric(1, 2) == QPoly({0: 1, 1: -1}) * QPoly({0: 1, 2: -1})

    def test_laurent(self):
        assert q_pochhammer_numeric(-1, 1) == QPoly({0: 1, -1: -1})

    def test_vanishing(self):
        assert q_pochhammer_numeric(0, 3).is_zero()

    def test_matches_schoolbook_product(self):
        # every window [e, e+f-1] with e in [-6, 6] and f <= 10, the zero
        # windows (those that hold 1 - q^0) included
        for e, f in product(range(-6, 7), range(11)):
            expected = Counter({0: 1})
            for t in range(e, e + f):
                step = Counter()
                for k, c in expected.items():
                    step[k] += c
                    step[k + t] -= c
                expected = step
            got = q_pochhammer_numeric(e, f)
            assert got == QPoly(expected)
            assert got.is_zero() == (e <= 0 < e + f)
        with pytest.raises(ValueError):
            q_pochhammer_numeric(1, -1)


class TestMultinomialNumeric:
    def test_pair(self):
        assert q_multinomial_numeric((1, 1)) == QPoly({0: 1, 1: 1})

    def test_with_zero(self):
        assert q_multinomial_numeric((0, 4)) == QPoly.one()

    def test_triple(self):
        expected = QPoly({0: 1, 1: 1}) * QPoly({0: 1, 1: 1, 2: 1})
        assert q_multinomial_numeric((1, 1, 1)) == expected

    def test_matches_definition(self):
        for a in product(range(4), repeat=2):
            num = q_pochhammer_numeric(1, sum(a))
            den = q_pochhammer_numeric(1, a[0]) * q_pochhammer_numeric(1, a[1])
            assert equal_as_rational(
                (q_multinomial_numeric(a), QPoly.one()), (num, den)
            )


class TestRewrite:
    def test_positive_base(self):
        expr = rewrite_pochhammer(const(1, 1), a1())
        assert dict(expr.poch) == {a1(): 1}  # (q)_0 in the denominator drops

    def test_zero_window(self):
        assert rewrite_pochhammer(const(1, 0), const(1, 3)).is_zero()

    def test_negative_window_numeric(self):
        # (q^{-a1})_{a1} = (-1)^{a1} q^{-a1(a1+1)/2} (q)_{a1}
        expr = rewrite_pochhammer(-a1(), a1())
        for v in (1, 2, 3):
            num, den = expr.evaluate_numeric((v,))
            direct = q_pochhammer_numeric(-v, v)
            assert equal_as_rational((num, den), (direct, QPoly.one()))

    def test_zero_length_is_identity(self):
        expr = rewrite_pochhammer(-a1(), const(1, 0))
        assert expr == QExpr.identity(1)

    def test_mixed_sign_rejected(self):
        with pytest.raises(MixedSign):
            rewrite_pochhammer(AffineForm(0, (1, -1)), a1(2))

    def test_soundness_all_branches(self):
        # forms whose branch classification also holds numerically on 1..3
        cases_e = [
            a1(2),
            a1(2) + 1,
            a1(2) + a2(),
            const(2, 1),
            const(2, 2),
            -a1(2) - a2(),
            (-a1(2)) - 2,
        ]
        cases_f = [a1(2), a2(), const(2, 2), const(2, 0)]
        for e in cases_e:
            for f in cases_f:
                try:
                    expr = rewrite_pochhammer(e, f)
                except MixedSign:
                    # window endpoint sign depends on the a_i; no single branch
                    continue
                for a in product((1, 2, 3), repeat=2):
                    direct = q_pochhammer_numeric(e.evaluate(a), f.evaluate(a))
                    if expr.is_zero():
                        assert direct.is_zero(), (e, f, a)
                    else:
                        num, den = expr.evaluate_numeric(a)
                        assert equal_as_rational(
                            (num, den), (direct, QPoly.one())
                        ), (e, f, a)

    def test_zero_window_numeric(self):
        # window [-a1, 1] generically contains 0
        expr = rewrite_pochhammer(-a1(), a1() + 2)
        assert expr.is_zero()
        for v in (1, 2, 3):
            assert q_pochhammer_numeric(-v, v + 2).is_zero()


class TestProductEvaluation:
    def test_single_variable(self):
        assert evaluate_product_at_point((const(1, 0),)) == QExpr.identity(1)

    def test_vanishing_diagonal_point(self):
        assert evaluate_product_at_point((const(2, 0), const(2, 0))).is_zero()

    def test_worked_two_variable_point(self):
        # alpha = (a2 + 1, 0): F = (-1)^{a2} q^{a2(a2+1)/2} (q)_{a1+a2}
        expr = evaluate_product_at_point((a2() + 1, const(2, 0)))
        assert dict(expr.poch) == {a1(2) + a2(): 1}
        for a in product((1, 2, 3), repeat=2):
            num, den = expr.evaluate_numeric(a)
            s = -1 if a[1] % 2 else 1
            expected = q_pochhammer_numeric(1, sum(a)).shift(
                a[1] * (a[1] + 1) // 2
            ) * s
            assert equal_as_rational((num, den), (expected, QPoly.one()))

    def test_matches_direct_product_numerically(self):
        # F(q^alpha) for the delta=(1,-1,0) point alpha=(a2+a3+1, 0, a2)
        a2_, a3_ = AffineForm.param(3, 1), AffineForm.param(3, 2)
        alpha = (a2_ + a3_ + 1, AffineForm.const(3, 0), a2_)
        assert_matches_direct_product(alpha, product((1, 2), repeat=3))

    @pytest.mark.parametrize("alpha", EVALUATION_POINTS)
    def test_matches_direct_product_at_every_point(self, alpha):
        assert_matches_direct_product(alpha, product((1, 2), repeat=len(alpha)))

    def test_window_reaching_zero_vanishes(self):
        # alpha = (a2, a1): the one pair's window is [-a1, a2 - 1], so it
        # holds the binomial 1 - q^0 for every a
        assert evaluate_product_at_point((a2(), a1(2))).is_zero()
        for a in product((1, 2, 3), repeat=2):
            assert direct_product((a[1], a[0]), a).is_zero()

    def test_product_of_many_factors(self):
        grid = GridSpec(lower=(0, 0), degree=(a1(2), a2() + 2))
        factors = [
            rewrite_pochhammer(-a1(2), a1(2)),
            rewrite_pochhammer(a2() + 1, a1(2)),
            phi_prime_at_point(1, a2(), grid),
        ]
        expr = QExpr.product(2, factors)
        assert expr == factors[0] * factors[1] * factors[2]
        for a in product((1, 2, 3), repeat=2):
            num, den = QPoly.one(), QPoly.one()
            for f in factors:
                fn, fd = f.evaluate_numeric(a)
                num, den = num * fn, den * fd
            assert equal_as_rational(expr.evaluate_numeric(a), (num, den))

    def test_zero_factor_makes_the_product_zero(self):
        window = rewrite_pochhammer(a1(2) + 1, a2())
        zero = QExpr.make_zero(2)
        assert QExpr.product(2, [window, zero, window]).is_zero()
        assert (window * zero).is_zero()
        assert (zero * window).is_zero()
        assert not QExpr.product(2, [window, window]).is_zero()


class TestPhiPrime:
    def test_against_direct_product(self):
        for d in range(0, 6):
            for c in range(-2, 3):
                for j in range(d + 1):
                    grid = GridSpec(lower=(c,), degree=(const(1, d),))
                    expr = phi_prime_at_point(0, const(1, c + j), grid)
                    num, den = expr.evaluate_numeric((1,))
                    direct = QPoly.one()
                    for t in range(d + 1):
                        if t != j:
                            direct = direct * (
                                QPoly({c + j: 1}) - QPoly({c + t: 1})
                            )
                    assert equal_as_rational((num, den), (direct, QPoly.one()))

    def test_j_zero(self):
        grid = GridSpec(lower=(0,), degree=(const(1, 5),))
        expr = phi_prime_at_point(0, const(1, 0), grid)
        assert dict(expr.poch) == {const(1, 5): 1}

    def test_worked_point_coordinate(self):
        # n=2, delta=(1,-1), alpha_1 = a2+1 = d_1: phi' = (-1)^{a2+1} q^{a2(a2+1)/2} (q)_{a2+1}
        d1 = a2() + 1
        grid = GridSpec(lower=(0, 0), degree=(d1, a1(2) - 1))
        expr = phi_prime_at_point(0, a2() + 1, grid)
        assert dict(expr.poch) == {a2() + 1: 1}
        for a in product((1, 2, 3), repeat=2):
            num, den = expr.evaluate_numeric(a)
            s = -1 if (a[1] + 1) % 2 else 1
            expected = q_pochhammer_numeric(1, a[1] + 1).shift(
                a[1] * (a[1] + 1) // 2
            ) * s
            assert equal_as_rational((num, den), (expected, QPoly.one()))


class TestMultinomialSymbols:
    def test_single_variable_cancels(self):
        assert not q_multinomial_symbols(1)

    def test_two_variables(self):
        sym = q_multinomial_symbols(2)
        assert sym == {AffineForm.total(2): 1, a1(2): -1, a2(): -1}

    def test_three_variables(self):
        assert len(q_multinomial_symbols(3)) == 4


class TestNormalize:
    def test_multinomial_itself(self):
        expr = QExpr.build(
            2, QExpr.identity(2).parity, QExpr.identity(2).qexp, q_multinomial_symbols(2)
        )
        s = normalize_to_rational(expr, 2)
        assert RationalQZ(s.cleared_numer(), s.denom) == RationalQZ.one(2)

    def test_single_pairing_step(self):
        poch = q_multinomial_symbols(2)
        poch[a1(2) + 1] += 1
        poch[a1(2)] -= 1
        expr = QExpr.build(2, QExpr.identity(2).parity, QExpr.identity(2).qexp, poch)
        s = normalize_to_rational(expr, 2)
        result = RationalQZ(s.cleared_numer(), s.denom)
        expected = RationalQZ.make(ZqPoly(2, {(0, (0, 0)): 1, (1, (1, 0)): -1}), {})
        assert result == expected

    def test_build_rejects_negative_index(self):
        identity = QExpr.identity(1)
        with pytest.raises(InternalInconsistency):
            QExpr.build(1, identity.parity, identity.qexp, {-a1() - 1: 1})

    def test_unpaired_factor_aborts(self):
        poch = q_multinomial_symbols(2)
        poch[a1(2) + 1] += 1  # nothing to pair against
        expr = QExpr.build(2, QExpr.identity(2).parity, QExpr.identity(2).qexp, poch)
        with pytest.raises(InternalInconsistency):
            normalize_to_rational(expr, 2)

    def test_numeric_factor_in_numerator_aborts(self):
        # (q)_2 left in the numerator gives the q-only atoms 1 - q and
        # 1 - q^2, which a denominator atom 1 - q could divide
        poch = q_multinomial_symbols(2)
        poch[const(2, 2)] += 1
        expr = QExpr.build(2, QExpr.identity(2).parity, QExpr.identity(2).qexp, poch)
        with pytest.raises(InternalInconsistency):
            normalize_to_rational(expr, 2)

    def test_reducible_numerator_atom_aborts(self):
        # (q)_{2 a1 + 2} / (q)_{2 a1} gives 1 - q^2 z1^2 = (1 - q z1)(1 + q z1)
        poch = q_multinomial_symbols(2)
        poch[a1(2).scale(2) + 2] += 1
        poch[a1(2).scale(2)] -= 1
        expr = QExpr.build(2, QExpr.identity(2).parity, QExpr.identity(2).qexp, poch)
        with pytest.raises(InternalInconsistency):
            normalize_to_rational(expr, 2)

    def test_a_dependent_sign_aborts(self):
        expr = QExpr.build(2, a1(2), QExpr.identity(2).qexp, q_multinomial_symbols(2))
        with pytest.raises(InternalInconsistency, match="sign survives"):
            normalize_to_rational(expr, 2)

    def test_quadratic_exponent_aborts(self):
        qexp = QuadForm.from_product(a1(2), a2())
        expr = QExpr.build(2, QExpr.identity(2).parity, qexp, q_multinomial_symbols(2))
        with pytest.raises(InternalInconsistency, match="quadratic term"):
            normalize_to_rational(expr, 2)

    def test_round_trip_at_numeric_a(self):
        # every normalized point value times the multinomial must equal the
        # original q-expression, numerically
        for delta in ((1, -1), (1, -1, 0), (2, -2)):
            n = len(delta)
            evalset = enumerate_evaluation_set(delta, (0,) * n)
            for pt in evalset.points:
                value = evaluate_product_at_point(pt.alpha)
                phi = QExpr.identity(n)
                for i in range(n):
                    phi = phi * phi_prime_at_point(i, pt.alpha[i], evalset.grid)
                expr = value / phi
                s = normalize_to_rational(expr, n)
                r = RationalQZ(s.cleared_numer(), s.denom)
                # a large enough that all symbolic (q)_L indices are >= 0
                for a in product((3, 4), repeat=n):
                    rn, rd = substitute_z(r, a)
                    en, ed = expr.evaluate_numeric(a)
                    assert equal_as_rational(
                        (rn * q_multinomial_numeric(a), rd), (en, ed)
                    )

    def test_no_unit_poch_factor_stored(self):
        expr = rewrite_pochhammer(const(1, 1), a1())
        assert all(not idx.is_zero() for idx, _ in expr.poch)


def expanded_rational(summand):
    """The summand as normalization used to build it: its numerator atoms
    multiplied out one at a time, then ``RationalQZ.make``'s trial division."""
    numer = ZqPoly.one(summand.n).mul_monomial(summand.unit, summand.sign)
    for atom, mult in summand.numer:
        for _ in range(mult):
            numer = numer.mul_atom(atom)
    return RationalQZ.make(numer, summand.denom_counter())


class TestSummand:
    @pytest.mark.parametrize("n,shift", [(4, "zero"), (5, "best")])
    def test_pool_summands_match_the_expanded_form(self, n, shift):
        # no trial division could cancel an atom, so the canonical form needs
        # none, and the cleared numerator is the expanded one's
        for delta in zero_sum_deltas(n, 4):
            split = coefficient_split(CoefficientQuery(delta=delta, shift=shift))
            terms = [summand for _, summand in split.terms]
            for prev, summand in zip(terms[-1:] + terms[:-1], terms):
                reference = expanded_rational(summand)
                rational = RationalQZ(summand.cleared_numer(), summand.denom)
                assert rational == reference, delta
                extra = prev.denom_counter()
                assert summand.cleared_numer(extra) == ZqPoly.sum_of(n, [(reference.numer, extra)]), delta


def reference_summand(alpha, grid):
    """A point's summand through ``QExpr``: the cleared product over the
    product of the phi', normalized."""
    n = len(alpha)
    value = evaluate_product_at_point(alpha)
    phi = QExpr.product(n, [phi_prime_at_point(i, x, grid) for i, x in enumerate(alpha)])
    return normalize_to_rational(value / phi, n)


def engine_summand(alpha, grid):
    """The same summand by the engine's integer pass."""
    return point_summand(alpha, [phi_prime_flat(i, x, grid) for i, x in enumerate(alpha)])


def outcome(fn, *args):
    """fn's summand, or the type of the abort it raised."""
    try:
        return fn(*args)
    except InternalInconsistency as exc:
        return type(exc)


def paired_atoms(poch):
    """The atoms of net (q)_L exponents by sort-and-zip pairing: per vector,
    the sorted numerator constants zipped with the sorted denominator ones,
    each pair (q)_{cn + v.a} / (q)_{cd + v.a} expanded on its own, and each
    numeric (q)_m expanded alone.  Every abort is an ``InternalInconsistency``."""
    groups, num, den = {}, Counter(), Counter()
    for index, exp in poch.items():
        if exp == 0:
            continue
        c, vec = index[0], index[1:]
        if not any(vec):
            if c < 0 or exp > 0:
                raise InternalInconsistency("numeric factor survives")
            for t in range(1, c + 1):
                den[Atom(t, vec)] -= exp
            continue
        groups.setdefault(vec, ([], []))[exp < 0].extend([c] * abs(exp))
    for vec, (numers, denoms) in groups.items():
        if len(numers) != len(denoms):
            raise InternalInconsistency("unmatched factors")
        for cn, cd in zip(sorted(numers), sorted(denoms)):
            side, lo, hi = (num, cd, cn) if cn >= cd else (den, cn, cd)
            for t in range(lo + 1, hi + 1):
                side[Atom(t, vec)] += 1
    if any(max(atom[1:]) > 1 or atom in den for atom in num):
        raise InternalInconsistency("numerator atom")
    return tuple(sorted(num.items())), tuple(sorted(den.items()))


def normalized_atoms(n, poch):
    """``_normalize``'s atoms for the net exponents poch, given to it times
    the q-multinomial that it divides by."""
    exps = Counter(poch)
    exps.update(q_multinomial_symbols(n))
    summand = _normalize(n, [0] * (n + 1), [0] * len(_pairs(n)), dict(exps))
    return summand.numer, summand.denom


@st.composite
def net_exponents(draw):
    """(n, net (q)_L exponents) with n <= 4: groups of 0/1 vectors v != 0 with
    constants in -4..6, one in ten unbalanced, and numeric (q)_m with
    -1 <= m <= 6, one in five in the numerator."""
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(0, 1)] * n)
    poch = Counter()
    for vec in draw(st.lists(vectors, max_size=4, unique=True)):
        if not any(vec):
            for m in draw(st.lists(st.integers(-1, 6), min_size=1, max_size=3)):
                poch[AffineForm(m, vec)] += draw(st.sampled_from((-2, -1, -1, -1, 1)))
            continue
        numers = draw(st.lists(st.integers(-4, 6), min_size=1, max_size=3))
        size = len(numers) + draw(st.sampled_from((0,) * 9 + (1,)))
        for c in numers:
            poch[AffineForm(c, vec)] += 1
        for c in draw(st.lists(st.integers(-4, 6), min_size=size, max_size=size)):
            poch[AffineForm(c, vec)] -= 1
    return n, poch


class TestNetCounts:
    """``_normalize``'s net counts against sort-and-zip pairing."""

    @settings(max_examples=400, deadline=None)
    @given(net_exponents())
    @example((2, {AffineForm(3, (1, 0)): 1, AffineForm(-2, (1, 0)): -1}))
    @example((2, {AffineForm(5, (1, 1)): 2, AffineForm(1, (1, 1)): -1}))
    @example((1, {AffineForm(3, (0,)): 1}))
    @example((1, {AffineForm(-1, (0,)): -1}))
    @example(
        (
            3,
            {
                AffineForm(-4, (1, 0, 1)): 1,
                AffineForm(6, (1, 0, 1)): 1,
                AffineForm(0, (1, 0, 1)): -1,
                AffineForm(2, (1, 0, 1)): -1,
                AffineForm(4, (0, 0, 0)): -2,
                AffineForm(2, (0, 0, 0)): -1,
            },
        )
    )
    def test_match_sorted_pairing(self, drawn):
        n, poch = drawn
        assert outcome(normalized_atoms, n, poch) == outcome(paired_atoms, poch)


def random_delta(rng, n):
    """A zero-sum delta with sum |delta_i| <= 4."""
    delta = [0] * n
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(range(n), 2)
        delta[i] += 1
        delta[j] -= 1
    return tuple(delta)


def random_pairs(rng, count, max_points=12):
    """(delta, explicit shift) pairs, n = 2..6 in turn, with small nonempty sets."""
    pairs = []
    while len(pairs) < count:
        n = 2 + len(pairs) % 5
        delta = random_delta(rng, n)
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        if 0 < evaluation_set_size(delta, shift) <= max_points:
            pairs.append((delta, shift))
    return pairs


class TestEnginePass:
    """``point_summand`` against the ``QExpr`` reference, summand for summand."""

    def assert_split_matches_reference(self, delta, shift):
        split = coefficient_split(CoefficientQuery(delta, shift))
        evalset = enumerate_evaluation_set(delta, split.shift_used)
        assert [pt for pt, _ in split.terms] == list(evalset.points)
        for pt, summand in split.terms:
            assert summand == reference_summand(pt.alpha, evalset.grid), (delta, shift, pt)
        return split

    @pytest.mark.parametrize("n,shift", [(4, "zero"), (5, "best")])
    def test_pool(self, n, shift):
        for delta in zero_sum_deltas(n, 4):
            self.assert_split_matches_reference(delta, shift)

    def test_random_explicit_shifts(self):
        slack = 0
        for delta, shift in random_pairs(random.Random(19), 300):
            split = self.assert_split_matches_reference(delta, shift)
            slack += sum(1 for pt, _ in split.terms if any(pt.m))
        # shifts with positive slack budgets: points with m != 0
        assert slack > 100

    def test_perturbed_points_abort_alike(self):
        # a point or a grid degree moved by a small affine step: the
        # reference aborts in several ways, and the engine must raise the
        # same type where it does and give the same summand where it does not
        rng = random.Random(23)
        seen = Counter()
        for delta, shift in random_pairs(rng, 200, max_points=8):
            n = len(delta)
            evalset = enumerate_evaluation_set(delta, shift)
            for pt in evalset.points:
                alpha, degree = list(pt.alpha), list(evalset.grid.degree)
                k = rng.randrange(n)
                step = AffineForm(
                    rng.randint(-1, 1), tuple(rng.choice((-1, 0, 0, 0, 1)) for _ in range(n))
                )
                if rng.random() < 0.5:
                    alpha[k] += step
                else:
                    degree[k] += step
                grid = GridSpec(evalset.grid.lower, tuple(degree))
                expected = outcome(reference_summand, alpha, grid)
                assert outcome(engine_summand, alpha, grid) == expected, (delta, shift, alpha, grid)
                seen[expected if isinstance(expected, type) else "summand"] += 1
        assert seen[MixedSign] and seen[InternalInconsistency] and seen["summand"], seen

    def test_zero_point_aborts(self):
        # alpha = (a2, a1): the one window holds 1 - q^0
        grid = GridSpec(lower=(0, 0), degree=(a2(), a1(2)))
        alpha = (a2(), a1(2))
        with pytest.raises(InternalInconsistency, match="evaluates to zero"):
            engine_summand(alpha, grid)
        with pytest.raises(InternalInconsistency):
            reference_summand(alpha, grid)
