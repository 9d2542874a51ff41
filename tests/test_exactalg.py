"""Exact-arithmetic core: polynomials in q, in q and z, and factored rationals."""

import copy
import pickle
from collections import Counter
from math import comb
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdyson.cli import dumps_canonical, formula_from_json, formula_json
from qdyson.errors import DenominatorVanishes, DimensionMismatch, InternalInconsistency
from qdyson.exactalg import (
    Atom,
    QPoly,
    RationalQZ,
    ZqPoly,
    _divide_one_minus,
    _times_one_minus,
    equal_as_rational,
    substitute_z,
)
from qdyson.qpochhammer import _normalize
from qdyson.symforms import AffineForm, _pairs


def qp(**terms):
    return QPoly({int(k[1:]): v for k, v in terms.items()})


class TestQPoly:
    def test_basic_arithmetic(self):
        p = QPoly({0: 1, 1: 1})
        assert p + p == QPoly({0: 2, 1: 2})
        assert p - p == QPoly()
        assert p * p == QPoly({0: 1, 1: 2, 2: 1})
        assert (p * 0).is_zero()

    def test_laurent_exponents(self):
        p = QPoly({-1: 1, 2: -3})
        assert p.shift(1) == QPoly({0: 1, 3: -3})


def schoolbook_product(f, g):
    """f * g by the double loop over both term lists."""
    out = Counter()
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out[e1 + e2] += c1 * c2
    return QPoly(out)


# small coefficients cancel often; the others reach past 2**64, so slots grow
# past 64 bits, and sit next to powers of two, where slot widths change
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.builds(
        lambda k, sign, d: sign * ((1 << k) + d),
        st.integers(60, 130),
        st.sampled_from((1, -1)),
        st.integers(-1, 1),
    ),
)
qpolys = st.dictionaries(st.integers(-8, 8), coefficients, max_size=6).map(QPoly)


class TestKroneckerProduct:
    @settings(max_examples=300, deadline=None)
    @given(qpolys, qpolys)
    @example(QPoly(), QPoly({-2: 5}))  # a zero operand
    @example(QPoly({-3: 1, 0: 1}), QPoly({3: 1, 0: -1}))  # (q^-3 + 1)(1 - q^3): cancels inside
    @example(QPoly({0: 1, 1: 1}), QPoly({0: 1, 1: -1, 2: 1}))  # (1 + q)(1 - q + q^2) = 1 + q^3
    @example(QPoly({-1: 1}), QPoly({5: 2**127 - 1}))  # single terms; the digit needs 192-bit slots
    @example(QPoly({-1: 1}), QPoly({5: -(2**127 - 1)}))
    @example(QPoly({0: 2**64 + 1, 1: -(2**64)}), QPoly({0: 2**64 - 1, 2: 2**65}))
    def test_matches_schoolbook(self, f, g):
        assert f * g == schoolbook_product(f, g)
        assert 0 not in (f * g).terms.values()


def schoolbook_str(p):
    """The text of a QPoly, term by term in ascending q, joined by " + "."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms.items()):
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
    return " + ".join(parts).replace("+ -", "- ")


class TestQPolyText:
    @settings(max_examples=200, deadline=None)
    @given(qpolys)
    @example(QPoly({-1: 1, 0: -1, 1: 2, 3: -3}))
    @example(QPoly({1: -1}))
    @example(QPoly())
    def test_matches_term_by_term(self, p):
        assert str(p) == repr(p) == schoolbook_str(p)

    def test_examples(self):
        assert str(QPoly({-1: 1, 0: -1, 1: 2, 3: -3})) == "q^-1 - 1 + 2*q - 3*q^3"
        assert str(QPoly({0: -5, 1: -1})) == "-5 - q"


class TestOneMinusKernel:
    @settings(max_examples=300, deadline=None)
    @given(qpolys, st.integers(1, 8))
    @example(QPoly({-8: 3, 8: -2**70}), 8)  # span past s on both sides of 0
    @example(QPoly({0: 1}), 1)
    def test_divide_undoes_multiply(self, f, s):
        terms = dict(f.terms)
        _times_one_minus(terms, s)
        assert QPoly(terms) == f * QPoly({0: 1, s: -1})
        assert 0 not in terms.values()
        _divide_one_minus(terms, s)
        assert terms == f.terms

    @settings(max_examples=200, deadline=None)
    @given(qpolys, st.integers(1, 8), st.integers(-12, 12), st.sampled_from((1, -1, 2**65)))
    def test_non_multiple_raises(self, f, s, e, c):
        # at q = 1 a multiple of 1 - q^s vanishes and c * q^e does not
        terms = dict(f.terms)
        _times_one_minus(terms, s)
        terms[e] = terms.get(e, 0) + c
        before = dict(terms)
        with pytest.raises(ArithmeticError):
            _divide_one_minus(terms, s)
        assert terms == before

    def test_zero_binomial_refused(self):
        with pytest.raises(ValueError):
            _times_one_minus({0: 1}, 0)


class TestZqPoly:
    def test_atom_trial_divide_quotient(self):
        # 1 - q^2 z1^2 = (1 - q z1)(1 + q z1)
        n1 = ZqPoly(1, {(0, (0,)): 1, (2, (2,)): -1})
        quo = n1.div_atom(Atom(1, (1,)))
        assert quo == ZqPoly(1, {(0, (0,)): 1, (1, (1,)): 1})

    def test_atom_trial_divide_self(self):
        n1 = ZqPoly(1, {(0, (0,)): 1, (1, (1,)): -1})
        assert n1.div_atom(Atom(1, (1,))) == ZqPoly.one(1)

    def test_atom_trial_divide_fails(self):
        n1 = ZqPoly(1, {(0, (0,)): 1, (1, (1,)): 1})  # 1 + q z1
        assert n1.div_atom(Atom(1, (1,))) is None

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 3))),
            st.integers(-3, 3),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_round_trip(self, terms, aq, az):
        if aq == 0 and az == 0:
            aq = 1
        atom = Atom(aq, (az,))
        poly = ZqPoly(1, terms)
        product = poly.mul_atom(atom)
        quo = product.div_atom(atom)
        if poly.is_zero():
            assert quo == ZqPoly(1)
        else:
            assert quo == poly

    def test_atom_invariant(self):
        with pytest.raises(ValueError, match="identically zero"):
            Atom(0, (0, 0))
        obj = formula_json(RationalQZ.one(2))
        obj["denom"] = [{"q": 0, "z": [0, 0], "mult": 1}]
        with pytest.raises(ValueError, match="identically zero"):
            formula_from_json(obj)


def times_atom(poly, atom):
    """poly * (1 - q^t z^v) as {(qexp, zexp): coeff}, term by term on
    tuples: a reference that shares no code with ZqPoly's row kernels."""
    t, v = atom[0], tuple(atom[1:])
    out = Counter(dict(poly.items()))
    for (qe, ze), c in poly.items():
        out[qe + t, tuple(x + y for x, y in zip(ze, v))] -= c
    return {key: c for key, c in out.items() if c}


@st.composite
def poly_and_atom(draw):
    """A sparse Laurent ZqPoly in n <= 3 z-variables and an atom whose
    exponents may be negative or have q-exponent 0."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(st.integers(-6, 6), st.tuples(*[st.integers(-6, 6)] * n))
    poly = ZqPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=6)))
    vec = draw(st.tuples(*[st.integers(-3, 3)] * (n + 1)).filter(any))
    return poly, Atom(vec[0], vec[1:])


def graded(kv):
    (qe, ze), _ = kv
    return (qe + sum(ze), qe, ze)


class TestPackedZqPoly:
    @settings(max_examples=150, deadline=None)
    @given(poly_and_atom())
    def test_product_divides(self, pa):
        poly, atom = pa
        assert dict(poly.mul_atom(atom).items()) == times_atom(poly, atom)
        assert poly.mul_atom(atom).div_atom(atom) == poly
        assert ZqPoly(poly.n, times_atom(poly, atom)).div_atom(atom) == poly

    @settings(max_examples=150, deadline=None)
    @given(poly_and_atom(), st.integers(1, 3), st.booleans())
    def test_quotient_multiplies_back(self, pa, power, divisible):
        poly, atom = pa
        if divisible:
            # 1 - m divides 1 - m^power: the quotient fills whole line segments
            power_atom = Atom(atom.constant * power, tuple(v * power for v in atom.coeffs))
            poly = poly.mul_atom(power_atom)
        quo = poly.div_atom(atom)
        assert quo is not None or not divisible
        if quo is not None:
            assert quo.mul_atom(atom) == poly
            assert times_atom(quo, atom) == dict(poly.items())

    @settings(max_examples=150, deadline=None)
    @given(poly_and_atom(), st.integers(-6, 6), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
    def test_extra_monomial_is_not_divisible(self, pa, qexp, zexp):
        poly, atom = pa
        spoiled = poly.mul_atom(atom) + ZqPoly.one(poly.n).mul_monomial((qexp, *zexp[: poly.n]))
        assert spoiled.div_atom(atom) is None

    @settings(max_examples=100, deadline=None)
    @given(poly_and_atom())
    def test_items_graded_order(self, pa):
        poly, _ = pa
        assert poly.items() == sorted(poly.items(), key=graded)
        assert ZqPoly(poly.n, poly.items()) == poly

    def test_items_match_tuple_keys(self):
        terms = {
            (1, (0, -1, 2)): 1,
            (0, (2, 0, 0)): -3,
            (-1, (0, 0, 3)): 5,
            (2, (-2, 0, 0)): 7,
            (0, (0, 0, 0)): 1,
        }
        assert ZqPoly(3, terms).items() == [
            ((0, (0, 0, 0)), 1),
            ((2, (-2, 0, 0)), 7),
            ((-1, (0, 0, 3)), 5),
            ((0, (2, 0, 0)), -3),
            ((1, (0, -1, 2)), 1),
        ]

    def test_formula_bytes_match_tuple_keys(self):
        numer = ZqPoly(2, {(3, (-1, 2)): 2, (0, (0, 0)): -4, (-2, (1, 1)): 6, (1, (0, -1)): -2})
        r = RationalQZ.make(
            numer.mul_monomial((1, 0, -2), -1),
            Counter({Atom(0, (1, -1)): 2, Atom(2, (0, 0)): 1}),
        )
        assert dumps_canonical(formula_json(r)) == (
            '{"sign":-1,"unit":{"q":-1,"z":[-1,-3]},"numer":['
            '{"q":0,"z":[2,2],"c":6},{"q":2,"z":[1,1],"c":-4},'
            '{"q":3,"z":[1,0],"c":-2},{"q":5,"z":[0,3],"c":2}],"denom":['
            '{"q":0,"z":[1,-1],"mult":2},{"q":2,"z":[0,0],"mult":1}]}\n'
        )

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from(["q", "z", "z, t < 0"]),
        st.data(),
        st.booleans(),
    )
    def test_div_atom_matches_reference(self, n, kind, data, divisible):
        """div_atom against the tuple-keyed product, for q-only atoms and
        z-atoms of either sign of t, on multiples and on non-multiples."""
        small = st.integers(-4, 4)
        exps = st.tuples(small, st.tuples(*[small] * n))
        coeffs = st.integers(-2**70, 2**70).filter(bool) | st.integers(-3, 3).filter(bool)
        g = ZqPoly(n, data.draw(st.dictionaries(exps, coeffs, max_size=8)))
        t = data.draw(st.integers(-3, 3).filter(bool))
        v = (0,) * n if kind == "q" else data.draw(
            st.tuples(*[st.integers(-2, 2)] * n).filter(any)
        )
        atom = Atom(-abs(t) if kind == "z, t < 0" else t, v)
        product = times_atom(g, atom)
        if divisible:
            assert ZqPoly(n, product).div_atom(atom) == g
        else:
            spoil = data.draw(exps)
            product[spoil] = product.get(spoil, 0) + data.draw(coeffs)
            assert ZqPoly(n, product).div_atom(atom) is None

    @pytest.mark.parametrize("v, k", [((0,), 256), ((1,), 16)])
    def test_quotient_past_the_first_width(self, v, k):
        # (1 - m^k)^20 / (1 - m)^20 = (1 + m + .. + m^(k-1))^20 has
        # coefficients past 2**62 (151 bits for k = 256, 75 for k = 16), so
        # quotients fail the range check at 64 bits and are redone wider
        m, power = Atom(1, v), Atom(k, tuple(k * x for x in v))
        numer = ZqPoly.sum_of(1, [(ZqPoly.one(1), {power: 20})])
        r = RationalQZ.make(numer, {m: 20})
        geometric = QPoly({j: 1 for j in range(k)})
        expected = QPoly.one()
        for _ in range(20):
            expected = expected * geometric
        assert r.denom == ()
        on_the_diagonal = {(e, tuple(e * x for x in v)): c for e, c in expected.items()}
        assert dict(r.numer.items()) == on_the_diagonal
        assert max(expected.terms.values()).bit_length() > 62

    @pytest.mark.parametrize("n", [1, 2])
    def test_diagonal_in_the_packed_coordinate(self, n):
        # (1 - (q z_n)^64)^10 / (1 - q z_n)^10 = (1 + q z_n + .. + (q z_n)^63)^10:
        # q and z_n share one row, with one digit in each of its 641 z_n steps
        m = Atom(1, (0,) * (n - 1) + (1,))
        power = Atom(64, tuple(64 * x for x in m.coeffs))
        product = ZqPoly.one(n)
        for _ in range(10):
            product = ZqPoly(n, times_atom(product, power))
        numer = ZqPoly.sum_of(n, [(ZqPoly.one(n), {power: 10})])
        assert numer == product
        r = RationalQZ.make(numer, {m: 10})
        assert r.denom == ()
        back = r.numer
        for _ in range(10):
            back = ZqPoly(n, times_atom(back, m))
        assert back == numer
        assert len(r.numer.items()) == 631

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_steps_cross_z_n_steps(self, n):
        # atoms with t < 0 and v_n < 0 move slots down across z_n steps, by
        # more and by less than one step
        rest = (0,) * (n - 1)
        atoms = [Atom(-2, (*rest, -1)), Atom(-1, (*rest, -3)), Atom(3, (*rest, -1))]
        if n > 1:
            atoms.append(Atom(-1, (-1, *rest[1:], -2)))
        poly = ZqPoly(n, {(0, (*rest, 0)): 2, (4, (*rest, 1)): -1, (-3, (*rest, 2)): 5})
        pairs = [(poly, {a: 1 for a in atoms}), (-poly, {atoms[0]: 2}), (poly, {})]
        expected = Counter()
        for p, mults in pairs:
            for atom, mult in mults.items():
                for _ in range(mult):
                    p = ZqPoly(n, times_atom(p, atom))
            expected.update(dict(p.items()))
        total = ZqPoly.sum_of(n, pairs)
        assert total == ZqPoly(n, expected)
        for atom in atoms:
            product = ZqPoly(n, times_atom(total, atom))
            assert product.div_atom(atom) == total
            assert times_atom(product.div_atom(atom), atom) == dict(product.items())

    @pytest.mark.parametrize("n, atom", [(1, Atom(1, (0,))), (2, Atom(1, (1, 0)))])
    def test_quotient_that_wraps_is_refused(self, n, atom):
        # f = q^2 - z_n z^v for the atom 1 - q z^v (v = 0 at n = 1): q lies in
        # [0, 2], so slot (z_n, q) is 3 z_n + q and q^2 z_n^0 sits next to
        # z_n.  The packed quotient of f is q^2, but (1 - q z^v) q^2 is
        # q^2 - q^3 z^v, not f: q^2 times q wraps into the next z_n step
        zn = (0,) * (n - 1) + (1,)
        f = ZqPoly(n, {(2, (0,) * n): 1, (0, tuple(map(add, zn, atom.coeffs))): -1})
        assert f.div_atom(atom) is None
        assert ZqPoly(n, times_atom(f, atom)).div_atom(atom) == f

    def test_no_z_variables(self):
        p = ZqPoly(0, {(0, ()): 1, (1, ()): -1})
        q = Atom(1, ())
        assert dict(p.mul_atom(q).items()) == times_atom(p, q)
        assert p.div_atom(q) == ZqPoly.one(0)
        assert RationalQZ.make(p, {q: 2}) == RationalQZ(ZqPoly.one(0), ((q, 1),))

    def test_far_apart_lines_stay_apart(self):
        # The keys of q^-4096 z2^-1 and 1 differ by -4096 steps of q z1^16 as
        # ints; positions read from the q field would put them on one line.
        poly = ZqPoly(2, {(-4096, (0, -1)): 1, (0, (0, 0)): -1})
        assert poly.div_atom(Atom(1, (16, 0))) is None

    def test_range_limits(self):
        ok = ZqPoly(2, {(-8192, (8191, 0)): 1})
        assert ok.items() == [((-8192, (8191, 0)), 1)]
        for bad in ((8192, (0, 0)), (0, (-8193, 0)), (0, (0, 8192))):
            with pytest.raises(OverflowError):
                ZqPoly(2, {bad: 1})

    def test_out_of_range_raises_not_wraps(self):
        top = ZqPoly(2, {(0, (8191, 0)): 1})
        with pytest.raises(OverflowError):  # z1 would carry into z2
            top.mul_monomial((0, 1, 0))
        with pytest.raises(OverflowError):
            top.mul_atom(Atom(0, (1, 0)))
        bottom = ZqPoly(2, {(-8192, (0, 0)): 1})
        with pytest.raises(OverflowError):  # q would borrow from z1
            bottom.mul_monomial((-1, 0, 0))
        with pytest.raises(OverflowError):  # shifting the minimum to 0
            ZqPoly(1, {(-8000, (0,)): 1, (8000, (0,)): 1}).extract_unit()
        with pytest.raises(OverflowError):
            top.mul_monomial((0, 0, 8192))


def atom_pool(n):
    """Four atoms in n z-variables; 1 - q z1^-1 moves keys down, the rest up."""
    last = (0,) * (n - 1)
    return (
        Atom(1, (0,) * n),
        Atom(1, (1, *last)),
        Atom(1, (-1, *last)),
        Atom(2, (*last, 1)),
    )


@st.composite
def sum_pairs(draw):
    """n and 1-6 (small ZqPoly, {atom: multiplicity 0-2}) pairs."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(st.integers(-2, 2), st.tuples(*[st.integers(-2, 2)] * n))
    polys = st.dictionaries(exps, st.integers(-3, 3), max_size=4)
    atoms = st.tuples(*[st.integers(0, 2)] * 4)
    pairs = [
        (ZqPoly(n, terms), dict(zip(atom_pool(n), mults)))
        for terms, mults in draw(st.lists(st.tuples(polys, atoms), min_size=1, max_size=6))
    ]
    return n, pairs


class TestSumOf:
    @settings(max_examples=150, deadline=None)
    @given(sum_pairs())
    def test_equals_multiply_then_add(self, case):
        n, pairs = case
        total = ZqPoly.sum_of(n, pairs)
        ref = Counter()
        for poly, atoms in pairs:
            for atom, mult in atoms.items():
                for _ in range(mult):
                    poly = ZqPoly(n, times_atom(poly, atom))
            for key, c in poly.items():
                ref[key] += c
        expected = {key: c for key, c in ref.items() if c}
        assert dict(total.items()) == expected  # the inputs were not changed either

    def test_one_pair_many_atoms(self):
        # one pair multiplies its 1,200 atoms in without a recursion per atom
        power = ZqPoly.sum_of(1, [(ZqPoly.one(1), {Atom(1, (0,)): 1200})])
        assert dict(power.items()) == {
            (k, (0,)): (-1) ** k * comb(1200, k) for k in range(1201)
        }

    def test_exact_cancellation(self):
        p = ZqPoly(2, {(0, (1, 0)): 3, (2, (0, -1)): -1})
        atom = Atom(1, (1, 0))
        assert ZqPoly.sum_of(2, [(p, {atom: 1}), (-p, {atom: 1})]).is_zero()

    def test_overflow_raises(self):
        top = ZqPoly(1, {(8191, (0,)): 1})
        q = Atom(1, (0,))
        with pytest.raises(OverflowError):  # the partial is built in place
            ZqPoly.sum_of(1, [(top, {q: 1})])
        other = {Atom(0, (1,)): 1}
        with pytest.raises(OverflowError):  # the partial is a second dict
            ZqPoly.sum_of(1, [(ZqPoly.one(1), other), (ZqPoly.one(1), other), (top, {q: 1})])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ZqPoly.sum_of(2, [(ZqPoly.one(2), {}), (ZqPoly.one(3), {})])


def rational_product(r1, r2):
    """r1 * r2, numerators multiplied term by term: a reference for
    substitute_z, which the library itself never needs."""
    numer = Counter()
    for (q1, z1), c1 in r1.numer.items():
        for (q2, z2), c2 in r2.numer.items():
            numer[q1 + q2, tuple(x + y for x, y in zip(z1, z2))] += c1 * c2
    return RationalQZ.make(ZqPoly(r1.n, numer), r1.denom_counter() + r2.denom_counter())


class TestSubstituteZ:
    def test_direct(self):
        # (1 - q z1) at a = (2) -> (1 - q^3, 1)
        r = RationalQZ.make(ZqPoly(1, {(0, (0,)): 1, (1, (1,)): -1}), Counter())
        num, den = substitute_z(r, (2,))
        assert num == QPoly({0: 1, 3: -1})
        assert den == QPoly.one()

    def test_worked_two_variable(self):
        # -(1 - z1)/(1 - q z2) at a = (1, 1) -> (-(1 - q), 1 - q^2)
        r = RationalQZ.make(
            -ZqPoly(2, {(0, (0, 0)): 1, (0, (1, 0)): -1}),
            Counter({Atom(1, (0, 1)): 1}),
        )
        num, den = substitute_z(r, (1, 1))
        assert num == QPoly({0: -1, 1: 1})
        assert den == QPoly({0: 1, 2: -1})

    def test_zero(self):
        num, den = substitute_z(RationalQZ.zero(1), (3,))
        assert num.is_zero() and den == QPoly.one()

    def test_denominator_vanishes(self):
        r = RationalQZ(
            ZqPoly.one(1),
            ((Atom(0, (1,)), 1),),  # 1 - z1 -> 1 - q^0 at a1 = 0
        )
        with pytest.raises(DenominatorVanishes):
            substitute_z(r, (0,))

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2))),
            st.integers(-2, 2),
            max_size=3,
        ),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2))),
            st.integers(-2, 2),
            max_size=3,
        ),
    )
    def test_multiplicative(self, a, t1, t2):
        r1 = RationalQZ.make(ZqPoly(2, t1), Counter({Atom(1, (1, 0)): 1}))
        r2 = RationalQZ.make(ZqPoly(2, t2), Counter({Atom(2, (0, 1)): 1}))
        lhs = substitute_z(rational_product(r1, r2), a)
        n1, d1 = substitute_z(r1, a)
        n2, d2 = substitute_z(r2, a)
        assert equal_as_rational(lhs, (n1 * n2, d1 * d2))


class TestEqualAsRational:
    def test_factored(self):
        assert equal_as_rational(
            (QPoly({0: 1, 2: -1}), QPoly({0: 1, 1: -1})),
            (QPoly({0: 1, 1: 1}), QPoly.one()),
        )

    def test_unequal(self):
        assert not equal_as_rational(
            (QPoly.one(), QPoly.one()), (QPoly({1: 1}), QPoly.one())
        )

    def test_zero_equivalence(self):
        assert equal_as_rational(
            (QPoly(), QPoly({0: 1, 1: -1})), (QPoly(), QPoly({0: 1, 1: 1}))
        )


class TestCanonicalization:
    def test_deterministic_ordering(self):
        terms = {(1, (0, 1)): 2, (0, (1, 0)): -1, (1, (1, 0)): 3}
        p1 = ZqPoly(2, terms)
        p2 = ZqPoly(2, dict(reversed(list(terms.items()))))
        assert p1.items() == p2.items()
        assert str(p1) == str(p2)

    def test_make_is_idempotent(self):
        r = RationalQZ.make(
            ZqPoly(2, {(1, (1, 0)): 2, (0, (0, 0)): -2}).mul_monomial((1, 0, 2), -1),
            Counter({Atom(1, (0, 1)): 2}),
        )
        again = RationalQZ.make(r.numer, Counter(dict(r.denom)))
        assert again == r


class TestAtom:
    """An atom 1 - q^L is its nonzero exponent form L, the flat int tuple."""

    def test_is_its_flat_tuple(self):
        atom = Atom(1, (0, 1))
        assert atom == (1, 0, 1) and hash(atom) == hash((1, 0, 1))
        assert atom == AffineForm(1, (0, 1))
        assert {(1, 0, 1): "x"}[atom] == "x"
        assert (atom.constant, atom.coeffs, atom.n) == (1, (0, 1), 2)
        assert Atom(1, [0, 1]) == atom  # any coefficient sequence

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(-3, 3)] * n)).filter(
                    lambda qz: qz[0] or any(qz[1])
                ),
                max_size=8,
            )
        )
    )
    def test_tuple_order_is_qexp_then_zexp(self, pairs):
        atoms = [Atom(q, z) for q, z in pairs]
        assert sorted(atoms) == sorted(atoms, key=lambda a: (a.constant, a.coeffs))

    def test_pickle_and_copy_round_trip(self):
        atom = Atom(-2, (0, 1, -1))
        for again in (
            pickle.loads(pickle.dumps(atom)),
            copy.copy(atom),
            copy.deepcopy(atom),
        ):
            assert again == atom and type(again) is Atom
        r = RationalQZ(ZqPoly.one(2).mul_monomial((1, 0, 2), -1), ((Atom(1, (1, 1)), 2),))
        again = pickle.loads(pickle.dumps(r))
        assert again == r and type(again.numer) is ZqPoly
        assert type(again.denom[0][0]) is Atom

    def test_str_is_the_rendered_factor(self):
        assert str(Atom(1, (0, 1))) == "(1 - q*z2)"
        assert str(Atom(-2, (3, 0))) == "(1 - q^-2*z1^3)"
        assert str(Atom(0, (1,))) == "(1 - z1)"

    def test_vanishing_atom_message(self):
        r = RationalQZ(ZqPoly.one(2), ((Atom(-2, (1, 1)), 1),))
        with pytest.raises(DenominatorVanishes) as info:
            substitute_z(r, (1, 1))
        assert str(info.value) == "atom (1 - q^-2*z1*z2) vanishes at a=(1, 1)"

    def test_numerator_atom_message(self):
        # (q)_{2 a1 + 1} / (q)_{2 a1} leaves the numerator atom 1 - q z1^2
        poch = {AffineForm(1, (2,)): 1, AffineForm(0, (2,)): -1}
        with pytest.raises(InternalInconsistency) as info:
            _normalize(1, [0, 0], [0] * len(_pairs(1)), poch)
        assert str(info.value) == "numerator atom (1 - q*z1^2) has a z-exponent above 1"
