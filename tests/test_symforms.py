"""Affine/quadratic/parity forms and generic-sign analysis."""

import copy
import pickle
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson.errors import InternalInconsistency
from qdyson.symforms import (
    AffineForm,
    QuadForm,
    parity_reduce,
    quad_finalize,
)


class TestGenericSign:
    def test_positive(self):
        assert AffineForm(1, (1, 0)).generic_sign() == 1

    def test_negative(self):
        assert AffineForm(0, (0, -1)).generic_sign() == -1

    def test_mixed(self):
        assert AffineForm(0, (1, -1)).generic_sign() is None

    def test_constant_only(self):
        assert AffineForm(5, (0, 0)).generic_sign() == 1
        assert AffineForm(-5, (0, 0)).generic_sign() == -1
        assert AffineForm(0, (0, 0)).generic_sign() == 0

    def test_sign_matches_large_substitution(self):
        random.seed(7)
        for _ in range(50):
            form = AffineForm(
                random.randint(-4, 4),
                tuple(random.randint(-2, 2) for _ in range(3)),
            )
            cls = form.generic_sign()
            if cls is None:
                continue
            m = 1 + sum(abs(c) for c in form.coeffs) + abs(form.constant)
            value = form.evaluate((m, m, m))
            expected = {
                1: value > 0,
                -1: value < 0,
                0: value == 0,
            }[cls]
            assert expected, (form, cls, value)


class TestSubstituteAffine:
    def test_examples(self):
        assert AffineForm(2, (1, 0, -1)).evaluate((1, 5, 2)) == 1
        assert AffineForm.total(3).evaluate((1, 1, 1)) == 3
        assert AffineForm(0, (0, 0)).evaluate((9, 9)) == 0

    def test_length_check(self):
        with pytest.raises(ValueError):
            AffineForm(0, (1,)).evaluate((1, 2))


class TestTupleContract:
    """An affine form is its int tuple (constant, coeffs...)."""

    def test_elementwise_from_either_side(self):
        f, g = AffineForm(1, (2, -3)), AffineForm(-4, (0, 5))
        assert f + g == (-3, 2, 2)
        assert (1, 1, 1) + f == f + (1, 1, 1) == (2, 3, -2)
        assert type((1, 1, 1) + f) is type(f + g) is AffineForm
        assert f - g == (5, 2, -8)
        assert f - (1, 2, -3) == (0, 0, 0)
        assert -f == (-1, -2, 3)

    def test_int_shifts_the_constant(self):
        f = AffineForm(1, (2, -3))
        assert f + 3 == 3 + f == AffineForm(4, (2, -3))
        assert f - 3 == AffineForm(-2, (2, -3))

    def test_sum(self):
        forms = [AffineForm.param(3, i) for i in range(3)]
        assert sum(forms, AffineForm.const(3, 2)) == AffineForm(2, (1, 1, 1))
        assert sum(forms) == AffineForm.total(3)

    def test_equal_and_hash_as_plain_tuple(self):
        f = AffineForm(-1, (0, 2))
        assert f == (-1, 0, 2) and hash(f) == hash((-1, 0, 2))
        poch = {f: 1}
        poch[(-1, 0, 2)] = poch.get((-1, 0, 2), 0) + 1
        assert poch == {(-1, 0, 2): 2}
        assert (f.constant, f.coeffs, f.n) == (-1, (0, 2), 2)

    def test_length_mismatch_raises(self):
        f = AffineForm(0, (1, 1))
        for other in (AffineForm(0, (1,)), (0, 1), (0, 1, 1, 1)):
            with pytest.raises(ValueError):
                f + other
            with pytest.raises(ValueError):
                other + f
            with pytest.raises(ValueError):
                f - other

    def test_copy_and_pickle(self):
        f = AffineForm(3, (-1, 0, 2))
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and type(g) is AffineForm


# str(AffineForm(c, v)), as outputs and error messages print it
PINNED_STR = [
    ((0, ()), "0"),
    ((0, (0, 0)), "0"),
    ((3, (0, 0)), "3"),
    ((-3, (0, 0)), "-3"),
    ((0, (1, 0)), "a1"),
    ((0, (-1, 0)), "- a1"),
    ((0, (2, 0)), "2*a1"),
    ((0, (-2, 0)), "- 2*a1"),
    ((0, (0, 1)), "a2"),
    ((-1, (0, -1)), "-1 - a2"),
    ((1, (1, -1)), "1 + a1 - a2"),
    ((-2, (-1, 1)), "-2 - a1 + a2"),
    ((5, (-3, 0, 7)), "5 - 3*a1 + 7*a3"),
    ((-1, (1, 1, 0)), "-1 + a1 + a2"),
    ((0, (1, 1, 1)), "a1 + a2 + a3"),
    ((7, (0, 0, -12)), "7 - 12*a3"),
    ((-4, (-1, -1, -1)), "-4 - a1 - a2 - a3"),
]


@pytest.mark.parametrize("form,text", PINNED_STR, ids=[t for _, t in PINNED_STR])
def test_str(form, text):
    assert str(AffineForm(*form)) == text


class TestParity:
    def test_even_coefficient(self):
        assert parity_reduce(AffineForm(1, (2,))) == 1

    def test_a_dependent(self):
        assert parity_reduce(AffineForm(0, (1,))) is None

    def test_mod2_cancellation(self):
        form = AffineForm(0, (0, 1)) + AffineForm(0, (0, 1))
        assert parity_reduce(form) == 0

    def test_agrees_with_substitution(self):
        random.seed(11)
        for _ in range(30):
            form = AffineForm(
                random.randint(-3, 3),
                tuple(random.randint(-2, 2) for _ in range(3)),
            )
            bit = parity_reduce(form)
            for _ in range(10):
                a = tuple(random.randint(1, 9) for _ in range(3))
                if bit is not None:
                    assert form.evaluate(a) % 2 == bit
                else:
                    # stepping a parameter with an odd coefficient flips the sign
                    i = next(k for k, c in enumerate(form.coeffs) if c % 2)
                    stepped = tuple(v + (k == i) for k, v in enumerate(a))
                    assert form.evaluate(stepped) % 2 != form.evaluate(a) % 2


class TestQuadForm:
    def test_add_commutative_associative(self):
        a = QuadForm.from_product(AffineForm(1, (1, 0)), AffineForm(0, (0, 1)))
        b = QuadForm.choose2(AffineForm(2, (1, 1)))
        c = QuadForm.from_affine(AffineForm(-1, (3, 0)))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    def test_evaluate_matches_product(self):
        f = AffineForm(1, (2, -1))
        g = AffineForm(-2, (0, 3))
        q = QuadForm.from_product(f, g)
        for a in ((1, 1), (2, 5), (4, 3)):
            assert q.evaluate(a) == f.evaluate(a) * g.evaluate(a)

    def test_choose2(self):
        f = AffineForm(0, (1, 0))
        q = QuadForm.choose2(f)
        for a in ((1, 9), (5, 2)):
            v = f.evaluate(a)
            assert q.evaluate(a) == Fraction(v * (v - 1), 2)

    def test_finalize_cancellation(self):
        prod = QuadForm.from_product(AffineForm(0, (1, 0)), AffineForm(0, (0, 1)))
        lifted = QuadForm.from_affine(AffineForm(0, (2, 0)))
        assert quad_finalize(prod - prod + lifted) == AffineForm(0, (2, 0))

    def test_finalize_half_integer_cancellation(self):
        half = QuadForm.choose2(AffineForm(1, (0, 1)))
        assert quad_finalize(half - half + QuadForm.from_affine(AffineForm(3, (0, 0)))) == AffineForm(3, (0, 0))

    def test_finalize_lift_round_trip(self):
        form = AffineForm(-2, (0, 5, 1))
        assert quad_finalize(QuadForm.from_affine(form)) == form

    def test_finalize_rejects_quadratic_residue(self):
        half_square = QuadForm(1, (0, 0, 1))  # a1^2/2
        # (a1^2 - a1)/2 - a1^2/2 leaves -a1/2
        residue = QuadForm.choose2(AffineForm(0, (1,))) - half_square
        assert residue == QuadForm(1, (0, -1, 0))
        # a1^2/2 alone survives as a quadratic term
        with pytest.raises(InternalInconsistency, match="quadratic"):
            quad_finalize(half_square)
        with pytest.raises(InternalInconsistency, match="non-integral"):
            quad_finalize(residue)


@st.composite
def forms_and_point(draw):
    """n in 1..4, three small affine forms f, g, h and an integer point a."""
    n = draw(st.integers(1, 4))
    form = st.builds(
        AffineForm, st.integers(-5, 5), st.tuples(*[st.integers(-5, 5)] * n)
    )
    a = draw(st.tuples(*[st.integers(-9, 9)] * n))
    return draw(form), draw(form), draw(form), a


@st.composite
def cross_term(draw):
    """n in 3..4, parameter indices i < j and an affine form h."""
    n = draw(st.integers(3, 4))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    i, j = sorted(draw(pair))
    h = AffineForm(draw(st.integers(-5, 5)), draw(st.tuples(*[st.integers(-5, 5)] * n)))
    return n, i, j, h


class TestDoubledLayout:
    @settings(max_examples=150, deadline=None)
    @given(forms_and_point())
    def test_evaluate_is_exact(self, case):
        f, g, h, a = case
        q = QuadForm.from_product(f, g) + QuadForm.choose2(h) - QuadForm.from_affine(f)
        fa, ga, ha = f.evaluate(a), g.evaluate(a), h.evaluate(a)
        assert q.evaluate(a) == fa * ga + Fraction(ha * (ha - 1), 2) - fa

    @settings(max_examples=150, deadline=None)
    @given(forms_and_point())
    def test_finalize_after_cancellation(self, case):
        f, g, h, _ = case
        q = (
            QuadForm.from_product(f, g)
            - QuadForm.from_product(g, f)
            + QuadForm.from_affine(h)
        )
        assert quad_finalize(q) == h

    @settings(max_examples=60, deadline=None)
    @given(cross_term())
    def test_lone_cross_term_rejected(self, case):
        # an a_i * a_j entry read as a linear one would finalize quietly
        n, i, j, h = case
        q = QuadForm.from_product(
            AffineForm.param(n, i), AffineForm.param(n, j)
        ) + QuadForm.from_affine(h)
        with pytest.raises(InternalInconsistency):
            quad_finalize(q)
