"""Evaluation-set enumeration, size formula, and shift optimization."""

from collections import Counter
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson import latticepoints
from qdyson.errors import UsageError
from qdyson.latticepoints import (
    MAX_N,
    _descent_table,
    best_shift,
    descent_count,
    enumerate_evaluation_set,
    evaluation_set_size,
    make_grid,
)
from qdyson.symforms import AffineForm


def zero_sum(n, budget):
    return [
        d
        for d in product(range(-budget, budget + 1), repeat=n)
        if sum(d) == 0 and sum(abs(x) for x in d) <= budget
    ]


def vanishing_condition_holds(alpha, a):
    """True iff some pair i<j satisfies -(a_i-1) <= alpha_i - alpha_j <= a_j,
    which forces the cleared product to vanish at q^alpha."""
    n = len(a)
    return any(
        -(a[i] - 1) <= alpha[i] - alpha[j] <= a[j]
        for i in range(n)
        for j in range(i + 1, n)
    )


def scan_budgets(delta, shift):
    """(pi, slack budget B(pi)) for every permutation, in permutations order."""
    n = len(delta)
    for pi in permutations(range(1, n + 1)):
        f, l = pi[0] - 1, pi[-1] - 1
        yield pi, delta[l] - descent_count(pi) + shift[l] - shift[f]


def scan_size(delta, shift):
    """|S_delta| by a scan over all n! permutations."""
    n = len(delta)
    return sum(comb(b + n, n) for _, b in scan_budgets(delta, shift) if b >= 0)


def scan_points(delta, shift):
    """(pi, m, alpha) by a scan over all n! permutations: every m in
    ``product`` order with sum <= B(pi), and alpha_{pi(1)} = c_{pi(1)} + m_1,
    alpha_{pi(r)} = alpha_{pi(r-1)} + a_{pi(r-1)} + [pi(r-1) > pi(r)] + m_r."""
    n = len(delta)
    out = []
    for pi, b in scan_budgets(delta, shift):
        for m in product(range(b + 1), repeat=n):
            if sum(m) > b:
                continue
            alpha = [None] * n
            value = AffineForm.const(n, shift[pi[0] - 1] + m[0])
            alpha[pi[0] - 1] = value
            for r in range(1, n):
                prev = pi[r - 1]
                value = value + AffineForm.param(n, prev - 1) + (prev > pi[r]) + m[r]
                alpha[pi[r] - 1] = value
            out.append((pi, m, tuple(alpha)))
    return out


SHIFT_FAMILIES = {
    "zero": lambda d: (0,) * len(d),
    "best": lambda d: best_shift(d)[0],
    "ones": lambda d: (0,) + (1,) * (len(d) - 1),
    "ascending": lambda d: tuple(range(len(d))),
    "descending": lambda d: tuple(range(len(d), 0, -1)),
    "mixed": lambda d: ((0, 3, -2, 1) + (0,) * len(d))[: len(d)],
}


def assert_walk_matches_scan(delta, shift, monkeypatch):
    """The enumerated points equal the scan's, point for point and in order,
    and every prefix the walk extends has a feasible completion."""
    walked = []
    complete = latticepoints._completions

    def recording(pi, *rest):
        walked.append(pi)
        return complete(pi, *rest)

    monkeypatch.setattr(latticepoints, "_completions", recording)
    points = enumerate_evaluation_set(delta, shift).points
    expected = scan_points(delta, shift)
    assert [(pt.pi, pt.m, pt.alpha) for pt in points] == expected, (delta, shift)
    prefixes = {pi[:r] for pi, _, _ in expected for r in range(len(pi) + 1)}
    assert set(walked[1:]) <= prefixes, (delta, shift)


def brute_best_shift(delta, radius):
    """Every shift of the box scored in tie-break order; the first minimum wins."""
    values = sorted(range(-radius, radius + 1), key=lambda x: (abs(x), x))
    shifts = ((0,) + tail for tail in product(values, repeat=len(delta) - 1))
    best = min(shifts, key=lambda c: evaluation_set_size(delta, c))
    return best, evaluation_set_size(delta, best)


def assert_beats_inner_box(delta):
    """best_shift is no worse than the brute-force optimum of the radius-2
    box, and equal to it when its shift lies in that box."""
    shift, size = best_shift(delta)
    inner = brute_best_shift(delta, 2)
    assert size <= inner[1], delta
    if max(map(abs, shift)) <= 2:
        assert (shift, size) == inner, delta


@st.composite
def deltas(draw, max_n):
    head = draw(st.lists(st.integers(-2, 2), max_size=max_n - 1))
    return tuple(head) + (-sum(head),)


class TestDescents:
    def test_examples(self):
        assert descent_count((1, 2, 3)) == 0
        assert descent_count((3, 2, 1)) == 2
        assert descent_count((2, 1, 3)) == 1
        assert descent_count((1,)) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            descent_count((1, 1, 2))


class TestDescentCount:
    def test_table_matches_a_scan(self):
        for n in range(1, 9):
            scan = Counter(
                (pi[0] - 1, pi[-1] - 1, descent_count(pi))
                for pi in permutations(range(1, n + 1))
            )
            assert dict(_descent_table(n)) == scan, n

    @pytest.mark.parametrize(
        "call", [enumerate_evaluation_set, evaluation_set_size, best_shift]
    )
    def test_past_the_ceiling_is_a_usage_error(self, call):
        assert MAX_N == 24
        with pytest.raises(UsageError, match="n = 25 is past .* ceiling of 24"):
            call((1, -1) + (0,) * 23)

    @pytest.mark.parametrize(
        "call", [enumerate_evaluation_set, evaluation_set_size, best_shift]
    )
    def test_no_variables_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="need at least one variable"):
            call(())

    @pytest.mark.parametrize(
        "call, args",
        [
            *(
                (call, args)
                for call in (enumerate_evaluation_set, evaluation_set_size)
                for args in [((),), ((1, 0),), ((1, -1), (0,)), ((1, -1), (0, 0, 0))]
            ),
            (best_shift, ((),)),  # best_shift takes no shift to check
            (best_shift, ((1, 0),)),
        ],
    )
    def test_malformed_input_is_a_usage_error(self, call, args):
        with pytest.raises(UsageError):
            call(*args)


class TestWalkMatchesScan:
    @pytest.mark.parametrize("family", SHIFT_FAMILIES)
    def test_shift_families_up_to_n6(self, family, monkeypatch):
        # every set of at most 400 points with sum |delta_i| <= 4 (<= 2 past
        # n = 4), and the smallest one when none is that small
        for n in range(1, 7):
            sized = sorted(
                (evaluation_set_size(d, c), d, c)
                for d in zero_sum(n, 4 if n <= 4 else 2)
                for c in [SHIFT_FAMILIES[family](d)]
            )
            for size, delta, shift in sized:
                if size <= 400 or size == sized[0][0]:
                    assert_walk_matches_scan(delta, shift, monkeypatch)

    @pytest.mark.parametrize(
        "delta",
        [
            (1, -1, 0, 0, 0, 0, 0),
            (0, 0, -1, 0, 0, 0, 1),
            (2, 0, 0, -1, 0, -1, 0),
            (0, 1, 0, 0, -1, 0, 0, 0),
            (-1, 0, 0, 0, 0, 0, 0, 1),
        ],
    )
    def test_sample_at_n7_and_n8(self, delta, monkeypatch):
        for shift in ((0,) * len(delta), best_shift(delta)[0]):
            assert_walk_matches_scan(delta, shift, monkeypatch)


class TestEnumeration:
    def test_constant_term_is_singleton(self):
        for n in (1, 2, 3, 4):
            evalset = enumerate_evaluation_set((0,) * n)
            assert len(evalset) == 1
            pt = evalset.points[0]
            assert pt.pi == tuple(range(1, n + 1))
            assert pt.m == (0,) * n

    def test_delta_one_minus_one(self):
        # only pi = (2, 1) has budget 0: alpha = (a2 + 1, 0)
        evalset = enumerate_evaluation_set((1, -1))
        assert len(evalset) == 1
        pt = evalset.points[0]
        assert pt.pi == (2, 1)
        assert pt.alpha == (
            AffineForm.param(2, 1) + 1,
            AffineForm.const(2, 0),
        )

    def test_delta_one_minus_one_zero(self):
        # pi = (1, 2, 3) and (2, 3, 1), both budget 0
        evalset = enumerate_evaluation_set((1, -1, 0))
        assert len(evalset) == 2
        assert {pt.pi for pt in evalset.points} == {(1, 2, 3), (2, 3, 1)}
        n = 3
        a1, a2, a3 = (AffineForm.param(n, i) for i in range(n))
        zero = AffineForm.const(n, 0)
        alphas = {pt.pi: pt.alpha for pt in evalset.points}
        assert alphas[(1, 2, 3)] == (zero, a1, a1 + a2)
        assert alphas[(2, 3, 1)] == (a2 + a3 + 1, zero, a2)

    def test_sum_nonzero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_evaluation_set((1, 0))

    def test_shift_length_check(self):
        with pytest.raises(ValueError):
            enumerate_evaluation_set((1, -1), (0,))

    def test_size_shift_length_check(self):
        for shift in ((0, 0, 5), (0,)):
            with pytest.raises(ValueError, match="shift vector has wrong length"):
                evaluation_set_size((1, -1), shift)

    def test_size_formula_matches_enumeration(self):
        for n in (2, 3):
            for delta in zero_sum(n, 3):
                for shift in product((-1, 0, 1), repeat=n):
                    assert evaluation_set_size(delta, shift) == len(
                        enumerate_evaluation_set(delta, shift)
                    )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_size_formula_matches_scan(self, data):
        delta = data.draw(deltas(7))
        n = len(delta)
        shift = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
        assert evaluation_set_size(delta, shift) == scan_size(delta, shift)

    def test_alpha_strictly_increasing_along_pi(self):
        # consecutive sorted values differ by a positive form
        evalset = enumerate_evaluation_set((2, -1, -1), (0, 1, 0))
        assert len(evalset) > 0
        for pt in evalset.points:
            for r in range(len(pt.pi) - 1):
                lo = pt.alpha[pt.pi[r] - 1]
                hi = pt.alpha[pt.pi[r + 1] - 1]
                diff = hi - lo
                assert diff.evaluate((1,) * 3) > 0

    def test_alpha_within_grid(self):
        for delta in zero_sum(3, 2):
            for shift in ((0, 0, 0), (0, 1, -1)):
                evalset = enumerate_evaluation_set(delta, shift)
                grid = evalset.grid
                # membership is generic: check at a large relative to |delta|
                big = 3 + sum(abs(d) for d in delta)
                for pt in evalset.points:
                    for i, f in enumerate(pt.alpha):
                        rel = f - AffineForm.const(3, grid.lower[i])
                        room = grid.degree[i] - rel
                        for a in product((big, big + 1), repeat=3):
                            assert rel.evaluate(a) >= 0
                            assert room.evaluate(a) >= 0


class TestGrid:
    def test_degrees(self):
        grid = make_grid((1, -1), (0, 0))
        assert grid.degree == (
            AffineForm.param(2, 1) + 1,  # a2 + 1
            AffineForm.param(2, 0) - 1,  # a1 - 1
        )
        assert grid.lower == (0, 0)

    def test_shift_moves_lower(self):
        assert make_grid((0, 0), (2, -1)).lower == (2, -1)


class TestBestShift:
    def test_constant_term(self):
        assert best_shift((0, 0, 0)) == ((0, 0, 0), 1)

    def test_never_worse_than_zero(self):
        for n in (2, 3):
            for delta in zero_sum(n, 3):
                _, size = best_shift(delta)
                assert size <= evaluation_set_size(delta, (0,) * n)

    def test_first_coordinate_pinned(self):
        for delta in zero_sum(3, 2):
            shift, _ = best_shift(delta)
            assert shift[0] == 0

    def test_four_point_example(self):
        shift, size = best_shift((2, -2, 0, 0))
        assert size == 4
        assert evaluation_set_size((2, -2, 0, 0), shift) == 4

    def test_deterministic(self):
        assert best_shift((1, 0, -1)) == best_shift((1, 0, -1))

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            best_shift((1, 0))

    def test_matches_brute_force(self):
        for n in (2, 3, 4):
            for delta in zero_sum(n, 4):
                radius = max(1, max(abs(d) for d in delta)) + 1
                assert best_shift(delta) == brute_best_shift(delta, radius), delta
        for delta in zero_sum(5, 4):
            assert_beats_inner_box(delta)

    @settings(max_examples=40, deadline=None)
    @given(deltas(5))
    def test_matches_brute_force_random(self, delta):
        assert_beats_inner_box(delta)

    def test_exact_at_n6(self):
        assert best_shift((0, -2, 0, 0, 0, 2)) == ((0, 0, -1, -1, -1, -2), 10)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=2, max_size=3))
    def test_reported_size_is_real(self, head):
        delta = tuple(head) + (-sum(head),)
        shift, size = best_shift(delta)
        assert size == len(enumerate_evaluation_set(delta, shift))


class TestVanishing:
    def test_examples(self):
        assert vanishing_condition_holds((0, 0), (1, 1))
        assert vanishing_condition_holds((2, 0), (1, 2))
        assert not vanishing_condition_holds((2, 0), (1, 1))
        assert not vanishing_condition_holds((0, 3), (2, 1))

    def test_enumeration_is_exactly_the_nonvanishing_grid(self):
        # for generic concrete a (large relative to |delta|), the enumerated
        # alphas are precisely the grid points where the cleared product does
        # not vanish
        for delta in ((0, 0), (1, -1), (2, -2), (1, -1, 0)):
            n = len(delta)
            big = 3 + sum(abs(d) for d in delta)
            for a in product((big, big + 1), repeat=n):
                evalset = enumerate_evaluation_set(delta)
                sigma = sum(a)
                degrees = [sigma - a[i] + delta[i] for i in range(n)]
                surviving = {
                    alpha
                    for alpha in product(
                        *(range(0, d + 1) for d in degrees)
                    )
                    if not vanishing_condition_holds(alpha, a)
                }
                enumerated = {
                    tuple(f.evaluate(a) for f in pt.alpha)
                    for pt in evalset.points
                }
                assert enumerated == surviving, (delta, a)
