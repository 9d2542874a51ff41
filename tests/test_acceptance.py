"""Acceptance gate: one test per release criterion, with pinned runtimes.

Each test prints a single PASS line on success; pytest -v gives the
per-criterion verdict either way.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

from qdyson.engine import (
    CoefficientQuery,
    coefficient_combined,
    coefficient_split,
    constant_term_identity,
    equivalent,
)
from qdyson.exactalg import (
    Atom,
    QPoly,
    RationalQZ,
    ZqPoly,
    equal_as_rational,
)
from qdyson.latticepoints import best_shift, evaluation_set_size
from qdyson.oracle import (
    SweepConfig,
    grid_coefficient_oracle,
    sweep,
    verify_query,
    zero_sum_deltas,
)
from qdyson.qpochhammer import (
    GridSpec,
    _window_into,
    phi_prime_at_point,
    phi_prime_flat,
    q_pochhammer_numeric,
    rewrite_pochhammer,
)
from qdyson.symforms import AffineForm, QuadForm, _pairs
from qdyson.errors import MixedSign


def accumulators_at(a, parity, twice, poch):
    """The engine's accumulators (-1)^parity q^(twice / 2) prod (q)_L^e,
    with poch the (L, e) pairs, at a as (numerator, denominator); a
    negative L is allowed only in the denominator, where 1/(q)_L = 0."""
    sign = -1 if sum(map(mul, parity, (1, *a))) % 2 else 1
    half = QuadForm(len(a), tuple(twice)).evaluate(a)
    assert half.denominator == 1, (twice, a)
    num, den = QPoly({int(half): sign}), QPoly.one()
    for index, exp in poch:
        length = index.evaluate(a)
        if length < 0:
            assert exp < 0, (index, a)
            return QPoly(), QPoly.one()
        for _ in range(abs(exp)):
            if exp > 0:
                num = num * q_pochhammer_numeric(1, length)
            else:
                den = den * q_pochhammer_numeric(1, length)
    return num, den


def check_window(e, f):
    """``_window_into`` on (q^e)_f, f generically positive, against the
    direct product at a in {1,2,3}^n; a window it calls zero must be.
    Returns what ``_window_into`` returned, None if it could not classify."""
    n = e.n
    parity, twice, poch = [0] * (n + 1), [0] * len(_pairs(n)), {}
    try:
        nonzero = _window_into(e, f, e + f - 1, parity, twice, poch)
    except MixedSign:
        return None
    for a in product((1, 2, 3), repeat=n):
        direct = q_pochhammer_numeric(e.evaluate(a), f.evaluate(a))
        if not nonzero:
            assert direct.is_zero(), (e, f, a)
        else:
            value = accumulators_at(a, parity, twice, poch.items())
            assert equal_as_rational(value, (direct, QPoly.one())), (e, f, a)
    return nonzero


def reference_formula_2m2_0_0() -> RationalQZ:
    """Independently recorded closed form for the delta = (2,-2,0,0)
    coefficient: N * (1 - z1) over four denominator atoms."""
    n_terms = [
        (3, (1, 2, 1, 2), -1),
        (3, (1, 2, 1, 3), 1),
        (3, (0, 2, 1, 1), 1),
        (3, (1, 2, 2, 2), -1),
        (3, (1, 2, 3, 2), 1),
        (2, (1, 2, 1, 1), -1),
        (2, (0, 1, 1, 0), -1),
        (2, (0, 1, 0, 2), -1),
        (2, (1, 1, 1, 1), 1),
        (2, (0, 1, 2, 1), -1),
        (2, (0, 1, 1, 1), 1),
        (1, (1, 1, 0, 1), 1),
        (1, (1, 1, 1, 0), 1),
        (1, (0, 0, 1, 1), 1),
        (2, (1, 1, 2, 2), -1),
        (0, (1, 0, 0, 0), -1),
    ]
    big_n = ZqPoly(4, {(q, z): c for q, z, c in n_terms})
    one_minus_z1 = Atom(0, (1, 0, 0, 0))
    denom = Counter(
        {
            Atom(1, (0, 1, 0, 1)): 1,
            Atom(1, (0, 1, 1, 0)): 1,
            Atom(1, (0, 1, 1, 1)): 1,
            Atom(2, (0, 1, 1, 1)): 1,
        }
    )
    return RationalQZ.make(big_n.mul_atom(one_minus_z1), denom)


def test_criterion_1_constant_term():
    start = time.perf_counter()
    for n in range(1, 6):
        result = constant_term_identity(n)
        assert result.rational == RationalQZ.one(n)
        assert result.point_count == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"constant-term runtime {elapsed:.2f}s >= 1s"
    print(f"ACCEPTANCE 1 PASS: constant term R = 1, one point, n = 1..5 "
          f"({elapsed:.2f}s)")


def test_criterion_2_recorded_closed_form():
    start = time.perf_counter()
    reference = reference_formula_2m2_0_0()
    query = CoefficientQuery(delta=(2, -2, 0, 0), shift="best")
    result = coefficient_combined(query)
    assert equivalent(result.rational, reference)
    split = coefficient_split(query)
    assert len(split.terms) == 4  # the four displayed summands
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s"
    print(f"ACCEPTANCE 2 PASS: delta=(2,-2,0,0) equivalent to the recorded "
          f"closed form, 4 split terms ({elapsed:.2f}s)")


def test_criterion_3_worked_closed_form():
    result = coefficient_combined(CoefficientQuery(delta=(1, -1), shift="zero"))
    closed = RationalQZ.make(
        -ZqPoly(2, {(0, (0, 0)): 1, (0, (1, 0)): -1}),  # -(1 - z1)
        Counter({Atom(1, (0, 1)): 1}),  # 1 - q z2
    )
    assert equivalent(result.rational, closed)
    report = verify_query((1, -1), (1, 1))
    assert report.match
    assert report.oracle_coeff == QPoly({0: -1})
    assert equal_as_rational(
        (report.engine_numer, report.engine_denom), (QPoly({0: -1}), QPoly.one())
    )
    print("ACCEPTANCE 3 PASS: delta=(1,-1) gives R = -(1-z1)/(1-q z2); "
          "coefficient at a=(1,1) is -1")


def test_criterion_4_oracle_sweep():
    start = time.perf_counter()
    reports = sweep(SweepConfig(n_range=(2, 3, 4), a_max=3, delta_budget=4))
    mismatches = [r for r in reports if not r.match]
    errors = [r for r in reports if r.error]
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    assert not errors, f"{len(errors)} engine errors, first: {errors[0]}"
    # every delta under both shift policies, at every a
    expected = 2 * sum(len(zero_sum_deltas(n, 4)) * 3 ** n for n in (2, 3, 4))
    assert len(reports) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"sweep runtime {elapsed:.1f}s >= 600s"
    print(f"ACCEPTANCE 4 PASS: oracle sweep, {len(reports)} comparisons, "
          f"0 mismatches ({elapsed:.1f}s)")


def test_criterion_5_shift_invariance():
    rng = random.Random(20260823)
    queries = []
    for n, count in ((2, 4), (3, 8), (4, 8)):
        pool = [d for d in zero_sum_deltas(n, 4) if any(d)]
        queries.extend(rng.sample(pool, count))
    assert len(queries) == 20
    for delta in queries:
        n = len(delta)
        shifts = ["zero", "best", (1,) * n, (0,) + (1,) * (n - 1)]
        results = [
            coefficient_combined(CoefficientQuery(delta=delta, shift=s)).rational
            for s in shifts
        ]
        for other in results[1:]:
            assert equivalent(results[0], other), (delta,)
    print("ACCEPTANCE 5 PASS: 20 queries invariant across 4 shift choices")


def test_criterion_6_grid_extraction():
    rng = random.Random(7)
    for trial in range(200):
        n = rng.choice((1, 2, 3))
        degrees = tuple(rng.randint(0, 3) for _ in range(n))
        top = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        poly = {degrees: top}
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, d) for d in degrees)
            if sum(exps) < sum(degrees):
                poly[exps] = poly.get(exps, Fraction(0)) + Fraction(
                    rng.randint(-9, 9), rng.randint(1, 4)
                )
        grids = [tuple(rng.sample(range(-8, 9), d + 1)) for d in degrees]
        assert grid_coefficient_oracle(poly, degrees, grids) == top, (trial,)
    # degree-deficient polynomials must extract 0
    assert grid_coefficient_oracle({(1, 0): 3, (0, 1): -2}, (1, 1),
                                   [(0, 1), (2, 5)]) == 0
    assert grid_coefficient_oracle({}, (2,), [(0, 1, 2)]) == 0
    print("ACCEPTANCE 6 PASS: 200 randomized grid extractions exact; "
          "degree-deficient cases return 0")


def test_criterion_7_phi_prime_and_rewrite():
    # exhaustive phi' check: grid degrees d <= 8, lower bounds in [-2, 2]
    for d in range(0, 9):
        for c in range(-2, 3):
            grid = GridSpec(lower=(c,), degree=(AffineForm.const(1, d),))
            for j in range(d + 1):
                expr = phi_prime_at_point(0, AffineForm.const(1, c + j), grid)
                num, den = expr.evaluate_numeric((1,))
                direct = QPoly.one()
                for t in range(d + 1):
                    if t != j:
                        direct = direct * (
                            QPoly({c + j: 1}) - QPoly({c + t: 1})
                        )
                assert equal_as_rational((num, den), (direct, QPoly.one())), (d, c, j)
                # the engine's flat phi' at the same point
                flat = phi_prime_flat(0, AffineForm.const(1, c + j), grid)
                value = accumulators_at((1,), *flat)
                assert equal_as_rational(value, (direct, QPoly.one())), (d, c, j)
    # rewrite soundness at a in {1,2,3}^n, n <= 3, over sign-classifiable forms
    for n in (1, 2, 3):
        params = [AffineForm.param(n, i) for i in range(n)]
        total = AffineForm.total(n)
        cases_e = [total, total + 1, params[0], params[0] + 2,
                   -total, -total - 1, AffineForm.const(n, 1),
                   AffineForm.const(n, 3)]
        cases_f = params + [AffineForm.const(n, 2), AffineForm.const(n, 0)]
        for e in cases_e:
            for f in cases_f:
                if f.generic_sign() == 1:  # the engine's windows
                    check_window(e, f)
                try:
                    expr = rewrite_pochhammer(e, f)
                except MixedSign:
                    continue
                for a in product((1, 2, 3), repeat=n):
                    direct = q_pochhammer_numeric(e.evaluate(a), f.evaluate(a))
                    if expr.is_zero():
                        assert direct.is_zero(), (e, f, a)
                    else:
                        num, den = expr.evaluate_numeric(a)
                        assert equal_as_rational(
                            (num, den), (direct, QPoly.one())
                        ), (e, f, a)
        # windows through 1 - q^0, which the cases above never reach
        for f in params:
            assert check_window(-params[0], f + params[0]) is False
    print("ACCEPTANCE 7 PASS: phi' exhaustive (d <= 8, shifts [-2,2]) and "
          "rewrite rules sound at a in {1,2,3}^n, n <= 3, for the reference "
          "and the engine")


def test_criterion_8_best_shift():
    for n in (2, 3, 4):
        for delta in zero_sum_deltas(n, 4):
            shift, size = best_shift(delta)
            assert size == evaluation_set_size(delta, shift)
            assert size <= evaluation_set_size(delta, (0,) * n), (delta,)
        assert best_shift((0,) * n) == ((0,) * n, 1)
    print("ACCEPTANCE 8 PASS: best shift never worse than zero shift; "
          "delta = 0 yields the zero shift with size 1")
