"""Brute-force expansion oracle, grid-sum oracle, and engine verification."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyson.errors import DuplicateNode, InternalInconsistency, UsageError
from qdyson.exactalg import QPoly, RationalQZ, equal_as_rational
from qdyson.oracle import (
    SweepConfig,
    dyson_coefficient,
    expand_qdyson_product,
    grid_coefficient_oracle,
    sweep,
    verify_query,
    zero_sum_deltas,
)
from qdyson import cli, oracle, qpochhammer
from qdyson.engine import CoefficientQuery, coefficient_combined
from qdyson.qpochhammer import q_multinomial_numeric


def binomials(a):
    """The factors 1 - q^t x^v of the q-Dyson product, as {(v, t): coeff}."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple((k == i) - (k == j) for k in range(n))
            w = tuple(-x for x in v)
            yield from ({((0,) * n, 0): 1, (v, t): -1} for t in range(a[i]))
            yield from ({((0,) * n, 0): 1, (w, t): -1} for t in range(1, a[j] + 1))


def schoolbook_expansion(a):
    """The product of binomials(a) by term-by-term convolution."""
    out = {((0,) * len(a), 0): 1}
    for factor in binomials(a):
        acc = {}
        for (e1, k1), c1 in out.items():
            for (e2, k2), c2 in factor.items():
                key = (tuple(map(add, e1, e2)), k1 + k2)
                acc[key] = acc.get(key, 0) + c1 * c2
        out = {key: c for key, c in acc.items() if c}
    return out


def q_binomial_row(m):
    """[m; j]_q for j = 0..m, by [m; j+1] = [m; j] (1 - q^(m-j)) / (1 - q^(j+1)),
    on dense coefficient lists."""
    rows = [[1]]
    for j in range(m):
        up, down = m - j, j + 1
        f = rows[-1] + [0] * up
        for k, c in enumerate(rows[-1]):
            f[k + up] -= c
        for k in range(down, len(f)):  # g = f / (1 - q^down): g_k = f_k + g_(k-down)
            f[k] += f[k - down]
        assert not any(f[-down:])
        rows.append(f[:-down])
    return [QPoly(dict(enumerate(r))) for r in rows]


class TestExpansion:
    def test_single_variable(self):
        assert expand_qdyson_product((5,)) == {(0,): QPoly.one()}

    def test_a_one_zero(self):
        # (x1/x2)_1 = 1 - x1/x2
        assert expand_qdyson_product((1, 0)) == {
            (0, 0): QPoly({0: 1}),
            (1, -1): QPoly({0: -1}),
        }

    def test_a_one_one(self):
        # (1 - x1/x2)(1 - q x2/x1) = 1 + q - q x2/x1 - x1/x2
        assert expand_qdyson_product((1, 1)) == {
            (0, 0): QPoly({0: 1, 1: 1}),
            (-1, 1): QPoly({1: -1}),
            (1, -1): QPoly({0: -1}),
        }

    def test_constant_term_is_multinomial(self):
        # the q-Dyson constant-term identity, at small numeric a
        for n in (2, 3):
            for a in product((1, 2), repeat=n):
                expansion = expand_qdyson_product(a)
                assert expansion[(0,) * n] == q_multinomial_numeric(a)
                assert all(sum(e) == 0 for e in expansion)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_matches_schoolbook_product(self, a):
        expansion = expand_qdyson_product(a)
        assert all(not c.is_zero() and sum(e) == 0 for e, c in expansion.items())
        flat = {(e, k): c for e, poly in expansion.items() for k, c in poly.items()}
        assert flat == schoolbook_expansion(a)

    @pytest.mark.parametrize("a", [(3, 5), (7, 2), (33, 34), (40, 40)])
    def test_two_variables_match_triple_product(self, a):
        # x1^k x2^-k has coefficient (-1)^k q^(k(k-1)/2) [a1+a2; a2+k]_q;
        # (33, 34) multiplies N = 67 binomials, so its q-slots are 128 bits
        # wide, and (40, 40) has coefficients past 2^64
        a1, a2 = a
        binomial = q_binomial_row(a1 + a2)
        expected = {
            (k, -k): binomial[a2 + k].shift(k * (k - 1) // 2) * (-1) ** (k % 2)
            for k in range(-a2, a1 + 1)
        }
        expansion = expand_qdyson_product(a)
        assert expansion == expected
        assert all(0 not in c.terms.values() for c in expansion.values())

    def test_q_multinomial_is_q_binomial(self):
        # (q)_{a1+a2} / ((q)_a1 (q)_a2) is the q-binomial [a1+a2; a1]_q
        wide = [(1, 63), (0, 64), (20, 33), (40, 40), (64, 64)]
        for a1, a2 in [*product(range(9), repeat=2), *wide]:
            assert q_multinomial_numeric((a1, a2)) == q_binomial_row(a1 + a2)[a1]

    def test_wide_slot_constant_term(self):
        # N = 2 * 33 = 66 binomials: 128-bit q-slots
        expansion = expand_qdyson_product((11, 11, 11))
        assert expansion[(0, 0, 0)] == q_multinomial_numeric((11, 11, 11))
        assert all(0 not in c.terms.values() for c in expansion.values())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expand_qdyson_product(())
        with pytest.raises(ValueError):
            expand_qdyson_product((1, -1))

    @pytest.mark.parametrize("a", [(), (1, -1), (0, -2, 1)])
    def test_malformed_a_is_a_usage_error(self, a):
        with pytest.raises(UsageError):
            expand_qdyson_product(a)


class TestSizeGuard:
    @pytest.mark.parametrize(
        "a", [(1, 1), (2, 1, 3), (3, 3, 3, 3), (11, 11, 11), (40, 40)]
    )
    def test_prediction_bounds_the_packed_product(self, monkeypatch, a):
        packed = expand_qdyson_product(a)._packed
        actual = sum(v.bit_length() for v in packed.values()) // 8
        monkeypatch.setattr(oracle, "MAX_EXPANSION_BYTES", actual - 1)
        with pytest.raises(UsageError, match=f"more than the {actual - 1:,} bytes"):
            expand_qdyson_product(a)

    def test_fails_before_the_first_binomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(oracle, "_times_one_minus", forbidden)
        predicted = r"a = \[200, 200\] predicts a 898,262,456-byte"
        with pytest.raises(UsageError, match=predicted):
            expand_qdyson_product((200, 200))

    def test_each_expansion_is_sized_once(self, monkeypatch, capsys):
        calls = []
        real = oracle._expansion_width
        monkeypatch.setattr(
            oracle, "_expansion_width", lambda a: calls.append(tuple(a)) or real(a)
        )
        expansions = [expand_qdyson_product(a) for a in ((2, 1, 1), (1, 2, 1))]
        assert calls == [(2, 1, 1), (1, 2, 1)]  # once per build
        for delta in zero_sum_deltas(3, 2):
            report = verify_query(delta, (2, 1, 1), expansion=expansions[0])
            assert report.match, delta
        assert len(calls) == 2  # none for an expansion passed in
        calls.clear()
        assert verify_query((1, -1, 0), (2, 1, 1)).match
        assert calls == [(2, 1, 1)]  # once for the expansion verify_query builds
        calls.clear()
        assert cli.run_command(["article", "--delta", "1,-1,0"]) == cli.EXIT_OK
        assert "[match]" in capsys.readouterr().out
        assert calls == [(1, 1, 1), (2, 2, 2)]  # once per appendix sample

    def test_verify_fails_before_the_q_multinomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(oracle, "q_multinomial_numeric", forbidden)
        monkeypatch.setattr(oracle, "expand_qdyson_product", forbidden)
        with pytest.raises(UsageError, match="oracle expansion"):
            verify_query((1, -1), (200, 200))


def fully_decoded(expansion):
    """Every key of the packed product, decoded at once digit by digit, by a
    route that shares no code with the mapping's lookup."""
    n, width = expansion._n, expansion._width
    out = {}
    for key, packed in expansion._packed.items():
        exps = tuple(((key >> 16 * i) & 0xFFFF) - 8192 for i in range(n))
        terms, k = {}, 0
        while packed:
            digit = packed & ((1 << width) - 1)
            if digit >> (width - 1):
                digit -= 1 << width
            terms[k] = digit
            packed = (packed - digit) >> width
            k += 1
        out[exps] = QPoly(terms)
    return out


class TestLazyExpansion:
    @pytest.mark.parametrize("a", [(1, 1), (2, 1, 3), (2, 2, 2, 2), (11, 11, 11), (40, 40)])
    def test_equals_the_fully_decoded_dict(self, a):
        expansion = expand_qdyson_product(a)
        decoded = fully_decoded(expansion)
        assert expansion == decoded
        assert dict(expansion.items()) == decoded
        assert len(expansion) == len(decoded) == len(list(expansion))

    def test_get_outside_the_product_is_zero(self):
        # absent; past the packed field range (8192 and -9000); wrong length
        expansion = expand_qdyson_product((2, 1, 3))
        for absent in ((9, -9, 0), (1, 1, 1), (8192, -8192, 0), (0, -9000, 0), (0, 0), (0, 0, 0, 0)):
            assert absent not in expansion
            assert expansion.get(absent, QPoly()) == QPoly()
        assert dyson_coefficient((2, 1, 3), (8192, -8192, 0), expansion) == QPoly()
        with pytest.raises(KeyError):
            expansion[(8192, -8192, 0)]

    def test_one_decode_per_query(self, monkeypatch):
        a = (2, 1, 3)
        expansion = expand_qdyson_product(a)
        deltas = zero_sum_deltas(3, 2)
        calls = []
        real = oracle._unpack_q
        monkeypatch.setattr(oracle, "_unpack_q", lambda *args: calls.append(args) or real(*args))
        for delta in deltas:
            assert verify_query(delta, a, shift="zero", expansion=expansion).match
        assert 0 < len(calls) <= len(deltas)


class TestDysonCoefficient:
    def test_examples(self):
        assert dyson_coefficient((1, 1), (1, -1)) == QPoly({0: -1})
        assert dyson_coefficient((1, 1), (1, 1)).is_zero()
        assert dyson_coefficient((1, 1, 1), (1, 0, -1)) == QPoly({1: -1, 2: -1})

    def test_reuses_expansion(self):
        a = (2, 1)
        expansion = expand_qdyson_product(a)
        assert dyson_coefficient(a, (1, -1), expansion) == dyson_coefficient(
            a, (1, -1)
        )

    def test_length_check(self):
        with pytest.raises(ValueError):
            dyson_coefficient((1, 1), (1, -1, 0))
        with pytest.raises(UsageError, match="a must have the same length as delta"):
            dyson_coefficient((1, 1), (1, -1, 0))
        with pytest.raises(UsageError, match="a must have the same length as delta"):
            verify_query((1, -1, 0), (1, 1))


class TestVerify:
    def test_matching_cases(self):
        for delta, a in (
            ((1, -1), (1, 1)),
            ((1, -1), (2, 3)),
            ((1, 0, -1), (1, 1, 1)),
            ((2, -2), (2, 2)),
            ((0, -2, 0, 0, 0, 2), (1,) * 6),
        ):
            report = verify_query(delta, a)
            assert report.match, (delta, a, report.error)
            assert report.error == ""

    def test_worked_value(self):
        report = verify_query((1, -1), (1, 1))
        assert report.oracle_coeff == QPoly({0: -1})
        assert equal_as_rational(
            (report.engine_numer, report.engine_denom), (QPoly({0: -1}), QPoly.one())
        )

    def test_unbalanced_delta(self):
        report = verify_query((1, 1), (1, 1))
        assert report.match
        assert report.oracle_coeff.is_zero()

    def test_precomputed_rational_mismatch_reported(self):
        report = verify_query((1, -1), (1, 1), rational=RationalQZ.one(2))
        assert not report.match

    def test_requires_positive_a(self):
        with pytest.raises(ValueError):
            verify_query((1, -1), (1, 0))

    def test_q_multinomial_once_per_a(self, monkeypatch):
        a = (2, 1, 3)
        expansion = expand_qdyson_product(a)
        d1, d2 = (1, -1, 0), (0, 1, -1)
        r1, r2 = (
            coefficient_combined(CoefficientQuery(delta=d, shift="zero")).rational
            for d in (d1, d2)
        )
        calls = []
        real = qpochhammer._divide_one_minus
        monkeypatch.setattr(
            qpochhammer, "_divide_one_minus", lambda terms, s: calls.append(s) or real(terms, s)
        )
        qpochhammer._q_multinomial.cache_clear()
        assert verify_query(d1, a, expansion=expansion, rational=r1).match
        first = len(calls)
        assert verify_query(d2, a, expansion=expansion, rational=r2).match
        assert first > 0 and len(calls) == first
        assert q_multinomial_numeric(list(a)) == q_multinomial_numeric(a)


class TestGridOracle:
    def test_univariate_quadratic(self):
        # leading coefficient of x^2 on any 3-node grid is 1
        poly = {(2,): 1, (1,): -3, (0,): 7}
        assert grid_coefficient_oracle(poly, (2,), [(0, 1, 2)]) == 1
        assert grid_coefficient_oracle(poly, (2,), [(-1, Fraction(1, 2), 5)]) == 1

    def test_degree_deficient_is_zero(self):
        assert grid_coefficient_oracle({(1,): 1}, (2,), [(0, 1, 2)]) == 0

    def test_bivariate(self):
        # coefficient of x y in x y + x + y + 1
        poly = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}
        assert grid_coefficient_oracle(poly, (1, 1), [(0, 1), (0, 1)]) == 1

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            grid_coefficient_oracle({(0,): 1}, (1,), [(1, 1)])

    def test_grid_size_check(self):
        with pytest.raises(ValueError):
            grid_coefficient_oracle({(0,): 1}, (2,), [(0, 1)])

    def test_degree_bound_check(self):
        with pytest.raises(ValueError):
            grid_coefficient_oracle({(3,): 1}, (2,), [(0, 1, 2)])

    def test_randomized_against_construction(self):
        # build a random polynomial with known top coefficient and recover it
        rng = random.Random(42)
        for _ in range(25):
            n = rng.choice((1, 2))
            degrees = tuple(rng.randint(0, 3) for _ in range(n))
            top = rng.randint(-5, 5)
            poly = {degrees: Fraction(top)}
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(0, d) for d in degrees)
                if sum(exps) < sum(degrees):
                    poly[exps] = poly.get(exps, Fraction(0)) + Fraction(
                        rng.randint(-9, 9), rng.randint(1, 4)
                    )
            grids = [
                tuple(rng.sample(range(-6, 7), d + 1)) for d in degrees
            ]
            assert grid_coefficient_oracle(poly, degrees, grids) == top

    def test_grid_independence(self):
        poly = {(2, 1): Fraction(3, 2), (0, 0): 5, (1, 1): -2}
        v1 = grid_coefficient_oracle(poly, (2, 1), [(0, 1, 2), (0, 1)])
        v2 = grid_coefficient_oracle(
            poly, (2, 1), [(-3, Fraction(1, 3), 4), (7, -2)]
        )
        assert v1 == v2 == Fraction(3, 2)


class TestSweep:
    def test_zero_sum_deltas(self):
        assert zero_sum_deltas(2, 2) == [(-1, 1), (0, 0), (1, -1)]
        assert len(zero_sum_deltas(3, 2)) == 7

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            SweepConfig(n_range=(5,))
        with pytest.raises(ValueError):
            SweepConfig(a_max=4)

    def test_no_n_is_a_usage_error(self):
        with pytest.raises(UsageError, match="sweep needs n >= 1"):
            SweepConfig(n_range=())

    def test_small_sweep_all_match(self):
        reports = sweep(SweepConfig(n_range=(2,), a_max=2, delta_budget=2))
        assert reports
        assert all(r.match for r in reports)
        # 3 deltas x 2 policies x 4 a-vectors
        assert len(reports) == 24

    def test_engine_error_is_reported_not_raised(self, monkeypatch):
        config = SweepConfig(n_range=(2,), a_max=2, delta_budget=2)
        clean = sweep(config)
        real = oracle.coefficient_combined

        def planted(query):
            if (query.delta, query.shift) == ((1, -1), "zero"):
                raise InternalInconsistency("planted")
            return real(query)

        monkeypatch.setattr(oracle, "coefficient_combined", planted)
        reports = sweep(config)
        assert [(r.delta, r.a, r.shift) for r in reports] == [
            (r.delta, r.a, r.shift) for r in clean
        ]
        for new, old in zip(reports, clean):
            if (new.delta, new.shift) == ((1, -1), "zero"):
                assert not new.match and new.error == "InternalInconsistency: planted"
            else:
                assert replace(new, seconds=0) == replace(old, seconds=0)
        assert sum(not r.match for r in reports) == 4  # one per a

    def test_deterministic_order(self):
        config = SweepConfig(n_range=(2,), a_max=1, delta_budget=2)
        r1 = [((r.delta, r.a, r.shift)) for r in sweep(config)]
        r2 = [((r.delta, r.a, r.shift)) for r in sweep(config)]
        assert r1 == r2
