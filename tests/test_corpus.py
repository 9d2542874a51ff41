"""The pinned formula corpus: every entry recomputes byte for byte.

``perfbench/data/formulas.tsv`` holds the canonical JSON of R for the n = 4
pool (all zero-sum deltas with sum |d| <= 4, pinned under the zero shift
and recomputed under the best shift too) and the n = 5 pool (pinned under
the default best shift).  This test only reads the file.

``tests/data/formulas_n2_n3.tsv``, in the same format, holds the nonzero
deltas with n in {2, 3} and sum |d| <= 4, recomputed under both shifts.

Every pinned formula must also parse with ``formula_from_json`` to a value
equal to the computed R and re-serialize to the same bytes.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from qdyson.cli import dumps_canonical, formula_from_json, formula_json
from qdyson.engine import CoefficientQuery, coefficient_combined, coefficient_split, combine
from qdyson.oracle import zero_sum_deltas

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "perfbench" / "data" / "formulas.tsv"
SMALL_CORPUS = HERE / "data" / "formulas_n2_n3.tsv"


def pinned_pool(n, path=CORPUS):
    pinned = {}
    for line in path.read_text().splitlines():
        key, formula = line.split("\t")
        delta = tuple(int(x) for x in key.split(","))
        if len(delta) == n:
            pinned[delta] = formula + "\n"  # dumps_canonical ends in a newline
    return pinned


def mismatched(pinned, shift):
    """The deltas whose R differs from the pinned bytes, or whose pinned
    bytes do not parse to that R and back."""
    out = []
    for delta, formula in sorted(pinned.items()):
        rational = coefficient_combined(CoefficientQuery(delta=delta, shift=shift)).rational
        parsed = formula_from_json(json.loads(formula))
        if (
            dumps_canonical(formula_json(rational)) != formula
            or parsed != rational
            or dumps_canonical(formula_json(parsed)) != formula
        ):
            out.append(delta)
    return out


@pytest.mark.parametrize("shift", ["zero", "best"])
def test_n2_n3_pool_recomputes_byte_identical(shift):
    pinned = {**pinned_pool(2, SMALL_CORPUS), **pinned_pool(3, SMALL_CORPUS)}
    expected = [d for n in (2, 3) for d in zero_sum_deltas(n, 4) if any(d)]
    assert sorted(pinned) == sorted(expected) and len(pinned) == 22
    assert len(SMALL_CORPUS.read_text().splitlines()) == 22
    assert mismatched(pinned, shift) == []


def test_n4_pool_recomputes_byte_identical():
    pinned = pinned_pool(4)
    assert len(pinned) == 54
    assert mismatched(pinned, "zero") == []


def test_n4_pool_best_shift_gives_the_zero_shift_bytes():
    # best is a different evaluation set from zero on most deltas; R's
    # canonical bytes must not depend on which set produced it
    pinned = pinned_pool(4)
    assert mismatched(pinned, "best") == []


def test_n5_pool_recomputes_byte_identical():
    pinned = pinned_pool(5)
    assert len(pinned) == 130
    assert mismatched(pinned, "best") == []


# among the cheap deltas of each pool, those with the most points (10-15 at
# n = 4 under the zero shift, 4-7 at n = 5 under the best shift)
SHUFFLED = [
    *(
        (delta, "zero")
        for delta in [
            (-1, 2, -1, 0), (0, 2, -2, 0), (-2, 2, 0, 0), (-1, 2, 0, -1), (0, 2, -1, -1),
            (0, 2, 0, -2), (0, -2, 1, 1), (-2, 0, 1, 1), (-1, 1, -1, 1), (0, 1, -2, 1),
        ]
    ),
    *(
        (delta, "best")
        for delta in [
            (-2, 2, 0, 0, 0), (0, -2, 2, 0, 0), (0, 0, -1, 2, -1), (-1, 0, 0, -1, 2),
            (2, 0, 0, 0, -2), (-1, 2, -1, 0, 0), (0, 0, 0, 2, -2), (2, -1, 0, 0, -1),
            (0, -1, 2, -1, 0), (0, 1, -1, -1, 1),
        ]
    ),
]


def shuffled_bytes(delta, shift, seeds):
    """R's canonical bytes from the split's summands in each seed's order."""
    split = coefficient_split(CoefficientQuery(delta=delta, shift=shift))
    out = []
    for seed in seeds:
        terms = list(split.terms)
        random.Random(seed).shuffle(terms)
        rational = combine(replace(split, terms=tuple(terms))).rational
        out.append(dumps_canonical(formula_json(rational)))
    return out


def test_summand_order_does_not_change_r():
    # combine multiplies late, in an order that follows the summands' order;
    # R's bytes must not
    pinned = {**pinned_pool(4), **pinned_pool(5)}
    for delta, shift in SHUFFLED:
        assert shuffled_bytes(delta, shift, (1, 2, 3)) == [pinned[delta]] * 3, delta


def test_summand_order_69_points():
    pinned = pinned_pool(4)[(-2, 0, 0, 2)]
    assert shuffled_bytes((-2, 0, 0, 2), (0, 1, 1, 1), (1, 2, 3)) == [pinned] * 3
