"""The pinned formula corpus: every entry recomputes byte for byte.

``perfbench/data/formulas.tsv`` holds the canonical JSON of R for the n = 4
pool (all zero-sum deltas with sum |d| <= 4, pinned under the zero shift
and recomputed under the best shift too) and the n = 5 pool (pinned under
the default best shift).  This test only reads the file.
"""

from pathlib import Path

from qdyson.cli import dumps_canonical, formula_json
from qdyson.engine import CoefficientQuery, coefficient_combined

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "formulas.tsv"


def pinned_pool(n):
    pinned = {}
    for line in CORPUS.read_text().splitlines():
        key, formula = line.split("\t")
        delta = tuple(int(x) for x in key.split(","))
        if len(delta) == n:
            pinned[delta] = formula + "\n"  # dumps_canonical ends in a newline
    return pinned


def mismatched(pinned, shift):
    return [
        delta
        for delta, formula in sorted(pinned.items())
        if dumps_canonical(
            formula_json(
                coefficient_combined(CoefficientQuery(delta=delta, shift=shift)).rational
            )
        )
        != formula
    ]


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
