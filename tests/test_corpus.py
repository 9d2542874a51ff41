"""The pinned formula corpus: every n = 4 entry recomputes byte for byte.

``perfbench/data/formulas.tsv`` holds the canonical JSON of R for the n = 4
pool (all zero-sum deltas with sum |d| <= 4, pinned under the zero shift)
and the n = 5 pool.  This test only reads the file.
"""

from pathlib import Path

from qdyson.cli import dumps_canonical, formula_json
from qdyson.engine import CoefficientQuery, coefficient_combined

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "formulas.tsv"


def test_n4_pool_recomputes_byte_identical():
    pinned = {}
    for line in CORPUS.read_text().splitlines():
        key, formula = line.split("\t")
        delta = tuple(int(x) for x in key.split(","))
        if len(delta) == 4:
            pinned[delta] = formula + "\n"  # dumps_canonical ends in a newline
    assert len(pinned) == 54
    mismatched = [
        delta
        for delta, formula in sorted(pinned.items())
        if dumps_canonical(
            formula_json(
                coefficient_combined(CoefficientQuery(delta=delta, shift="zero")).rational
            )
        )
        != formula
    ]
    assert mismatched == []
