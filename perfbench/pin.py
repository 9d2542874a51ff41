"""Regenerate data/formulas.tsv: the canonical JSON of R (no meta) for every
delta of the n = 4 and n = 5 pools.

The n = 4 pool is computed under the zero shift and the n = 5 pool under the
best shift, the shifts their workloads run. One file serves both shifts
because the bytes agree across shifts; that is re-checked here on
(-2,0,0,2), whose zero-shift set has 36 points and best-shift set 4.

    python3 perfbench/pin.py    # rewrite the file (about 70 s)

To recheck the pinned data against the program, regenerate it and diff:
``git diff --exit-code perfbench/data/formulas.tsv``.
"""

from __future__ import annotations

import os
import sys

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

from qdyson.cli import dumps_canonical, formula_json  # noqa: E402
from qdyson.engine import CoefficientQuery, coefficient_combined  # noqa: E402

SHIFT_CHECK = (-2, 0, 0, 2)


def formula_bytes(delta, shift) -> str:
    r = coefficient_combined(CoefficientQuery(delta=delta, shift=shift)).rational
    return dumps_canonical(formula_json(r))


def main() -> int:
    table = {}
    for n, shift in ((4, "zero"), (5, "best")):
        for delta in workloads.delta_pool(n):
            table[delta] = formula_bytes(delta, shift)
    if formula_bytes(SHIFT_CHECK, "best") != table[SHIFT_CHECK]:
        print(f"best and zero shift disagree on {SHIFT_CHECK}", file=sys.stderr)
        return 1
    workloads.write_pinned(table)
    print(f"wrote {len(table)} formulas to {workloads.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
