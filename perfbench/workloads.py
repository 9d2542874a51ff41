"""Workload definitions shared by the benchmark's scripts.

Nothing here imports qdyson: the pools, the seeded sample and the pinned
formula file are defined by the benchmark alone, so a change to the program
cannot change which inputs are run or what they are checked against.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import permutations, product
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_PATH = os.path.join(HERE, "data", "formulas.tsv")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # reports and per-op scratch files
OP_TIMEOUT_S = 30.0  # a slower op counts as failed
TRACE_STRIDE = 3  # a traced run takes every third op of the run by cost
# End-to-end metrics measured and reported on every untraced run but not in
# BENCHMARK.json: across ten seeds their spread on the reference machine
# reached 0.36 of the median, wider than any bound that could catch a regression.
UNBOUNDED_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "coeff" or "verify"
    n: int
    shift: str  # coeff ops: "best" (the CLI default, no flag) or "zero"
    sample: int  # ops per run, drawn from the pool without replacement


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coeff-n5-best", "coeff", 5, "best", 50),
        Workload("coeff-n4-zero", "coeff", 4, "zero", 54),
        Workload("verify-n4", "verify", 4, "", 81),
    )
}


def zero_sum_deltas(n: int, budget: int) -> list[tuple[int, ...]]:
    """Nonzero integer n-vectors with sum 0 and sum of |entries| <= budget."""
    return [
        d
        for d in product(range(-budget, budget + 1), repeat=n)
        if any(d) and sum(d) == 0 and sum(abs(x) for x in d) <= budget
    ]


def zero_shift_points(delta: tuple[int, ...]) -> int:
    """Size of the zero-shift evaluation set: the sum over permutations pi
    with b = delta[pi(n)] - des(pi) >= 0 of C(b + n, n)."""
    n = len(delta)
    total = 0
    for pi in permutations(range(n)):
        b = delta[pi[-1]] - sum(1 for x, y in zip(pi, pi[1:]) if x > y)
        if b >= 0:
            total += comb(b + n, n)
    return total


def delta_pool(n: int) -> list[tuple[int, ...]]:
    return zero_sum_deltas(n, 4)


def a_pool(n: int) -> list[tuple[int, ...]]:
    return list(product((1, 2, 3), repeat=n))


def pool(w: Workload) -> list[tuple[int, ...]]:
    return delta_pool(w.n) if w.kind == "coeff" else a_pool(w.n)


def cost_key(w: Workload, x: tuple[int, ...]) -> tuple:
    """Orders a pool from cheap to dear without running anything."""
    if w.kind == "verify":
        return (sum(x), x)  # the expansion has (n-1) * sum(a) linear factors
    if w.shift == "best":
        # max|d_i| sets the best-shift search radius, the dominant cost
        return (max(abs(v) for v in x), sum(1 for v in x if v), x)
    return (zero_shift_points(x), x)


def run_order(w: Workload, seed: int) -> list[tuple[int, ...]]:
    """The inputs one run executes, in order: ``w.sample`` distinct pool
    members chosen by ``seed``, shuffled by ``seed``.

    The pool is sorted by cost and cut into ``w.sample`` nearly equal
    consecutive blocks, and one member is drawn from each, so every seed
    runs about the same mix of cheap and dear inputs. When ``w.sample`` is
    the pool size, every run executes the whole pool and the seed sets only
    the order.
    """
    members = sorted(pool(w), key=lambda x: cost_key(w, x))
    if not 0 < w.sample <= len(members):
        raise ValueError(f"{w.name}: cannot draw {w.sample} of a pool of {len(members)}")
    bounds = [len(members) * i // w.sample for i in range(w.sample + 1)]
    rng = random.Random(f"{w.name}:{seed}")
    chosen = [rng.choice(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(chosen)
    return chosen


def traced_order(w: Workload, order: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every TRACE_STRIDE-th op of the run by cost, in run order."""
    keep = set(sorted(order, key=lambda x: cost_key(w, x))[::TRACE_STRIDE])
    return [x for x in order if x in keep]


def vec_text(v) -> str:
    return ",".join(str(x) for x in v)


def load_pinned(path: str = PINNED_PATH) -> dict[tuple[int, ...], str]:
    """delta -> canonical JSON of R without meta, newline included."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, formula = line.rstrip("\n").split("\t")
            out[tuple(int(x) for x in key.split(","))] = formula + "\n"
    return out


def write_pinned(table: dict[tuple[int, ...], str], path: str = PINNED_PATH) -> None:
    with open(path, "w") as fh:
        for delta in sorted(table, key=lambda d: (len(d), d)):
            formula = table[delta].rstrip("\n")
            fh.write(f"{vec_text(delta)}\t{formula}\n")
