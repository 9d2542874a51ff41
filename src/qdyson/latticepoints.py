"""Enumeration of the evaluation set S_delta.

The nonvanishing grid points are parametrized by a permutation pi of 1..n
and a budget vector m of nonnegative integers: the sorted values climb by
a_{pi(r)} + [pi(r) > pi(r+1)] plus slack m, and the total slack is bounded
by delta_{pi(n)} - des(pi) plus the shift difference, whatever the symbolic
a_i.  So the set is enumerated once per delta and shift, over feasible
permutations only, and it is sized and its shift chosen from a per-n count
of permutations by first letter, last letter and descents (n <= ``MAX_N``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb, inf
from operator import gt
from typing import Iterator, Optional, Sequence

from .errors import DuplicatePoint, UsageError
from .qpochhammer import GridSpec
from .symforms import AffineForm, _of


def descent_count(pi: Sequence[int]) -> int:
    """Number of positions i with pi(i) > pi(i+1)."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return sum(map(gt, pi, pi[1:]))


# The largest n: the count by descents takes O(n^5) steps, under 1 s at n = 24.
MAX_N = 24


def _checked(
    delta: Sequence[int], shift: Sequence[int] | None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """delta and shift (zero if None) as tuples, checked for every caller."""
    n = len(delta)
    if n == 0:
        raise ValueError("need at least one variable")
    if n > MAX_N:
        raise UsageError(f"n = {n} is past this library's ceiling of {MAX_N}")
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    shift = (0,) * n if shift is None else tuple(shift)
    if len(shift) != n:
        raise ValueError("shift vector has wrong length")
    return tuple(delta), shift


@dataclass(frozen=True)
class EvaluationPoint:
    """One member of S_delta: permutation, slack vector, symbolic exponents."""

    pi: tuple[int, ...]
    m: tuple[int, ...]
    alpha: tuple[AffineForm, ...]


@dataclass(frozen=True)
class EvaluationSet:
    points: tuple[EvaluationPoint, ...]
    grid: GridSpec

    def __len__(self) -> int:
        return len(self.points)


def _alpha_vector(
    pi: Sequence[int], m: Sequence[int], shift: Sequence[int], n: int
) -> tuple[AffineForm, ...]:
    """alpha_{pi(1)} = c_{pi(1)} + m_1, and alpha_{pi(r)} adds
    a_{pi(r-1)} + [pi(r-1) > pi(r)] + m_r to alpha_{pi(r-1)}: int
    additions on one list (constant, coeffs...), one form per point entry."""
    alpha: list[Optional[AffineForm]] = [None] * n
    acc = [shift[pi[0] - 1] + m[0]] + [0] * n
    alpha[pi[0] - 1] = _of(acc)
    for i in range(1, n):
        prev = pi[i - 1]
        acc[0] += (prev > pi[i]) + m[i]
        acc[prev] += 1
        alpha[pi[i] - 1] = _of(acc)
    return tuple(alpha)  # type: ignore[arg-type]


def make_grid(delta: Sequence[int], shift: Sequence[int]) -> GridSpec:
    n = len(delta)
    sigma = AffineForm.total(n)
    degree = tuple(sigma - AffineForm.param(n, i) + delta[i] for i in range(n))
    return GridSpec(lower=tuple(shift), degree=degree)


def _completions(
    pi: tuple[int, ...], left: tuple[int, ...], k: int, budget: list[list[int]]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each permutation pi + (the letters left), in ``permutations`` order,
    whose slack budget B = budget[first][last] - descents is >= 0, with B.
    pi has k descents; pi + (x,) is walked only if it has such a completion."""
    if not left:
        yield pi, budget[pi[0] - 1][pi[-1] - 1] - k
    for i, x in enumerate(left):
        kx = k + (bool(pi) and pi[-1] > x)
        rest = left[:i] + left[i + 1 :]
        if _completes(x, rest, kx, budget[(pi or (x,))[0] - 1]):
            yield from _completions(pi + (x,), rest, kx, budget)


def _completes(x: int, rest: tuple[int, ...], k: int, row: list[int]) -> bool:
    """Whether a word from x (k descents so far) through all of rest (sorted) can
    end at an l within row[l - 1] descents: the fewest are 2 if l < x with some
    of rest between, 0 if x is below all of rest and l is its largest, else 1."""
    lowest = not rest or x < rest[0]
    for j, l in enumerate(rest):
        between = l < x and j + 1 < len(rest) and rest[j + 1] < x
        if k + 1 + between - (lowest and l == rest[-1]) <= row[l - 1]:
            return True
    return not rest


def enumerate_evaluation_set(
    delta: Sequence[int], shift: Sequence[int] | None = None
) -> EvaluationSet:
    """All evaluation points for delta under the given grid shift, pi in
    ``itertools.permutations`` order and then m in lexicographic order."""
    delta, shift = _checked(delta, shift)
    n = len(delta)
    budget = [[d + c - first for d, c in zip(delta, shift)] for first in shift]
    points: dict[tuple[AffineForm, ...], EvaluationPoint] = {}
    for pi, b in _completions((), tuple(range(1, n + 1)), 0, budget):
        # every m >= 0 with sum <= b, lexicographically: n bars among b + n slots
        for bars in combinations(range(b + n), n):
            m = tuple(hi - lo - 1 for lo, hi in zip((-1,) + bars, bars))
            alpha = _alpha_vector(pi, m, shift, n)
            if alpha in points:
                raise DuplicatePoint(
                    f"coinciding alpha vectors for delta={delta}, shift={shift}"
                )
            points[alpha] = EvaluationPoint(pi=pi, m=m, alpha=alpha)
    return EvaluationSet(tuple(points.values()), make_grid(delta, shift))


@cache
def _descent_table(n: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Permutations of 1..n counted by (first - 1, last - 1, descents), grown
    by relative rank: appending rank j among r + 1 letters raises every rank
    >= j by one, and adds a descent when the old last rank was >= j."""
    counts = Counter({(0, 0, 0): 1})
    for r in range(1, n):
        grown: Counter = Counter()
        for (f, x, k), count in counts.items():
            for j in range(r + 1):
                grown[f + (f >= j), j, k + (x >= j)] += count
        counts = grown
    return tuple(counts.items())


def evaluation_set_size(
    delta: Sequence[int], shift: Sequence[int] | None = None
) -> int:
    """|S_delta| by the closed form: sum over feasible pi of C(B(pi)+n, n)."""
    delta, shift = _checked(delta, shift)
    n = len(delta)
    return sum(
        count * comb(b + n, n)
        for (f, l, k), count in _descent_table(n)
        if (b := delta[l] - k + shift[l] - shift[f]) >= 0
    )


def best_shift(delta: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A shift minimizing |S_delta|, exact over |c_i| <= max(1, max|delta_i|) + 1.

    Only shift differences matter, so the first coordinate is pinned to 0; the
    others range over the box.  Ties go to the lexicographically smallest
    shift, comparing coordinates by magnitude first so that the zero shift wins
    all-way ties.  A budget depends on the shift only through c_last - c_first,
    so |S| is a sum of pair costs cost[i, j][c_j - c_i].  A depth-first search
    sets c_1, c_2, ... in tie-break order, dropping a branch once its set pairs
    plus each open pair's least cost cannot win; the winner's total is |S|.
    """
    delta, _ = _checked(delta, None)
    n = len(delta)
    if n == 1:  # one permutation, no pair to cost, one point under any shift
        return (0,), 1
    radius = max(1, max((abs(d) for d in delta), default=0)) + 1
    span = 2 * radius
    cost = {(i, j): [0] * (2 * span + 1) for j in range(n) for i in range(j)}
    for (f, l, k), count in _descent_table(n):
        if f != l:
            row, sign = cost[min(f, l), max(f, l)], 1 if f < l else -1
            for d in range(-span, span + 1):
                if (b := delta[l] - k + sign * d) >= 0:
                    row[d + span] += count * comb(b + n, n)
    # open_min[k]: least total cost of the pairs left open once c_0..c_k are set
    open_min = [
        sum(min(row) for (_, j), row in cost.items() if j > k) for k in range(n)
    ]
    values = sorted(range(-radius, radius + 1), key=lambda x: (abs(x), x))
    c = [0] * n
    best: list = [None, inf]

    def search(k: int, fixed: int) -> None:
        if k == n:
            best[:] = [tuple(c), fixed]
            return
        for x in values:
            c[k] = x
            total = fixed + sum(cost[i, k][x - c[i] + span] for i in range(k))
            if total + open_min[k] < best[1]:
                search(k + 1, total)

    search(1, 0)
    return best[0], best[1]

