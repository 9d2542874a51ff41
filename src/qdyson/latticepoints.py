"""Enumeration of the evaluation set S_delta.

The nonvanishing grid points are parametrized by a permutation pi of 1..n
and a budget vector m of nonnegative integers: the sorted values climb by
a_{pi(r)} + [pi(r) > pi(r+1)] plus slack m, and the total slack is bounded
by delta_{pi(n)} - des(pi) plus the shift difference.  The parametrization
is independent of the symbolic a_i, so the whole set is enumerated once per
delta and shift.  Sizing and the shift search (exact over the box
|c_i| <= max(1, max|delta_i|) + 1 for every n) read a per-n count of
permutations by first, last letter and descents.  That count and the
enumeration share one cached scan of the n! descent counts, and n above
``MAX_SCAN_N`` is a usage error before it starts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import comb, factorial, inf
from operator import gt
from typing import Iterator, Optional, Sequence

from .errors import DuplicatePoint, UsageError
from .qpochhammer import GridSpec
from .symforms import AffineForm, _of


def descent_count(pi: Sequence[int]) -> int:
    """Number of positions i with pi(i) > pi(i+1)."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return _descents(pi)


def _descents(pi: Sequence[int]) -> int:
    """descent_count without the permutation check, for the n! scan."""
    return sum(map(gt, pi, pi[1:]))


# The largest n whose n! permutations are scanned: 10! = 3,628,800 take
# seconds, 11! would take about a minute and 12! over ten.
MAX_SCAN_N = 10


@cache
def _descent_bytes(n: int) -> bytes:
    """The descent count of every permutation of 1..n, in ``permutations``
    order: the one n! scan, shared by enumeration and sizing."""
    if n > MAX_SCAN_N:
        raise UsageError(
            f"n = {n} needs a scan of all {factorial(n):,} permutations; "
            f"this library scans at most {MAX_SCAN_N}! = {factorial(MAX_SCAN_N):,}"
        )
    return bytes(map(_descents, permutations(range(1, n + 1))))


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
    delta: tuple[int, ...]
    shift: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def _slack_vectors(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer n-vectors with sum <= total."""
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _slack_vectors(n - 1, total - first):
            yield (first,) + rest


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
    degree = tuple(
        sigma - AffineForm.param(n, i) + delta[i] for i in range(n)
    )
    return GridSpec(lower=tuple(shift), degree=degree)


def enumerate_evaluation_set(
    delta: Sequence[int], shift: Sequence[int] | None = None
) -> EvaluationSet:
    """All evaluation points for delta under the given grid shift."""
    n = len(delta)
    delta = tuple(delta)
    shift = (0,) * n if shift is None else tuple(shift)
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    if len(shift) != n:
        raise ValueError("shift vector has wrong length")
    points: list[EvaluationPoint] = []
    seen: set = set()
    for pi, k in zip(permutations(range(1, n + 1)), _descent_bytes(n)):
        f, l = pi[0] - 1, pi[-1] - 1
        b = delta[l] - k + shift[l] - shift[f]
        if b < 0:
            continue
        for m in _slack_vectors(n, b):
            alpha = _alpha_vector(pi, m, shift, n)
            if alpha in seen:
                raise DuplicatePoint(
                    f"coinciding alpha vectors for delta={delta}, shift={shift}"
                )
            seen.add(alpha)
            points.append(EvaluationPoint(pi=pi, m=m, alpha=alpha))
    return EvaluationSet(
        points=tuple(points),
        grid=make_grid(delta, shift),
        delta=delta,
        shift=shift,
    )


@cache
def _descent_table(n: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Permutations of 1..n counted by (first, last, descent count)."""
    perms = zip(permutations(range(1, n + 1)), _descent_bytes(n))
    counts = Counter((pi[0], pi[-1], k) for pi, k in perms)
    return tuple(counts.items())


def evaluation_set_size(
    delta: Sequence[int], shift: Sequence[int] | None = None
) -> int:
    """|S_delta| by the closed form: sum over feasible pi of C(B(pi)+n, n)."""
    n = len(delta)
    shift = (0,) * n if shift is None else tuple(shift)
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    if len(shift) != n:
        raise ValueError("shift vector has wrong length")
    return sum(
        count * comb(b + n, n)
        for (f, l, k), count in _descent_table(n)
        if (b := delta[l - 1] - k + shift[l - 1] - shift[f - 1]) >= 0
    )


def best_shift(delta: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A shift minimizing |S_delta|, exact over the box
    |c_i| <= max(1, max|delta_i|) + 1 for every n.

    Only shift differences matter, so the first coordinate is pinned to 0; the
    others range over the box.  Ties go to the lexicographically
    smallest shift, comparing coordinates by magnitude first so that the zero
    shift wins all-way ties.  A budget depends on the shift only through
    c_last - c_first, so |S| is a sum of pair costs cost[i, j][c_j - c_i].  A
    depth-first search sets c_1, c_2, ... in tie-break order and drops a branch
    once its set pairs plus the least cost of each open pair cannot win.
    """
    n = len(delta)
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    radius = max(1, max((abs(d) for d in delta), default=0)) + 1
    span = 2 * radius
    cost = {(i, j): [0] * (2 * span + 1) for j in range(n) for i in range(j)}
    for (f, l, k), count in _descent_table(n):
        if f != l:
            row, sign = cost[min(f, l) - 1, max(f, l) - 1], 1 if f < l else -1
            for d in range(-span, span + 1):
                if (b := delta[l - 1] - k + sign * d) >= 0:
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
    return best[0], evaluation_set_size(delta, best[0])

