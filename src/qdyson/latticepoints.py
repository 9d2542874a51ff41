"""Enumeration of the evaluation set S_delta.

The nonvanishing grid points are parametrized by a permutation pi of 1..n
and a budget vector m of nonnegative integers: the sorted values climb by
a_{pi(r)} + [pi(r) > pi(r+1)] plus slack m, and the total slack is bounded
by delta_{pi(n)} - des(pi) plus the shift difference.  The parametrization
is independent of the symbolic a_i, so the whole set is enumerated once per
delta and shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import DuplicatePoint, UsageError
from .qpochhammer import GridSpec
from .symforms import AffineForm


def descent_count(pi: Sequence[int]) -> int:
    """Number of positions i with pi(i) > pi(i+1)."""
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return sum(1 for x, y in zip(pi, pi[1:]) if x > y)


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


def _budget(pi: Sequence[int], delta: Sequence[int], shift: Sequence[int]) -> int:
    return (
        delta[pi[-1] - 1]
        - descent_count(pi)
        + shift[pi[-1] - 1]
        - shift[pi[0] - 1]
    )


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
    alpha: list[Optional[AffineForm]] = [None] * n
    acc = AffineForm.const(n, shift[pi[0] - 1] + m[0])
    alpha[pi[0] - 1] = acc
    for i in range(1, n):
        step = AffineForm.param(n, pi[i - 1] - 1) + (
            (1 if pi[i - 1] > pi[i] else 0) + m[i]
        )
        acc = acc + step
        alpha[pi[i] - 1] = acc
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
    for pi in permutations(range(1, n + 1)):
        b = _budget(pi, delta, shift)
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


def evaluation_set_size(
    delta: Sequence[int], shift: Sequence[int] | None = None
) -> int:
    """|S_delta| by the closed form: sum over feasible pi of C(B(pi)+n, n)."""
    n = len(delta)
    shift = (0,) * n if shift is None else tuple(shift)
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    total = 0
    for pi in permutations(range(1, n + 1)):
        b = _budget(pi, delta, shift)
        if b >= 0:
            total += comb(b + n, n)
    return total


def default_radius(delta: Sequence[int]) -> int:
    return max(1, max((abs(d) for d in delta), default=0)) + 1


def best_shift(
    delta: Sequence[int], radius: int | None = None
) -> tuple[tuple[int, ...], int]:
    """A shift minimizing |S_delta| over the search space.

    Only shift differences matter, so the first coordinate is pinned to 0.
    Exhaustive search for n <= 5; greedy coordinate descent from 0 above.
    Ties go to the lexicographically smallest shift, comparing coordinates
    by magnitude first so that the zero shift wins all-way ties.
    """
    n = len(delta)
    if sum(delta) != 0:
        raise ValueError("delta must sum to zero")
    if radius is None:
        radius = default_radius(delta)
    if radius < 1:
        raise UsageError("radius must be positive")
    def key(c):
        return tuple((abs(x), x) for x in c)

    if n <= 5:
        best_c = (0,) * n
        best_size = evaluation_set_size(delta, best_c)
        for tail in product(range(-radius, radius + 1), repeat=n - 1):
            c = (0,) + tail
            size = evaluation_set_size(delta, c)
            if size < best_size or (size == best_size and key(c) < key(best_c)):
                best_c, best_size = c, size
        return best_c, best_size
    c = [0] * n
    size = evaluation_set_size(delta, c)
    improved = True
    while improved:
        improved = False
        for i in range(1, n):
            for cand in range(-radius, radius + 1):
                trial = c.copy()
                trial[i] = cand
                s = evaluation_set_size(delta, trial)
                if s < size or (s == size and key(trial) < key(c)):
                    c, size = trial, s
                    improved = True
    return tuple(c), size


def vanishing_condition_holds(
    alpha: Sequence[int], a: Sequence[int]
) -> bool:
    """True iff some pair i<j satisfies -(a_i-1) <= alpha_i - alpha_j <= a_j,
    which forces the cleared product to vanish at q^alpha."""
    if len(alpha) != len(a):
        raise ValueError("vectors have different lengths")
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if -(a[i] - 1) <= alpha[i] - alpha[j] <= a[j]:
                return True
    return False
