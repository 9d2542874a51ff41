"""End-to-end pipeline: from a coefficient query to the rational function R.

For a target exponent vector delta (summing to zero), the coefficient of
prod x_i^{delta_i} in the q-Dyson product equals R(q, q^{a_1},..,q^{a_n})
times the q-multinomial coefficient.  Each evaluation point contributes one
factored summand, a ratio of atom products (the split form,
``coefficient_split``); ``combine`` adds them over a common atom denominator
(the combined form), and only that sum is expanded.  Callers run the
pipeline only through these two functions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InternalInconsistency, UsageError
from .exactalg import RationalQZ, Summand, ZqPoly
from .latticepoints import (
    EvaluationPoint,
    best_shift,
    enumerate_evaluation_set,
    evaluation_set_size,
)
from .qpochhammer import phi_prime_flat, point_summand

ShiftPolicy = Union[str, tuple[int, ...]]

# The largest evaluation set a query may enumerate.  The n = 6 ladder's
# zero-shift set holds 277 points; each point costs milliseconds or more.
MAX_POINTS = 100_000


@dataclass(frozen=True)
class CoefficientQuery:
    """Which coefficient to compute and which grid shift to use.

    shift is "zero", "best", or an explicit integer vector.
    """

    delta: tuple[int, ...]
    shift: ShiftPolicy = "best"

    @property
    def n(self) -> int:
        return len(self.delta)

    def __post_init__(self):
        if isinstance(self.shift, str):
            if self.shift not in ("zero", "best"):
                raise ValueError(f"unknown shift policy {self.shift!r}")
        elif len(self.shift) != len(self.delta):
            raise ValueError("shift vector has wrong length")


@dataclass(frozen=True)
class SplitResult:
    """Per-point rational summands; their sum is the combined R."""

    terms: tuple[tuple[EvaluationPoint, Summand], ...]
    shift_used: tuple[int, ...]
    delta: tuple[int, ...]


@dataclass(frozen=True)
class CombinedResult:
    rational: RationalQZ
    shift_used: tuple[int, ...]
    point_count: int
    delta: tuple[int, ...]


def coefficient_split(query: CoefficientQuery) -> SplitResult:
    """One rational summand per evaluation point; phi' is evaluated once per
    distinct grid value (i, alpha_i) of the set."""
    shift = (0,) * query.n if isinstance(query.shift, str) else tuple(query.shift)
    if sum(query.delta) != 0:  # no set to size; an explicit shift is still reported
        return SplitResult(terms=(), shift_used=shift, delta=query.delta)
    if query.shift == "best":  # the search sizes the set it picks
        shift, size = best_shift(query.delta)
    else:
        size = evaluation_set_size(query.delta, shift)
    if size > MAX_POINTS:
        raise UsageError(
            f"shift {list(shift)} gives {size:,} evaluation points, "
            f"more than the {MAX_POINTS:,} this library enumerates"
        )
    evalset = enumerate_evaluation_set(query.delta, shift)
    points = evalset.points
    values = dict.fromkeys((i, x) for pt in points for i, x in enumerate(pt.alpha))
    phis = {(i, x): phi_prime_flat(i, x, evalset.grid) for i, x in values}
    terms = tuple(
        (pt, point_summand(pt.alpha, [phis[i, x] for i, x in enumerate(pt.alpha)]))
        for pt in points
    )
    return SplitResult(terms=terms, shift_used=shift, delta=query.delta)


def combine_sum(terms: Sequence[Summand], n: int) -> RationalQZ:
    """Exact sum over the least common multiple of the atom denominators.

    Each summand enters ``RationalQZ.sum_of`` as its sign and unit with
    its numerator atoms and the LCM atoms it lacks, so atoms that several
    summands share, numerator atoms included, are multiplied in once.
    """
    lcm: Counter = Counter()
    for t in terms:
        for atom, mult in t.denom:
            lcm[atom] = max(lcm[atom], mult)
    return RationalQZ.sum_of(n, [t.cleared(lcm - t.denom_counter()) for t in terms], lcm)


def combine(split: SplitResult) -> CombinedResult:
    """Add the split's summands into the single rational function R."""
    return CombinedResult(
        rational=combine_sum([r for _, r in split.terms], len(split.delta)),
        shift_used=split.shift_used,
        point_count=len(split.terms),
        delta=split.delta,
    )


def coefficient_combined(query: CoefficientQuery) -> CombinedResult:
    """The single rational function R for the queried coefficient."""
    return combine(coefficient_split(query))


def constant_term_identity(n: int) -> CombinedResult:
    """The constant-term case delta = 0: R must be exactly 1."""
    result = coefficient_combined(CoefficientQuery(delta=(0,) * n, shift="zero"))
    if result.rational != RationalQZ.one(n):
        raise InternalInconsistency(
            f"constant-term rational factor is {result.rational}, not 1"
        )
    return result


def equivalent(r1: RationalQZ, r2: RationalQZ) -> bool:
    """Exact algebraic equality of two factored rational functions: one
    row-form sum of each numerator times the other's denominator atoms."""
    if r1.n != r2.n:
        raise ValueError("rational functions over different variable counts")
    cross = [(r1.numer, dict(r2.denom)), (-r2.numer, dict(r1.denom))]
    return ZqPoly.sum_of(r1.n, cross).is_zero()
