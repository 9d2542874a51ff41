"""Independent verification of the symbolic engine.

The oracle never touches the symbolic pipeline: it expands the q-Dyson
product as an explicit Laurent polynomial, reads coefficients off directly,
and compares them (as exact rational functions of q) with the specialized
engine output.  The expansion keys each x-exponent vector by one packed int
(the layout of ``exactalg``'s ZqPoly keys) and holds its whole q-polynomial
as one int, q -> 2**width.  It returns a read-only mapping
{x-exponent tuple: QPoly} that decodes a coefficient only when it is read,
so a query decodes one key, not the whole product.  A separate
exact-rational grid-sum oracle realizes the coefficient formula of the
combinatorial Nullstellensatz for plain polynomials over the rationals.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

from .engine import CoefficientQuery, ShiftPolicy, coefficient_combined
from .errors import DuplicateNode, QDysonError, UsageError
from .exactalg import (
    _BIAS,
    QPoly,
    RationalQZ,
    _layout,
    _offset,
    _slot_width,
    _times_one_minus,
    _unpack_q,
    substitute_z,
)
from .qpochhammer import q_multinomial_numeric


class _Expansion(Mapping):
    """A read-only {x-exponent tuple: QPoly} over the packed product: a
    lookup packs its tuple into a key and decodes that key's q-polynomial
    only; iteration reads the packed keys."""

    def __init__(self, a: Sequence[int], width: int):
        """Build the product of a, whose slot width _expansion_width gave."""
        n = len(a)
        self._layout, self._n, self._width = _layout(n - 1), n, width
        self._packed = out = {self._layout.bias: 1}
        for i in range(n):
            for j in range(i + 1, n):
                up = _offset([(k == i) - (k == j) for k in range(n)])
                factors = [(up, t) for t in range(a[i])]
                factors += [(-up, t) for t in range(1, a[j] + 1)]
                for off, t in factors:
                    _times_one_minus(out, off, t * width)

    def __getitem__(self, exps: tuple[int, ...]) -> QPoly:
        try:
            key = self._layout.bias + _offset(exps) if len(exps) == self._n else None
            return _unpack_q(self._packed[key], self._width)
        except (KeyError, OverflowError):  # absent, or outside the packed range
            raise KeyError(exps) from None

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self._layout.rows(self._packed):
            yield tuple(map((-_BIAS).__add__, row))

    def __len__(self) -> int:
        return len(self._packed)


# The largest packed expansion the oracle builds, in bytes, as predicted by
# _expansion_width: a = (64, 64) predicts 13 MB and (3, 3, 3, 3, 3) 284 MB;
# (200, 200) predicts 898 MB and did not finish in 60 s unguarded.
MAX_EXPANSION_BYTES = 2**29


def _expansion_width(a: Sequence[int]) -> int:
    """The q-slot width in bits of the expansion of a, after checking a and
    the predicted size of the packed product against MAX_EXPANSION_BYTES:
    keys (each x-exponent lies in a box of side (n-2) a_i + sum(a) + 1, and
    the exponents sum to 0) times q-slots (the top q-degree plus one) times
    width.  The product of N = (n-1) * sum(a) binomials has L1 norm at most
    2**N, so every coefficient of every partial product fits the slot."""
    n = len(a)
    if n < 1:
        raise UsageError("need at least one variable")
    if any(x < 0 for x in a):
        raise UsageError("the a_i must be nonnegative")
    width = _slot_width((n - 1) * sum(a))
    keys = prod(sorted((n - 2) * x + sum(a) + 1 for x in a)[:-1])
    # the pair of a_i, a_j (i < j) has top q-degree 0+..+(a_i - 1) + 1+..+a_j
    pairs = combinations(a, 2)
    slots = 1 + sum(x * (x - 1) // 2 + y * (y + 1) // 2 for x, y in pairs)
    size = keys * slots * width // 8
    if size > MAX_EXPANSION_BYTES:
        raise UsageError(
            f"a = {list(a)} predicts a {size:,}-byte oracle expansion, "
            f"more than the {MAX_EXPANSION_BYTES:,} bytes this library builds"
        )
    # |exponent of x_i| is at most the number of binomials that touch x_i;
    # _offset raises OverflowError if that leaves the packed field range
    _offset([(n - 2) * x + sum(a) for x in a])
    return width


def expand_qdyson_product(a: Sequence[int]) -> Mapping[tuple[int, ...], QPoly]:
    """Exact Laurent expansion of prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j},
    as {x-exponent vector: coefficient}; absent vectors have coefficient 0.

    The product is built one binomial 1 - q^t x^v at a time, on a dict from
    packed x-exponent keys (``exactalg``'s layout) to each key's whole
    q-polynomial as one int, under the Kronecker substitution q -> 2**width
    (width from ``_expansion_width``).  The returned mapping keeps that dict
    and decodes a coefficient only when it is read.
    """
    return _Expansion(a, _expansion_width(a))


def _check_lengths(a: Sequence[int], delta: Sequence[int]) -> None:
    """The one rule tying a to delta: one a_i per variable."""
    if len(a) != len(delta):
        raise UsageError("a must have the same length as delta")


def dyson_coefficient(
    a: Sequence[int],
    delta: Sequence[int],
    expansion: Mapping[tuple[int, ...], QPoly] | None = None,
) -> QPoly:
    """Coefficient of prod x_i^{delta_i}, by direct expansion."""
    _check_lengths(a, delta)
    if expansion is None:
        expansion = expand_qdyson_product(a)
    return expansion.get(tuple(delta), QPoly())


@dataclass(frozen=True)
class VerificationReport:
    delta: tuple[int, ...]
    a: tuple[int, ...]
    shift: ShiftPolicy
    match: bool
    engine_numer: QPoly
    engine_denom: QPoly
    oracle_coeff: QPoly
    seconds: float
    error: str = ""


def verify_query(
    delta: Sequence[int],
    a: Sequence[int],
    shift: ShiftPolicy = "best",
    expansion: Mapping[tuple[int, ...], QPoly] | None = None,
    rational: RationalQZ | None = None,
) -> VerificationReport:
    """Compare engine and oracle for one (delta, a) pair.  Engine errors are
    reported in the result; bad input raises UsageError."""
    delta = tuple(delta)
    a = tuple(a)
    _check_lengths(a, delta)
    if any(x < 1 for x in a):
        raise UsageError("the symbolic engine requires all a_i >= 1")
    if expansion is None:  # one passed in was sized when it was built
        width = _expansion_width(a)  # fail before (q)_{sum a} or the expansion
    start = time.perf_counter()
    try:
        if rational is None:
            rational = coefficient_combined(
                CoefficientQuery(delta=delta, shift=shift)
            ).rational
        num, den = substitute_z(rational, a)
        num *= q_multinomial_numeric(a)  # the engine's whole coefficient
        error = ""
    except UsageError:
        raise  # bad input, not an engine fault: fail before the expansion
    except QDysonError as exc:
        num, den = QPoly(), QPoly.one()
        error = f"{type(exc).__name__}: {exc}"
    if expansion is None:
        expansion = _Expansion(a, width)
    oracle = expansion.get(delta, QPoly())
    # num / den == oracle; den is a product of 1 - q^e with e != 0, never 0
    match = not error and num == oracle * den
    return VerificationReport(
        delta=delta,
        a=a,
        shift=shift,
        match=match,
        engine_numer=num,
        engine_denom=den,
        oracle_coeff=oracle,
        seconds=time.perf_counter() - start,
        error=error,
    )


def grid_coefficient_oracle(
    poly: Mapping[tuple[int, ...], Fraction | int],
    degrees: Sequence[int],
    grids: Sequence[Sequence[Fraction | int]],
) -> Fraction:
    """Top-coefficient extraction by the exact grid sum.

    ``poly`` maps exponent vectors (nonnegative) to rational coefficients;
    the value returned is the coefficient of prod x_i^{degrees[i]}, computed
    as sum_{c in grid} F(c) / prod phi_i'(c_i) with phi_i the node polynomial
    of grid i.  Requires deg F <= sum(degrees) and |grids[i]| = degrees[i]+1.
    """
    n = len(degrees)
    grids = [tuple(Fraction(x) for x in g) for g in grids]
    for d, g in zip(degrees, grids):
        if len(set(g)) != len(g):
            raise DuplicateNode(f"grid {g} has repeated nodes")
        if len(g) != d + 1:
            raise ValueError("grid size must be degree + 1")
    if any(len(e) != n for e in poly):
        raise ValueError("exponent vector length mismatch")
    if poly and max(sum(e) for e in poly) > sum(degrees):
        raise ValueError("polynomial degree exceeds the grid bound")

    phi_prime = [
        {
            c: prod(c - other for other in g if other != c)
            for c in g
        }
        for g in grids
    ]
    total = Fraction(0)
    for node in product(*grids):
        value = Fraction(0)
        for exps, coeff in poly.items():
            term = Fraction(coeff)
            for x, e in zip(node, exps):
                term *= x ** e
            value += term
        if value:
            denom = Fraction(1)
            for i, c in enumerate(node):
                denom *= phi_prime[i][c]
            total += value / denom
    return total


@dataclass(frozen=True)
class SweepConfig:
    """Bounds for an exhaustive engine-vs-oracle sweep (desk scale)."""

    n_range: tuple[int, ...] = (2, 3)
    a_max: int = 2
    delta_budget: int = 2

    def __post_init__(self):
        object.__setattr__(self, "n_range", tuple(sorted(set(self.n_range))))
        if min(self.n_range, default=0) < 1 or self.a_max < 1 or self.delta_budget < 0:
            raise UsageError("sweep needs n >= 1, a_max >= 1 and delta_budget >= 0")
        # a budget of 8 takes minutes at n = 4, a = 1; sum |delta_i| is even
        if max(self.n_range) > 4 or self.a_max > 3 or self.delta_budget > 6:
            raise UsageError("sweep bounds exceed desk scale (n <= 4, a <= 3, budget <= 6)")


def zero_sum_deltas(n: int, budget: int) -> list[tuple[int, ...]]:
    """All integer vectors with sum 0 and sum of |entries| <= budget."""
    out = [
        d
        for d in product(range(-budget, budget + 1), repeat=n)
        if sum(d) == 0 and sum(abs(x) for x in d) <= budget
    ]
    return sorted(out)


def sweep(config: SweepConfig) -> list[VerificationReport]:
    """Deterministic engine-vs-oracle comparison over the configured range,
    under the zero and the best shift; mismatches and engine errors are
    reported as data, never raised."""
    reports: list[VerificationReport] = []
    for n in config.n_range:
        items = []
        for delta in zero_sum_deltas(n, config.delta_budget):
            for policy in ("zero", "best"):
                try:
                    r = coefficient_combined(CoefficientQuery(delta, policy)).rational
                except UsageError:
                    raise
                except QDysonError:  # verify_query reruns it and reports the error
                    r = None
                items.append((delta, policy, r))
        for a in product(range(1, config.a_max + 1), repeat=n):
            expansion = expand_qdyson_product(a)
            reports.extend(
                verify_query(delta, a, shift=policy, expansion=expansion, rational=r)
                for delta, policy, r in items
            )
    reports.sort(key=lambda r: (len(r.a), r.delta, r.a, str(r.shift)))
    return reports
