"""Symbolic q-Pochhammer algebra.

A ``QExpr`` is a value of the shape

    (-1)^parity * q^qexp * prod (q)_L ^ e_L

where parity is an affine form read mod 2, qexp a quadratic form with
coefficients in (1/2)Z, and each L an affine-linear form in a_1..a_n with
nonnegative generic sign.  ``evaluate_product_at_point`` (one Pochhammer
window per pair, one ``QExpr.product`` per point) and
``phi_prime_at_point`` build such values; they are the symbolic reference.

The engine takes a faster route to the same values, on the same
``AffineForm`` values, each the int tuple (constant, coefficients):
``point_summand`` adds every pair window, the phi' of each coordinate
(``phi_prime_flat``, built once per grid value) and the q-multinomial into
three integer accumulators, with no ``QExpr`` per point.  ``_normalize`` is
the one normalizer: it cancels the (q)_L factors into atoms by net counts,
runs every exactness abort and returns a ``Summand``, a sign and monomial in
q and z_1..z_n (z_i = q^{a_i}) times a ratio of atom multisets with the
numerator left unexpanded.  ``normalize_to_rational`` hands the parts of a
``QExpr`` to the same normalizer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import add, sub
from typing import Mapping, Sequence

from .errors import InternalInconsistency, MixedSign
from .exactalg import QPoly, Summand
from .exactalg import _atom_of, _atom_tuple, _divide_one_minus, _times_one_minus
from .symforms import (
    AffineForm,
    QuadForm,
    _add_product,
    _of,
    _pairs,
    parity_reduce,
    quad_finalize,
)


def _canon_poch(poch: Mapping[AffineForm, int]) -> tuple:
    """Drop unit factors and sort canonically."""
    out = [
        (index, exp)
        for index, exp in poch.items()
        if exp != 0 and not index.is_zero()
    ]
    out.sort(key=lambda kv: (kv[0].coeffs, kv[0].constant, kv[1]))
    return tuple(out)


@dataclass(frozen=True)
class QExpr:
    """(-1)^parity * q^qexp * product of (q)_L factors; or the zero value."""

    n: int
    parity: AffineForm
    qexp: QuadForm
    poch: tuple[tuple[AffineForm, int], ...]
    zero: bool = False

    @staticmethod
    def identity(n: int) -> "QExpr":
        return QExpr(n, AffineForm.const(n, 0), QuadForm.zero(n), ())

    @staticmethod
    def make_zero(n: int) -> "QExpr":
        return QExpr(n, AffineForm.const(n, 0), QuadForm.zero(n), (), zero=True)

    @staticmethod
    def build(
        n: int,
        parity: AffineForm,
        qexp: QuadForm,
        poch: Mapping[AffineForm, int],
    ) -> "QExpr":
        """The canonical value; every (q)_L index must be generically >= 0."""
        poch = _canon_poch(poch)
        for index, _ in poch:
            if index.generic_sign() not in (1, 0):
                raise InternalInconsistency(
                    f"(q)_L with generically non-positive index L = {index}"
                )
        return QExpr(n, parity, qexp, poch)

    def is_zero(self) -> bool:
        return self.zero

    @staticmethod
    def product(n: int, factors: Sequence["QExpr"]) -> "QExpr":
        """The product of validated factors, canonicalized once.

        Parities and q-exponents add and the (q)_L exponents merge; a zero
        factor makes the product zero.
        """
        if any(f.zero for f in factors):
            return QExpr.make_zero(n)
        poch: Counter = Counter()
        for f in factors:
            poch.update(dict(f.poch))
        return QExpr(
            n,
            sum((f.parity for f in factors), AffineForm.const(n, 0)),
            sum((f.qexp for f in factors), QuadForm.zero(n)),
            _canon_poch(poch),
        )

    def __mul__(self, other: "QExpr") -> "QExpr":
        if not isinstance(other, QExpr):
            return NotImplemented
        return QExpr.product(self.n, (self, other))

    def inverse(self) -> "QExpr":
        if self.zero:
            raise ZeroDivisionError("inverse of the zero q-expression")
        return QExpr(
            self.n,
            self.parity,
            -self.qexp,
            tuple((index, -exp) for index, exp in self.poch),
        )

    def __truediv__(self, other: "QExpr") -> "QExpr":
        return self * other.inverse()

    def evaluate_numeric(self, a: Sequence[int]) -> tuple[QPoly, QPoly]:
        """Specialize a and return (numerator, denominator) in q exactly."""
        if self.zero:
            return QPoly(), QPoly.one()
        sign = -1 if self.parity.evaluate(a) % 2 else 1
        e = self.qexp.evaluate(a)
        if e.denominator != 1:
            raise InternalInconsistency(f"non-integral q-exponent {e} at a={a}")
        num, den = {int(e): sign}, {0: 1}
        for index, exp in self.poch:
            val = index.evaluate(a)
            if val < 0:
                # the convention 1/(q)_{-k} = 0: a negative index in the
                # denominator kills the whole value; in a numerator it has
                # no finite meaning
                if exp < 0:
                    return QPoly(), QPoly.one()
                raise InternalInconsistency(
                    f"(q)_L with L = {index} negative at a={tuple(a)}"
                )
            side = num if exp > 0 else den
            for _ in range(abs(exp)):
                for t in range(1, val + 1):
                    _times_one_minus(side, t)
        return QPoly._of(num), QPoly._of(den)


def rewrite_pochhammer(e: AffineForm, f: AffineForm) -> QExpr:
    """Rewrite (q^e)_f in terms of (q)_L factors times a sign and a q-power.

    Three outcomes: a generically positive base gives a ratio of two (q)_L;
    a generically all-negative exponent window [e, e+f-1] gives the reflected
    ratio with an explicit sign and quadratic q-power; a window that
    generically contains zero gives the zero value.
    """
    n = f.n
    fs = f.generic_sign()
    if fs == 0:
        return QExpr.identity(n)
    if fs != 1:
        raise MixedSign(f"Pochhammer length f = {f} is not generically >= 0")
    se = e.generic_sign()
    top = e + f - 1
    st = top.generic_sign()
    if se == 1:
        return QExpr.build(
            n,
            AffineForm.const(n, 0),
            QuadForm.zero(n),
            Counter({top: 1, e - 1: -1}),
        )
    if st == -1:
        # prod over t in [e, e+f-1], all t < 0:
        # 1 - q^t = -q^t (1 - q^{-t}), hence the sign (-1)^f, the q-power
        # f*e + f(f-1)/2, and the factors (q)_{-e} / (q)_{-e-f}.
        qexp = QuadForm.from_product(f, e) + QuadForm.choose2(f)
        return QExpr.build(
            n,
            f,
            qexp,
            Counter({-e: 1, (-e) - f: -1}),
        )
    if se in (0, -1) and st in (0, 1):
        return QExpr.make_zero(n)
    raise MixedSign(
        f"cannot classify the window of (q^e)_f with e = {e}, f = {f}"
    )


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate geometric grids A_i = {q^alpha : c_i <= alpha <= c_i + d_i}."""

    lower: tuple[int, ...]
    degree: tuple[AffineForm, ...]

    @property
    def n(self) -> int:
        return len(self.lower)


@cache
def _pair_terms(n: int) -> tuple:
    """What a point's cleared product needs at n that no point changes:
    each pair's (i, j, a_j, a_i + a_j, a_i - 1), the sign exponent
    sum_{i<j} a_j, the doubled q-power sum_{i<j} binom(a_j + 1, 2), per j
    the factor g_j = sum_{i<j} (a_i + a_j) of alpha_j in the linear q-power,
    and the (q)_L exponents of the q-multinomial that each summand is
    divided by."""
    a = [AffineForm.param(n, i) for i in range(n)]
    pairs = tuple(
        (i, j, a[j], a[i] + a[j], a[i] - 1)
        for i in range(n)
        for j in range(i + 1, n)
    )
    qexp = sum(
        (QuadForm.choose2(aj + 1) for _, _, aj, _, _ in pairs),
        QuadForm.zero(n),
    )
    g = [AffineForm(0, (1,) * j + (j,) + (0,) * (n - j - 1)) for j in range(n)]
    multinomial = tuple(q_multinomial_symbols(n).items())
    return pairs, AffineForm(0, range(n)), qexp.twice, g, multinomial


def evaluate_product_at_point(alpha: Sequence[AffineForm]) -> QExpr:
    """The cleared q-Dyson product F at x_i = q^{alpha_i}, as a ``QExpr``.

    F multiplies each pair factor (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j} by the
    monomial x_j^{a_i} x_i^{a_j}.  With e = alpha_i - alpha_j, reflecting
    each binomial of the second half, 1 - q^{s-e} = -q^{s-e} (1 - q^{e-s}),
    joins the two halves into one window of consecutive binomials:

        (-1)^{a_j} q^{alpha_j (a_i + a_j) + binom(a_j + 1, 2)} (q^{e - a_j})_{a_i + a_j}

    So each pair i < j costs one Pochhammer rewrite.  The signs and the
    binomial q-powers do not depend on the point, and the linear q-powers
    sum to sum_j alpha_j g_j; they make one more factor of the point's
    single product.  This is the symbolic reference of ``point_summand``.
    """
    n = len(alpha)
    pairs, parity, twice, g, _ = _pair_terms(n)
    windows = []
    for i, j, aj, f, _ in pairs:
        window = rewrite_pochhammer(alpha[i] - alpha[j] - aj, f)
        if window.is_zero():
            return window
        windows.append(window)
    qexp = sum(
        (QuadForm.from_product(alpha[j], g[j]) for j in range(1, n)),
        QuadForm(n, twice),
    )
    return QExpr.product(n, [QExpr(n, parity, qexp, ()), *windows])


def phi_prime_at_point(i: int, alpha_i: AffineForm, grid: GridSpec) -> QExpr:
    """Derivative of the node polynomial of grid coordinate i at q^{alpha_i}.

    With j = alpha_i - c_i and d the grid degree, the product of the root
    differences is (-1)^j q^{c*d + binom(j,2) + j(d-j)} (q)_j (q)_{d-j}; the
    q^{c*d} factor comes from pulling q^{c} out of each of the d differences.
    """
    n = grid.n
    c = grid.lower[i]
    d = grid.degree[i]
    j = alpha_i - c
    for form in (j, d - j):
        if form.generic_sign() not in (1, 0):
            raise MixedSign(
                f"grid offset {form} is not generically in [0, d] at coordinate {i}"
            )
    qexp = (
        QuadForm.from_affine(d.scale(c))
        + QuadForm.choose2(j)
        + QuadForm.from_product(j, d - j)
    )
    # j and d-j may coincide; Counter then gives that index exponent 2
    return QExpr.build(n, j, qexp, Counter((j, d - j)))


def q_multinomial_symbols(n: int) -> Counter:
    """(q)_{a_1+..+a_n} over prod (q)_{a_i}, as a Pochhammer multiset."""
    if n < 1:
        raise ValueError("need n >= 1")
    c: Counter = Counter({AffineForm.total(n): 1})
    for i in range(n):
        c[AffineForm.param(n, i)] -= 1
    return Counter({k: v for k, v in c.items() if v})


# -- The engine's pass ---------------------------------------------------------
#
# A point's value is summed into three accumulators: the parity list, the
# list of doubled q-exponent coefficients on ``symforms._pairs(n)``, and a
# dict of (q)_L exponents keyed by L.  ``_normalize`` reads them.  No
# ``QExpr`` or ``QuadForm`` is built per pair.


def _new_index(poch: dict, v: AffineForm, exp: int) -> None:
    """Count a (q)_L factor as it is created; (q)_0 = 1 is dropped.  Each
    L that ``_window_into`` passes is generically >= 0 by its branch."""
    if any(v):
        poch[v] = poch.get(v, 0) + exp


def _window_into(e, f, top, parity: list, twice: list, poch: dict) -> bool:
    """Add (q^e)_f, f generically positive and top = e + f - 1, to the
    accumulators as ``rewrite_pochhammer`` rewrites it; False when the
    window generically holds 1 - q^0, so the value is zero."""
    se = e.generic_sign()
    if se == 1:  # e - 1 and top = e - 1 + f are generically >= 0, as e and f are > 0
        _new_index(poch, top, 1)
        _new_index(poch, e - 1, -1)
        return True
    st = top.generic_sign()
    if st == -1:
        # every t in [e, top] is < 0: the sign (-1)^f, the q-power
        # f*e + binom(f, 2) = f*(2e + f - 1)/2 and (q)_{-e} / (q)_{-e-f},
        # both indices generically >= 0, as top < 0 and e = top + 1 - f
        parity[:] = map(add, parity, f)
        _add_product(twice, f, e + top)
        _new_index(poch, -e, 1)
        _new_index(poch, -top - 1, -1)
        return True
    if se is None or st is None:
        raise MixedSign(
            f"cannot classify the window of (q^e)_f with e = {e}, f = {f}"
        )
    return False


def phi_prime_flat(i: int, alpha_i: AffineForm, grid: GridSpec) -> tuple:
    """``phi_prime_at_point`` as the (parity, doubled q-exponent, (q)_L
    exponents) that ``point_summand`` divides by."""
    c = grid.lower[i]
    d = grid.degree[i]
    j = alpha_i - c
    dj = d - j
    for v in (j, dj):
        if v.generic_sign() not in (1, 0):
            raise MixedSign(
                f"grid offset {v} is not generically in [0, d] at coordinate {i}"
            )
    n = grid.n
    twice = [2 * c * x for x in d] + [0] * (len(_pairs(n)) - n - 1)
    # binom(j, 2) + j(d - j) = j(2d - j - 1)/2
    _add_product(twice, j, d + dj - 1)
    # j and d-j may coincide; that index then gets exponent 2
    poch: Counter = Counter(v for v in (j, dj) if any(v))
    return j, tuple(twice), tuple(poch.items())


def point_summand(alpha: Sequence[AffineForm], phis: Sequence[tuple]) -> Summand:
    """The grid-sum term at the point alpha over the q-multinomial: the
    cleared product there (as ``evaluate_product_at_point``) divided by the
    phi' of each coordinate (``phi_prime_flat``), normalized."""
    n = len(alpha)
    pairs, parity, twice, g, _ = _pair_terms(n)
    parity, twice, poch = list(parity), list(twice), {}
    for i, j, aj, f, ai1 in pairs:
        # e and top by map, skipping the operators' checks in the hottest loop
        diff = tuple(map(sub, alpha[i], alpha[j]))
        e, top = _of(map(sub, diff, aj)), _of(map(add, diff, ai1))
        if not _window_into(e, f, top, parity, twice, poch):
            forms = ", ".join(map(str, alpha))
            raise InternalInconsistency(f"point alpha = ({forms}) evaluates to zero")
    for j in range(1, n):
        _add_product(twice, alpha[j], g[j], 2)
    for p_parity, p_twice, p_poch in phis:
        parity[:] = map(add, parity, p_parity)
        twice[:] = map(sub, twice, p_twice)
        for v, exp in p_poch:
            poch[v] = poch.get(v, 0) - exp
    return _normalize(n, parity, twice, poch)


def _normalize(
    n: int, parity: Sequence[int], twice: Sequence[int], poch: dict
) -> Summand:
    """Divide a value, given by its accumulators, by the q-multinomial
    coefficient and collapse the survivors into a factored rational
    function of q and z_1..z_n.

    The (q)_L factors cancel into atoms 1 - q^t z^v per coefficient vector v.
    With e_c the exponent of (q)_{c + v.a}, atom t has the net multiplicity
    sum_c e_c [t <= c], on the numerator side if positive and the denominator
    side if negative.  This telescopes: (q)_{m + v.a} / (q)_{d + v.a} gives
    [t <= m] - [t <= d] at each t, as does pairing the two sides in order.
    A numeric (q)_m (v = 0) takes (q)_0 = 1 as its partner.

    Any leftover contradicts the rationality of the coefficient and aborts:
    a group v != 0 whose exponents do not sum to zero, a numeric (q)_m in
    the numerator or with m < 0, a numerator atom with a z-exponent above 1,
    and an a-dependent sign or quadratic q-exponent.  Past those checks every
    numerator atom has a nonzero 0/1 vector v, so it is irreducible, and
    every atom's v is nonnegative (each (q)_L index is generically >= 0).  A
    denominator atom could then divide the numerator only by being one of
    its atoms, so no trial division can win: the numerator stays a product
    of atoms, through the combine and into the output.
    """
    *_, multinomial = _pair_terms(n)
    for index, exp in multinomial:
        poch[index] = poch.get(index, 0) - exp
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for index, exp in poch.items():
        if exp:
            c, vec = index[0], index[1:]
            group = groups.setdefault(vec, {})
            group[c] = group.get(c, 0) + exp
            if not any(vec):
                if c < 0 or exp > 0:
                    raise InternalInconsistency(
                        f"numeric factor (q)_{c} with exponent {exp} survives"
                    )
                group[0] = group.get(0, 0) - exp
    num_atoms, den_atoms = {}, {}
    for vec in sorted(groups):
        if net := sum(groups[vec].values()):
            raise InternalInconsistency(
                f"unmatched (q)_L factors with coefficient vector {vec}: "
                f"net exponent {net}"
            )
        # net is 0 here; over lo < t <= hi it is sum_{c >= t} e_c = -sum_{c <= lo} e_c
        constants = sorted(groups[vec].items())
        for (lo, exp), (hi, _) in zip(constants, constants[1:]):
            net -= exp
            if net > 0 and max(vec) > 1:
                raise InternalInconsistency(
                    f"numerator atom {_atom_of((lo + 1, *vec))} has a z-exponent above 1"
                )
            side = num_atoms if net > 0 else den_atoms
            for t in range(lo + 1, hi + 1) if net else ():
                side[_atom_of((t, *vec))] = abs(net)

    bit = parity_reduce(parity)
    if bit is None:
        raise InternalInconsistency(
            f"a-dependent sign survives normalization: {_of(parity)}"
        )
    return Summand(
        -1 if bit else 1,
        quad_finalize(QuadForm(n, tuple(twice))),
        _atom_tuple(num_atoms),
        _atom_tuple(den_atoms),
    )


def normalize_to_rational(expr: QExpr, n: int) -> Summand:
    """A nonzero ``QExpr`` over the q-multinomial coefficient, as a
    ``Summand``: its parity, doubled q-exponent and (q)_L exponents go
    through the engine's ``_normalize`` as they are."""
    if expr.is_zero():
        raise InternalInconsistency("cannot normalize the zero q-expression")
    return _normalize(n, expr.parity, expr.qexp.twice, dict(expr.poch))


def q_pochhammer_numeric(e: int, f: int) -> QPoly:
    """(q^e)_f = prod_{t=0}^{f-1} (1 - q^{t+e}), Laurent in q when e < 0;
    zero exactly when the window [e, e+f-1] holds the factor 1 - q^0."""
    if f < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    if e <= 0 < e + f:
        return QPoly()
    terms = {0: 1}
    for t in range(e, e + f):
        _times_one_minus(terms, t)
    return QPoly._of(terms)


def q_multinomial_numeric(a: Sequence[int]) -> QPoly:
    """(q)_{a_1+..+a_n} / prod (q)_{a_i}, computed once per a; do not mutate it."""
    return _q_multinomial(tuple(a))


@cache
def _q_multinomial(a: tuple[int, ...]) -> QPoly:
    """(q)_{sum a} built in place, then divided by each 1 - q^t of each
    (q)_{a_i}; every division must leave remainder zero."""
    if any(x < 0 for x in a):
        raise ValueError("multinomial arguments must be nonnegative")
    terms = {0: 1}
    for t in range(1, sum(a) + 1):
        _times_one_minus(terms, t)
    try:
        for x in a:
            for t in range(1, x + 1):
                _divide_one_minus(terms, t)
    except ArithmeticError:
        raise InternalInconsistency("q-multinomial division was inexact") from None
    return QPoly._of(terms)
